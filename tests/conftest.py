from pathlib import Path

import pytest

from invopt.catalog import Catalog, ProductSpec

DATA_DIR = Path(__file__).parent / "data"


def make_products() -> tuple[ProductSpec, ...]:
    return (
        ProductSpec("PrA", 12.0, 9, 0.57, 16.10, 2750, 103.50, 37.32, 1000.0, 20.0, 0.76, 705.0, 28670.0),
        ProductSpec("PrB", 7.0, 6, 0.05, 8.60, 22500, 648.55, 26.45, 1200.0, 20.0, 1.00, 3891.0, 237370.0),
        ProductSpec("PrC", 6.0, 15, 0.53, 10.20, 5200, 201.68, 31.08, 1000.0, 20.0, 0.70, 2266.0, 51831.0),
        ProductSpec("PrD", 37.0, 12, 1.05, 68.0, 1400, 150.06, 3.21, 1200.0, 20.0, 0.23, 785.0, 13056.0),
    )


@pytest.fixture(scope="session")
def products() -> tuple[ProductSpec, ...]:
    return make_products()


@pytest.fixture(scope="session")
def catalog(products) -> Catalog:
    return Catalog(products)


@pytest.fixture(scope="session")
def pra(products) -> ProductSpec:
    return products[0]


@pytest.fixture()
def table1_path() -> str:
    return str(DATA_DIR / "table1.csv")


def count_engine_calls(monkeypatch, module) -> list[int]:
    """Record the run count of every ``_batch_over_reps`` call made through
    module: the runs of all the cases it returns."""
    calls = []
    engine = module._batch_over_reps

    def counted(*args, **kwargs):
        result = engine(*args, **kwargs)
        calls.append(sum(len(runs.profit) for runs in result))
        return result

    monkeypatch.setattr(module, "_batch_over_reps", counted)
    return calls
