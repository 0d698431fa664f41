from dataclasses import fields
from pathlib import Path

import pytest

from invopt.catalog import (
    CSV_HEADER,
    Catalog,
    ProductSpec,
    ReconciliationWarning,
    load_catalog,
    reconcile,
    write_catalog,
    _FIELD_BY_COLUMN,
)
from invopt.errors import ParseError, ValidationError

from conftest import make_products


def test_load_table1(table1_path):
    cat = load_catalog(table1_path)
    assert [p.name for p in cat] == ["PrA", "PrB", "PrC", "PrD"]
    pra = cat.get("PrA")
    assert pra.purchase_cost == 12
    assert pra.lead_time == 9
    assert pra.order_probability == 0.76
    assert pra.starting_stock == 2750
    assert pra.daily_order_size_mean == 103.50
    assert cat.get("PrD").selling_price == 68


def test_load_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValidationError, match="empty catalog"):
        load_catalog(str(path))


def test_load_header_only(tmp_path, table1_path):
    header = Path(table1_path).read_text().splitlines(keepends=True)[0]
    path = tmp_path / "header.csv"
    path.write_text(header)
    with pytest.raises(ValidationError, match="empty catalog"):
        load_catalog(str(path))


def test_load_bad_probability(tmp_path, table1_path):
    text = Path(table1_path).read_text().replace("0.76", "1.3")
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValidationError) as err:
        load_catalog(str(path))
    assert "PrA" in str(err.value)
    assert "order_probability" in str(err.value)


def test_load_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("name,cost\nPrA,1\n")
    with pytest.raises(ParseError, match="line 1"):
        load_catalog(str(path))


def test_load_non_numeric_cell(tmp_path, table1_path):
    text = Path(table1_path).read_text().replace("37.32", "n/a")
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match="line 2"):
        load_catalog(str(path))


@pytest.mark.parametrize("raw", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("column", CSV_HEADER.split(",")[1:])
def test_load_non_finite_cell(tmp_path, table1_path, column, raw):
    lines = Path(table1_path).read_text().splitlines()
    cells = lines[2].split(",")
    cells[CSV_HEADER.split(",").index(column)] = raw
    lines[2] = ",".join(cells)
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match=f"line 3: column '{column}'"):
        load_catalog(str(path))


def test_load_wrong_column_count(tmp_path, table1_path):
    lines = Path(table1_path).read_text().splitlines()
    lines[2] = lines[2] + ",extra"
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="line 3"):
        load_catalog(str(path))


def test_roundtrip_write_then_load(tmp_path, table1_path):
    cat = load_catalog(table1_path)
    out = tmp_path / "copy.csv"
    write_catalog(cat, str(out))
    again = load_catalog(str(out))
    for a, b in zip(cat, again):
        assert a == b  # shortest-repr serialization round-trips exactly


def test_every_field_has_one_column():
    mapped = sorted(_FIELD_BY_COLUMN.values())
    assert mapped == sorted(f.name for f in fields(ProductSpec))
    assert CSV_HEADER.split(",") == list(_FIELD_BY_COLUMN)


def test_duplicate_names_rejected(products):
    with pytest.raises(ValidationError, match="duplicate"):
        Catalog((products[0], products[0]))


def test_invalid_spec_unconstructible():
    base = make_products()[0].__dict__ | {}
    for field, bad in [
        ("selling_price", 0.0),
        ("purchase_cost", -1.0),
        ("order_cost", 0.0),
        ("holding_cost", 0.0),
        ("daily_order_size_std", -0.1),
        ("order_probability", 1.01),
        ("lead_time", -1),
        ("starting_stock", -5),
        ("annual_demand", 0.0),
    ]:
        kwargs = dict(base)
        kwargs[field] = bad
        with pytest.raises(ValidationError, match=field):
            ProductSpec(**kwargs)


def test_reconcile_pra(pra):
    report = reconcile(pra)
    assert report.implied_annual_demand == pytest.approx(365 * 0.76 * 103.50)
    assert report.implied_annual_demand == pytest.approx(28710.9, abs=0.05)
    assert report.relative_error == pytest.approx(0.001427, abs=1e-4)


def test_reconcile_prd(products):
    report = reconcile(products[3])
    assert report.implied_annual_demand == pytest.approx(12597.5, abs=0.1)
    assert report.relative_error == pytest.approx(0.0351, abs=1e-3)


def test_reconcile_zero_probability():
    spec_kwargs = make_products()[0].__dict__ | {"order_probability": 0.0}
    with pytest.warns(ReconciliationWarning):
        spec = ProductSpec(**spec_kwargs)
    report = reconcile(spec)
    assert report.implied_annual_demand == 0.0
    assert report.relative_error == 1.0


def test_reconcile_is_deterministic(pra):
    assert reconcile(pra) == reconcile(pra)


def test_table1_reconciles_within_five_percent(catalog):
    for p in catalog:
        assert reconcile(p).relative_error <= 0.05
