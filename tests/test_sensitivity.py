import numpy as np
import pytest

from invopt import simengine
from invopt.catalog import Catalog
from invopt.errors import ConfigError
from invopt.sensitivity import (
    BaselineOutputs,
    SensitivitySpec,
    policy_safety_stock,
    sensitivity_linear,
    sensitivity_resim,
)
from invopt.simengine import (
    ContinuousReview,
    PeriodicReview,
    SimConfig,
    catalog_cases,
    replicate,
)
from invopt.stochastic import DemandModel

from conftest import count_engine_calls


def demand_for(product):
    return DemandModel.from_moments(
        product.order_probability, product.daily_order_size_mean, product.daily_order_size_std
    )


@pytest.fixture()
def baseline():
    return {
        "PrA": BaselineOutputs(profit=100_000.0, profit_std=5_000.0,
                               lost_orders=0.07, safety_stock=61.0),
        "PrB": BaselineOutputs(profit=372_000.0, profit_std=1_400.0,
                               lost_orders=0.01, safety_stock=43.0),
    }


class TestLinearMode:
    def test_zero_delta_identity(self, baseline):
        rows = sensitivity_linear(baseline, SensitivitySpec("oup", (0.0,)))
        for row in rows:
            base = baseline[row.product]
            assert row.profit == base.profit
            assert row.profit_std == base.profit_std
            assert row.lost_orders == base.lost_orders

    def test_ten_percent_increase(self, baseline):
        rows = sensitivity_linear(baseline, SensitivitySpec("oup", (0.10,)))
        by_product = {r.product: r for r in rows}
        assert by_product["PrA"].profit == pytest.approx(110_000.0)

    def test_five_percent_decrease_all_products(self, baseline):
        rows = sensitivity_linear(baseline, SensitivitySpec("expected_profit", (-0.05,)))
        for row in rows:
            assert row.profit == pytest.approx(0.95 * baseline[row.product].profit)

    def test_involution(self, baseline):
        delta = 0.10
        rows = sensitivity_linear(baseline, SensitivitySpec("oup", (delta,)))
        for row in rows:
            recovered = row.profit / (1.0 + delta)
            assert recovered == pytest.approx(baseline[row.product].profit, abs=1e-12)

    def test_nonlinear_outputs_marked(self, baseline):
        rows = sensitivity_linear(baseline, SensitivitySpec("oup", (0.10,)))
        for row in rows:
            assert "profit_std" in row.needs_resim
            assert "lost_orders" in row.needs_resim
            assert row.profit_std == baseline[row.product].profit_std

    def test_perturbing_nonlinear_variable_copies_profit(self, baseline):
        rows = sensitivity_linear(baseline, SensitivitySpec("profit_std", (0.10,)))
        for row in rows:
            assert row.profit == baseline[row.product].profit
            assert "profit" in row.needs_resim

    def test_rows_cover_deltas_times_products(self, baseline):
        spec = SensitivitySpec("oup", (0.10, -0.05, 0.25))
        rows = sensitivity_linear(baseline, spec)
        combos = {(r.delta, r.product) for r in rows}
        assert combos == {(d, p) for d in spec.deltas for p in baseline}
        # fixed emission order: delta, then product
        assert [r.delta for r in rows] == [0.10, 0.10, -0.05, -0.05, 0.25, 0.25]

    def test_unknown_variable_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            SensitivitySpec("price_of_tea", (0.1,))

    def test_bad_deltas_rejected(self):
        with pytest.raises(ConfigError):
            SensitivitySpec("oup", ())
        with pytest.raises(ConfigError):
            SensitivitySpec("oup", (-1.0,))
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigError, match="finite"):
                SensitivitySpec("oup", (0.1, bad))


    def test_several_specs_concatenate(self, baseline):
        specs = (SensitivitySpec("oup", (0.1, -0.05)), SensitivitySpec("profit_std", (0.2,)),
                 SensitivitySpec("safety_stock", (0.3,)))
        rows = sensitivity_linear(baseline, *specs)
        assert rows == [row for spec in specs for row in sensitivity_linear(baseline, spec)]
        assert sensitivity_linear(baseline) == []


class TestResimMode:
    def test_zero_delta_reproduces_baseline_exactly(self, products):
        pra = products[0]
        cat = Catalog((pra,))
        cfg = SimConfig(horizon=200, replications=20, seed=5)
        params = {"PrA": PeriodicReview(30, 2071)}
        base_stats = replicate(pra, demand_for(pra), params["PrA"], cfg)
        rows = sensitivity_resim(catalog_cases(cat, params), cfg, SensitivitySpec("oup", (0.0,)))
        assert rows[0].profit == base_stats.mean_profit
        assert rows[0].profit_std == base_stats.profit_std
        assert rows[0].lost_orders == base_stats.lost_order_fraction

    def test_oup_increase_sells_at_least_baseline(self, products):
        pra = products[0]
        cat = Catalog((pra,))
        cfg = SimConfig(horizon=365, replications=20, seed=6)
        params = {"PrA": PeriodicReview(30, 2000)}
        base = replicate(pra, demand_for(pra), params["PrA"], cfg)
        rows = sensitivity_resim(catalog_cases(cat, params), cfg, SensitivitySpec("oup", (0.10,)))
        assert rows[0].lost_orders <= base.lost_order_fraction

    def test_reorder_point_decrease_loses_at_least_baseline(self, products):
        pra = products[0]
        cat = Catalog((pra,))
        cfg = SimConfig(horizon=365, replications=20, seed=7)
        params = {"PrA": ContinuousReview(900, 1700)}
        base = replicate(pra, demand_for(pra), params["PrA"], cfg)
        rows = sensitivity_resim(
            catalog_cases(cat, params), cfg, SensitivitySpec("reorder_point", (-0.05,))
        )
        assert rows[0].lost_orders >= base.lost_order_fraction

    def test_rows_cover_cartesian_product(self, catalog):
        cfg = SimConfig(horizon=60, replications=4, seed=8)
        params = {p.name: PeriodicReview(30, 3000) for p in catalog}
        rows = sensitivity_resim(
            catalog_cases(catalog, params), cfg, SensitivitySpec("oup", (0.10, -0.05))
        )
        combos = [(r.delta, r.product) for r in rows]
        assert combos == [(d, p.name) for d in (0.10, -0.05) for p in catalog]

    def test_nonpositive_perturbation_rejected(self, products):
        pra = products[0]
        cat = Catalog((pra,))
        cfg = SimConfig(horizon=30, replications=2, seed=9)
        params = {"PrA": ContinuousReview(1, 1700)}
        with pytest.raises(ConfigError, match="positive"):
            sensitivity_resim(
                catalog_cases(cat, params), cfg, SensitivitySpec("reorder_point", (-0.9,))
            )

    def test_variable_policy_mismatch_rejected(self, products):
        pra = products[0]
        cat = Catalog((pra,))
        cfg = SimConfig(horizon=30, replications=2, seed=10)
        with pytest.raises(ConfigError):
            sensitivity_resim(
                catalog_cases(cat, {"PrA": ContinuousReview(900, 1700)}), cfg,
                SensitivitySpec("oup", (0.1,)),
            )

    def test_missing_product_params_rejected(self, catalog):
        cfg = SimConfig(horizon=30, replications=2, seed=11)
        with pytest.raises(ConfigError, match="missing"):
            sensitivity_resim(
                catalog_cases(catalog, {"PrA": PeriodicReview(30, 2000)}), cfg,
                SensitivitySpec("oup", (0.1,)),
            )

    def test_several_specs_in_one_engine_call(self, catalog, monkeypatch):
        cfg = SimConfig(horizon=90, replications=5, seed=13)
        cases = catalog_cases(catalog, {p.name: ContinuousReview(900, 1700) for p in catalog})
        specs = (SensitivitySpec("reorder_point", (0.1, -0.05)),
                 SensitivitySpec("order_quantity", (0.2,)))
        one_at_a_time = [row for spec in specs
                         for row in sensitivity_resim(cases, cfg, spec)]
        calls = count_engine_calls(monkeypatch, simengine)
        assert sensitivity_resim(cases, cfg, *specs) == one_at_a_time
        assert calls == [3 * len(catalog) * 5]
        assert sensitivity_resim(cases, cfg) == []

    def test_linear_only_variable_rejected_in_resim(self, catalog):
        cfg = SimConfig(horizon=30, replications=2, seed=12)
        params = {p.name: PeriodicReview(30, 3000) for p in catalog}
        with pytest.raises(ConfigError, match="resim"):
            sensitivity_resim(
                catalog_cases(catalog, params), cfg,
                SensitivitySpec("expected_profit", (0.1,)),
            )


class TestPolicySafetyStock:
    def test_continuous_review(self, pra):
        assert policy_safety_stock(pra, ContinuousReview(905, 1440)) == pytest.approx(200.0)

    def test_floor_at_zero(self, pra):
        assert policy_safety_stock(pra, ContinuousReview(100, 1440)) == 0.0

    def test_periodic_review(self, pra):
        daily = 0.76 * 103.50
        expected = max(2500 - daily * 39, 0.0)
        assert policy_safety_stock(pra, PeriodicReview(30, 2500)) == pytest.approx(expected)
