import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from invopt.catalog import Catalog, ProductSpec, load_catalog
from invopt.errors import ConfigError, DomainError
from invopt.simengine import (
    BACKORDER,
    MAX_POLICY_UNITS,
    ContinuousReview,
    PeriodicReview,
    RunSamples,
    SimConfig,
    _batch_over_reps,
    catalog_cases,
    compare_policies,
    demand_model,
    replicate,
    replication_samples,
    simulate_cases,
    simulate_once,
    sweep_oup,
)
from invopt import objectives, simengine
from invopt.objectives import ProfitObjective
from invopt.stochastic import DemandModel, MeetOrDelay

from conftest import count_engine_calls



def pra_model():
    return DemandModel.from_moments(0.76, 103.50, 37.32)


def small_cfg(**kwargs) -> SimConfig:
    defaults = dict(horizon=365, replications=50, seed=7)
    defaults.update(kwargs)
    return SimConfig(**defaults)


def run_once(product, policy, cfg, stream_id=0, model=None):
    model = model or DemandModel.from_moments(
        product.order_probability, product.daily_order_size_mean, product.daily_order_size_std
    )
    return simulate_once(product, model, policy, cfg, stream_id)


class TestSimulateOnce:
    def test_no_demand_flat_stock(self, pra):
        model = DemandModel.from_moments(0.0, 100.0, 10.0)
        cfg = small_cfg()
        run = simulate_once(pra, model, ContinuousReview(100, 500), cfg)
        assert all(r.demand == 0 and r.order_placed == 0 for r in run.records)
        assert run.revenue[0] == 0.0
        assert run.ordering_costs[0] == 0.0
        # only holding cost on the untouched starting stock
        expected_holding = 365 * pra.starting_stock * pra.holding_cost / 365
        assert run.holding_costs[0] == pytest.approx(expected_holding)
        assert run.profit[0] == pytest.approx(-expected_holding)

    def test_periodic_review_places_12_orders(self, pra):
        records = run_once(pra, PeriodicReview(30, 2071), small_cfg(seed=42)).records
        assert sum(1 for r in records if r.order_placed > 0) == 12

    def test_continuous_review_order_count_band(self, pra):
        counts = []
        for seed in range(100):
            records = run_once(pra, ContinuousReview(812, 2002), small_cfg(seed=seed)).records
            counts.append(sum(1 for r in records if r.order_placed > 0))
        assert all(11 <= c <= 15 for c in counts)
        assert np.mean(counts) == pytest.approx(13, abs=2)

    def test_ledger_identity(self, pra):
        run = run_once(pra, PeriodicReview(30, 2071), small_cfg())
        assert run.profit[0] == (
            run.revenue[0] - run.product_costs[0] - run.ordering_costs[0] - run.holding_costs[0]
        )

    @pytest.mark.parametrize("policy", [PeriodicReview(30, 2071), ContinuousReview(870, 1440)])
    def test_prices_only_value_the_ledgers(self, pra, policy):
        # backorders, so that late-served units are valued too
        cfg = small_cfg(replications=20, unmet_demand=BACKORDER)
        prices = dict(selling_price=21.5, purchase_cost=9.25, order_cost=640.0, holding_cost=3.5)
        repriced = replace(pra, **prices)
        [base] = simulate_cases([(pra, demand_model(pra), policy)], cfg)
        [runs] = simulate_cases([(repriced, demand_model(repriced), policy)], cfg)
        assert runs.product is repriced
        for f in fields(RunSamples)[1:-1]:  # the ten ledgers, between product and records
            assert getattr(runs, f.name).dtype == np.int64, f.name
            np.testing.assert_array_equal(getattr(runs, f.name), getattr(base, f.name), f.name)
        assert runs.served_late_units.any()
        np.testing.assert_array_equal(runs.revenue,
                                      (runs.sold_units + runs.served_late_units) * 21.5)
        np.testing.assert_array_equal(runs.product_costs, runs.ordered_units * 9.25)
        np.testing.assert_array_equal(runs.ordering_costs, runs.orders_placed * 640.0)
        np.testing.assert_array_equal(runs.holding_costs, runs.holding_unit_days * (3.5 / 365))
        np.testing.assert_array_equal(runs.profit, runs.revenue - runs.product_costs
                                      - runs.ordering_costs - runs.holding_costs)

    def test_day_records_consistent(self, pra):
        records = run_once(pra, ContinuousReview(900, 1700), small_cfg()).records
        assert [r.day for r in records] == list(range(1, 366))
        for r in records:
            assert r.sold + r.unmet == r.demand
            assert r.on_hand_end >= 0

    def test_conservation_lost_sales(self, pra):
        records = run_once(pra, ContinuousReview(900, 1700), small_cfg()).records
        received = sum(r.receipt for r in records)
        sold = sum(r.sold for r in records)
        assert pra.starting_stock + received - sold == records[-1].on_hand_end


class TestReplicate:
    def test_single_replication_equals_simulate_once(self, pra):
        cfg = small_cfg(replications=1)
        policy = PeriodicReview(30, 2071)
        run = run_once(pra, policy, cfg, stream_id=0)
        stats = replicate(pra, pra_model(), policy, cfg)
        assert stats.mean_profit == run.profit[0]
        assert stats.profit_std == 0.0
        assert stats.n == 1

    def test_deterministic_demand_zero_std(self, pra):
        model = DemandModel.from_moments(1.0, 80.0, 0.0)
        stats = replicate(pra, model, PeriodicReview(30, 2500), small_cfg(replications=20))
        assert stats.profit_std == 0.0

    def test_seed_determinism(self, pra):
        cfg = small_cfg(replications=30)
        a = replicate(pra, pra_model(), PeriodicReview(30, 2071), cfg)
        b = replicate(pra, pra_model(), PeriodicReview(30, 2071), cfg)
        assert a == b

    def test_fractions_within_bounds(self, pra):
        stats = replicate(pra, pra_model(), PeriodicReview(30, 1500), small_cfg())
        assert 0.0 <= stats.lost_order_fraction <= 1.0
        assert 0.0 <= stats.fill_rate <= 1.0
        assert stats.fill_rate == pytest.approx(1.0 - stats.lost_order_fraction)

    def test_monthly_order_up_to_profit_band(self, pra):
        # mean profit for the 30-day / 2071-unit policy lands within ±15%
        # of the 87,863 reference value (demand model reconstruction)
        cfg = SimConfig(horizon=365, replications=1_000, seed=42)
        stats = replicate(pra, pra_model(), PeriodicReview(30, 2071), cfg)
        assert 0.85 * 87_863 <= stats.mean_profit <= 1.15 * 87_863


class TestBackorderMode:
    def test_huge_oup_no_lost_orders(self, pra):
        cfg = small_cfg(replications=20, unmet_demand=BACKORDER)
        stats = replicate(pra, pra_model(), PeriodicReview(30, 50_000), cfg)
        assert stats.lost_order_fraction == 0.0

    def test_backorders_recovered_as_revenue(self, pra):
        cfg = small_cfg(replications=1, unmet_demand=BACKORDER, seed=3)
        lost_cfg = small_cfg(replications=1, seed=3)
        policy = PeriodicReview(30, 2071)
        with_queue = simulate_once(pra, pra_model(), policy, cfg)
        lost = simulate_once(pra, pra_model(), policy, lost_cfg)
        assert with_queue.revenue[0] >= lost.revenue[0]


class TestSweep:
    def test_single_point_range(self, pra):
        out = sweep_oup(pra, pra_model(), small_cfg(replications=10), (2000, 2000))
        assert len(out) == 1
        assert out[0][0] == 2000

    def test_crn_makes_sweep_reproducible(self, pra):
        cfg = small_cfg(replications=25)
        a = sweep_oup(pra, pra_model(), cfg, (1500, 2500), step=500)
        b = sweep_oup(pra, pra_model(), cfg, (1500, 2500), step=500)
        assert a == b

    def test_widening_never_decreases_best(self, pra):
        cfg = small_cfg(replications=25)
        narrow = sweep_oup(pra, pra_model(), cfg, (1800, 2400), step=200)
        wide = sweep_oup(pra, pra_model(), cfg, (1000, 3000), step=200)
        best = lambda rows: max(s.mean_profit for _, s in rows)
        assert best(wide) >= best(narrow)

    def test_point_stats_match_standalone_replicate(self, pra):
        for unmet in ("lost_sales", BACKORDER):
            cfg = small_cfg(replications=25, unmet_demand=unmet)
            rows = sweep_oup(pra, pra_model(), cfg, (1600, 2400), step=200)
            assert [oup for oup, _ in rows] == [1600, 1800, 2000, 2200, 2400]
            for oup, stats in rows:
                alone = replicate(pra, pra_model(), PeriodicReview(30, oup), cfg)
                assert stats == alone

    def test_bad_ranges_rejected(self, pra):
        with pytest.raises(ConfigError):
            sweep_oup(pra, pra_model(), small_cfg(), (2000, 1000))
        with pytest.raises(ConfigError):
            sweep_oup(pra, pra_model(), small_cfg(), (1000, 2000), step=0)
        with pytest.raises(DomainError):
            sweep_oup(pra, pra_model(), small_cfg(), (1000, 2000), review_period=0)
        with pytest.raises(DomainError):
            sweep_oup(pra, pra_model(), small_cfg(), (1000, MAX_POLICY_UNITS + 1))

    def test_memory_bounded_by_distinct_replications(self, pra):
        # 41 levels x 500 replications share 500 demand rows; the engine
        # must not copy them once per level (that alone is ~120 MB)
        cfg = SimConfig(horizon=365, replications=500, seed=1)
        tracemalloc.start()
        try:
            rows = sweep_oup(pra, pra_model(), cfg, (1000, 3000), step=50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rows) == 41
        assert peak < 30 * 2**20


class TestComparePolicies:
    def test_identical_policies_zero_difference(self, catalog):
        cfg = small_cfg(replications=10)
        same = {p.name: ContinuousReview(1000, 2000) for p in catalog}
        cmp = compare_policies(catalog_cases(catalog, same), catalog_cases(catalog, same), cfg)
        assert cmp.relative_difference == 0.0
        assert cmp.total_periodic_profit == cmp.total_continuous_profit

    def test_deterministic_across_calls(self, catalog):
        cfg = small_cfg(replications=10)
        pq = catalog_cases(catalog, {p.name: PeriodicReview(30, 3000) for p in catalog})
        rq = catalog_cases(catalog, {p.name: ContinuousReview(1000, 2000) for p in catalog})
        cmp1 = compare_policies(pq, rq, cfg)
        cmp2 = compare_policies(pq, rq, cfg)
        assert cmp1 == cmp2

    def test_single_product_totals(self, products):
        cat = Catalog((products[0],))
        cfg = small_cfg(replications=10)
        cmp = compare_policies(
            catalog_cases(cat, {"PrA": PeriodicReview(30, 2071)}),
            catalog_cases(cat, {"PrA": ContinuousReview(870, 1440)}),
            cfg,
        )
        pq_stats, rq_stats = cmp.per_product["PrA"]
        assert cmp.total_periodic_profit == pq_stats.mean_profit
        assert cmp.total_continuous_profit == rq_stats.mean_profit

    def test_missing_params_rejected(self, catalog):
        cfg = small_cfg(replications=5)
        pq = {p.name: PeriodicReview(30, 3000) for p in catalog}
        rq = {p.name: ContinuousReview(1000, 2000) for p in list(catalog)[:-1]}
        with pytest.raises(ConfigError, match="PrD"):
            compare_policies(catalog_cases(catalog, pq), catalog_cases(catalog, rq), cfg)


    @pytest.mark.parametrize("rq_side", ["missing", "extra", "reordered", "renamed", "twice"])
    def test_sides_with_differing_products_rejected(self, monkeypatch, catalog, products,
                                                    rq_side):
        calls = count_engine_calls(monkeypatch, simengine)
        cfg = small_cfg(replications=5)
        pq = catalog_cases(catalog, {p.name: PeriodicReview(30, 3000) for p in catalog})
        rq = catalog_cases(catalog, {p.name: ContinuousReview(1000, 2000) for p in catalog})
        if rq_side == "missing":
            rq = rq[:-1]
        elif rq_side == "extra":
            rq = rq + rq[:1]
        elif rq_side == "reordered":
            rq = rq[::-1]
        elif rq_side == "twice":
            pq, rq = pq + pq[:1], rq + rq[:1]
        else:
            other = Catalog((products[0], *[replace(p, name=p.name + "x") for p in products[1:]]))
            rq = catalog_cases(other, {p.name: ContinuousReview(1000, 2000) for p in other})
        with pytest.raises(ConfigError, match="must name each product once"):
            compare_policies(pq, rq, cfg)
        assert calls == []


class TestMixedBatch:
    """One batch over cases of both policy kinds, two products and two review
    periods equals each case simulated on its own, run for run."""

    @staticmethod
    def cases(products):
        pra, prc = products[0], products[2]  # lead times 9 and 15: ring sizes differ
        return [
            (pra, demand_model(pra), PeriodicReview(30, 2071)),
            (prc, demand_model(prc), PeriodicReview(20, 4154)),
            (pra, demand_model(pra), ContinuousReview(870, 1440)),
            (prc, demand_model(prc), ContinuousReview(2580, 2570)),
        ]

    @staticmethod
    def assert_same_runs(a, b, order=slice(None)):
        """a's runs equal b's runs taken in the given order."""
        for f in fields(RunSamples):
            if isinstance(getattr(a, f.name), np.ndarray):
                np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name)[order],
                                              f.name)

    modes = pytest.mark.parametrize("mode", [
        {}, {"unmet_demand": BACKORDER}, {"lead_time_mode": MeetOrDelay(0.6, 1.5)},
    ], ids=["lost_sales", "backorder", "meet_or_delay"])

    @modes
    def test_equals_per_case_replication_samples(self, products, mode):
        cfg = small_cfg(replications=12, **mode)
        cases = self.cases(products)
        parts = simulate_cases(cases, cfg)
        assert len(parts) == len(cases)
        for case, part in zip(cases, parts):
            self.assert_same_runs(part, replication_samples(*case, cfg))

    def test_run_order_does_not_matter(self, products):
        cfg = small_cfg(replications=6, lead_time_mode=MeetOrDelay(0.5, 1.5))
        cases = self.cases(products)
        ids = np.random.default_rng(3).permutation(6)
        shuffled = _batch_over_reps(cases, cfg, ids)
        in_order = simulate_cases(cases, cfg)
        assert len(shuffled) == len(in_order) == len(cases)
        for case_shuffled, case_in_order in zip(shuffled, in_order):
            self.assert_same_runs(case_shuffled, case_in_order, ids)  # run j is stream id ids[j]

    @modes
    def test_records_are_first_case_replication_zero(self, products, mode):
        cfg = small_cfg(replications=5, horizon=90, **mode)
        cases = self.cases(products)[::-1]  # case 0 under continuous review
        assert [part.records for part in simulate_cases(cases, cfg)] == [()] * len(cases)
        batch = simulate_cases(cases, cfg, record=True)
        assert len(batch) == len(cases)
        for case, part in zip(cases, batch):
            assert len(part.records) == cfg.horizon
            assert part.records == simulate_once(*case, cfg).records


class TestStreamsPerCall:
    """One demand stream per distinct replication id per engine call, and the
    runs of a batch do not depend on which other ids or models share it."""

    @staticmethod
    def count_streams(monkeypatch) -> list[tuple]:
        built = []
        real = simengine.RngStream

        def counted(seed, stream_id=0, path=()):
            built.append((seed, stream_id, path))
            return real(seed, stream_id, path)

        monkeypatch.setattr(simengine, "RngStream", counted)
        return built

    @pytest.mark.parametrize("lead_time_mode, lanes", [
        (None, (simengine.DEMAND_LANE,)),
        (MeetOrDelay(0.6, 1.5), (simengine.DEMAND_LANE, simengine.LEAD_LANE)),
    ], ids=["deterministic", "meet_or_delay"])
    def test_one_stream_per_id_and_lane(self, monkeypatch, catalog, lead_time_mode, lanes):
        n = 2 * simengine.SAMPLE_CHUNK + 7  # three sampling chunks
        mode = {"lead_time_mode": lead_time_mode} if lead_time_mode else {}
        cfg = small_cfg(horizon=20, replications=n, **mode)
        cases = [(p, demand_model(p), policy) for p in catalog
                 for policy in (PeriodicReview(30, 3000), ContinuousReview(1000, 2000))]
        built = self.count_streams(monkeypatch)
        simulate_cases(cases, cfg)
        assert len({d for _, d, _ in cases}) == len(catalog)
        assert sorted(built) == sorted((7, i, (lane,)) for lane in lanes for i in range(n))

    @pytest.mark.parametrize("mode", [{}, {"lead_time_mode": MeetOrDelay(0.5, 2.0)}],
                             ids=["deterministic", "meet_or_delay"])
    def test_overlapping_id_sets_equal_single_case_runs(self, products, mode):
        pra, prc = products[0], products[2]
        cases = [(pra, demand_model(pra), ContinuousReview(870, 1440)),
                 (prc, demand_model(prc), PeriodicReview(20, 4154)),
                 (pra, DemandModel.from_moments(0.9, 80.0, 0.0), PeriodicReview(30, 2071))]
        chunk = simengine.SAMPLE_CHUNK
        # unsorted, not contiguous, and across SAMPLE_CHUNK boundaries
        rep_ids = [3 * chunk, 0, 3, chunk - 1, chunk, chunk + 1, 2 * chunk + 5, 3 * chunk + 2]
        cfg = small_cfg(horizon=120, **mode)
        batch = _batch_over_reps(cases, cfg, rep_ids)
        assert len(batch) == len(cases)
        for c, (case, runs) in enumerate(zip(cases, batch)):
            assert len(runs.profit) == len(rep_ids)
            for j, rep in enumerate(rep_ids):
                single = simulate_once(*case, cfg, rep)
                for f in fields(RunSamples):
                    if isinstance(getattr(runs, f.name), np.ndarray):
                        assert getattr(runs, f.name)[j] == getattr(single, f.name)[0], (f.name, c, j)


class TestBlocks:
    """The engine samples and advances the runs of one block of replication
    ids at a time; the blocks change no value and bound the memory."""

    @pytest.mark.parametrize("mode", [
        {}, {"unmet_demand": BACKORDER}, {"lead_time_mode": MeetOrDelay(0.6, 1.5)},
        {"unmet_demand": BACKORDER, "lead_time_mode": MeetOrDelay(0.6, 1.5)},
    ], ids=["lost_sales", "backorder", "meet_or_delay", "backorder_meet_or_delay"])
    def test_blocks_are_bit_identical(self, monkeypatch, products, mode):
        cfg = small_cfg(horizon=120, replications=30, **mode)
        cases = TestMixedBatch.cases(products)  # two demand models, both policy kinds
        rep_ids = np.random.default_rng(5).permutation(cfg.replications)
        monkeypatch.setattr(simengine, "BLOCK_ROWS", 10**9)
        one_block = _batch_over_reps(cases, cfg, rep_ids, record=True)

        sampled, demand_series = [], simengine.demand_series

        def counted(models, streams, n):
            sampled.append(len(streams))
            return demand_series(models, streams, n)

        monkeypatch.setattr(simengine, "demand_series", counted)
        monkeypatch.setattr(simengine, "BLOCK_ROWS", 7)  # two models: 3 ids a block
        blocked = _batch_over_reps(cases, cfg, rep_ids, record=True)
        assert sampled == [3] * 10
        assert len(blocked) == len(one_block) == len(cases)
        for case, blocked_runs, one_block_runs in zip(cases, blocked, one_block):
            TestMixedBatch.assert_same_runs(blocked_runs, one_block_runs)
            assert blocked_runs.records == one_block_runs.records
            # each case's run on rep_ids[0]
            assert blocked_runs.records == simulate_once(*case, cfg, int(rep_ids[0])).records
        for case, part in zip(cases, simulate_cases(cases, cfg, record=True)):
            assert part.records == simulate_once(*case, cfg).records

    def test_memory_bounded_by_block(self, table1_path):
        # the whole batch's demand rows would be 4 x 5 000 x 90 int64 (14.4 MB)
        catalog = load_catalog(table1_path)
        params = {p.name: ContinuousReview(max(round(p.lead_time_demand), 1), 1000)
                  for p in catalog}
        cfg = SimConfig(horizon=90, replications=5000, seed=1)
        tracemalloc.start()
        try:
            runs = simulate_cases(catalog_cases(catalog, params), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [len(part.profit) for part in runs] == [5000] * 4
        assert peak < 10 * 2**20


class TestEngineCalls:
    """Each command-level entry point makes one engine call."""

    @pytest.mark.parametrize("mode", ["rq", "pq"])
    def test_one_call_per_evaluate_many(self, monkeypatch, catalog, mode):
        calls = count_engine_calls(monkeypatch, objectives)
        objective = ProfitObjective(catalog, small_cfg(replications=5), mode)
        objective.evaluate_many(np.full((3, len(catalog)), 1500.0))
        assert calls == [3 * len(catalog) * 5]

    def test_demand_models_fitted_once_per_objective(self, monkeypatch, catalog):
        fits = []
        fit = DemandModel.from_moments

        def counted(*moments):
            fits.append(moments)
            return fit(*moments)

        monkeypatch.setattr(DemandModel, "from_moments", counted)
        objective = ProfitObjective(catalog, small_cfg(replications=5), "rq")
        objective.evaluate_many(np.full((12, len(catalog)), 1500.0))
        assert len(fits) == len(catalog)
        objective.evaluate_many(np.full((2, len(catalog)), 900.0))
        assert len(fits) == len(catalog)

    def test_one_call_per_compare(self, monkeypatch, catalog):
        calls = count_engine_calls(monkeypatch, simengine)
        pq = catalog_cases(catalog, {p.name: PeriodicReview(30, 3000) for p in catalog})
        rq = catalog_cases(catalog, {p.name: ContinuousReview(1000, 2000) for p in catalog})
        compare_policies(pq, rq, small_cfg(replications=5))
        assert calls == [2 * len(catalog) * 5]


def test_catalog_cases_in_catalog_order(catalog):
    params = {p.name: PeriodicReview(30, 1000 + i) for i, p in reversed(list(enumerate(catalog)))}
    assert catalog_cases(catalog, params) == [(p, demand_model(p), PeriodicReview(30, 1000 + i))
                                              for i, p in enumerate(catalog)]
    params["PrZ"] = params.pop("PrC")
    with pytest.raises(ConfigError, match="missing.*'PrC'"):
        catalog_cases(catalog, params)
    params["PrC"] = PeriodicReview(30, 1002)
    with pytest.raises(ConfigError, match="params: params for product 'PrZ', which is not in"):
        catalog_cases(catalog, params, "params")


class TestPolicyValidation:
    def test_fields_above_cap_rejected(self):
        PeriodicReview(MAX_POLICY_UNITS, MAX_POLICY_UNITS)
        ContinuousReview(MAX_POLICY_UNITS, MAX_POLICY_UNITS)
        for bad in [(30, MAX_POLICY_UNITS + 1), (MAX_POLICY_UNITS + 1, 30), (2**62, 2**62)]:
            with pytest.raises(DomainError):
                PeriodicReview(*bad)
            with pytest.raises(DomainError):
                ContinuousReview(*bad)

    def test_nonpositive_fields_rejected(self):
        for bad in [(0, 100), (30, 0), (-1, 5)]:
            with pytest.raises(DomainError):
                PeriodicReview(*bad)
            with pytest.raises(DomainError):
                ContinuousReview(*bad)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SimConfig(horizon=0)
        with pytest.raises(ConfigError):
            SimConfig(replications=0)
        with pytest.raises(ConfigError):
            SimConfig(unmet_demand="evaporate")

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed -1"):
            SimConfig(seed=-1)


def _random_case(rng):
    """Random small product / policy / config for invariant sweeps."""
    mean = float(rng.uniform(5, 300))
    std = float(rng.uniform(0, 0.8)) * mean
    p = float(rng.uniform(0.05, 1.0))
    lead = int(rng.integers(0, 12))
    product = ProductSpec(
        name="X",
        purchase_cost=float(rng.uniform(1, 50)),
        lead_time=lead,
        unit_size=1.0,
        selling_price=float(rng.uniform(51, 120)),
        starting_stock=int(rng.integers(0, 4000)),
        daily_order_size_mean=mean,
        daily_order_size_std=std,
        order_cost=float(rng.uniform(10, 2000)),
        holding_cost=float(rng.uniform(1, 40)),
        order_probability=p,
        lead_time_demand=p * mean * lead,
        annual_demand=max(365 * p * mean, 1e-9),
    )
    model = DemandModel.from_moments(p, mean, std)
    if rng.random() < 0.5:
        policy = PeriodicReview(int(rng.integers(5, 45)), int(rng.integers(1, 6000)))
    else:
        policy = ContinuousReview(int(rng.integers(1, 3000)), int(rng.integers(1, 5000)))
    mode = MeetOrDelay(float(rng.uniform(0, 1)), 1.5) if rng.random() < 0.3 else None
    cfg = SimConfig(
        horizon=int(rng.integers(10, 120)),
        replications=4,
        seed=int(rng.integers(0, 2**31)),
        lead_time_mode=mode or SimConfig().lead_time_mode,
        unmet_demand=BACKORDER if rng.random() < 0.25 else "lost_sales",
    )
    return product, model, policy, cfg


class TestRandomizedInvariants:
    """Ledger identity, conservation, and demand split over random runs."""

    def test_invariant_suite(self):
        rng = np.random.default_rng(20_240_817)
        runs_checked = 0
        for _ in range(260):
            product, model, policy, cfg = _random_case(rng)
            out = replication_samples(product, model, policy, cfg)
            # exact ledger identity per run
            assert np.all(
                out.profit
                == out.revenue - out.product_costs - out.ordering_costs - out.holding_costs
            )
            # demand split per run
            assert np.all(out.sold_units + out.unmet_units == out.demand_units)
            if cfg.unmet_demand == "lost_sales":
                # conservation: start + received - sold = final on-hand
                assert np.all(
                    product.starting_stock + out.total_receipts - out.sold_units
                    == out.final_on_hand
                )
            else:
                assert np.all(
                    product.starting_stock + out.total_receipts
                    - out.sold_units - out.served_late_units
                    == out.final_on_hand
                )
                assert np.all(out.final_backorders >= 0)
            runs_checked += cfg.replications
        assert runs_checked >= 1000

    def test_crn_monotonicity_order_up_to(self, pra):
        rng = np.random.default_rng(99)
        model = pra_model()
        for _ in range(25):
            cfg = small_cfg(replications=8, seed=int(rng.integers(0, 10_000)))
            low = int(rng.integers(500, 2500))
            high = low + int(rng.integers(1, 1500))
            out = {}
            for oup in (low, high):
                out[oup] = replication_samples(pra, model, PeriodicReview(30, oup), cfg)
            assert np.all(out[high].sold_units >= out[low].sold_units)

    def test_crn_monotonicity_reorder_point(self, pra):
        rng = np.random.default_rng(100)
        model = pra_model()
        for _ in range(25):
            cfg = small_cfg(replications=8, seed=int(rng.integers(0, 10_000)))
            q = int(rng.integers(300, 3000))
            r_low = int(rng.integers(100, 1500))
            r_high = r_low + int(rng.integers(1, 1200))
            out = {}
            for r in (r_low, r_high):
                out[r] = replication_samples(pra, model, ContinuousReview(r, q), cfg)
            assert np.all(out[r_high].sold_units >= out[r_low].sold_units)
            assert np.all(out[r_high].unmet_units <= out[r_low].unmet_units)

    def test_order_quantity_not_per_run_monotone(self, pra):
        """Raising Q shifts the reorder phase: arrivals land on different
        demand days, so per-run units sold can go either way.  This frozen
        counterexample documents why the per-run monotonicity property is
        asserted for order-up-to levels and reorder points but not for Q.
        """
        model = pra_model()
        cfg = small_cfg(replications=8, seed=802)
        out = {}
        for q in (1219, 1305):
            out[q] = replication_samples(pra, model, ContinuousReview(646, q), cfg)
        assert np.any(out[1305].sold_units < out[1219].sold_units)


def test_replication_samples_match_stats(pra):
    cfg = small_cfg(replications=40)
    policy = PeriodicReview(30, 2071)
    stats = replicate(pra, pra_model(), policy, cfg)
    samples = replication_samples(pra, pra_model(), policy, cfg)
    assert samples.stats() == stats
    assert len(samples.profit) == 40
    assert samples.profit.mean() == pytest.approx(stats.mean_profit)
    assert np.all(samples.lost_order_fraction >= 0)
    assert np.all(samples.lost_order_fraction <= 1)
