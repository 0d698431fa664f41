"""Property tests of the simulation engine's invariants.

Each example draws a product (lead time and starting stock varied), a
policy of either kind, a lead-time mode (deterministic or MeetOrDelay) and
an unmet-demand mode (lost sales or backorders), then checks unit
conservation on every run of a batch, the share of demand never served,
and nonnegativity on every day of replication 0's trajectory.
"""

from dataclasses import astuple, replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from invopt.simengine import (
    BACKORDER,
    LOST_SALES,
    ContinuousReview,
    PeriodicReview,
    SimConfig,
    demand_model,
    simulate_cases,
    simulate_once,
)
from invopt.stochastic import Deterministic, MeetOrDelay

from conftest import make_products

PRODUCTS = make_products()

products = st.builds(
    lambda base, lead, stock: replace(base, lead_time=lead, starting_stock=stock),
    st.sampled_from(PRODUCTS),
    st.integers(0, 20),
    st.integers(0, 5000),
)
policies = st.one_of(
    st.builds(PeriodicReview, st.integers(1, 40), st.integers(1, 30_000)),
    st.builds(ContinuousReview, st.integers(1, 10_000), st.integers(1, 10_000)),
)
lead_time_modes = st.one_of(
    st.just(Deterministic()),
    st.builds(MeetOrDelay, st.floats(0.0, 1.0), st.floats(1.01, 3.0)),
)
configs = st.builds(
    SimConfig,
    horizon=st.integers(1, 120),
    replications=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    lead_time_mode=lead_time_modes,
    unmet_demand=st.sampled_from([LOST_SALES, BACKORDER]),
)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(cases=st.lists(st.tuples(products, policies), min_size=1, max_size=3), cfg=configs)
def test_engine_conserves_units(cases, cfg):
    batch = simulate_cases([(p, demand_model(p), policy) for p, policy in cases], cfg)
    assert len(batch) == len(cases)
    for (product, _), runs in zip(cases, batch):
        assert len(runs.profit) == cfg.replications
        np.testing.assert_array_equal(runs.sold_units + runs.unmet_units, runs.demand_units)
        np.testing.assert_array_equal(
            product.starting_stock + runs.total_receipts - runs.sold_units
            - runs.served_late_units,
            runs.final_on_hand,
        )
        assert np.all(runs.final_on_hand >= 0)
        assert np.all(runs.final_backorders >= 0)
        assert np.all(runs.total_receipts <= runs.ordered_units)
        if cfg.unmet_demand == LOST_SALES:
            assert not runs.served_late_units.any() and not runs.final_backorders.any()
        else:
            np.testing.assert_array_equal(
                runs.unmet_units - runs.served_late_units, runs.final_backorders
            )


@settings(derandomize=True, max_examples=100, deadline=None)
@given(cases=st.lists(st.tuples(products, policies), min_size=1, max_size=3), cfg=configs)
def test_never_served_is_lost_units_or_final_backorders(cases, cfg):
    """The share of demand never served counts the lost units under lost
    sales and the backorders still queued at the horizon under backorders."""
    for runs in simulate_cases([(p, demand_model(p), policy) for p, policy in cases], cfg):
        never_served = runs.unmet_units if cfg.unmet_demand == LOST_SALES else runs.final_backorders
        demand = runs.demand_units
        np.testing.assert_array_equal(
            runs.lost_order_fraction,
            np.where(demand > 0, never_served / np.maximum(demand, 1), 0.0),
        )
        total = int(demand.sum())
        expected = int(never_served.sum()) / total if total > 0 else 0.0
        assert runs.stats().lost_order_fraction == expected


@settings(derandomize=True, max_examples=100, deadline=None)
@given(product=products, policy=policies, cfg=configs)
def test_daily_trajectory_is_nonnegative_and_balanced(product, policy, cfg):
    records = simulate_once(product, demand_model(product), policy, cfg).records
    [run] = simulate_cases([(product, demand_model(product), policy)], cfg)

    assert [r.day for r in records] == list(range(1, cfg.horizon + 1))
    for r in records:
        assert min(astuple(r)) >= 0  # on_hand_end, on_order, sold, unmet, ...
        assert r.sold + r.unmet == r.demand
    ordered = sum(r.order_placed for r in records)
    receipts = sum(r.receipt for r in records)
    assert ordered == receipts + records[-1].on_order
    assert ordered == run.ordered_units[0]
    assert receipts == run.total_receipts[0]
    assert records[-1].on_hand_end == run.final_on_hand[0]
