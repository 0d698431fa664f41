"""Day-by-day inventory simulation of periodic-review (order-up-to) and
continuous-review (r, Q) policies, with replication statistics.

Daily sequence (days are numbered 1..horizon):

1. receive arrivals due today;
2. in backorder mode, fill queued backorders from the new stock;
3. observe demand and sell ``min(demand, on_hand)`` — the excess is lost
   (lost-sales mode, the default) or queued (backorder mode);
4. policy review on inventory position (= on hand + on order - backorders):
   periodic review orders ``(order_up_to - position)+`` on days divisible by
   the review period; continuous review orders Q whenever position <= r;
   orders placed at the end of day d arrive at the start of day d + lead
   (lead is clamped to >= 1 day);
5. accrue holding cost on end-of-day on-hand stock at holding_cost/365.

Profit ledger:  revenue = units sold * price;  product costs = units
*ordered* * purchase cost;  ordering costs = orders placed * order cost;
holding costs = on-hand unit-days * holding_cost/365;  annual profit is
exactly revenue minus the three cost terms.

Replications are mutually independent: replication i draws demand from
stream (seed, i, demand lane) and per-order lead times from (seed, i, lead
lane), so results are reproducible and independent of execution order.
Every entry point makes one call to a single vectorized engine that
advances all of its runs in lockstep and returns their per-run outcomes as
``RunSamples``; statistics, sweeps and histograms are reductions of that
one batch.  Runs that share a replication id read the same demand and
lead-time rows (common random numbers), which is how parameter sweeps
compare levels without sampling noise between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Iterable, Mapping

import numpy as np

from .catalog import Catalog, DAYS_PER_YEAR, ProductSpec
from .errors import ConfigError, DomainError
from .stochastic import (
    DemandModel,
    Deterministic,
    LeadTimeMode,
    LeadTimeModel,
    RngStream,
    demand_series,
    lead_time_series,
)

DEMAND_LANE = 0
LEAD_LANE = 1

LOST_SALES = "lost_sales"
BACKORDER = "backorder"

# Policy fields above this are rejected: it keeps every int64 ledger far from
# wrapping (a year of daily orders of this size stays below 2**49 units).
MAX_POLICY_UNITS = 2**40


def _check_fields(policy) -> None:
    values = [getattr(policy, f.name) for f in fields(policy)]
    if any(v <= 0 for v in values):
        raise DomainError(f"{type(policy).__name__} fields must be positive integers")
    if any(v > MAX_POLICY_UNITS for v in values):
        raise DomainError(f"{type(policy).__name__} fields must not exceed 2**40")


@dataclass(frozen=True)
class PeriodicReview:
    """Every review_period days, order up to order_up_to inventory position."""

    review_period: int
    order_up_to: int

    def __post_init__(self) -> None:
        _check_fields(self)


@dataclass(frozen=True)
class ContinuousReview:
    """Order order_quantity whenever inventory position falls to reorder_point."""

    reorder_point: int
    order_quantity: int

    def __post_init__(self) -> None:
        _check_fields(self)


PolicyParams = PeriodicReview | ContinuousReview


@dataclass(frozen=True)
class SimConfig:
    horizon: int = DAYS_PER_YEAR
    replications: int = 10_000
    seed: int = 0
    lead_time_mode: LeadTimeMode = Deterministic()
    unmet_demand: str = LOST_SALES

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ConfigError(f"horizon {self.horizon} must be >= 1")
        if self.replications < 1:
            raise ConfigError(f"replications {self.replications} must be >= 1")
        if self.unmet_demand not in (LOST_SALES, BACKORDER):
            raise ConfigError(f"unmet_demand {self.unmet_demand!r} not one of "
                              f"{LOST_SALES!r}, {BACKORDER!r}")


@dataclass(frozen=True)
class DayRecord:
    day: int
    demand: int
    sold: int
    unmet: int
    on_hand_end: int
    on_order: int
    order_placed: int   # quantity ordered today, 0 if none
    receipt: int        # quantity received at the start of the day


@dataclass(frozen=True)
class ProfitLedger:
    revenue: float
    product_costs: float
    ordering_costs: float
    holding_costs: float
    annual_profit: float


@dataclass(frozen=True)
class ReplicationStats:
    mean_profit: float
    profit_std: float
    lost_order_fraction: float
    fill_rate: float
    mean_orders_placed: float
    n: int


@dataclass(frozen=True, eq=False)
class RunSamples:
    """Per-run outcomes of one engine batch (arrays of length R).

    ``unmet_demand`` is the batch's demand mode: it decides whether demand
    that was never served is the lost units or the backorders still queued
    at the horizon.  ``records`` holds run 0's day trajectory when the batch
    was asked to record it.
    """

    unmet_demand: str
    profit: np.ndarray
    revenue: np.ndarray
    product_costs: np.ndarray
    ordering_costs: np.ndarray
    holding_costs: np.ndarray
    demand_units: np.ndarray
    sold_units: np.ndarray
    unmet_units: np.ndarray
    served_late_units: np.ndarray
    final_backorders: np.ndarray
    ordered_units: np.ndarray
    orders_placed: np.ndarray
    final_on_hand: np.ndarray
    total_receipts: np.ndarray
    records: tuple[DayRecord, ...] = ()

    @property
    def _never_served(self) -> np.ndarray:
        return self.unmet_units if self.unmet_demand == LOST_SALES else self.final_backorders

    @property
    def lost_order_fraction(self) -> np.ndarray:
        """Per-run share of demand never served (0 for runs without demand)."""
        demand = self.demand_units
        return np.where(demand > 0, self._never_served / np.maximum(demand, 1), 0.0)

    def slice(self, sl: slice) -> "RunSamples":
        """The runs selected by sl (day records are not carried over)."""
        arrays = {f.name: getattr(self, f.name)[sl] for f in fields(self)
                  if isinstance(getattr(self, f.name), np.ndarray)}
        return replace(self, records=(), **arrays)

    def stats(self) -> ReplicationStats:
        n = len(self.profit)
        total_demand = int(self.demand_units.sum())
        lost = int(self._never_served.sum()) / total_demand if total_demand > 0 else 0.0
        fill = int(self.sold_units.sum()) / total_demand if total_demand > 0 else 1.0
        return ReplicationStats(
            mean_profit=float(np.mean(self.profit)),
            profit_std=float(np.std(self.profit, ddof=1)) if n > 1 else 0.0,
            lost_order_fraction=lost,
            fill_rate=fill,
            mean_orders_placed=float(np.mean(self.orders_placed)),
            n=n,
        )


def _policy_arrays(policy: PolicyParams, n: int):
    """(kind, param_a, param_b) with per-run int64 arrays."""
    if isinstance(policy, PeriodicReview):
        return "pq", int(policy.review_period), np.full(n, policy.order_up_to, np.int64)
    return "rq", np.full(n, policy.reorder_point, np.int64), np.full(n, policy.order_quantity, np.int64)


def _batch_over_reps(
    product: ProductSpec,
    demand: DemandModel,
    cfg: SimConfig,
    kind: str,
    param_a,
    param_b: np.ndarray,
    rep_ids: np.ndarray,
    record: bool = False,
    stream_path: tuple[int, ...] = (),
) -> RunSamples:
    """Advance R runs in lockstep for cfg.horizon days.

    kind "pq": param_a is the scalar review period, param_b the per-run
    order-up-to levels.  kind "rq": param_a per-run reorder points, param_b
    per-run order quantities.  rep_ids addresses each run's random streams;
    repeated ids share demand/lead realizations (common random numbers),
    which are sampled once per distinct id and read through ``inverse``.
    """
    n_runs = len(rep_ids)
    horizon = cfg.horizon
    lead_model = LeadTimeModel(product.lead_time, cfg.lead_time_mode)
    window = max(lead_model.max_days, 1) + 1
    lost_sales = cfg.unmet_demand == LOST_SALES

    unique_ids, inverse = np.unique(np.asarray(rep_ids, dtype=np.int64), return_inverse=True)
    # day-major, so that one day's demand across distinct ids is contiguous
    demand_by_day = np.empty((horizon, len(unique_ids)), dtype=np.int64)
    lead_mat = np.empty((len(unique_ids), horizon), dtype=np.int64)
    for row, rid in enumerate(unique_ids):
        base = RngStream(cfg.seed, int(rid), stream_path)
        demand_by_day[:, row] = demand_series(demand, base.derive(DEMAND_LANE), horizon)
        lead_mat[row] = lead_time_series(lead_model, base.derive(LEAD_LANE), horizon)

    on_hand = np.full(n_runs, product.starting_stock, np.int64)
    on_order = np.zeros(n_runs, np.int64)
    backorders = np.zeros(n_runs, np.int64)
    arrivals = np.zeros((n_runs, window), np.int64)
    order_index = np.zeros(n_runs, np.int64)

    demand_units = np.zeros(n_runs, np.int64)
    sold_units = np.zeros(n_runs, np.int64)
    unmet_units = np.zeros(n_runs, np.int64)
    served_late = np.zeros(n_runs, np.int64)
    ordered_units = np.zeros(n_runs, np.int64)
    orders_placed = np.zeros(n_runs, np.int64)
    holding_unit_days = np.zeros(n_runs, np.int64)
    total_receipts = np.zeros(n_runs, np.int64)

    records: list[DayRecord] = []

    for day in range(1, horizon + 1):
        slot = day % window
        receipt = arrivals[:, slot].copy()
        arrivals[:, slot] = 0
        on_hand += receipt
        on_order -= receipt
        total_receipts += receipt

        if not lost_sales:
            fill = np.minimum(on_hand, backorders)
            on_hand -= fill
            backorders -= fill
            served_late += fill

        day_demand = demand_by_day[day - 1][inverse]
        sold = np.minimum(day_demand, on_hand)
        on_hand -= sold
        unmet = day_demand - sold
        if not lost_sales:
            backorders += unmet
        demand_units += day_demand
        sold_units += sold
        unmet_units += unmet

        position = on_hand + on_order - backorders
        if kind == "pq":
            if day % param_a == 0:
                quantity = np.maximum(param_b - position, 0)
            else:
                quantity = np.zeros(n_runs, np.int64)
        else:
            quantity = np.where(position <= param_a, param_b, 0)

        placing = np.flatnonzero(quantity > 0)
        if len(placing):
            lead = np.maximum(lead_mat[inverse[placing], order_index[placing]], 1)
            arrivals[placing, (day + lead) % window] += quantity[placing]
            on_order += quantity
            ordered_units += quantity
            orders_placed[placing] += 1
            order_index[placing] += 1

        holding_unit_days += on_hand

        if record:
            records.append(DayRecord(
                day=day,
                demand=int(day_demand[0]),
                sold=int(sold[0]),
                unmet=int(unmet[0]),
                on_hand_end=int(on_hand[0]),
                on_order=int(on_order[0]),
                order_placed=int(quantity[0]),
                receipt=int(receipt[0]),
            ))

    revenue_units = sold_units + served_late
    revenue = revenue_units * float(product.selling_price)
    product_costs = ordered_units * float(product.purchase_cost)
    ordering_costs = orders_placed * float(product.order_cost)
    holding_costs = holding_unit_days * (product.holding_cost / DAYS_PER_YEAR)
    profit = revenue - product_costs - ordering_costs - holding_costs

    return RunSamples(
        unmet_demand=cfg.unmet_demand,
        profit=profit,
        revenue=revenue,
        product_costs=product_costs,
        ordering_costs=ordering_costs,
        holding_costs=holding_costs,
        demand_units=demand_units,
        sold_units=sold_units,
        unmet_units=unmet_units,
        served_late_units=served_late,
        final_backorders=backorders,
        ordered_units=ordered_units,
        orders_placed=orders_placed,
        final_on_hand=on_hand,
        total_receipts=total_receipts,
        records=tuple(records),
    )


def simulate_once(
    product: ProductSpec,
    demand: DemandModel,
    policy: PolicyParams,
    cfg: SimConfig,
    rng: RngStream,
) -> tuple[list[DayRecord], ProfitLedger]:
    """One run over cfg.horizon days; returns the day trajectory and ledger.

    The run draws demand from rng.derive(DEMAND_LANE) and per-order lead
    times from rng.derive(LEAD_LANE).
    """
    one = replace(cfg, replications=1, seed=rng.seed)
    kind, a, b = _policy_arrays(policy, 1)
    run = _batch_over_reps(product, demand, one, kind, a, b, np.array([rng.stream_id]),
                           record=True, stream_path=rng.path)
    ledger = ProfitLedger(
        revenue=float(run.revenue[0]),
        product_costs=float(run.product_costs[0]),
        ordering_costs=float(run.ordering_costs[0]),
        holding_costs=float(run.holding_costs[0]),
        annual_profit=float(run.profit[0]),
    )
    return list(run.records), ledger


def replication_samples(
    product: ProductSpec,
    demand: DemandModel,
    policy: PolicyParams,
    cfg: SimConfig,
) -> RunSamples:
    """Per-run outcomes of cfg.replications runs; replication i uses stream id i."""
    kind, a, b = _policy_arrays(policy, cfg.replications)
    rep_ids = np.arange(cfg.replications, dtype=np.int64)
    return _batch_over_reps(product, demand, cfg, kind, a, b, rep_ids)


def replicate(
    product: ProductSpec,
    demand: DemandModel,
    policy: PolicyParams,
    cfg: SimConfig,
) -> ReplicationStats:
    """Monte-Carlo estimate over cfg.replications independent runs."""
    return replication_samples(product, demand, policy, cfg).stats()


def sweep_oup(
    product: ProductSpec,
    demand: DemandModel,
    cfg: SimConfig,
    oup_range: tuple[int, int],
    step: int = 1,
    review_period: int = 30,
) -> list[tuple[int, ReplicationStats]]:
    """Replicate a periodic-review policy across an inclusive order-up-to range.

    Every level reuses the same replication streams (common random numbers),
    so differences between levels are not masked by sampling noise.
    """
    lo, hi = oup_range
    if step <= 0:
        raise ConfigError(f"step {step} must be positive")
    if lo > hi or lo <= 0:
        raise ConfigError(f"invalid order-up-to range [{lo}, {hi}]")
    PeriodicReview(review_period, hi)  # validates the review period and the cap
    levels = np.arange(lo, hi + 1, step, dtype=np.int64)
    n = cfg.replications
    rep_ids = np.tile(np.arange(n, dtype=np.int64), len(levels))
    runs = _batch_over_reps(product, demand, cfg, "pq", review_period,
                            np.repeat(levels, n), rep_ids)
    return [(int(level), runs.slice(slice(i * n, (i + 1) * n)).stats())
            for i, level in enumerate(levels)]


@dataclass(frozen=True)
class PolicyComparison:
    per_product: dict[str, tuple[ReplicationStats, ReplicationStats]]  # (periodic, continuous)
    total_periodic_profit: float
    total_continuous_profit: float
    relative_difference: float  # (continuous - periodic) / periodic


def compare_policies(
    catalog: Catalog,
    cfg: SimConfig,
    pq_params: Mapping[str, PolicyParams],
    rq_params: Mapping[str, PolicyParams],
) -> PolicyComparison:
    """Expected-profit comparison of two policy assignments over a catalog.

    Both sides see identical demand per replication (common random numbers),
    so the comparison isolates the policy effect; identical assignments on
    both sides give a relative difference of exactly zero.
    """
    for p in catalog:
        if p.name not in pq_params:
            raise ConfigError(f"missing periodic-review params for product {p.name!r}")
        if p.name not in rq_params:
            raise ConfigError(f"missing continuous-review params for product {p.name!r}")
    per_product = {}
    for p in catalog:
        model = DemandModel.from_moments(
            p.order_probability, p.daily_order_size_mean, p.daily_order_size_std
        )
        pq_stats = replicate(p, model, pq_params[p.name], cfg)
        rq_stats = replicate(p, model, rq_params[p.name], cfg)
        per_product[p.name] = (pq_stats, rq_stats)
    total_pq = sum(s.mean_profit for s, _ in per_product.values())
    total_rq = sum(s.mean_profit for _, s in per_product.values())
    rel = (total_rq - total_pq) / total_pq if total_pq != 0 else math.inf
    return PolicyComparison(per_product, total_pq, total_rq, rel)


def mc_estimate(samples: Iterable[float]) -> tuple[float, float]:
    """Sample mean and its standard error, std(ddof=1)/sqrt(n)."""
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise DomainError("mc_estimate requires a non-empty sample")
    mean = float(arr.mean())
    if arr.size == 1:
        return mean, 0.0
    return mean, float(arr.std(ddof=1) / math.sqrt(arr.size))
