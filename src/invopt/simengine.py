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
stream (seed, i, demand lane) and, under MeetOrDelay only, per-order lead
times from (seed, i, lead lane), so results are reproducible and independent
of execution order.  The engine takes cases, (product, demand model, policy)
triples, and advances every run of every case, periodic and continuous review
alike, in one lockstep day loop; it returns the per-run outcomes as
``RunSamples``.
Every entry point makes one engine call and reduces it: statistics, sweeps,
comparisons, histograms and the day trajectory are reductions of that one
batch.  Runs that share a replication id read the same uniforms (common
random numbers), so sweep levels and compared policies differ without
sampling noise between them, and the products of a catalog see comonotone
demand within a replication.

A batch's ``records`` hold the day trajectory of its run 0: replication 0 of
the first case for ``simulate_cases``.  ``simulate_once(product, demand,
policy, cfg, replication=0)`` is the one-run batch: replication
``replication`` under ``cfg.seed``, returned as a ``RunSamples`` of length 1.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields, replace
from typing import Mapping, Sequence

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

# Replication ids whose streams are built, drawn and transformed as one block.
# It bounds the block's uniforms at SAMPLE_CHUNK x 2 x horizon doubles, and
# keeps the streams alive at once (4 GC-tracked objects each) below the
# garbage collector's 700-allocation young-generation threshold: with 128 ids
# every block set off a collection, and a fresh process paid for a full one.
SAMPLE_CHUNK = 64

LOST_SALES = "lost_sales"
BACKORDER = "backorder"

# Policy fields above this are rejected: it keeps every int64 ledger far from
# wrapping (a year of daily orders of this size stays below 2**49 units).
MAX_POLICY_UNITS = 2**40

# Review period, in days, wherever a periodic-review policy does not name one.
DEFAULT_REVIEW_PERIOD = 30


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
        if self.seed < 0:
            raise ConfigError(f"seed {self.seed} must be >= 0")
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
    was asked to record it, as ``simulate_cases`` and ``simulate_once`` do;
    the parts that ``split`` returns hold none.
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

    def split(self, parts: int) -> list["RunSamples"]:
        """The runs cut into `parts` equal consecutive groups (without day records)."""
        arrays = {f.name: np.split(getattr(self, f.name), parts) for f in fields(self)
                  if isinstance(getattr(self, f.name), np.ndarray)}
        return [replace(self, records=(), **{name: pieces[i] for name, pieces in arrays.items()})
                for i in range(parts)]

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


Case = tuple[ProductSpec, DemandModel, PolicyParams]


def demand_model(product: ProductSpec) -> DemandModel:
    """The product's daily demand, fit to its catalog order statistics."""
    return DemandModel.from_moments(
        product.order_probability, product.daily_order_size_mean, product.daily_order_size_std
    )


def catalog_cases(
    catalog: Catalog, params: Mapping[str, PolicyParams], source: str = "policy"
) -> list[Case]:
    """The (product, demand model, policy) case of every catalog product, in catalog order."""
    for product in catalog:
        if product.name not in params:
            raise ConfigError(f"{source}: missing params for product {product.name!r}")
    return [(product, demand_model(product), params[product.name]) for product in catalog]


def _batch_over_reps(
    cases: Sequence[Case],
    cfg: SimConfig,
    case_idx: np.ndarray,
    rep_ids: np.ndarray,
    record: bool = False,
) -> RunSamples:
    """Advance one run per (case_idx[i], rep_ids[i]) in lockstep for cfg.horizon days.

    A case is a (product, demand model, policy) triple; run i takes its
    economics, starting stock, lead time and policy from case case_idx[i].
    rep_ids address the runs' random streams: runs with the same id read the
    same demand and lead-time rows (common random numbers).  Each distinct id's
    demand stream, and its lead-time stream when lead times are random, is
    built and drawn once; the block transforms turn its uniforms into the row
    of every distinct demand model (lead-time model) of the batch.
    """
    case_idx = np.asarray(case_idx, dtype=np.int64)
    n_runs = len(case_idx)
    horizon = cfg.horizon
    lost_sales = cfg.unmet_demand == LOST_SALES
    products = [product for product, _, _ in cases]
    lead_models = [LeadTimeModel(p.lead_time, cfg.lead_time_mode) for p in products]
    window = max(max(m.max_days for m in lead_models), 1) + 1

    def per_run(values, dtype=np.int64) -> np.ndarray:
        return np.asarray(values, dtype)[case_idx]

    unique_ids, id_row = np.unique(np.asarray(rep_ids, np.int64), return_inverse=True)
    n_ids = len(unique_ids)

    def sampled_rows(models, lane, series):
        """Day-major rows, one per (distinct model, distinct replication id), and
        each run's row.  Each distinct id's stream is built and drawn once,
        SAMPLE_CHUNK ids at a time, and transformed into every distinct model."""
        index: dict = {}
        model_of_run = per_run([index.setdefault(m, len(index)) for m in models])
        distinct = list(index)
        rows = np.empty((horizon, len(distinct), n_ids), np.int64)
        for lo in range(0, n_ids, SAMPLE_CHUNK):
            ids = unique_ids[lo:lo + SAMPLE_CHUNK]
            block = series(distinct, [RngStream(cfg.seed, int(i), (lane,)) for i in ids], horizon)
            rows[:, :, lo:lo + len(ids)] = block.transpose(2, 0, 1)
        return rows.reshape(horizon, -1), model_of_run * n_ids + id_row

    demand_by_day, demand_row = sampled_rows([d for _, d, _ in cases], DEMAND_LANE, demand_series)
    random_lead = not isinstance(cfg.lead_time_mode, Deterministic)
    if random_lead:
        lead_by_order, lead_row = sampled_rows(lead_models, LEAD_LANE, lead_time_series)
    else:
        fixed_lead = np.maximum(per_run([p.lead_time for p in products]), 1)

    # a policy's two fields: (review period, order-up-to) or (reorder point, quantity)
    rq = per_run([isinstance(policy, ContinuousReview) for _, _, policy in cases], bool)
    a, b = np.array([astuple(policy) for _, _, policy in cases], np.int64).T[:, case_idx]
    any_rq = rq.any()
    periodic = [(period, np.flatnonzero(~rq & (a == period))) for period in np.unique(a[~rq])]

    on_hand = per_run([p.starting_stock for p in products])
    arrivals = np.zeros((n_runs, window), np.int64)
    (on_order, backorders, demand_units, sold_units, unmet_units, served_late, ordered_units,
     orders_placed, holding_unit_days, total_receipts) = np.zeros((10, n_runs), np.int64)

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

        day_demand = demand_by_day[day - 1][demand_row]
        sold = np.minimum(day_demand, on_hand)
        on_hand -= sold
        unmet = day_demand - sold
        if not lost_sales:
            backorders += unmet
        demand_units += day_demand
        sold_units += sold
        unmet_units += unmet

        position = on_hand + on_order - backorders
        quantity = np.where(rq & (position <= a), b, 0) if any_rq else np.zeros_like(position)
        for period, runs in periodic:
            if day % period == 0:
                quantity[runs] = np.maximum(b[runs] - position[runs], 0)

        placing = np.flatnonzero(quantity > 0)
        if len(placing):
            if random_lead:
                lead = np.maximum(lead_by_order[orders_placed[placing], lead_row[placing]], 1)
            else:
                lead = fixed_lead[placing]
            arrivals[placing, (day + lead) % window] += quantity[placing]
            on_order += quantity
            ordered_units += quantity
            orders_placed[placing] += 1

        holding_unit_days += on_hand

        if record:
            records.append(DayRecord(day, *(int(v[0]) for v in (
                day_demand, sold, unmet, on_hand, on_order, quantity, receipt))))

    price, unit_cost, order_cost, daily_holding = np.array(
        [(p.selling_price, p.purchase_cost, p.order_cost, p.holding_cost / DAYS_PER_YEAR)
         for p in products]).T[:, case_idx]
    revenue = (sold_units + served_late) * price
    product_costs = ordered_units * unit_cost
    ordering_costs = orders_placed * order_cost
    holding_costs = holding_unit_days * daily_holding
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
    replication: int = 0,
) -> RunSamples:
    """One run, replication `replication` under cfg.seed, with its day trajectory.

    Returns a one-run ``RunSamples`` whose ``records`` hold the trajectory; the
    run equals run `replication` of any batch of the same case and seed.
    cfg.replications is not read.
    """
    return _batch_over_reps([(product, demand, policy)], cfg, [0], [replication], record=True)


def simulate_cases(cases: Sequence[Case], cfg: SimConfig) -> RunSamples:
    """cfg.replications runs of each case, case after case; replication i of
    every case uses stream id i (common random numbers across cases).  The
    records hold the day trajectory of replication 0 of the first case."""
    n = cfg.replications
    return _batch_over_reps(cases, cfg, np.repeat(np.arange(len(cases)), n),
                            np.tile(np.arange(n, dtype=np.int64), len(cases)), record=True)


def replication_samples(
    product: ProductSpec,
    demand: DemandModel,
    policy: PolicyParams,
    cfg: SimConfig,
) -> RunSamples:
    """Per-run outcomes of cfg.replications runs, with replication 0's day
    trajectory in records; replication i uses stream id i."""
    return simulate_cases([(product, demand, policy)], cfg)


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
    review_period: int = DEFAULT_REVIEW_PERIOD,
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
    levels = range(lo, hi + 1, step)
    cases = [(product, demand, PeriodicReview(review_period, level)) for level in levels]
    runs = simulate_cases(cases, cfg).split(len(cases))
    return [(level, part.stats()) for level, part in zip(levels, runs)]


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
    cases = (catalog_cases(catalog, pq_params, "periodic review")
             + catalog_cases(catalog, rq_params, "continuous review"))
    stats = [runs.stats() for runs in simulate_cases(cases, cfg).split(len(cases))]
    per_product = {p.name: (stats[i], stats[i + len(catalog)]) for i, p in enumerate(catalog)}
    total_pq = sum(s.mean_profit for s, _ in per_product.values())
    total_rq = sum(s.mean_profit for _, s in per_product.values())
    rel = (total_rq - total_pq) / total_pq if total_pq != 0 else math.inf
    return PolicyComparison(per_product, total_pq, total_rq, rel)
