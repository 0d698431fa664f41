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
5. accrue holding on end-of-day on-hand stock, in unit-days.

Replications are mutually independent: replication i draws demand from
stream (seed, i, demand lane) and, under MeetOrDelay only, per-order lead
times from (seed, i, lead lane), so results are reproducible and independent
of execution order.  The engine takes cases, (product, demand model, policy)
triples, and a list of replication ids, and runs every case on every id:
all runs, periodic and continuous review alike, advance in one lockstep day
loop, and the per-run unit ledgers come back as one ``RunSamples`` per case,
in case order, which values them at the case's prices.  Every entry point
makes one engine call and reduces it: statistics, sweeps, comparisons,
histograms and the day trajectory are reductions of that one batch.  The
cases of a batch share its replication ids and so read the same uniforms
(common random numbers): sweep levels and compared policies differ without
sampling noise between them, and the products of a catalog see comonotone
demand within a replication.

The engine takes the replication ids in consecutive blocks of at most
``BLOCK_ROWS`` sampled rows, and samples and advances every case's runs on
one block at a time, so its memory does not grow with the number of
replications.

Day trajectories are opt-in.  A batch asked to record keeps, in each case's
``records``, that case's trajectory on the batch's first replication id.
``simulate_once(product, demand, policy, cfg, replication=0)`` is the one-run
batch: replication ``replication`` under ``cfg.seed``, returned as a
``RunSamples`` of length 1 with its trajectory.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
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

# Sampled rows (distinct demand models x replication ids) one block of an
# engine call holds: the engine samples and advances the runs of
# BLOCK_ROWS // models ids at a time, so a batch's demand rows stay at
# BLOCK_ROWS x horizon int64 (4.5 MB over a year) whatever its size.  Chosen
# by the peak RSS of a 4-product x 2 500-replication simulate: 1536 rows kept
# it at the per-product engine calls' level, 2048 rows added 1.6 %.
BLOCK_ROWS = 1536

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
    """Per-run unit ledgers of one case of an engine batch (int64 arrays of
    length R, one entry per replication id, in the batch's id order).

    Profit ledger at the product's prices:  revenue = units sold (on time
    or late) * price;  product costs = units *ordered* * purchase cost;
    ordering costs = orders placed * order cost;  holding costs = on-hand
    unit-days * holding_cost/365;  annual profit is exactly revenue minus
    the three cost terms.

    ``records`` is empty unless the batch was asked to record
    (``simulate_once``, ``simulate_cases(..., record=True)``); then it holds
    the case's day trajectory on the batch's first replication id.
    """

    product: ProductSpec
    final_on_hand: np.ndarray
    final_backorders: np.ndarray
    demand_units: np.ndarray
    sold_units: np.ndarray
    unmet_units: np.ndarray
    served_late_units: np.ndarray
    ordered_units: np.ndarray
    orders_placed: np.ndarray
    holding_unit_days: np.ndarray
    total_receipts: np.ndarray
    records: tuple[DayRecord, ...] = ()

    @property
    def revenue(self) -> np.ndarray:
        return (self.sold_units + self.served_late_units) * self.product.selling_price

    @property
    def product_costs(self) -> np.ndarray:
        return self.ordered_units * self.product.purchase_cost

    @property
    def ordering_costs(self) -> np.ndarray:
        return self.orders_placed * self.product.order_cost

    @property
    def holding_costs(self) -> np.ndarray:
        return self.holding_unit_days * (self.product.holding_cost / DAYS_PER_YEAR)

    @property
    def profit(self) -> np.ndarray:
        return self.revenue - self.product_costs - self.ordering_costs - self.holding_costs

    @property
    def _never_served(self) -> np.ndarray:
        """Demand never served: the lost units under lost sales (nothing is
        served late), the backorders still queued at the horizon otherwise."""
        return self.unmet_units - self.served_late_units

    @property
    def lost_order_fraction(self) -> np.ndarray:
        """Per-run share of demand never served (0 for runs without demand)."""
        demand = self.demand_units
        return np.where(demand > 0, self._never_served / np.maximum(demand, 1), 0.0)

    def stats(self) -> ReplicationStats:
        n = len(self.demand_units)
        profit = self.profit
        total_demand = int(self.demand_units.sum())
        lost = int(self._never_served.sum()) / total_demand if total_demand > 0 else 0.0
        fill = int(self.sold_units.sum()) / total_demand if total_demand > 0 else 1.0
        return ReplicationStats(
            mean_profit=float(np.mean(profit)),
            profit_std=float(np.std(profit, ddof=1)) if n > 1 else 0.0,
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
    """The (product, demand model, policy) case of every catalog product, in
    catalog order, with each product's demand model fit once; these are the
    cases that `compare_policies` and `sensitivity_resim` take.  Every product
    needs params, and every params entry a product: `source` names the params
    in the error."""
    for product in catalog:
        if product.name not in params:
            raise ConfigError(f"{source}: missing params for product {product.name!r}")
    names = {product.name for product in catalog}
    for name in params:
        if name not in names:
            raise ConfigError(f"{source}: params for product {name!r}, which is not in the catalog")
    return [(product, demand_model(product), params[product.name]) for product in catalog]


def _distinct(models: Sequence) -> tuple[list, np.ndarray]:
    """The distinct models in first-seen order, and the index of each input among them."""
    index: dict = {}
    of_each = np.array([index.setdefault(m, len(index)) for m in models], np.int64)
    return list(index), of_each


def _sampled_rows(models: Sequence, ids: np.ndarray, lane: int, series,
                  cfg: SimConfig) -> np.ndarray:
    """Day-major rows, one per (model, id), model-major: row m * len(ids) + j is
    model m on stream id ids[j].  Each id's stream is built and drawn once,
    SAMPLE_CHUNK ids at a time, and transformed into every model."""
    rows = np.empty((cfg.horizon, len(models), len(ids)), np.int64)
    for lo in range(0, len(ids), SAMPLE_CHUNK):
        chunk = ids[lo:lo + SAMPLE_CHUNK]
        block = series(models, [RngStream(cfg.seed, int(i), (lane,)) for i in chunk], cfg.horizon)
        rows[:, :, lo:lo + len(chunk)] = block.transpose(2, 0, 1)
    return rows.reshape(cfg.horizon, -1)


def _batch_over_reps(
    cases: Sequence[Case],
    cfg: SimConfig,
    rep_ids: Sequence[int],
    record: bool = False,
) -> list[RunSamples]:
    """Advance every case on every replication id in lockstep for cfg.horizon days.

    A case is a (product, demand model, policy) triple.  The result holds one
    ``RunSamples`` per case, in case order, whose run j is the case on stream
    id rep_ids[j].  Runs with the same id read the same demand and lead-time
    rows (common random numbers).  Each id's demand stream, and its lead-time
    stream when lead times are random, is built and drawn once; the block
    transforms turn its uniforms into the row of every distinct demand model
    (lead-time model) of the batch.

    The ids are taken in consecutive blocks of at most BLOCK_ROWS sampled rows
    (distinct models x ids).  Each block's rows are sampled, every case's runs
    on them go through the day loop, and their finished ledgers fill the
    block's columns of the batch.  A run's arithmetic is elementwise, so the
    blocks change no value.  With `record`, each case's ``records`` hold its
    day trajectory on rep_ids[0].
    """
    rep_ids = np.asarray(rep_ids, np.int64)
    horizon = cfg.horizon
    lost_sales = cfg.unmet_demand == LOST_SALES
    random_lead = not isinstance(cfg.lead_time_mode, Deterministic)
    products = [product for product, _, _ in cases]
    lead_models = [LeadTimeModel(p.lead_time, cfg.lead_time_mode) for p in products]
    window = max(max(m.max_days for m in lead_models), 1) + 1
    demand_models, demand_model_of_case = _distinct([d for _, d, _ in cases])
    lead_distinct, lead_model_of_case = _distinct(lead_models)

    # per case: starting stock, fixed lead time and the policy's two fields,
    # (review period, order-up-to) or (reorder point, quantity)
    stock_of_case = np.array([p.starting_stock for p in products], np.int64)
    fixed_lead_of_case = np.maximum(np.array([p.lead_time for p in products], np.int64), 1)
    rq_of_case = np.array([isinstance(policy, ContinuousReview) for _, _, policy in cases])
    a_of_case, b_of_case = np.array([astuple(policy) for _, _, policy in cases], np.int64).T

    rows_per_id = max(len(demand_models), len(lead_distinct) if random_lead else 1)
    block_ids = max(BLOCK_ROWS // rows_per_id, 1)
    ledgers = np.empty((10, len(cases), len(rep_ids)), np.int64)
    records: list[tuple[DayRecord, ...]] = [()] * len(cases)

    for lo in range(0, len(rep_ids), block_ids):
        ids = rep_ids[lo:lo + block_ids]
        n_ids = len(ids)
        n_runs = len(cases) * n_ids
        id_col = np.tile(np.arange(n_ids), len(cases))
        demand_by_day = _sampled_rows(demand_models, ids, DEMAND_LANE, demand_series, cfg)
        demand_row = np.repeat(demand_model_of_case * n_ids, n_ids) + id_col
        if random_lead:
            lead_by_order = _sampled_rows(lead_distinct, ids, LEAD_LANE, lead_time_series, cfg)
            lead_row = np.repeat(lead_model_of_case * n_ids, n_ids) + id_col
        else:
            fixed_lead = np.repeat(fixed_lead_of_case, n_ids)

        rq, a, b = (np.repeat(of_case, n_ids) for of_case in (rq_of_case, a_of_case, b_of_case))
        any_rq = rq.any()
        periodic = [(period, np.flatnonzero(~rq & (a == period))) for period in np.unique(a[~rq])]

        state = np.zeros((10, n_runs), np.int64)
        (on_hand, backorders, demand_units, sold_units, unmet_units, served_late, ordered_units,
         orders_placed, holding_unit_days, total_receipts) = state  # RunSamples' ledger views
        on_hand += np.repeat(stock_of_case, n_ids)
        on_order = np.zeros(n_runs, np.int64)
        arrivals = np.zeros((window, n_runs), np.int64)  # a day's receipts are one row
        # each case's run on rep_ids[0]: column c * n_ids of the first block
        watch = np.arange(0, n_runs, n_ids) if record and lo == 0 else np.arange(0)
        trajectory = np.empty((horizon, 7, len(watch)), np.int64)

        for day in range(1, horizon + 1):
            slot = day % window
            receipt = arrivals[slot].copy()
            arrivals[slot] = 0
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
            for period, due in periodic:
                if day % period == 0:
                    quantity[due] = np.maximum(b[due] - position[due], 0)

            placing = np.flatnonzero(quantity > 0)
            if len(placing):
                if random_lead:
                    lead = np.maximum(lead_by_order[orders_placed[placing], lead_row[placing]], 1)
                else:
                    lead = fixed_lead[placing]
                arrivals[(day + lead) % window, placing] += quantity[placing]
                on_order += quantity
                ordered_units += quantity
                orders_placed[placing] += 1

            holding_unit_days += on_hand

            if len(watch):
                trajectory[day - 1] = [v[watch] for v in (
                    day_demand, sold, unmet, on_hand, on_order, quantity, receipt)]

        ledgers[:, :, lo:lo + n_ids] = state.reshape(10, len(cases), n_ids)
        demand_by_day = lead_by_order = None  # freed before the next block is sampled
        if len(watch):
            records = [tuple(DayRecord(day, *cells) for day, cells in enumerate(run, 1))
                       for run in trajectory.transpose(2, 0, 1).tolist()]

    return [RunSamples(product, *ledgers[:, c], records=case_records)
            for c, (product, case_records) in enumerate(zip(products, records))]


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
    return _batch_over_reps([(product, demand, policy)], cfg, [replication], record=True)[0]


def simulate_cases(cases: Sequence[Case], cfg: SimConfig,
                   record: bool = False) -> list[RunSamples]:
    """cfg.replications runs of each case, one ``RunSamples`` per case in case
    order: run i of each is stream id i (common random numbers across cases).
    With `record`, each case's records hold its replication 0 day trajectory."""
    return _batch_over_reps(cases, cfg, np.arange(cfg.replications), record)


def replication_samples(
    product: ProductSpec,
    demand: DemandModel,
    policy: PolicyParams,
    cfg: SimConfig,
) -> RunSamples:
    """Per-run outcomes of cfg.replications runs, with replication 0's day
    trajectory in records; replication i uses stream id i."""
    return simulate_cases([(product, demand, policy)], cfg, record=True)[0]


def replicate(
    product: ProductSpec,
    demand: DemandModel,
    policy: PolicyParams,
    cfg: SimConfig,
) -> ReplicationStats:
    """Monte-Carlo estimate over cfg.replications independent runs."""
    return simulate_cases([(product, demand, policy)], cfg)[0].stats()


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
    return [(level, runs.stats()) for level, runs in zip(levels, simulate_cases(cases, cfg))]


@dataclass(frozen=True)
class PolicyComparison:
    per_product: dict[str, tuple[ReplicationStats, ReplicationStats]]  # (periodic, continuous)
    total_periodic_profit: float
    total_continuous_profit: float
    relative_difference: float  # (continuous - periodic) / periodic


def compare_policies(pq_cases: Sequence[Case], rq_cases: Sequence[Case],
                     cfg: SimConfig) -> PolicyComparison:
    """Expected-profit comparison of two policy assignments: one case per
    product on each side, each product once, named alike and in the same order.

    Both sides see identical demand per replication (common random numbers),
    so the comparison isolates the policy effect; identical assignments on
    both sides give a relative difference of exactly zero.
    """
    names = [product.name for product, _, _ in pq_cases]
    rq_names = [product.name for product, _, _ in rq_cases]
    if names != rq_names or len(set(names)) < len(names):
        raise ConfigError(f"the two sides must name each product once, in one order: "
                          f"{', '.join(names)} against {', '.join(rq_names)}")
    stats = [runs.stats() for runs in simulate_cases([*pq_cases, *rq_cases], cfg)]
    per_product = {name: (stats[i], stats[i + len(names)]) for i, name in enumerate(names)}
    total_pq = sum(s.mean_profit for s, _ in per_product.values())
    total_rq = sum(s.mean_profit for _, s in per_product.values())
    rel = (total_rq - total_pq) / total_pq if total_pq != 0 else math.inf
    return PolicyComparison(per_product, total_pq, total_rq, rel)
