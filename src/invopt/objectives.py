"""Simulated-profit objectives over policy parameters.

Each objective maps a parameter vector (one coordinate per catalog product)
to total expected profit under a fixed simulation seed, so the objective is
a deterministic function of its input (common random numbers).  Modes:

* "rq":  coordinate i is product i's continuous-review order quantity; the
  reorder point is pinned at the product's lead-time demand.
* "oup" (alias "pq"): coordinate i is product i's order-up-to level under a
  30-day periodic review.

Coordinates are rounded to integer units and floored at 1, so the objective
is well defined on an open box such as (0, 5000)^k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import Catalog
from .errors import ConfigError
from .simengine import SimConfig, _batch_over_reps
from .stochastic import DemandModel

DEFAULT_REVIEW_PERIOD = 30


@dataclass(frozen=True)
class ProfitObjective:
    """Callable objective with a batch evaluator for candidate sweeps."""

    catalog: Catalog
    cfg: SimConfig
    mode: str
    review_period: int = DEFAULT_REVIEW_PERIOD

    def __post_init__(self) -> None:
        if self.mode not in ("rq", "oup", "pq"):
            raise ConfigError(f"objective mode {self.mode!r} not one of 'rq', 'oup', 'pq'")

    @property
    def dim(self) -> int:
        return len(self.catalog)

    def __call__(self, x: np.ndarray) -> float:
        return float(self.evaluate_many(np.atleast_2d(np.asarray(x, float)))[0])

    def evaluate_many(self, x: np.ndarray) -> np.ndarray:
        """Total mean profit for each row of x, sharing replication streams."""
        pts = np.atleast_2d(np.asarray(x, float))
        if pts.shape[1] != self.dim:
            raise ConfigError(
                f"expected {self.dim} coordinates (one per product), got {pts.shape[1]}"
            )
        levels = np.maximum(np.rint(pts), 1).astype(np.int64)
        n_candidates = len(levels)
        n_reps = self.cfg.replications
        rep_ids = np.tile(np.arange(n_reps, dtype=np.int64), n_candidates)
        totals = np.zeros(n_candidates)
        for column, product in enumerate(self.catalog):
            demand = DemandModel.from_moments(
                product.order_probability,
                product.daily_order_size_mean,
                product.daily_order_size_std,
            )
            per_run = np.repeat(levels[:, column], n_reps)
            if self.mode == "rq":
                kind, param_a = "rq", np.full(
                    len(per_run), max(int(round(product.lead_time_demand)), 1), np.int64
                )
            else:
                kind, param_a = "pq", self.review_period
            runs = _batch_over_reps(product, demand, self.cfg, kind, param_a, per_run, rep_ids)
            totals += runs.profit.reshape(n_candidates, n_reps).mean(axis=1)
        return totals


def policy_profit_objective(
    catalog: Catalog,
    cfg: SimConfig,
    mode: str,
    review_period: int = DEFAULT_REVIEW_PERIOD,
) -> ProfitObjective:
    return ProfitObjective(catalog, cfg, mode, review_period)
