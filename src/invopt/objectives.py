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
from functools import cached_property

import numpy as np

from .catalog import Catalog, ProductSpec
from .errors import ConfigError
from .simengine import (
    DEFAULT_REVIEW_PERIOD,
    ContinuousReview,
    PeriodicReview,
    PolicyParams,
    SimConfig,
    _batch_over_reps,
    demand_model,
)
from .stochastic import DemandModel


@dataclass(frozen=True)
class ProfitObjective:
    """Callable objective with a batch evaluator for candidate sweeps."""

    catalog: Catalog
    cfg: SimConfig
    mode: str

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
        cases = [(product, model, self._policy(product, int(level)))
                 for row in levels
                 for product, model, level in zip(self.catalog, self._demand_models, row)]
        runs = _batch_over_reps(cases, self.cfg, np.arange(self.cfg.replications))
        means = np.array([r.profit.mean() for r in runs]).reshape(len(levels), self.dim)
        return sum(means.T)  # one product at a time, in catalog order (np.sum reassociates)

    @cached_property
    def _demand_models(self) -> tuple[DemandModel, ...]:
        """Each product's demand model in catalog order, fit on first use."""
        return tuple(demand_model(product) for product in self.catalog)

    def _policy(self, product: ProductSpec, level: int) -> PolicyParams:
        if self.mode == "rq":
            return ContinuousReview(max(int(round(product.lead_time_demand)), 1), level)
        return PeriodicReview(DEFAULT_REVIEW_PERIOD, level)


def policy_profit_objective(catalog: Catalog, cfg: SimConfig, mode: str) -> ProfitObjective:
    return ProfitObjective(catalog, cfg, mode)
