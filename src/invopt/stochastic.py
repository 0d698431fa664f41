"""Seeded random streams and the demand / lead-time sampling models.

Daily demand is a Bernoulli thinning of a lognormal order size: with
probability ``1 - p`` no order arrives; otherwise the order size is a
lognormal draw (moment-matched to the catalog's mean/std) rounded to the
nearest integer unit.  Lead times are either deterministic or a two-point
"meet or delay" mixture.

Draw-count contract
-------------------
Replication layouts must stay stable across code paths, so each series
function consumes a fixed number of uniforms per value:

* ``demand_series``: 2 uniforms per day (occurrence, size) — the size
  uniform is consumed even on no-order days.
* ``lead_time_series``: 1 uniform per order — consumed even in
  Deterministic mode, where its value is ignored.

Streams are backed by the counter-based Philox generator (period >= 2^128
per stream); ``RNG_ALGORITHM`` names it for run manifests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import DomainError

RNG_ALGORITHM = "philox4x64"


class RngStream:
    """Deterministic random stream addressed by (seed, stream_id, path).

    Two streams built with the same address produce bit-identical draws;
    distinct stream_ids or paths are statistically independent.
    A stream is single-owner: it holds generator state, so two consumers
    drawing from one stream would interleave (and perturb) each other's draws.
    """

    __slots__ = ("seed", "stream_id", "path", "_gen")

    def __init__(self, seed: int, stream_id: int = 0, path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self.path = tuple(int(p) for p in path)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id, *self.path))
        self._gen = np.random.Generator(np.random.Philox(ss))

    def uniform(self, n: int | None = None):
        """Next n uniforms in [0, 1) (a scalar when n is None)."""
        return self._gen.random() if n is None else self._gen.random(n)

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream_id={self.stream_id}, path={self.path})"


@dataclass(frozen=True)
class DemandModel:
    """Daily demand generator: Bernoulli(p) occurrence x lognormal order size."""

    order_probability: float
    log_mu: float
    log_sigma: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.order_probability <= 1.0:
            raise DomainError(f"order_probability {self.order_probability} outside [0, 1]")
        if self.log_sigma < 0:
            raise DomainError(f"log_sigma {self.log_sigma} must be >= 0")

    @classmethod
    def from_moments(cls, order_probability: float, mean: float, std: float) -> "DemandModel":
        log_mu, log_sigma = fit_lognormal(mean, std)
        return cls(order_probability, log_mu, log_sigma)

    @property
    def analytic_order_size_mean(self) -> float:
        return math.exp(self.log_mu + 0.5 * self.log_sigma**2)

    @property
    def analytic_order_size_std(self) -> float:
        s2 = self.log_sigma**2
        return math.sqrt((math.exp(s2) - 1.0) * math.exp(2.0 * self.log_mu + s2))

    @property
    def daily_mean(self) -> float:
        """Unconditional expected demand per day."""
        return self.order_probability * self.analytic_order_size_mean


@dataclass(frozen=True)
class Deterministic:
    """Lead time always equals the nominal value."""


@dataclass(frozen=True)
class MeetOrDelay:
    """Supplier meets the nominal lead time with probability p_meet,
    otherwise delivers at round(nominal * delay_factor)."""

    p_meet: float
    delay_factor: float = 1.5

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_meet <= 1.0:
            raise DomainError(f"p_meet {self.p_meet} outside [0, 1]")
        if self.delay_factor <= 1.0:
            raise DomainError(f"delay_factor {self.delay_factor} must be > 1")


LeadTimeMode = Deterministic | MeetOrDelay


@dataclass(frozen=True)
class LeadTimeModel:
    nominal: int
    mode: LeadTimeMode = Deterministic()

    def __post_init__(self) -> None:
        if self.nominal < 0:
            raise DomainError(f"nominal lead time {self.nominal} must be >= 0")

    @property
    def delayed(self) -> int:
        if isinstance(self.mode, MeetOrDelay):
            return round(self.nominal * self.mode.delay_factor)
        return self.nominal

    @property
    def max_days(self) -> int:
        return max(self.nominal, self.delayed)


def fit_lognormal(mean: float, std: float) -> tuple[float, float]:
    """Closed-form lognormal moment matching.

    Returns (log_mu, log_sigma) such that the lognormal's analytic mean and
    std equal the inputs: log_sigma^2 = ln(1 + std^2/mean^2) and
    log_mu = ln(mean) - log_sigma^2 / 2.
    """
    if mean <= 0:
        raise DomainError(f"mean {mean} must be > 0")
    if std < 0:
        raise DomainError(f"std {std} must be >= 0")
    s2 = math.log1p((std / mean) ** 2)
    return math.log(mean) - 0.5 * s2, math.sqrt(s2)


def demand_series(model: DemandModel, rng: RngStream, n: int) -> np.ndarray:
    """n days of demand as int64 units; consumes exactly 2n uniforms."""
    u = rng.uniform(2 * n).reshape(n, 2)
    occurs = u[:, 0] < model.order_probability
    if model.log_sigma == 0.0:
        size = np.full(n, np.rint(math.exp(model.log_mu)))
    else:
        size = np.rint(np.exp(model.log_mu + model.log_sigma * ndtri(u[:, 1])))
    size = np.minimum(size, 2.0**62)  # keep pathological tails representable as int64
    return np.where(occurs, size, 0.0).astype(np.int64)


def lead_time_series(model: LeadTimeModel, rng: RngStream, n: int) -> np.ndarray:
    """n lead times in integer days; consumes exactly n uniforms."""
    u = rng.uniform(n)
    if isinstance(model.mode, Deterministic):
        return np.full(n, model.nominal, dtype=np.int64)
    return np.where(u < model.mode.p_meet, model.nominal, model.delayed).astype(np.int64)
