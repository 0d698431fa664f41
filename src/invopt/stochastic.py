"""Seeded random streams and the demand / lead-time sampling models.

Daily demand is a Bernoulli thinning of a lognormal order size: with
probability ``1 - p`` no order arrives; otherwise the order size is a
lognormal draw (moment-matched to the catalog's mean/std) rounded to the
nearest integer unit.  Lead times are either deterministic or a two-point
"meet or delay" mixture.

Draw-count contract
-------------------
Replication layouts must stay stable across code paths, so the series
functions consume a fixed number of uniforms from every stream of a block,
whatever the number of models they transform them into:

* ``demand_series``: 2 uniforms per day (occurrence, size) — the size
  uniform is consumed even on no-order days.
* ``lead_time_series``: 1 uniform per order — consumed even in
  Deterministic mode, where its value is ignored.

Every model of a block reads the same uniforms, so the lognormal's
``ndtri`` runs once per block and only ``exp``/``rint`` run per model.

Streams are backed by the counter-based Philox generator (period >= 2^128
per stream); ``RNG_ALGORITHM`` names it for run manifests.  The stream at
address (seed, stream_id, path) is Philox with the 128-bit key
``SeedSequence(seed, spawn_key=(stream_id, *path)).generate_state(2,
uint64)`` and counter 0.  Philox is a pure function of its key, so the keys
of 1024 consecutive stream ids are derived together, by a numpy copy of
SeedSequence's hash mixing, and cached; ids of 2**32 and above (more than
one spawn-key word) and negative values go through SeedSequence itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from scipy.special import ndtri

from .errors import DomainError

RNG_ALGORITHM = "philox4x64"


# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF

KEY_BLOCK = 1024  # stream ids whose keys are derived together

# Philox's initial counter as the array it stores: an int counter costs
# Philox half its construction time to convert.
_COUNTER_ZERO = np.zeros(4, np.uint64)
_COUNTER_ZERO.flags.writeable = False


def _uint32_words(n: int) -> list[int]:
    """SeedSequence's little-endian 32-bit words of a non-negative int."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


class _PhiloxKey(ISeedSequence):
    """Hands Philox a precomputed key: no entropy draw, no hash mixing.

    ``key`` holds the two uint64 words, as ints, that Philox asks for with
    ``generate_state(2, np.uint64)``.
    """

    __slots__ = ("key",)

    def __init__(self, key: tuple[int, int]):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


@functools.lru_cache(maxsize=16)
def _key_block(seed: int, path: tuple[int, ...], block: int) -> tuple[_PhiloxKey, ...]:
    """Philox keys of stream ids block*KEY_BLOCK ... (block+1)*KEY_BLOCK - 1.

    Key j equals SeedSequence(seed, spawn_key=(id_j, *path)).generate_state(2,
    uint64): the same hash mixing, with every 32-bit word a column of ids.
    Needs seed, path >= 0 and ids < 2**32 (one spawn-key word per id).
    """
    def words(n: int) -> list[np.ndarray]:
        return [np.full(KEY_BLOCK, w, np.uint32) for w in _uint32_words(n)]

    seed_words = words(seed)
    seed_words += words(0) * (_POOL_SIZE - len(seed_words))  # padded when a spawn key follows
    ids = np.arange(KEY_BLOCK, dtype=np.uint32) + np.uint32(block * KEY_BLOCK)
    entropy = [*seed_words, ids, *(w for p in path for w in words(p))]

    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> np.uint32(16))

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for word in pool:  # generate_state(2, uint64) reads the 4 pool words once
        word = word ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        word = word * np.uint32(hash_const)
        state.append((word ^ (word >> np.uint32(16))).astype(np.uint64))
    keys = np.stack([state[0] | state[1] << np.uint64(32),
                     state[2] | state[3] << np.uint64(32)], axis=1)
    return tuple(_PhiloxKey(tuple(key)) for key in keys.tolist())


def _philox_key(seed: int, stream_id: int, path: tuple[int, ...]) -> _PhiloxKey:
    """The cached key of a block-covered address, else SeedSequence's own."""
    if 0 <= stream_id < 2**32 and seed >= 0 and (not path or min(path) >= 0):
        return _key_block(seed, path, stream_id // KEY_BLOCK)[stream_id % KEY_BLOCK]
    seq = np.random.SeedSequence(seed, spawn_key=(stream_id, *path))
    return _PhiloxKey(tuple(seq.generate_state(2, np.uint64).tolist()))


class RngStream:
    """Deterministic random stream addressed by (seed, stream_id, path).

    Two streams built with the same address produce bit-identical draws;
    distinct stream_ids or paths are statistically independent.
    A stream is single-owner: it holds generator state, so two consumers
    drawing from one stream would interleave (and perturb) each other's draws.
    """

    __slots__ = ("seed", "stream_id", "path", "_gen")

    def __init__(self, seed: int, stream_id: int = 0, path: tuple[int, ...] = ()):
        self.seed = seed = int(seed)
        self.stream_id = stream_id = int(stream_id)
        self.path = path = tuple(map(int, path))
        key = _philox_key(seed, stream_id, path)
        self._gen = np.random.Generator(np.random.Philox(key, counter=_COUNTER_ZERO))

    def uniform(self, n: int) -> np.ndarray:
        """Next n uniforms in [0, 1)."""
        return self._gen.random(n)

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


def demand_series(models: Sequence[DemandModel], streams: Sequence[RngStream],
                  n: int) -> np.ndarray:
    """n days of demand of every model on every stream, as int64 units.

    Returns shape (len(models), len(streams), n); consumes exactly 2n
    uniforms from each stream, shared by all the models.
    """
    u = np.array([s.uniform(2 * n) for s in streams]).reshape(len(streams), n, 2)
    occurrence, z = u[..., 0], ndtri(u[..., 1])
    out = np.empty((len(models), len(streams), n), np.int64)
    for k, model in enumerate(models):
        if model.log_sigma == 0.0:
            size = np.full(occurrence.shape, np.rint(math.exp(model.log_mu)))
        else:
            size = np.rint(np.exp(model.log_mu + model.log_sigma * z))
        size = np.minimum(size, 2.0**62)  # keep pathological tails representable as int64
        out[k] = np.where(occurrence < model.order_probability, size, 0.0)
    return out


def lead_time_series(models: Sequence[LeadTimeModel], streams: Sequence[RngStream],
                     n: int) -> np.ndarray:
    """n lead times in integer days of every model on every stream.

    Returns shape (len(models), len(streams), n); consumes exactly n uniforms
    from each stream, shared by all the models.
    """
    u = np.array([s.uniform(n) for s in streams]).reshape(len(streams), n)
    out = np.empty((len(models), len(streams), n), np.int64)
    for k, model in enumerate(models):
        if isinstance(model.mode, Deterministic):
            out[k] = model.nominal
        else:
            out[k] = np.where(u < model.mode.p_meet, model.nominal, model.delayed)
    return out
