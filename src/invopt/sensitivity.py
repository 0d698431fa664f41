"""One-at-a-time sensitivity analysis of simulated policy outcomes.

Two modes:

* Linear — scale the baseline outputs by (1 + delta) for the declared-linear
  output (expected profit); profit std dev and the lost-order fraction are
  never scaled (a fraction cannot scale multiplicatively and stay in [0, 1])
  and are copied with a requires-resimulation marker.
* Resimulate — perturb the named policy variable of each (product, demand
  model, policy) case, round to integer units, and rerun the replications
  under the baseline seed (common random numbers), so a zero delta
  reproduces the baseline bit-exactly.  It takes the cases as built once by
  ``simengine.catalog_cases`` and fits no demand model of its own.

Both modes take any number of specs; resimulation runs every (variable,
delta, product) case in one engine call.  Emitted rows cover every
(delta, product) pair of every spec in a fixed order: variable, then delta,
then product.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from typing import Mapping, Sequence

from .catalog import ProductSpec
from .errors import ConfigError
from .simengine import (
    Case,
    ContinuousReview,
    PolicyParams,
    ReplicationStats,
    SimConfig,
    simulate_cases,
)

# the policy field each resimulatable variable perturbs
POLICY_FIELDS = {"oup": "order_up_to", "reorder_point": "reorder_point",
                 "order_quantity": "order_quantity"}
LINEAR_ONLY_VARIABLES = ("expected_profit", "selling_price", "safety_stock")
NONLINEAR_OUTPUTS = ("profit_std", "lost_orders")
KNOWN_VARIABLES = (*POLICY_FIELDS, *LINEAR_ONLY_VARIABLES, *NONLINEAR_OUTPUTS)

DEFAULT_DELTAS = (0.10, -0.05)


@dataclass(frozen=True)
class SensitivitySpec:
    variable: str
    deltas: tuple[float, ...] = DEFAULT_DELTAS

    def __post_init__(self) -> None:
        if self.variable not in KNOWN_VARIABLES:
            raise ConfigError(
                f"unknown sensitivity variable {self.variable!r}; "
                f"known: {', '.join(KNOWN_VARIABLES)}"
            )
        if not self.deltas:
            raise ConfigError("deltas must not be empty")
        if not all(math.isfinite(d) for d in self.deltas):
            raise ConfigError("every delta must be finite")
        if any(d <= -1.0 for d in self.deltas):
            raise ConfigError("every delta must be > -1")


@dataclass(frozen=True)
class BaselineOutputs:
    profit: float
    profit_std: float
    lost_orders: float
    safety_stock: float

    @classmethod
    def from_stats(cls, stats: ReplicationStats, safety_stock: float) -> "BaselineOutputs":
        return cls(stats.mean_profit, stats.profit_std, stats.lost_order_fraction,
                   safety_stock)


@dataclass(frozen=True)
class SensitivityRow:
    variable: str
    delta: float
    product: str
    profit: float
    profit_std: float
    lost_orders: float
    safety_stock: float
    needs_resim: tuple[str, ...]    # outputs copied unscaled in linear mode


def policy_safety_stock(product: ProductSpec, policy: PolicyParams) -> float:
    """Buffer implied by the policy above expected demand coverage.

    Continuous review: reorder point minus lead-time demand.  Periodic
    review: order-up-to minus expected demand over review period + lead.
    """
    daily_mean = product.order_probability * product.daily_order_size_mean
    if isinstance(policy, ContinuousReview):
        return max(policy.reorder_point - product.lead_time_demand, 0.0)
    coverage = daily_mean * (policy.review_period + product.lead_time)
    return max(policy.order_up_to - coverage, 0.0)


def sensitivity_linear(
    baseline: Mapping[str, BaselineOutputs], *specs: SensitivitySpec
) -> list[SensitivityRow]:
    """Scale baseline outputs by (1 + delta) under the linearity assumption."""
    rows = []
    for spec in specs:
        scale_profit = spec.variable not in NONLINEAR_OUTPUTS
        scale_safety = spec.variable == "safety_stock"
        marked = NONLINEAR_OUTPUTS if scale_profit else (*NONLINEAR_OUTPUTS, "profit")
        for delta in spec.deltas:
            for name, base in baseline.items():
                rows.append(SensitivityRow(
                    variable=spec.variable,
                    delta=delta,
                    product=name,
                    profit=base.profit * (1.0 + delta) if scale_profit else base.profit,
                    profit_std=base.profit_std,
                    lost_orders=base.lost_orders,
                    safety_stock=base.safety_stock * (1.0 + delta) if scale_safety
                    else base.safety_stock,
                    needs_resim=marked,
                ))
    return rows


def policy_variables(kind: type) -> list[str]:
    """The variables that perturb a field of a `kind` policy, in POLICY_FIELDS order."""
    own = {f.name for f in fields(kind)}
    return [variable for variable, field in POLICY_FIELDS.items() if field in own]


def check_policy_variables(kind: type, variables: Sequence[str]) -> None:
    """Raise if a variable perturbs a policy field that a `kind` policy lacks."""
    own = policy_variables(kind)
    for variable in variables:
        if variable in POLICY_FIELDS and variable not in own:
            raise ConfigError(f"variable {variable!r} perturbs {POLICY_FIELDS[variable]}, "
                              f"which a {kind.__name__} policy does not have")


def _perturb(policy: PolicyParams, variable: str, delta: float, product: str) -> PolicyParams:
    field = POLICY_FIELDS.get(variable)
    if field is None:
        raise ConfigError(f"variable {variable!r} is not resimulatable; "
                          f"choose one of {', '.join(POLICY_FIELDS)}")
    check_policy_variables(type(policy), [variable])
    value = getattr(policy, field)
    new = int(round(value * (1.0 + delta)))
    if new <= 0:
        raise ConfigError(f"product {product!r}: delta {delta:+g} drives {variable} "
                          f"from {value} to {new} (must stay positive)")
    return replace(policy, **{field: new})


def sensitivity_resim(
    cases: Sequence[Case], cfg: SimConfig, *specs: SensitivitySpec
) -> list[SensitivityRow]:
    """Rerun the replications of every (product, demand model, policy) case
    with each spec's variable perturbed, all in one engine call under the
    baseline seed; rows carry the simulated outputs."""
    perturbed = [(spec.variable, delta,
                  (product, demand, _perturb(policy, spec.variable, delta, product.name)))
                 for spec in specs for delta in spec.deltas for product, demand, policy in cases]
    if not perturbed:
        return []
    runs = simulate_cases([case for _, _, case in perturbed], cfg)
    rows = []
    for (variable, delta, (product, _, policy)), part in zip(perturbed, runs):
        outputs = BaselineOutputs.from_stats(part.stats(), policy_safety_stock(product, policy))
        rows.append(SensitivityRow(variable, delta, product.name, needs_resim=(),
                                   **asdict(outputs)))
    return rows
