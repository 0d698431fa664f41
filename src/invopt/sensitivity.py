"""One-at-a-time sensitivity analysis of simulated policy outcomes.

Each spec names a policy variable and its deltas.  For every (product,
demand model, policy) case, the named policy field is scaled by (1 + delta),
rounded to integer units, and the replications rerun under the baseline seed
(common random numbers), so a zero delta reproduces the baseline bit-exactly.
The cases are those built once by ``simengine.catalog_cases``; no demand
model is fitted here.

Every (variable, delta, product) case of every spec runs in one engine
call.  Rows come in a fixed order: variable, then delta, then product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Sequence

from .catalog import ProductSpec
from .errors import ConfigError
from .simengine import Case, ContinuousReview, PolicyParams, SimConfig, simulate_cases

# the policy field each sensitivity variable perturbs
POLICY_FIELDS = {"oup": "order_up_to", "reorder_point": "reorder_point",
                 "order_quantity": "order_quantity"}

DEFAULT_DELTAS = (0.10, -0.05)


@dataclass(frozen=True)
class SensitivitySpec:
    variable: str
    deltas: tuple[float, ...] = DEFAULT_DELTAS

    def __post_init__(self) -> None:
        if self.variable not in POLICY_FIELDS:
            raise ConfigError(
                f"unknown sensitivity variable {self.variable!r}; "
                f"known: {', '.join(POLICY_FIELDS)}"
            )
        if not self.deltas:
            raise ConfigError("deltas must not be empty")
        if not all(math.isfinite(d) for d in self.deltas):
            raise ConfigError("every delta must be finite")
        if any(d <= -1.0 for d in self.deltas):
            raise ConfigError("every delta must be > -1")


@dataclass(frozen=True)
class SensitivityRow:
    variable: str
    delta: float
    product: str
    profit: float
    profit_std: float
    lost_orders: float
    safety_stock: float


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


def policy_variables(kind: type) -> list[str]:
    """The variables that perturb a field of a `kind` policy, in POLICY_FIELDS order."""
    own = {f.name for f in fields(kind)}
    return [variable for variable, field in POLICY_FIELDS.items() if field in own]


def _perturb(policy: PolicyParams, variable: str, delta: float, product: str) -> PolicyParams:
    field = POLICY_FIELDS[variable]
    if variable not in policy_variables(type(policy)):
        raise ConfigError(f"variable {variable!r} perturbs {field}, "
                          f"which a {type(policy).__name__} policy does not have")
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
        stats = part.stats()
        rows.append(SensitivityRow(variable, delta, product.name, stats.mean_profit,
                                   stats.profit_std, stats.lost_order_fraction,
                                   policy_safety_stock(product, policy)))
    return rows
