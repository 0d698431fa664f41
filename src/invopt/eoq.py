"""Closed-form order-quantity analytics: EOQ, annual cost/profit, safety
stock, reorder point, and the continuous-review optimal quantity.

All functions are pure.  Quantities are kept fractional internally; reports
round EOQ/Q* to the nearest unit, while safety stock always rounds up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import ndtri

from .catalog import ProductSpec
from .errors import DomainError

# Standard-normal quantiles for the common service levels.  1.65 is the
# traditional rounded z for 95% and is available behind legacy_z.
Z_TABLE = {0.90: 1.2816, 0.95: 1.6449, 0.99: 2.3263}
LEGACY_Z95 = 1.65


@dataclass(frozen=True)
class EoqReport:
    """Per-product order-quantity analytics."""

    name: str
    eoq: float                          # units, fractional
    total_annual_cost: float            # money
    total_annual_profit: float          # money
    safety_stock: int                   # units, rounded up
    reorder_point: float                # units
    expected_lost_order_proportion: float
    z_score: float
    service_level: float


def z_for_service_level(service_level: float, legacy_z: bool = False) -> float:
    """z-score for a cycle service level; table-backed for 0.90/0.95/0.99."""
    if not 0.0 < service_level < 1.0:
        raise DomainError(f"service_level {service_level} outside (0, 1)")
    if legacy_z and service_level == 0.95:
        return LEGACY_Z95
    if service_level in Z_TABLE:
        return Z_TABLE[service_level]
    return float(ndtri(service_level))


def eoq(annual_demand: float, order_cost: float, holding_cost: float) -> float:
    """sqrt(2 * D * S / H): the quantity balancing ordering and holding cost."""
    if annual_demand <= 0 or order_cost <= 0 or holding_cost <= 0:
        raise DomainError("eoq requires annual_demand, order_cost, holding_cost > 0")
    return math.sqrt(2.0 * annual_demand * order_cost / holding_cost)


def total_annual_cost(
    annual_demand: float, q: float, order_cost: float, holding_cost: float
) -> float:
    """(D / q) * S + (q / 2) * H."""
    if q <= 0:
        raise DomainError(f"order quantity q={q} must be > 0")
    return (annual_demand / q) * order_cost + (q / 2.0) * holding_cost


def total_annual_profit(
    annual_demand: float,
    selling_price: float,
    q: float,
    order_cost: float,
    holding_cost: float,
) -> float:
    """D * price - total_annual_cost(D, q, S, H)."""
    return annual_demand * selling_price - total_annual_cost(
        annual_demand, q, order_cost, holding_cost
    )


def safety_stock(
    z: float, demand_std: float, lead_time: float, review_time: float = 0.0
) -> int:
    """ceil(z * sigma_d * sqrt(lead_time + review_time)), protective rounding."""
    if not 0 <= review_time < math.inf:
        raise DomainError(f"review_time {review_time} must be finite and nonnegative")
    if z < 0 or demand_std < 0 or lead_time + review_time < 0:
        raise DomainError("safety_stock arguments must be nonnegative")
    return math.ceil(z * demand_std * math.sqrt(lead_time + review_time))


def reorder_point(lead_time_demand: float, safety: float) -> float:
    """Lead-time demand plus safety stock."""
    if lead_time_demand < 0 or safety < 0:
        raise DomainError("reorder_point arguments must be nonnegative")
    return lead_time_demand + safety


def expected_lost_order_proportion(
    p_stockout: float, safety: float, average_inventory: float
) -> float:
    """p_stockout * (1 - safety_stock / average_inventory), clamped to [0, 1]."""
    if average_inventory <= 0:
        raise DomainError(f"average_inventory {average_inventory} must be > 0")
    if not 0.0 <= p_stockout <= 1.0:
        raise DomainError(f"p_stockout {p_stockout} outside [0, 1]")
    return min(1.0, max(0.0, p_stockout * (1.0 - safety / average_inventory)))


def continuous_q_star(
    daily_demand_mean: float, order_cost: float, holding_cost: float
) -> float:
    """sqrt(2 * D * S / H) with D the per-unit-time demand as given."""
    if daily_demand_mean <= 0 or order_cost <= 0 or holding_cost <= 0:
        raise DomainError("continuous_q_star requires all inputs > 0")
    return math.sqrt(2.0 * daily_demand_mean * order_cost / holding_cost)


def build_eoq_report(
    product: ProductSpec,
    service_level: float = 0.95,
    review_time: float = 0.0,
    legacy_z: bool = False,
) -> EoqReport:
    """Full analytics row for one product at a target service level."""
    z = z_for_service_level(service_level, legacy_z=legacy_z)
    q = eoq(product.annual_demand, product.order_cost, product.holding_cost)
    cost = total_annual_cost(product.annual_demand, q, product.order_cost, product.holding_cost)
    profit = total_annual_profit(product.annual_demand, product.selling_price, q,
                                 product.order_cost, product.holding_cost)
    ss = safety_stock(z, product.daily_order_size_std, product.lead_time, review_time)
    rop = reorder_point(product.lead_time_demand, ss)
    avg_inventory = q / 2.0 + ss
    elp = expected_lost_order_proportion(1.0 - service_level, ss, avg_inventory)
    return EoqReport(
        name=product.name,
        eoq=q,
        total_annual_cost=cost,
        total_annual_profit=profit,
        safety_stock=ss,
        reorder_point=rop,
        expected_lost_order_proportion=elp,
        z_score=z,
        service_level=service_level,
    )
