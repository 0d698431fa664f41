"""Quantitative per-product risk metrics.

Covers holding-cost risk, stockout risk via a static service-level ratio,
supplier-performance ranking, inventory holding cost, expected backorder
cost, and expected fill rate.  All functions are pure; emitted probabilities
are clamped to [0, 1].

The holding-cost rate and the backorder cost per unit are configuration
knobs (no catalog column defines them); reports must state the values used.
The supplier on-time probability ``p_meet`` is the catalog's
``probability`` column (``ProductSpec.order_probability``), the same value
that gives the per-day order probability of simulated demand; the catalog
has no separate supplier column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .catalog import Catalog, ProductSpec
from .eoq import eoq as economic_order_quantity, safety_stock
from .errors import DomainError


@dataclass(frozen=True)
class RiskReport:
    name: str
    hcr: float                  # holding-cost risk, money/unit
    service_level: float        # stockout risk proxy (lower = riskier)
    spr_rank: int               # 1 = riskiest supplier in the catalog
    p_meet: float               # supplier on-time probability (catalog probability)
    ihc: float                  # inventory holding cost, money
    expected_backorders: float  # units
    boc: float                  # expected backorder cost, money
    efr: float                  # expected fill rate

    def __post_init__(self) -> None:
        if not 0.0 <= self.service_level <= 1.0 or not 0.0 <= self.efr <= 1.0:
            raise DomainError("probabilities must be clamped to [0, 1]")
        if self.ihc < 0 or self.boc < 0:
            raise DomainError("ihc and boc must be nonnegative")


def holding_cost_risk(purchase_cost: float, holding_cost_rate: float) -> float:
    """Purchase cost times the holding-cost rate."""
    if purchase_cost < 0 or not 0 <= holding_cost_rate < math.inf:
        raise DomainError("holding_cost_risk arguments must be finite and nonnegative")
    return purchase_cost * holding_cost_rate


def service_level(
    lead_time_demand: float,
    safety_stock: float,
    starting_inventory: float,
    scheduled_receipts: float,
) -> float:
    """(lead-time demand + safety stock) / (starting inventory + receipts), clamped."""
    denom = starting_inventory + scheduled_receipts
    if denom <= 0:
        raise DomainError(f"starting_inventory + scheduled_receipts = {denom} must be > 0")
    return min(1.0, max(0.0, (lead_time_demand + safety_stock) / denom))


def inventory_holding_cost(
    order_quantity: float, safety_stock: float, holding_cost_per_unit: float
) -> float:
    """(Q/2 + safety stock) * holding cost per unit."""
    if order_quantity < 0 or safety_stock < 0 or holding_cost_per_unit < 0:
        raise DomainError("inventory_holding_cost arguments must be nonnegative")
    return (order_quantity / 2.0 + safety_stock) * holding_cost_per_unit


def expected_backorder_cost(
    service_level: float, lead_time_demand: float, backorder_cost_per_unit: float
) -> float:
    """(1 - service level) * lead-time demand * backorder cost per unit."""
    if not 0.0 <= service_level <= 1.0:
        raise DomainError(f"service_level {service_level} outside [0, 1]")
    if not math.isfinite(backorder_cost_per_unit):
        raise DomainError(f"backorder cost {backorder_cost_per_unit} must be finite")
    return (1.0 - service_level) * lead_time_demand * backorder_cost_per_unit


def expected_fill_rate(
    service_level: float, starting_inventory: float, lead_time_demand: float
) -> float:
    """SL + (1 - SL) * starting inventory / lead-time demand, clamped to [0, 1]."""
    if lead_time_demand <= 0:
        raise DomainError(f"lead_time_demand {lead_time_demand} must be > 0")
    value = service_level + (1.0 - service_level) * (starting_inventory / lead_time_demand)
    return min(1.0, max(0.0, value))


def supplier_performance_rank(catalog: Catalog) -> list[ProductSpec]:
    """Products ordered riskiest first: ascending on-time probability, ties by name."""
    return sorted(catalog, key=lambda p: (p.order_probability, p.name))


def build_risk_report(
    catalog: Catalog,
    holding_cost_rate: float = 1.0,
    backorder_cost_per_unit: float = 1.0,
) -> list[RiskReport]:
    """Risk metrics for every product in the catalog.

    Safety stock is one standard deviation of demand during lead time
    (rounded up); the order quantity behind IHC is the product's EOQ.
    """
    ranking = {p.name: i + 1 for i, p in enumerate(supplier_performance_rank(catalog))}
    reports = []
    for p in catalog:
        ss = safety_stock(1.0, p.daily_order_size_std, p.lead_time)
        sl = service_level(p.lead_time_demand, ss, p.starting_stock, 0.0)
        q = economic_order_quantity(p.annual_demand, p.order_cost, p.holding_cost)
        backorders = (1.0 - sl) * p.lead_time_demand
        reports.append(
            RiskReport(
                name=p.name,
                hcr=holding_cost_risk(p.purchase_cost, holding_cost_rate),
                service_level=sl,
                spr_rank=ranking[p.name],
                p_meet=p.order_probability,
                ihc=inventory_holding_cost(q, ss, p.holding_cost),
                expected_backorders=backorders,
                boc=expected_backorder_cost(sl, p.lead_time_demand, backorder_cost_per_unit),
                efr=expected_fill_rate(sl, p.starting_stock, p.lead_time_demand),
            )
        )
    return reports
