"""Product catalog: data model, CSV load/store, and demand reconciliation.

A catalog row describes one product's economics (costs, price), its demand
statistics (daily order probability, order-size mean/std), and its supply
parameters (lead time, starting stock).  The simulation year is 365 calendar
days and the order probability is interpreted per calendar day; the holding
cost column is per unit per *year* (the simulator divides by 365 for the
daily rate).
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

from .errors import ParseError, ValidationError

DAYS_PER_YEAR = 365

# CSV column -> ProductSpec field, in header order
_FIELD_BY_COLUMN = {
    "name": "name",
    "purchase_cost": "purchase_cost",
    "lead_time": "lead_time",
    "size": "unit_size",
    "selling_price": "selling_price",
    "starting_stock": "starting_stock",
    "mean": "daily_order_size_mean",
    "std_dev": "daily_order_size_std",
    "order_cost": "order_cost",
    "holding_cost": "holding_cost",
    "probability": "order_probability",
    "demand_lead": "lead_time_demand",
    "annual_demand": "annual_demand",
}
_COLUMNS = list(_FIELD_BY_COLUMN)
CSV_HEADER = ",".join(_COLUMNS)


class ReconciliationWarning(UserWarning):
    """Declared annual demand disagrees with the daily demand parameters."""


@dataclass(frozen=True)
class ProductSpec:
    """One product's economic, demand, and lead-time parameters."""

    name: str
    purchase_cost: float        # money per unit
    lead_time: int              # days
    unit_size: float            # volume factor
    selling_price: float        # money per unit
    starting_stock: int         # units on hand at day 0
    daily_order_size_mean: float    # units per order-day
    daily_order_size_std: float     # units per order-day
    order_cost: float           # money per order placed
    holding_cost: float         # money per unit per year
    order_probability: float    # P(an order arrives on a given day)
    lead_time_demand: float     # units expected during one lead time
    annual_demand: float        # units per year

    def __post_init__(self) -> None:
        checks = [
            ("selling_price", self.selling_price > 0, "> 0"),
            ("purchase_cost", self.purchase_cost > 0, "> 0"),
            ("order_cost", self.order_cost > 0, "> 0"),
            ("holding_cost", self.holding_cost > 0, "> 0"),
            ("order_probability", 0.0 <= self.order_probability <= 1.0, "in [0, 1]"),
            ("daily_order_size_std", self.daily_order_size_std >= 0, ">= 0"),
            ("daily_order_size_mean", self.daily_order_size_mean > 0, "> 0"),
            ("lead_time", self.lead_time >= 0, ">= 0"),
            ("starting_stock", self.starting_stock >= 0, ">= 0"),
            ("unit_size", self.unit_size > 0, "> 0"),
            ("lead_time_demand", self.lead_time_demand >= 0, ">= 0"),
            ("annual_demand", self.annual_demand > 0, "> 0"),
        ]
        for field_name, ok, rule in checks:
            if not ok:
                raise ValidationError(
                    f"product {self.name!r}: {field_name}={getattr(self, field_name)!r} "
                    f"violates {field_name} {rule}"
                )
        report = reconcile(self)
        if report.relative_error > 0.05:
            warnings.warn(
                f"product {self.name!r}: implied annual demand "
                f"{report.implied_annual_demand:.1f} deviates "
                f"{report.relative_error:.1%} from declared {self.annual_demand}",
                ReconciliationWarning,
                stacklevel=2,
            )


@dataclass(frozen=True)
class Catalog:
    """Ordered, validated collection of products."""

    products: tuple[ProductSpec, ...]

    def __post_init__(self) -> None:
        if not self.products:
            raise ValidationError("empty catalog")
        names = [p.name for p in self.products]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValidationError(f"duplicate product names: {', '.join(dupes)}")

    def __iter__(self):
        return iter(self.products)

    def __len__(self) -> int:
        return len(self.products)

    def get(self, name: str) -> ProductSpec:
        for p in self.products:
            if p.name == name:
                return p
        raise KeyError(name)


@dataclass(frozen=True)
class ReconciliationReport:
    """Implied annual demand vs the declared column."""

    name: str
    implied_annual_demand: float
    declared_annual_demand: float
    relative_error: float


def reconcile(spec: ProductSpec) -> ReconciliationReport:
    """Compare 365 * p * mean_order_size against the declared annual demand."""
    implied = DAYS_PER_YEAR * spec.order_probability * spec.daily_order_size_mean
    rel = abs(implied - spec.annual_demand) / spec.annual_demand
    return ReconciliationReport(spec.name, implied, spec.annual_demand, rel)


_INT_FIELDS = {"lead_time", "starting_stock"}


def _parse_cell(column: str, raw: str, line_no: int):
    field = _FIELD_BY_COLUMN[column]
    if field == "name":
        if not raw.strip():
            raise ParseError(f"line {line_no}: empty product name")
        return raw.strip()
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"line {line_no}: column {column!r}: {raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ParseError(f"line {line_no}: column {column!r}: {raw!r} is not finite")
    if field in _INT_FIELDS:
        if value != int(value):
            raise ParseError(f"line {line_no}: column {column!r}: {raw!r} is not an integer")
        return int(value)
    return value


def load_catalog(path: str) -> Catalog:
    """Load and validate a product catalog from a CSV file.

    Raises ParseError on malformed input (with the line number) and
    ValidationError when a row violates a product invariant.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError("empty catalog") from None
        if header != _COLUMNS:
            raise ParseError(
                f"line 1: header mismatch, expected {CSV_HEADER!r}, got {','.join(header)!r}"
            )
        products = []
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(_COLUMNS):
                raise ParseError(
                    f"line {line_no}: expected {len(_COLUMNS)} columns, got {len(row)}"
                )
            kwargs = {
                _FIELD_BY_COLUMN[col]: _parse_cell(col, raw, line_no)
                for col, raw in zip(_COLUMNS, row)
            }
            products.append(ProductSpec(**kwargs))
    if not products:
        raise ValidationError("empty catalog")
    return Catalog(tuple(products))


def write_catalog(catalog: Catalog, path: str) -> None:
    """Write a catalog in the exact schema load_catalog expects.

    Numeric cells use shortest round-tripping repr, so load(write(c)) == c.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_COLUMNS)
        for p in catalog:
            values = [getattr(p, field) for field in _FIELD_BY_COLUMN.values()]
            writer.writerow([v if isinstance(v, str) else repr(v) for v in values])
