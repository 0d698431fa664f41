"""Command-line front door.

Subcommands: eoq, risk, simulate, sweep, compare, optimize, sensitivity.
Reports are CSV on stdout (or files under --out-dir) with the run manifest
embedded as leading comment lines; diagnostics go to stderr.  The manifest
is built from the parsed arguments: subcommand, catalog, seed, version and
rng, then every other argument that has a value (file arguments by path,
output locations left out) and the values a command computes, such as
optimize's best_x.  Exit codes: 0 ok, 2 configuration/validation error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import __version__
from .catalog import load_catalog
from .eoq import build_eoq_report
from .errors import ConfigError, DomainError, NumericalError, ParseError, ValidationError
from .gpbo import BoConfig, ConditioningFn, bo_run
from .objectives import policy_profit_objective
from .riskmetrics import build_risk_report
from .sensitivity import SensitivitySpec, policy_variables, sensitivity_resim
from .simengine import (
    DEFAULT_REVIEW_PERIOD,
    MAX_POLICY_UNITS,
    ContinuousReview,
    DayRecord,
    PeriodicReview,
    SimConfig,
    catalog_cases,
    compare_policies,
    demand_model,
    replicate,  # not called here: perfbench/tracer.py wraps it as cli.replicate
    replication_samples,  # not called here: perfbench/tracer.py wraps it as cli.replication_samples
    simulate_cases,
    simulate_once,  # not called here: perfbench/tracer.py wraps it as cli.simulate_once
    sweep_oup,
)
from .stochastic import (
    RNG_ALGORITHM,
    RngStream,  # not used here: perfbench/tracer.py wraps it as cli.RngStream
)


def emit_histogram(samples, bins: int) -> str:
    """Equal-width histogram as CSV text: bin_lo,bin_hi,count."""
    data = np.asarray(list(samples), dtype=float)
    if data.size == 0:
        raise DomainError("emit_histogram requires non-empty samples")
    if bins < 1:
        raise DomainError(f"bins {bins} must be >= 1")
    lo, hi = float(data.min()), float(data.max())
    lines = ["bin_lo,bin_hi,count"]
    if lo == hi:
        lines.append(f"{lo:.6g},{hi:.6g},{data.size}")
        return "\n".join(lines) + "\n"
    counts, edges = np.histogram(data, bins=bins, range=(lo, hi))
    for i, count in enumerate(counts):
        lines.append(f"{edges[i]:.6g},{edges[i + 1]:.6g},{int(count)}")
    return "\n".join(lines) + "\n"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"config: {message}", file=sys.stderr)
        raise SystemExit(2)


def _global_flags(parser, suppress: bool) -> None:
    # registered on the main parser and (with suppressed defaults) on every
    # subparser, so they are accepted on either side of the subcommand
    s = argparse.SUPPRESS
    parser.add_argument("--catalog", default=s if suppress else None,
                        help="product catalog CSV")
    parser.add_argument("--seed", type=int, default=s if suppress else 0,
                        help="base random seed")
    parser.add_argument("--out-dir", default=s if suppress else None,
                        help="write reports here instead of stdout")


def _build_parser() -> _Parser:
    parser = _Parser(prog="invopt", description=__doc__)
    _global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    def add_parser(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        _global_flags(p, suppress=True)
        return p

    p_eoq = add_parser("eoq", help="closed-form order-quantity analytics")
    p_eoq.add_argument("--service-level", type=float, default=0.95)
    p_eoq.add_argument("--review-time", type=float, default=0.0)
    p_eoq.add_argument("--legacy-z", action="store_true",
                       help="use the traditional 1.65 for the 95%% service level")

    p_risk = add_parser("risk", help="per-product risk metrics")
    p_risk.add_argument("--holding-cost-rate", type=float, default=1.0)
    p_risk.add_argument("--backorder-cost", type=float, default=1.0)

    p_sim = add_parser("simulate", help="replicate a policy per product")
    p_sim.add_argument("--policy", choices=("rq", "pq"), required=True)
    p_sim.add_argument("--params", required=True, help="JSON file of per-product params")
    p_sim.add_argument("--horizon", type=int, default=365)
    p_sim.add_argument("--replications", type=int, default=10_000)
    p_sim.add_argument("--emit-trajectory", metavar="PATH",
                       help="write replication 0's day records as CSV")
    p_sim.add_argument("--emit-histogram", metavar="PATH",
                       help="write profit and lost-order histograms as CSV")
    p_sim.add_argument("--bins", type=int, default=30)

    p_sweep = add_parser("sweep", help="profit across order-up-to levels")
    p_sweep.add_argument("--product", required=True)
    p_sweep.add_argument("--oup-range", required=True, metavar="LO:HI")
    p_sweep.add_argument("--step", type=int, default=50)
    p_sweep.add_argument("--review", type=int, default=DEFAULT_REVIEW_PERIOD)
    p_sweep.add_argument("--horizon", type=int, default=365)
    p_sweep.add_argument("--replications", type=int, default=1000)

    p_cmp = add_parser("compare", help="periodic vs continuous review")
    p_cmp.add_argument("--pq-params", required=True)
    p_cmp.add_argument("--rq-params", required=True)
    p_cmp.add_argument("--horizon", type=int, default=365)
    p_cmp.add_argument("--replications", type=int, default=10_000)

    p_opt = add_parser("optimize", help="tune policy parameters with the GP optimizer")
    p_opt.add_argument("--objective", choices=("rq", "pq", "oup-per-product"), default="rq")
    p_opt.add_argument("--bounds", help="JSON file: [[lo, hi], ...] per product")
    p_opt.add_argument("--budget", type=int, default=60)
    p_opt.add_argument("--initial-design", type=int, default=12)
    p_opt.add_argument("--acquisition", choices=("ei", "pi"), default="ei")
    p_opt.add_argument("--conditioning", help="JSON file: alpha, centers, widths, weights")
    p_opt.add_argument("--horizon", type=int, default=365)
    p_opt.add_argument("--replications", type=int, default=100)

    p_sens = add_parser("sensitivity", help="one-at-a-time resimulated policy sensitivity")
    p_sens.add_argument("--deltas", default="0.10,-0.05")
    p_sens.add_argument("--policy", choices=("rq", "pq"), required=True)
    p_sens.add_argument("--params", required=True)
    p_sens.add_argument("--variables",
                        help="comma list; default oup (pq) or reorder_point,order_quantity (rq)")
    p_sens.add_argument("--horizon", type=int, default=365)
    p_sens.add_argument("--replications", type=int, default=1000)
    return parser


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from None


def _real(value) -> float:
    """A JSON number as a float; booleans, strings and other values are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _whole(value) -> int:
    """A JSON number as an int; booleans, strings and fractions are rejected."""
    if isinstance(value, bool) or (not isinstance(value, int) and not _real(value).is_integer()):
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def _check_fields(where: str, entry, reader: str, read: tuple[str, ...]) -> None:
    """Raise unless entry is a JSON object whose every field `reader` reads."""
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: expected a JSON object of fields")
    unread = sorted(set(entry) - set(read))
    if unread:
        raise ConfigError(f"{where}: unknown field(s) {', '.join(unread)}; "
                          f"{reader} reads {', '.join(read)}")


_POLICIES = {"pq": PeriodicReview, "rq": ContinuousReview}


def _load_cases(path: str, policy: str, catalog) -> list:
    """The catalog's cases under the per-product `policy` params in JSON file
    `path`; a pq entry without a review_period gets DEFAULT_REVIEW_PERIOD."""
    raw = _load_json(path)
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a JSON object of per-product params")
    kind = _POLICIES[policy]
    read = tuple(f.name for f in fields(kind))
    defaults = {"review_period": DEFAULT_REVIEW_PERIOD} if policy == "pq" else {}
    params = {}
    for name, entry in raw.items():
        _check_fields(f"{path}: product {name!r}", entry, f"a {policy} policy", read)
        entry = {**defaults, **entry}
        try:
            params[name] = kind(**{field: _whole(entry[field]) for field in read})
        except KeyError as exc:
            raise ConfigError(f"{path}: product {name!r}: missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: product {name!r}: {exc}") from None
    return catalog_cases(catalog, params, path)


# where reports go, not what is in them: left out of the manifest
_OUTPUT_LOCATIONS = ("out_dir", "emit_trajectory", "emit_histogram")


def _write(args, rows: list[str], side_files=(), **computed) -> int:
    """Write each (path, rows) side file whose path is set, then the report
    (to stdout or <out-dir>/<subcommand>.csv), all under one manifest: subcommand,
    catalog, seed, version and rng, then every other argument that has a value
    and the `computed` values, sorted by name.
    """
    fixed = {"subcommand", "catalog", "seed", *_OUTPUT_LOCATIONS}
    config = {k: v for k, v in vars(args).items() if v is not None and k not in fixed}
    head = [("subcommand", args.subcommand), ("catalog", args.catalog), ("seed", args.seed),
            ("version", __version__), ("rng", RNG_ALGORITHM)]
    manifest = [f"# manifest {key}={value}"
                for key, value in head + sorted({**config, **computed}.items())]

    def text(lines: list[str]) -> str:
        return "\n".join(manifest + lines) + "\n"

    for path, lines in side_files:
        if path is not None:
            Path(path).write_text(text(lines), encoding="utf-8")
    if args.out_dir is not None:
        report = _report_path(args)
        report.write_text(text(rows), encoding="utf-8")
        print(f"wrote {report}", file=sys.stderr)
    else:
        sys.stdout.write(text(rows))
    return 0


def _report_path(args) -> Path:
    return Path(args.out_dir) / f"{args.subcommand}.csv"


def _check_outputs(args) -> None:
    """Raise before any work when an output location cannot be written: an
    empty path is a config error, --out-dir is created now, each --emit-*
    file must sit in an existing, writable directory, and no two outputs
    (the --emit-* files and the report under --out-dir) may be one file."""
    written = {}
    for name in _OUTPUT_LOCATIONS:
        value = getattr(args, name, None)
        if value is None:
            continue
        flag = f"--{name.replace('_', '-')}"
        if not value:
            raise ConfigError(f"{flag} must not be empty")
        path = Path(value)
        if name == "out_dir":
            path.mkdir(parents=True, exist_ok=True)
            directory, path = path, _report_path(args)
        elif path.is_dir():
            raise IsADirectoryError(f"{value!r} is a directory, not a file")
        else:
            directory = path.parent
        if not directory.is_dir() or not os.access(directory, os.W_OK | os.X_OK):
            raise NotADirectoryError(f"{str(directory)!r} is not a writable directory")
        other = written.setdefault(path.resolve(), flag)
        if other != flag:
            raise ConfigError(f"{other} and {flag} both write {str(path)!r}")


def _money(x: float) -> str:
    return f"{x:.2f}"


def _stats_cells(stats) -> str:
    """The mean_profit, profit_std, lost_order_fraction and fill_rate cells of a row."""
    return (f"{_money(stats.mean_profit)},{_money(stats.profit_std)},"
            f"{stats.lost_order_fraction:.4f},{stats.fill_rate:.4f}")


def _cmd_eoq(args, catalog) -> int:
    reports = [
        build_eoq_report(p, args.service_level, args.review_time, args.legacy_z)
        for p in catalog
    ]
    names = ",".join(r.name for r in reports)
    rows = [
        ("annual_demand", [f"{p.annual_demand:g}" for p in catalog]),
        ("eoq", [f"{round(r.eoq)}" for r in reports]),
        ("total_annual_cost", [_money(r.total_annual_cost) for r in reports]),
        ("total_annual_profit", [_money(r.total_annual_profit) for r in reports]),
        ("expected_lost_order_proportion",
         [f"{r.expected_lost_order_proportion:.4f}" for r in reports]),
        ("safety_stock", [f"{r.safety_stock}" for r in reports]),
        ("reorder_point", [f"{round(r.reorder_point)}" for r in reports]),
        ("z_score", [f"{r.z_score:g}" for r in reports]),
        ("service_level", [f"{r.service_level:g}" for r in reports]),
    ]
    return _write(args, [f"metric,{names}",
                         *(f"{label}," + ",".join(cells) for label, cells in rows)])


def _cmd_risk(args, catalog) -> int:
    reports = build_risk_report(catalog, args.holding_cost_rate, args.backorder_cost)
    lines = ["product,hcr,service_level,spr_rank,p_meet,ihc,expected_backorders,boc,efr"]
    for r in reports:
        lines.append(
            f"{r.name},{_money(r.hcr)},{r.service_level:.4f},{r.spr_rank},"
            f"{r.p_meet:g},{_money(r.ihc)},{r.expected_backorders:.2f},"
            f"{_money(r.boc)},{r.efr:.4f}"
        )
    return _write(args, lines)


def _sim_config(args) -> SimConfig:
    return SimConfig(horizon=args.horizon, replications=args.replications, seed=args.seed)


def _cmd_simulate(args, catalog) -> int:
    cfg = _sim_config(args)
    if args.bins < 1:
        raise ConfigError(f"--bins {args.bins} must be >= 1")
    cases = _load_cases(args.params, args.policy, catalog)
    batch = simulate_cases(cases, cfg, record=args.emit_trajectory is not None)
    lines = ["product,policy,mean_profit,profit_std,lost_order_fraction,"
             "fill_rate,mean_orders_placed,replications"]
    day_fields = [f.name for f in fields(DayRecord)]
    day_cells = attrgetter(*day_fields)
    trajectory_lines = [",".join(["product", *day_fields])]
    histogram_lines = ["metric,bin_lo,bin_hi,count"]
    for (product, _, _), runs in zip(cases, batch):
        stats = runs.stats()
        lines.append(f"{product.name},{args.policy},{_stats_cells(stats)},"
                     f"{stats.mean_orders_placed:.2f},{stats.n}")
        if args.emit_trajectory is not None:
            trajectory_lines.extend(",".join(map(str, [product.name, *day_cells(rec)]))
                                    for rec in runs.records)
        if args.emit_histogram is not None:
            for metric, values in (("profit", runs.profit),
                                   ("lost_orders", runs.lost_order_fraction)):
                hist = emit_histogram(values, args.bins).splitlines()[1:]
                histogram_lines.extend(f"{metric}:{product.name},{row}" for row in hist)
    side_files = ((args.emit_trajectory, trajectory_lines), (args.emit_histogram, histogram_lines))
    return _write(args, lines, side_files, unmet_demand=cfg.unmet_demand)


def _cmd_sweep(args, catalog) -> int:
    try:
        product = catalog.get(args.product)
    except KeyError:
        raise ConfigError(f"product {args.product!r} not in catalog") from None
    try:
        lo, hi = (int(part) for part in args.oup_range.split(":"))
    except ValueError:
        raise ConfigError(f"--oup-range must be LO:HI, got {args.oup_range!r}") from None
    cfg = _sim_config(args)
    results = sweep_oup(product, demand_model(product), cfg, (lo, hi),
                        step=args.step, review_period=args.review)
    lines = ["order_up_to,mean_profit,profit_std,lost_order_fraction,fill_rate,"
             "mean_orders_placed"]
    for oup, stats in results:
        lines.append(f"{oup},{_stats_cells(stats)},{stats.mean_orders_placed:.2f}")
    return _write(args, lines)


def _cmd_compare(args, catalog) -> int:
    cfg = _sim_config(args)
    comparison = compare_policies(_load_cases(args.pq_params, "pq", catalog),
                                  _load_cases(args.rq_params, "rq", catalog), cfg)
    lines = ["product,policy,mean_profit,profit_std,lost_order_fraction,fill_rate"]
    for name, (pq_stats, rq_stats) in comparison.per_product.items():
        for label, stats in (("pq", pq_stats), ("rq", rq_stats)):
            lines.append(f"{name},{label},{_stats_cells(stats)}")
    lines.append(f"TOTAL,pq,{_money(comparison.total_periodic_profit)},,,")
    lines.append(f"TOTAL,rq,{_money(comparison.total_continuous_profit)},,,")
    lines.append(f"TOTAL,relative_difference,{comparison.relative_difference:.4f},,,")
    return _write(args, lines)


def _cmd_optimize(args, catalog) -> int:
    mode = "oup" if args.objective == "oup-per-product" else args.objective
    objective = policy_profit_objective(catalog, _sim_config(args), mode)
    if args.bounds is not None:
        try:
            bounds = tuple((_real(lo), _real(hi)) for lo, hi in _load_json(args.bounds))
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"{args.bounds}: bounds must be a list of [lo, hi] pairs") from None
        if any(not abs(v) <= MAX_POLICY_UNITS for pair in bounds for v in pair):
            raise ConfigError(f"{args.bounds}: bounds must lie within +-2**40")
    else:
        bounds = tuple((1.0, 5000.0) for _ in range(objective.dim))
    if len(bounds) != objective.dim:
        raise ConfigError(f"{len(bounds)} bounds given for {objective.dim} products")
    conditioning = None
    if args.conditioning is not None:
        raw = _load_json(args.conditioning)
        _check_fields(args.conditioning, raw, "a conditioning file",
                      ("alpha", "centers", "widths", "weights"))
        try:
            conditioning = ConditioningFn(
                alpha=_real(raw["alpha"]),
                centers=tuple(tuple(map(_real, c)) for c in raw.get("centers", ())),
                widths=tuple(map(_real, raw.get("widths", ()))),
                weights=tuple(map(_real, raw.get("weights", ()))),
            )
        except KeyError as exc:
            raise ConfigError(f"{args.conditioning}: missing field {exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{args.conditioning}: {exc}") from None
        for i, center in enumerate(conditioning.centers):
            if len(center) != objective.dim:
                raise ConfigError(f"{args.conditioning}: center {i} has {len(center)} "
                                  f"coordinates for {objective.dim} products")
    cfg = BoConfig(bounds=bounds, budget=args.budget, initial_design=args.initial_design,
                   acquisition=args.acquisition, seed=args.seed)
    result = bo_run(objective, cfg, conditioning)
    coord_names = ",".join(f"x_{p.name}" for p in catalog)
    lines = [f"iteration,{coord_names},y,incumbent"]
    incumbent = -np.inf
    for i, (point, value) in enumerate(result.history):
        incumbent = max(incumbent, value)
        coords = ",".join(f"{v:.2f}" for v in point)
        lines.append(f"{i},{coords},{_money(value)},{_money(incumbent)}")
    return _write(args, lines,
                  best_x=[round(v) for v in result.best_x], best_value=round(result.best_y, 2))


def _cmd_sensitivity(args, catalog) -> int:
    cfg = _sim_config(args)
    cases = _load_cases(args.params, args.policy, catalog)
    if args.variables is not None:
        variables = [v.strip() for v in args.variables.split(",") if v.strip()]
        if not variables:
            raise ConfigError(f"--variables names no variable: {args.variables!r}")
    else:
        variables = policy_variables(_POLICIES[args.policy])
    try:
        deltas = tuple(float(d) for d in args.deltas.split(","))
    except ValueError:
        raise ConfigError(f"--deltas must be comma-separated numbers, got {args.deltas!r}") from None
    specs = [SensitivitySpec(variable, deltas) for variable in variables]
    lines = ["variable,delta,product,profit,profit_std,lost_orders,safety_stock"]
    for row in sensitivity_resim(cases, cfg, *specs):
        lines.append(
            f"{row.variable},{row.delta:+g},{row.product},{_money(row.profit)},"
            f"{_money(row.profit_std)},{row.lost_orders:.4f},{row.safety_stock:.1f}"
        )
    return _write(args, lines, variables=",".join(variables))


_COMMANDS = {
    "eoq": _cmd_eoq,
    "risk": _cmd_risk,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
    "optimize": _cmd_optimize,
    "sensitivity": _cmd_sensitivity,
}


def run(argv) -> int:
    args = _build_parser().parse_args(argv)
    if not args.catalog:
        raise ConfigError("--catalog is required for this subcommand")
    _check_outputs(args)
    return _COMMANDS[args.subcommand](args, load_catalog(args.catalog))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return run(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"config: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, DomainError) as exc:
        print(f"validate: {exc}", file=sys.stderr)
        return 2
    except (ParseError, FileNotFoundError, OSError) as exc:
        print(f"io: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
