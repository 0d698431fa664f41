"""Output checks for the benchmark's CLI commands.

Each check returns a list of error strings (empty when the output is right)
and the command's ``best_profit``.  Three kinds of check:

* exact reference rows at REFERENCE_SEED for ``simulate`` (the
  per-replication RNG layout is pinned, so these are bit-exact);
* invariants that hold for any seed;
* a floor on the best profit among the points ``optimize`` proposes after
  its initial design, as a fraction of a reference optimum, so proposals may
  change but may not get much worse.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

REFERENCES = json.loads((Path(__file__).parent / "references.json").read_text(encoding="utf-8"))
REFERENCE_SEED = REFERENCES["seed"]
PRODUCTS = ["PrA", "PrB", "PrC", "PrD"]
HORIZON = 365


def _rows(path: Path) -> list[list[str]]:
    """Data rows of a report: comment lines and the header dropped."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _fill_plus_lost(rows, lost_col: int, fill_col: int, errors: list[str]) -> None:
    # both are printed to 4 decimals, so their sum is 1 within 1e-4
    for row in rows:
        total = float(row[lost_col]) + float(row[fill_col])
        if abs(total - 1.0) > 1.01e-4:
            errors.append(f"fill rate + lost-order fraction = {total} in row {row}")


def _exact(kind: str, rows, seed: int, errors: list[str]) -> None:
    if seed == REFERENCE_SEED and [",".join(r) for r in rows] != REFERENCES[kind]:
        errors.append(f"{kind} rows differ from the reference at seed {seed}")


def check_simulate(out: Path, seed: int, replications: int, bins: int):
    errors: list[str] = []
    rows = _rows(out / "simulate.csv")
    if [r[0] for r in rows] != PRODUCTS:
        return [f"simulate rows are for {[r[0] for r in rows]}, not {PRODUCTS}"], 0.0
    for r in rows:
        if r[1] != "rq" or int(r[7]) != replications:
            errors.append(f"simulate row {r} is not rq with {replications} replications")
    _fill_plus_lost(rows, 4, 5, errors)
    _exact("simulate", rows, seed, errors)

    groups = defaultdict(list)
    for key, _lo, _hi, count in _rows(out / "hist.csv"):
        groups[key].append(int(count))
    expected = {f"{m}:{p}" for m in ("profit", "lost_orders") for p in PRODUCTS}
    if set(groups) != expected:
        errors.append(f"histogram series {sorted(groups)} != {sorted(expected)}")
    for key, counts in groups.items():
        if len(counts) != bins or sum(counts) != replications:
            errors.append(f"histogram {key}: {len(counts)} bins summing to {sum(counts)}")

    days = defaultdict(list)
    for product, day, demand, sold, unmet, *_ in _rows(out / "traj.csv"):
        days[product].append(int(day))
        if int(demand) != int(sold) + int(unmet):
            errors.append(f"trajectory {product} day {day}: demand != sold + unmet")
    for product in PRODUCTS:
        if days[product] != list(range(1, HORIZON + 1)):
            errors.append(f"trajectory {product} has {len(days[product])} rows, not days 1..{HORIZON}")
    return errors, sum(float(r[2]) for r in rows)


def check_optimize(out: Path, budget: int, bounds: tuple[float, float]):
    errors: list[str] = []
    path = out / "optimize.csv"
    rows = _rows(path)
    if [int(r[0]) for r in rows] != list(range(budget)):
        return [f"optimize has {len(rows)} rows, not iterations 0..{budget - 1}"], 0.0
    manifest = dict(ln[len("# manifest "):].split("=", 1)
                    for ln in path.read_text(encoding="utf-8").splitlines()
                    if ln.startswith("# manifest "))
    design = int(manifest["initial_design"])
    best, proposed = float("-inf"), float("-inf")
    for r in rows:
        coords, y, incumbent = [float(v) for v in r[1:-2]], float(r[-2]), float(r[-1])
        if any(not bounds[0] <= c <= bounds[1] for c in coords):
            errors.append(f"optimize row {r[0]} proposes {coords} outside {bounds}")
        best = max(best, y)
        if int(r[0]) >= design:
            proposed = max(proposed, y)
        if incumbent != best:
            errors.append(f"optimize row {r[0]}: incumbent {incumbent} != running best {best}")
    floor = (REFERENCES["optimize_proposal_floor_fraction"]
             * REFERENCES["optimize_reference_optimum"])
    if proposed < floor:
        errors.append(f"optimize best proposed profit {proposed} (iterations >= {design}) "
                      f"is below the floor {floor:.2f}")
    return errors, best
