"""invopt benchmark: times the ``invopt`` CLI end to end, or layer by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every command runs in a fresh ``python3`` process (perfbench/child.py) and its
outputs are checked (perfbench/checks.py).  The command with index i in a run
uses CLI seed N for i = 0 and a seed derived from N otherwise.

--trace 0 runs the workload's command until S seconds have passed, and
reports the end-to-end metrics as medians over the commands (best_profit as
their mean).  --trace 1 runs triples of commands with one
seed: untraced, traced (the per-layer metrics of perfbench/tracer.py; its
extra wall time is the tracing overhead), and one that takes only the
engine's tracemalloc peak.  It reports the medians over the triples.

The last stdout line is the result JSON; the lines before it record the
environment (taken in the first command) and each command.  A command that
exits non-zero, raises, or writes output that fails or breaks its check is
a failed operation.  The exit code is 0 whenever a result is printed, also
when a check failed (then ``correct`` is false).  It is 2, with no result,
when the benchmark itself cannot run: ``src/invopt`` cannot be imported, or
a command outlives CHILD_TIMEOUT_S.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
CATALOG = "perfbench/data/table1.csv"
RQ_PARAMS = "perfbench/data/rq.json"
PRODUCTS = 4
HORIZON = 365
CHILD_TIMEOUT_S = 120

SIM_REPS, HIST_BINS = 2_500, 30
OPT_BUDGET, OPT_REPS, OPT_BOUNDS = 24, 25, (1.0, 5000.0)


@dataclass(frozen=True)
class Workload:
    kind: str                                   # tracer.ENGINE_ENTRIES key
    argv: Callable[[Path], list[str]]           # subcommand args, given the out dir
    requested_runs: int                         # simulation runs the user asked for
    check: Callable[[Path, int], tuple[list[str], float]]


WORKLOADS = {
    "simulate-rq-hist": Workload(
        "simulate",
        lambda out: ["simulate", "--policy", "rq", "--params", RQ_PARAMS,
                     "--replications", str(SIM_REPS), "--bins", str(HIST_BINS),
                     "--emit-histogram", str(out / "hist.csv"),
                     "--emit-trajectory", str(out / "traj.csv")],
        PRODUCTS * SIM_REPS,
        lambda out, seed: checks.check_simulate(out, seed, SIM_REPS, HIST_BINS),
    ),
    "optimize-rq": Workload(
        "optimize",
        lambda out: ["optimize", "--objective", "rq", "--budget", str(OPT_BUDGET),
                     "--replications", str(OPT_REPS)],
        OPT_BUDGET * PRODUCTS * OPT_REPS,
        lambda out, _seed: checks.check_optimize(out, OPT_BUDGET, OPT_BOUNDS),
    ),
}


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def cli_seed(seed: int, index: int) -> int:
    return seed if index == 0 else (seed + index * 1_000_003) % 2**32


def spawn(spec: dict, work: Path) -> dict:
    """Run child.py with spec; return its record plus the spawn-relative setup."""
    result = work / "child.json"
    result.unlink(missing_ok=True)
    spec = {**spec, "result": str(result)}
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                          cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if not result.exists():
        raise HarnessError(f"child exited {proc.returncode} without a result:\n"
                           f"{proc.stderr[-2000:]}")
    record = json.loads(result.read_text(encoding="utf-8"))
    record["setup_s"] = record["main_start"] - spawned + record["catalog_s"]
    return record


def command(workload: Workload, seed: int, mode: str, work: Path, env: bool = False) -> dict:
    """One CLI command in a fresh process, timed and checked."""
    out = Path(tempfile.mkdtemp(dir=work))
    try:
        argv = ["--catalog", CATALOG, "--seed", str(seed), "--out-dir", str(out),
                *workload.argv(out)]
        record = spawn({"mode": mode, "argv": argv, "env": env, "kind": workload.kind,
                        "requested_runs": workload.requested_runs}, work)
        record["errors"], record["best_profit"] = [], 0.0
        if record["exit"] != 0:
            record["errors"].append(f"exit code {record['exit']}")
            if "traceback" in record:
                record["errors"].append(record["traceback"].strip().splitlines()[-1])
        else:
            try:
                record["errors"], record["best_profit"] = workload.check(out, seed)
            except Exception:
                record["errors"].append("output check raised "
                                        + traceback.format_exc().strip().splitlines()[-1])
    finally:
        shutil.rmtree(out, ignore_errors=True)
    record["seed"] = seed
    record["cmd_s"] = record["main_s"] - record["catalog_s"]
    return record


def until(seconds: float, started: float, step: Callable[[int], float]) -> None:
    """Call step(i) for i = 0, 1, ... while the next call would mostly fit."""
    index = 0
    while True:
        last = step(index)
        index += 1
        if time.monotonic() - started + last / 2 >= seconds:
            return


def measure(workload: Workload, seed: int, seconds: float, work: Path):
    started = time.monotonic()
    commands = []

    def step(index: int) -> float:
        commands.append(command(workload, cli_seed(seed, index), "run", work, env=index == 0))
        return commands[-1]["main_s"]

    until(seconds, started, step)
    run_days = workload.requested_runs * HORIZON
    metrics = {
        "setup_s": (statistics.median([c["setup_s"] for c in commands]), "s"),
        "run_days_per_s": (statistics.median(
            [0.0 if c["errors"] else run_days / c["cmd_s"] for c in commands]), "run-days/s"),
        "peak_rss_mb": (statistics.median([c["rss_mb"] for c in commands]), "MB"),
        "best_profit": (statistics.fmean([c["best_profit"] for c in commands]), "USD"),
    }
    return commands[0]["env"], commands, metrics


def trace(workload: Workload, seed: int, seconds: float, work: Path):
    started = time.monotonic()
    commands, layers, overheads = [], [], []

    def step(index: int) -> float:
        plain, traced, alloc = (command(workload, cli_seed(seed, index), mode, work,
                                        env=index == 0 and mode == "run")
                                for mode in ("run", "trace", "alloc"))
        commands.extend((plain, traced, alloc))
        layers.append({**traced["layers"], **alloc["layers"]})
        overheads.append(traced["main_s"] - plain["main_s"])
        return plain["main_s"] + traced["main_s"] + alloc["main_s"]

    until(seconds, started, step)
    metrics = {name: (statistics.median(m[name]["value"] for m in layers), entry["unit"])
               for name, entry in layers[0].items()}
    metrics["trace.overhead_s"] = (statistics.median(overheads), "s")
    return commands[0]["env"], commands, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=checks.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        run = trace if args.trace else measure
        env, commands, metrics = run(WORKLOADS[args.workload], args.seed, args.seconds, work)
    except (HarnessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    failed = [c for c in commands if c["errors"]]
    for c in failed:
        print(f"perfbench: seed {c['seed']}: " + "; ".join(c["errors"][:5]), file=sys.stderr)
    absent = sorted({name for c in commands for name in c["missing"]})
    if absent:
        print(f"perfbench: not wrapped (metrics needing them are absent): {absent}",
              file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({"absent": absent, "commands": [
        {k: c[k] for k in ("seed", "exit", "setup_s", "cmd_s", "rss_mb", "best_profit")}
        for c in commands]}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(commands),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
