"""Run the benchmark over several seeds and summarise it.

Usage (from the root of a checkout):

    python3 perfbench/baseline.py --seeds 1-10 [--out FILE]

For each workload of BENCHMARK.json, runs ``run.py --trace 0`` once per seed and reports, per
end-to-end metric, the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread (IQR ÷ median) beside the metric's bound in BENCHMARK.json.
Then runs ``run.py --trace 1`` once at the first seed for the per-layer
breakdown and the tracing overhead.  Prints the summary as JSON and, with
--out, also writes it there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, seconds: int, traced: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(traced)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(f"{workload} seed {seed}: checks failed\n{proc.stderr}", file=sys.stderr)
    commands = json.loads(lines[-2])["commands"]
    return {"env": json.loads(lines[0])["env"], "cmd_s": [c["cmd_s"] for c in commands],
            **result}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    summary = {"seeds": args.seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in names:
        runs = []
        for seed in args.seeds:
            started = time.monotonic()
            runs.append(bench(name, seed, spec["run_seconds"], 0))
            print(f"{name} seed {seed}: {time.monotonic() - started:.1f} s "
                  f"{ {k: round(v['value'], 4) for k, v in runs[-1]['metrics'].items()} }",
                  file=sys.stderr)
        end_to_end = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            end_to_end[metric] = {
                "unit": runs[0]["metrics"][metric]["unit"], "median": median,
                "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "bound": bound,
                "values": values,
            }
        traced = bench(name, args.seeds[0], spec["run_seconds"], 1)
        summary["workloads"][name] = {
            "correct": all(r["correct"] for r in runs + [traced]),
            "env": runs[0]["env"],
            "end_to_end": end_to_end,
            "cmd_s_per_run": [r["cmd_s"] for r in runs],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    text = json.dumps(summary, indent=1)
    print(text)
    if args.out:
        args.out.write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
