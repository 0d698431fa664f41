"""Run one invopt CLI command in this fresh process and write its timings.

Usage: python3 perfbench/child.py SPEC_JSON

SPEC_JSON holds ``mode`` ("run", "trace" or "alloc"), ``argv`` (the CLI
arguments), ``result`` (where to write the timings), ``env`` (true to also
record the environment, after the command), and for the trace and alloc modes ``kind``
(simulate or optimize) and ``requested_runs``.

* run: time the command; only the catalog load is wrapped, so that it can be
  counted as set-up.
* trace: time the command with the full tracer installed.
* alloc: take the tracemalloc peak of each engine call, with only the engine
  entry points wrapped.

An exception the CLI does not handle itself counts as exit code 1; its
traceback is kept in the result.  invopt is imported from ``src/`` of the
checkout this file sits in; the process fails without a result if it cannot
be.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def environment(cli) -> dict:
    """What the timings depend on and the benchmark does not pin."""
    import numpy
    import scipy

    try:
        threads_default = cli._build_parser().parse_args(["eoq"]).threads
    except (AttributeError, SystemExit):
        threads_default = None
    openblas = {}
    for package in (numpy, scipy):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    openblas[f"{package.__name__}:{lib.name}"] = getattr(handle, symbol)()
                    break
    return {
        "cpu_count": os.cpu_count(),
        "cli_threads_default": threads_default,
        "openblas_threads": openblas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import invopt.cli as cli
    import_s = time.perf_counter() - start
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"invopt imported from {cli.__file__}, not from {SRC}")

    import invopt.gpbo
    import invopt.objectives
    import invopt.simengine
    from tracer import ALLOC_METRICS, Tracer

    out = {"import_s": import_s}
    tracer = Tracer(alloc=spec["mode"] == "alloc")
    modules = {"cli": cli, "simengine": invopt.simengine,
               "objectives": invopt.objectives, "gpbo": invopt.gpbo}
    if spec["mode"] == "trace":
        tracer.install(modules)
    elif spec["mode"] == "alloc":
        tracer.install_engine(modules)
    else:
        tracer.patch(cli, "load_catalog", lambda f: tracer.timed("catalog", "catalog", f))
    out["main_start"] = time.monotonic()
    start = time.perf_counter()
    try:
        out["exit"] = cli.main(spec["argv"])
    except Exception:
        out["exit"], out["traceback"] = 1, traceback.format_exc()
    out["main_s"] = time.perf_counter() - start
    out["catalog_s"] = tracer.counts["catalog.s"]
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["missing"] = tracer.missing
    if spec["env"]:
        out["env"] = environment(cli)
    if spec["mode"] != "run":
        layers = tracer.metrics(spec["kind"], import_s, spec["requested_runs"])
        out["layers"] = {name: value for name, value in layers.items()
                         if (name in ALLOC_METRICS) == tracer.alloc}
    Path(spec["result"]).write_text(json.dumps(out), encoding="utf-8")


if __name__ == "__main__":
    main()
