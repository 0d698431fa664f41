"""Every name that perfbench/tracer.py needs for a per-layer metric exists.

The tracer wraps names where invopt's modules import or look them up
(``cli.simulate_once``, ``simengine.RngStream``, ...).  A name that is gone
makes the metrics that need it absent from the benchmark without failing
anything, so the check lives here.  The tracer source is read, never
imported, so nothing is written under perfbench/.
"""

import importlib
import types
from pathlib import Path

import numpy as np
import pytest

from invopt import cli, gpbo, objectives
from invopt.simengine import ContinuousReview, SimConfig, demand_model

TRACER_PATH = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def _load_tracer() -> types.ModuleType:
    tracer = types.ModuleType("perfbench_tracer")
    code = compile(TRACER_PATH.read_text(encoding="utf-8"), str(TRACER_PATH), "exec")
    exec(code, tracer.__dict__)
    return tracer


def _needed_names() -> list[str]:
    tracer = _load_tracer()
    engine = [name for entries in tracer.ENGINE_ENTRIES.values() for name in entries]
    return sorted({name for _, needs in tracer.METRICS.values() for need in needs
                   for name in (engine if need == "engine" else (need,))})


@pytest.mark.parametrize("name", _needed_names())
def test_traced_name_exists(name):
    module, attr = name.split(".")
    assert hasattr(importlib.import_module(f"invopt.{module}"), attr), (
        f"perfbench/tracer.py needs invopt.{name}; without it the per-layer "
        f"metrics that use it are reported absent")


def test_engine_wrappers_bind(pra):
    """The tracer binds each engine entry's arguments by name (``cfg``,
    ``rep_ids``); a renamed parameter would fail every traced command."""
    modules = {
        "cli": types.SimpleNamespace(
            __name__="invopt.cli", replicate=cli.replicate,
            replication_samples=cli.replication_samples, simulate_once=cli.simulate_once),
        "objectives": types.SimpleNamespace(
            __name__="invopt.objectives", _batch_over_reps=objectives._batch_over_reps),
    }
    tracer = _load_tracer().Tracer()
    tracer.install_engine(modules)
    assert tracer.missing == []

    case = (pra, demand_model(pra), ContinuousReview(870, 1440))
    cfg = SimConfig(horizon=10, replications=3, seed=7)
    traced = modules["cli"]
    assert traced.replicate(*case, cfg) == cli.replicate(*case, cfg)
    assert traced.replication_samples(*case, cfg).records == cli.simulate_once(*case, cfg).records
    assert traced.simulate_once(*case, cfg, replication=2).profit == cli.simulate_once(
        *case, cfg, 2).profit
    batch = modules["objectives"]._batch_over_reps([case, case], cfg, [0, 1])
    direct = objectives._batch_over_reps([case, case], cfg, [0, 1])
    assert len(batch) == len(direct) == 2
    for traced_runs, runs in zip(batch, direct):
        assert (traced_runs.profit == runs.profit).all()
    assert tracer.counts["engine.calls"] == 4


def test_proposal_lbfgs_counted(monkeypatch):
    """The tracer counts propose_next's L-BFGS-B runs where it calls the module
    global ``gpbo.minimize``.  If it stopped calling that name, lbfgs_runs and
    lbfgs_nfev would read 0 rather than absent."""
    tracer = _load_tracer().Tracer()
    monkeypatch.setattr(gpbo, "minimize", tracer.minimizer(gpbo.minimize))
    monkeypatch.setattr(gpbo, "propose_next", tracer.proposer(gpbo.propose_next))
    x = np.array([[0.1], [0.4], [0.6], [0.9]])
    cfg = gpbo.BoConfig(bounds=((0.0, 1.0),), budget=5, initial_design=4, seed=1)
    model = gpbo.gp_fit(x, np.sin(6.0 * x[:, 0]), input_bounds=cfg.bounds)
    assert tracer.counts["lbfgs.runs"] == 0  # gp_fit's own searches are not counted
    gpbo.propose_next(model, cfg)
    assert tracer.counts["lbfgs.runs"] == gpbo.REFINE_TOP
    assert tracer.counts["lbfgs.nfev"] > 0
