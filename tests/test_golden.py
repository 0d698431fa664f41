"""Golden fingerprints: exact replication statistics, per-replication
profit hashes and optimizer-history hashes for fixed seeds.

They pin the per-replication RNG layout and the engine's arithmetic, so a
refactor of the engine or of the streams that changes any run's outcome, or
the order in which statistics are reduced, fails here.  Update a value only
for a change that is meant to alter simulated results, and say why.
"""

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from invopt import gpbo, simengine
from invopt.cli import main
from invopt.gpbo import BoConfig, ConditioningFn, bo_run
from invopt.objectives import ProfitObjective
from invopt.sensitivity import SensitivityRow, SensitivitySpec, sensitivity_resim
from invopt.simengine import (
    BACKORDER,
    ContinuousReview,
    PeriodicReview,
    ReplicationStats,
    SimConfig,
    catalog_cases,
    compare_policies,
    replicate,
    replication_samples,
    sweep_oup,
)
from invopt.stochastic import DemandModel, MeetOrDelay


def pra_model():
    return DemandModel.from_moments(0.76, 103.50, 37.32)


GOLDEN = {
    "pq": (
        PeriodicReview(30, 2071),
        SimConfig(horizon=365, replications=200, seed=7),
        ReplicationStats(76688.66186301372, 2968.6987763047223, 0.20080037063209982,
                         0.7991996293679001, 12.0, 200),
        "ceb3bea0d7b959753b8f3810b0f93ae9aedefc0843d1272d066a5c4b123a9007",
    ),
    "rq": (
        ContinuousReview(870, 1440),
        SimConfig(horizon=365, replications=200, seed=11),
        ReplicationStats(92750.56629452058, 6585.417055206032, 0.006994353944729708,
                         0.9930056460552703, 18.935, 200),
        "ca21378c189aee4d0698eee4e35b6c9567bb0d8cbbf7ecca5f3d9de09a1284d7",
    ),
    "backorder": (
        PeriodicReview(30, 1800),
        SimConfig(horizon=365, replications=200, seed=5, unmet_demand=BACKORDER),
        ReplicationStats(98608.01269178085, 5882.484917064056, 0.034734172102916655,
                         0.5394261200571733, 12.0, 200),
        "329adadea98d9c56e7548b020225198790ecf27aaf9b164b3fd942d8890ba2d2",
    ),
    "meet_or_delay": (
        ContinuousReview(812, 2002),
        SimConfig(horizon=365, replications=200, seed=13, lead_time_mode=MeetOrDelay(0.6, 1.5)),
        ReplicationStats(88288.54856849318, 8065.8108023598215, 0.05297662990182576,
                         0.9470233700981743, 13.045, 200),
        "675163e4b1c2cf20adb482df05b6bcb2d9b7f8a82bd35e202de1cfc562345c0e",
    ),
}


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_replicate_stats_golden(pra, mode):
    policy, cfg, stats, _ = GOLDEN[mode]
    assert replicate(pra, pra_model(), policy, cfg) == stats


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_replication_profit_hash_golden(pra, mode):
    policy, cfg, _, digest = GOLDEN[mode]
    profit = replication_samples(pra, pra_model(), policy, cfg).profit
    assert hashlib.sha256(profit.tobytes()).hexdigest() == digest


def test_sweep_golden(pra):
    cfg = SimConfig(horizon=365, replications=100, seed=3)
    rows = sweep_oup(pra, pra_model(), cfg, (1500, 2500), step=250)
    assert rows == [
        (1500, ReplicationStats(69240.2989863014, 1718.8876802942384, 0.3484936086776184,
                                0.6515063913223815, 12.0, 100)),
        (1750, ReplicationStats(73324.15942465758, 2501.0687138544004, 0.27383251704841427,
                                0.7261674829515857, 12.0, 100)),
        (2000, ReplicationStats(76130.76415068496, 3195.9374030562594, 0.21325530794680253,
                                0.7867446920531975, 12.0, 100)),
        (2250, ReplicationStats(77814.98497260278, 3597.282795151699, 0.16036786588627314,
                                0.8396321341137268, 12.0, 100)),
        (2500, ReplicationStats(78547.76149315073, 3578.125502413993, 0.11372929785531437,
                                0.8862707021446856, 12.0, 100)),
    ]


CANDIDATES = np.array([
    [1440.0, 22270.0, 2570.0, 1200.0],
    [900.4, 15000.0, 3100.0, 800.0],
    [2500.0, 9000.6, 1800.0, 1600.0],
])


@pytest.mark.parametrize("mode, totals", [
    ("rq", [840498.4170958903, 893271.6680547944, 928795.4007671233]),
    ("pq", [686489.1863013699, 655899.618958904, 717794.8553972603]),
])
def test_evaluate_many_golden(catalog, mode, totals):
    objective = ProfitObjective(catalog, SimConfig(horizon=365, replications=25, seed=7), mode)
    assert objective.evaluate_many(CANDIDATES).tolist() == totals


PQ_PARAMS = {"PrA": PeriodicReview(30, 2071), "PrB": PeriodicReview(30, 18424),
             "PrC": PeriodicReview(20, 4154), "PrD": PeriodicReview(30, 1305)}
RQ_PARAMS = {"PrA": ContinuousReview(870, 1440), "PrB": ContinuousReview(2790, 22270),
             "PrC": ContinuousReview(2580, 2570), "PrD": ContinuousReview(1130, 1200)}


def test_compare_golden(catalog):
    cmp = compare_policies(catalog_cases(catalog, PQ_PARAMS), catalog_cases(catalog, RQ_PARAMS),
                           SimConfig(horizon=365, replications=40, seed=9))
    assert cmp.per_product == {
        "PrA": (ReplicationStats(77102.76373287675, 2464.982774200449, 0.20060872934916527,
                                 0.7993912706508347, 12.0, 40),
                ReplicationStats(94080.08541095894, 7072.987348703043, 0.00768427399945435,
                                 0.9923157260005456, 18.975, 40)),
        "PrB": (ReplicationStats(200879.4656849314, 1547.0721180065857, 0.10846580928087723,
                                 0.8915341907191228, 12.0, 40),
                ReplicationStats(183403.90657534238, 7042.533310905127, 0.03389442387439742,
                                 0.9661055761256025, 10.0, 40)),
        "PrC": (ReplicationStats(155721.99917808216, 4462.743304420243, 0.1196527336777165,
                                 0.8803472663222834, 18.0, 40),
                ReplicationStats(165747.58321917805, 10253.967881338905, 0.003271363561149165,
                                 0.9967286364388508, 19.325, 40)),
        "PrD": (ReplicationStats(320387.1660958904, 22315.518086237338, 0.14853080291401322,
                                 0.8514691970859868, 12.0, 40),
                ReplicationStats(347933.1821917809, 34992.53014935124, 0.0, 1.0, 10.9, 40)),
    }
    assert cmp.total_periodic_profit == 754091.3946917807
    assert cmp.total_continuous_profit == 791164.7573972603
    assert cmp.relative_difference == 0.049162956859668955


def test_compare_backorder_meet_or_delay_golden(catalog):
    cfg = SimConfig(horizon=365, replications=30, seed=21, unmet_demand=BACKORDER,
                    lead_time_mode=MeetOrDelay(0.7, 1.5))
    cmp = compare_policies(catalog_cases(catalog, PQ_PARAMS), catalog_cases(catalog, RQ_PARAMS),
                           cfg)
    assert cmp.total_periodic_profit == 925690.4151598173
    assert cmp.total_continuous_profit == 875981.4605936073
    assert cmp.relative_difference == -0.0536993294433409


def test_sensitivity_resim_golden(catalog):
    rows = sensitivity_resim(catalog_cases(catalog, RQ_PARAMS),
                             SimConfig(horizon=365, replications=30, seed=4),
                             SensitivitySpec("order_quantity", (0.1, -0.05)))

    def row(delta, product, profit, std, lost, safety):
        return SensitivityRow("order_quantity", delta, product, profit, std, lost, safety, ())

    assert rows == [
        row(0.1, "PrA", 93507.07872146122, 7731.594398827155, 0.004669500055922157, 165.0),
        row(0.1, "PrB", 183911.45461187206, 3103.083304953567, 0.03033701092234924, 0.0),
        row(0.1, "PrC", 166539.77844748853, 9905.32439733978, 0.0031975447401260556, 314.0),
        row(0.1, "PrD", 341710.4748858447, 36681.14884902656, 0.0004387331256490135, 345.0),
        row(-0.05, "PrA", 92483.45127853885, 5707.165621332716, 0.006040757931625843, 165.0),
        row(-0.05, "PrB", 266829.05159817345, 4763.301802087764, 0.03577015857349206, 0.0),
        row(-0.05, "PrC", 168000.51789954334, 9124.654536655664, 0.004315039176863023, 314.0),
        row(-0.05, "PrD", 351480.4639269406, 37038.82091253958, 5.192107995846314e-06, 345.0),
    ]


SIMULATE_FILES_GOLDEN = {
    "rq": {
        "simulate.csv": "33258fe8ad0859bfe441f67ea19292ee80529506a02ada242f7ed069a90bded5",
        "hist.csv": "6e1f8b91202bb5682b31d7707c41871ad9adbe11b5954b71f36f844153098fc4",
        "traj.csv": "6a3a24ec831ce682eb3eed59b84ba376e7629b97adf285c4b954d019bdd2729d",
    },
    "pq": {
        "simulate.csv": "9e0de6db111b694da5626298a96e42196c97d0ef53c391d47bc361e27e7da49d",
        "hist.csv": "7cc2fb984af8e0870d81ec1c9c36bd3a8806ee8079771dc921854d6c743544c3",
        "traj.csv": "dbe1eed6f113e8afd8b7403d700409061aa65d0baa9c5a7067a0fccceb7661b1",
    },
}


@pytest.mark.parametrize("policy, params", [("rq", RQ_PARAMS), ("pq", PQ_PARAMS)])
def test_simulate_files_golden(tmp_path, table1_path, policy, params):
    # data rows (manifest and header dropped) of the report, histogram and
    # trajectory; 1 000 replications of 4 products span more than one engine block
    replications = 1000
    assert replications > simengine.BLOCK_ROWS // len(params)
    params_file = tmp_path / "params.json"
    params_file.write_text(json.dumps({name: asdict(p) for name, p in params.items()}))
    out = tmp_path / "out"
    assert main(["--catalog", table1_path, "--seed", "7", "--out-dir", str(out), "simulate",
                 "--policy", policy, "--params", str(params_file),
                 "--replications", str(replications),
                 "--emit-histogram", str(out / "hist.csv"),
                 "--emit-trajectory", str(out / "traj.csv")]) == 0
    digests = {}
    for name in SIMULATE_FILES_GOLDEN[policy]:
        lines = (out / name).read_text(encoding="utf-8").splitlines()
        rows = [line for line in lines if not line.startswith("#")][1:]
        digests[name] = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    assert digests == SIMULATE_FILES_GOLDEN[policy]


# --- optimizer trajectories -------------------------------------------------
#
# Each run's full-precision history (every point and value, in order) is
# hashed.  They pin the Latin-hypercube design, every GP fit and every
# acquisition proposal, so a change to the posterior or acquisition arithmetic
# that moves any proposal by one bit fails here.

BOX = ((1.0, 5000.0),) * 4
BUMP = ConditioningFn(alpha=40000.0, centers=((1500.0, 20000.0, 2500.0, 1200.0),),
                      widths=(1500.0,), weights=(1.0,))


def history_digest(result):
    rows = np.array([[*point, value] for point, value in result.history])
    return hashlib.sha256(rows.astype("<f8").tobytes()).hexdigest()


def profit_run(catalog, mode="rq", budget=24, acquisition="ei", conditioning=None):
    objective = ProfitObjective(catalog, SimConfig(horizon=365, replications=25, seed=7), mode)
    cfg = BoConfig(bounds=BOX, budget=budget, initial_design=12, acquisition=acquisition,
                   seed=7)
    return bo_run(objective, cfg, conditioning)


def test_bo_run_rq_golden(catalog, monkeypatch):
    # also pins the L-BFGS-B work of the proposals: same runs, same evaluations
    minimize, propose, proposing, nfev = gpbo.minimize, gpbo.propose_next, [], []

    def counted_minimize(*args, **kwargs):
        result = minimize(*args, **kwargs)
        if proposing:
            nfev.append(result.nfev)
        return result

    def flagged_propose(*args, **kwargs):
        proposing.append(True)
        try:
            return propose(*args, **kwargs)
        finally:
            proposing.pop()

    monkeypatch.setattr(gpbo, "minimize", counted_minimize)
    monkeypatch.setattr(gpbo, "propose_next", flagged_propose)
    result = profit_run(catalog)
    assert history_digest(result) == (
        "7ce46d0b7798daf7f54a3204ebf5bf486e850d6b6186c999431c2bec6b2c93fa")
    assert (len(nfev), sum(nfev)) == (96, 2357)


@pytest.mark.parametrize("run, digest", [
    pytest.param(lambda c: profit_run(c, mode="oup", budget=16),
                 "51cf97891dbc592165247308e3e3586df429f18abf5f57845f52032e1aef7772", id="oup"),
    pytest.param(lambda c: profit_run(c, budget=16, acquisition="pi"),
                 "048177eb4e9f3a2841b40d13b66e156ec9f6686a540ff7bd4ced8dbffb6baf17", id="pi"),
    pytest.param(lambda c: profit_run(c, budget=16, conditioning=BUMP),
                 "dc5e18912e3c3e78afea267196351419678116fd9ab20c1c3f164c82d604e64c",
                 id="conditioning"),
])
def test_bo_run_profit_golden(catalog, run, digest):
    assert history_digest(run(catalog)) == digest


def test_bo_run_minimize_1d_golden():
    cfg = BoConfig(bounds=((0.0, 1.0),), budget=14, initial_design=4, seed=3)
    result = bo_run(lambda x: float((x[0] - 0.3) ** 2 + 0.1 * np.sin(20 * x[0])), cfg,
                    direction="minimize")
    assert history_digest(result) == (
        "3a44af4a90d920f73aaafbfa348d10d8fa6a0af910bb2129f3c2b565f7eaf974")
