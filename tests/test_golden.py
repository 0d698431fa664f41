"""Golden fingerprints: exact replication statistics and per-replication
profit hashes for fixed seeds.

They pin the per-replication RNG layout and the engine's arithmetic, so a
refactor of the engine or of the streams that changes any run's outcome, or
the order in which statistics are reduced, fails here.  Update a value only
for a change that is meant to alter simulated results, and say why.
"""

import hashlib

import pytest

from invopt.simengine import (
    BACKORDER,
    ContinuousReview,
    PeriodicReview,
    ReplicationStats,
    SimConfig,
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
