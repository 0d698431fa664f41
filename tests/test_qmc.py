import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import qmc

import invopt
from invopt._qmc import latin_hypercube, sobol

DIMS = (1, 2, 3, 4, 8, 16)
SEEDS = (0, 7, 2**31 + 5)


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("d", DIMS)
def test_sobol_matches_scipy(d, seed):
    # each d is sampled twice in a row: the cached direction numbers stay intact
    for m in (9, 4, 9):
        expected = qmc.Sobol(d, scramble=True, seed=seed).random_base2(m)
        assert same_bytes(sobol(d, m, seed), expected)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("d", DIMS)
def test_latin_hypercube_matches_scipy(d, seed):
    for n in (2, 12, 20):
        expected = qmc.LatinHypercube(d, seed=seed).random(n)
        assert same_bytes(latin_hypercube(d, n, seed), expected)


def test_import_loads_no_scipy_stats():
    code = ("import sys, invopt, invopt.cli, invopt.gpbo; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    src = os.path.dirname(os.path.dirname(invopt.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"
