"""Scrambled Sobol' and Latin-hypercube samples in numpy.

Both functions return the same bytes as scipy.stats.qmc's
`Sobol(d, scramble=True, seed=seed).random_base2(m)` and
`LatinHypercube(d, seed=seed).random(n)`: they draw from
`np.random.default_rng(seed)` in the same order and do the same integer
arithmetic.  Importing this module loads no scipy.stats module; the Joe-Kuo
direction numbers are read from the table scipy installs next to its Sobol'
engine.
"""

from __future__ import annotations

import functools
import os

import numpy as np
import scipy

BITS = 30  # scipy's default precision: points are multiples of 2**-30
_DIRECTION_NUMBERS = os.path.join(os.path.dirname(scipy.__file__), "stats",
                                  "_sobol_direction_numbers.npz")


@functools.cache
def _direction_numbers(d: int) -> np.ndarray:
    """Unscrambled (d, BITS) direction numbers (Joe & Kuo, 2008), read-only.

    A dimension whose primitive polynomial has degree m and inner
    coefficients a_1..a_{m-1} starts from m initial numbers, then
    v_j = v_{j-m} ^ (v_{j-m} << m) ^ XOR_{k<m} a_k (v_{j-k} << k);
    the first dimension is all ones.  Column j is finally shifted so that
    v_j's leading bit is bit BITS-1-j.
    """
    with np.load(_DIRECTION_NUMBERS) as table:
        poly, vinit = table["poly"][:d].tolist(), table["vinit"][:d].tolist()
    v = np.ones((d, BITS), np.uint32)
    for i in range(1, d):
        m = poly[i].bit_length() - 1
        row = vinit[i][:m]
        for j in range(m, BITS):
            new = row[j - m]
            for k in range(1, m + 1):
                if poly[i] >> (m - k) & 1:
                    new ^= row[j - k] << k
            row.append(new)
        v[i] = row
    v <<= np.arange(BITS - 1, -1, -1, dtype=np.uint32)
    v.flags.writeable = False
    return v


def sobol(d: int, m: int, seed: int) -> np.ndarray:
    """First 2**m points of a d-dimensional Sobol' sequence with a linear
    matrix scramble and a digital shift (Matousek, 1998), as (2**m, d)."""
    rng = np.random.default_rng(seed)
    powers = np.arange(BITS, dtype=np.uint32)
    shift = rng.integers(0, 2, size=(d, BITS), dtype=np.uint32) @ (np.uint32(1) << powers)
    ltm = np.tril(rng.integers(0, 2, size=(d, BITS, BITS), dtype=np.uint32))
    ltm[:, powers, powers] = 1
    # row i of a (BITS,) bit vector is the number's bit BITS-1-i; the
    # scramble multiplies each direction number's bit vector by ltm in GF(2)
    msb_first = powers[::-1]
    bits = _direction_numbers(d)[:, :, None] >> msb_first & 1
    scrambled = (np.einsum("dpi,dji->djp", ltm, bits) & 1) @ (np.uint32(1) << msb_first)
    # Gray-code order: point k flips direction number t, with 2**t = k & -k
    k = np.arange(1, 2**m)
    steps = scrambled[:, np.frexp(k & -k)[1] - 1].T
    points = np.bitwise_xor.accumulate(np.vstack((shift, steps)), axis=0)
    return points * 2.0**-BITS


def latin_hypercube(d: int, n: int, seed: int) -> np.ndarray:
    """n points of a d-dimensional Latin hypercube (McKay et al., 1979):
    each column puts one point, uniform within it, in each of n strata."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=(n, d))
    strata = np.tile(np.arange(1, n + 1), (d, 1))
    for row in strata:
        rng.shuffle(row)
    return (strata.T - u) / n
