"""CMV and Floquet matrices from their closed-form fill against dense L @ M."""

import math
import warnings

import numpy as np
import pytest

from opuckit.cmv import _floquet, cmv_matrix, floquet_matrix
from opuckit.errors import InvalidParameters
from conftest import random_alpha

EPS = np.finfo(float).eps


def factors(a):
    """L = Theta_0 + Theta_2 + ... and M = 1 + Theta_1 + ... of alpha_0..alpha_{k-1},
    with the block of a[k] = a[-1] cut to its 1x1 corner conj(a[k]).

    rho = sqrt((1 - |a|)(1 + |a|)) with numpy's |a| over the whole array, as
    the package forms it: |a| one ulp off moves rho near |a| = 1 by several.
    A unimodular a[k] is cut to its corner and needs no rho.
    """
    size = len(a)
    a = np.asarray(a, dtype=complex)
    r = np.minimum(np.abs(a), 1.0)
    rho = np.sqrt((1.0 - r) * (1.0 + r))
    lm = [np.zeros((size, size), dtype=complex) for _ in range(2)]
    lm[1][0, 0] = 1.0
    for j in range(size - 1):
        lm[j % 2][j : j + 2, j : j + 2] = [[a[j].conjugate(), rho[j]], [rho[j], -a[j]]]
    lm[(size - 1) % 2][-1, -1] = a[-1].conjugate()
    return lm, rho


def dense_cmv(alpha, beta):
    (left, right), _ = factors(list(alpha) + [beta])
    return left @ right


def dense_floquet(alpha, beta):
    """L @ M(beta) with M's last block wrapped around the corner."""
    (left, right), rho = factors(list(alpha))
    a = alpha[-1]
    right[0, 0] = -a
    right[-1, 0] = rho[-1] * beta
    right[0, -1] = rho[-1] / beta
    return left @ right


def test_cmv_fill_matches_dense_product():
    # each entry of the fill is one rounded product; @ rounds complex
    # products its own way, so the two agree to 2 eps, not bit for bit
    rng = np.random.default_rng(44)
    for size in range(1, 65):
        for _ in range(4):
            alpha = random_alpha(rng, size - 1, radius=0.95)
            beta = complex(np.exp(2j * math.pi * rng.uniform()))
            got = cmv_matrix(alpha, beta)
            assert got.shape == (size, size)
            assert np.all(np.abs(got - dense_cmv(alpha, beta)) <= 2 * EPS)


def test_floquet_fill_matches_dense_product():
    # p = 2 included, where the wrapped block makes M full and an entry
    # is a sum of two products
    rng = np.random.default_rng(45)
    for p in range(2, 65, 2):
        for _ in range(4):
            alpha = random_alpha(rng, p, radius=0.95)
            for beta in (1.0, -1.0, complex(np.exp(2j * math.pi * rng.uniform()))):
                got = floquet_matrix(alpha, beta)
                assert got.shape == (p, p)
                assert np.all(np.abs(got - dense_floquet(alpha, beta)) <= 2 * EPS)


def test_stacked_fill_layers_match_the_wrappers_bit_for_bit():
    # E(+1), E(-1) and the candidate matrix of periodic come from one fill;
    # each layer must be the matrix the public builders give, to the bit
    rng = np.random.default_rng(46)
    for p in range(2, 65, 2):
        for _ in range(4):
            alpha = random_alpha(rng, p, radius=0.95)
            a = alpha[-1]
            closure = (1.0 + a) / (1.0 + a.conjugate())
            stack = _floquet(alpha, (1.0, -1.0), closure)
            want = (floquet_matrix(alpha, 1.0), floquet_matrix(alpha, -1.0),
                    cmv_matrix(alpha[:-1], closure))
            for got, matrix in zip(stack, want):
                assert got.tobytes() == matrix.tobytes()


@pytest.mark.parametrize("build, alpha, beta, match", [
    (floquet_matrix, (0.3, 0.2j, 0.1), 1.0, "even period .* p = 3"),
    (floquet_matrix, (), 1.0, "even period .* p = 0"),
    (floquet_matrix, (1.3, 0.2), 1.0, r"alpha\[0\] = \(1\.3\+0j\) must have modulus < 1"),
    (floquet_matrix, (0.3, math.nan), -1.0, r"alpha\[1\] .* modulus < 1"),
    (floquet_matrix, (0.3, 0.2), 2.0, r"beta = \(2\+0j\) must be unimodular"),
    (floquet_matrix, (0.3, 0.2), math.nan, "beta .* must be unimodular"),
    (cmv_matrix, (1.3, 0.2), 1.0, r"alpha\[0\] .* modulus < 1"),
    (cmv_matrix, (0.3, 0.2), 2.0, r"beta = \(2\+0j\) must be unimodular"),
    (cmv_matrix, (0.3,), 0.5j, "beta = 0.5j must be unimodular"),
])
def test_builders_refuse_bad_input(build, alpha, beta, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameters, match=match):
            build(alpha, beta)


@pytest.mark.parametrize("build, alpha", [
    (cmv_matrix, (0.3, 0.2j, -0.1)),
    (floquet_matrix, (0.3, 0.2j, -0.1, 0.5)),
])
def test_builders_take_alpha_as_they_check_it(build, alpha):
    # the checks flatten alpha and make beta complex; the fill gets those
    want = build(alpha, -1.0)
    for given in (np.array([alpha]), list(alpha), np.array(alpha)):
        assert build(given, -1).tobytes() == want.tobytes()
