"""CMV and Floquet matrices from their closed-form fill against dense L @ M."""

import math

import numpy as np

from opuckit.cmv import cmv_matrix, floquet_matrix
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

