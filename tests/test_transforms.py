"""Measure symmetries: conjugation, rotation, and couple unfolding."""

import math

import numpy as np
import pytest

from opuckit import (
    conjugate_pair,
    make_pair,
    pair_to_verblunsky,
    rotate_alpha,
    unfold_alternating,
)
from opuckit.errors import HypothesisViolated, InvalidParameters
from conftest import random_alpha, random_pair


def alternating_pair(rng, couples, constant_c=None):
    c = []
    for _ in range(couples):
        ck = constant_c if constant_c is not None else rng.uniform(-2.0, 2.0)
        c.extend([-ck, ck])
    m = np.concatenate([[0.0], rng.uniform(0.15, 0.85, 2 * couples)])
    return make_pair(c, m=m)


def test_conjugate_pair_structure(rng):
    pair = random_pair(rng, 10)
    conj = conjugate_pair(pair)
    assert conj.c == tuple(-v for v in pair.c)
    assert conj.d == pair.d
    assert conj.m == pair.m


def test_conjugate_pair_conjugates_alpha(rng):
    pair = random_pair(rng, 20)
    direct = pair_to_verblunsky(pair).alpha
    flipped = pair_to_verblunsky(conjugate_pair(pair)).alpha
    assert max(abs(f - d.conjugate()) for f, d in zip(flipped, direct)) < 1e-13


def test_rotate_alpha_powers():
    rotated = rotate_alpha([0.5, 0.5, 0.5], 1j)
    assert np.allclose(rotated, [0.5j, -0.5, -0.5j], atol=1e-15)


def test_rotate_alpha_validation():
    with pytest.raises(InvalidParameters):
        rotate_alpha([0.5], 0.5)


@pytest.mark.parametrize(
    "alpha, beta, message",
    [
        ([0.5], complex(math.nan, 0.0), "unimodular"),
        ([1.5 + 0.1j, 0.2 + 0.4j], -0.6 + 0.8j, r"alpha\[0\] .* modulus < 1"),
        ([0.5, complex(math.nan, 0.0)], 1j, r"alpha\[1\] .* modulus < 1"),
    ],
)
def test_rotate_alpha_rejects_nan_and_outside_disc(alpha, beta, message):
    with pytest.raises(InvalidParameters, match=message):
        rotate_alpha(alpha, beta)


def test_rotate_accepts_sequence_object(rng):
    pair = random_pair(rng, 6)
    vs = pair_to_verblunsky(pair)
    assert rotate_alpha(vs, 1.0) == vs.alpha


def test_unfold_shape_requirements(rng):
    with pytest.raises(HypothesisViolated):
        unfold_alternating(random_pair(rng, 5))  # odd length
    pair = make_pair([1.0, 1.0], m=[0.0, 0.4, 0.6])
    with pytest.raises(HypothesisViolated):
        unfold_alternating(pair)  # c_2 != -c_1


def test_unfold_sequences(rng):
    pair = alternating_pair(rng, 6)
    data = unfold_alternating(pair)
    out = data.pair_tilde
    for k in range(1, 7):
        c_even = pair.c[2 * k - 1]
        assert out.c[2 * k - 2] == c_even
        assert out.c[2 * k - 1] == c_even
        assert abs(out.m[2 * k - 1] - (1.0 - pair.m[2 * k - 1])) < 1e-15
        assert abs(out.m[2 * k] - pair.m[2 * k]) < 1e-15
    for k, bk in enumerate(data.beta, start=1):
        ck = pair.c[2 * k - 1]
        assert abs(bk - (-(1.0 + 1j * ck) / (1.0 - 1j * ck))) < 1e-15
        assert abs(abs(bk) - 1.0) < 1e-14


def test_unfold_alpha_consistency(rng):
    # the rotated coefficients must be exactly the image of the unfolded pair
    for _ in range(5):
        pair = alternating_pair(rng, 10)
        data = unfold_alternating(pair)
        direct = pair_to_verblunsky(data.pair_tilde).alpha
        err = max(abs(a - b) for a, b in zip(direct, data.alpha_tilde))
        assert err < 1e-11


def test_constant_alternation_is_a_rotation(rng):
    # with c_n = (-1)^n c every couple factor equals beta = -(1 + ic)/(1 - ic),
    # so unfolding collapses to the plain rotation alpha_n -> beta^{n+1} alpha_n
    c = 0.8
    pair = alternating_pair(rng, 8, constant_c=c)
    beta = -(1.0 + 1j * c) / (1.0 - 1j * c)
    alpha = pair_to_verblunsky(pair).alpha
    rotated = rotate_alpha(alpha, beta)
    data = unfold_alternating(pair)
    assert max(abs(a - b) for a, b in zip(rotated, data.alpha_tilde)) < 1e-12
    # and the rotated measure carries the constant-c pair
    back_c = pair_to_verblunsky(data.pair_tilde).alpha
    from opuckit import verblunsky_to_pair

    recovered = verblunsky_to_pair(rotated)
    assert max(abs(v - c) for v in recovered.c) < 1e-11
    for k in range(1, 9):
        assert abs(recovered.m[2 * k - 1] - (1.0 - pair.m[2 * k - 1])) < 1e-11
        assert abs(recovered.m[2 * k] - pair.m[2 * k]) < 1e-11


# ---- the scalar loops the running products replaced, kept as references

EPS = np.finfo(float).eps


def ref_rotate(alpha, beta):
    """beta^{n+1} alpha_n one factor at a time, renormalised every 64."""
    out, power = [], 1.0 + 0.0j
    for n, a in enumerate(alpha, start=1):
        power *= beta
        if n % 64 == 0:
            power /= abs(power)
        out.append(power * a)
    return np.array(out)


def ref_unfold(alpha, beta):
    """alpha~ with the running product of beta_k^2, renormalised every 64."""
    out, sq = [], 1.0 + 0.0j
    for k, bk in enumerate(beta):
        out.append(sq * bk * alpha[2 * k])
        sq *= bk * bk
        if (k + 1) % 64 == 0:
            sq /= abs(sq)
        out.append(sq * alpha[2 * k + 1])
    return np.array(out)


def test_running_products_agree_with_scalar_loops():
    # output k multiplies k + 1 unimodular factors in both routes, grouped
    # differently (one product per 64-block against one factor at a time), so
    # they may part by a few eps per factor: 16 (k + 1) eps, as for tau
    n = 100_000
    rng = np.random.default_rng(5)
    alpha = random_alpha(rng, n)
    beta = np.exp(1j * 2.3)
    bound = 16 * (np.arange(n) + 1) * EPS
    assert np.all(np.abs(np.array(rotate_alpha(alpha, beta)) - ref_rotate(alpha, beta)) <= bound)
    pair = alternating_pair(rng, n // 2)
    data = unfold_alternating(pair)
    want = ref_unfold(pair_to_verblunsky(pair).alpha, data.beta)
    # output 2k and 2k + 1 hold k + 1 factors
    assert np.all(np.abs(np.array(data.alpha_tilde) - want) <= bound[: n // 2].repeat(2))
