"""Discrete approximating measures: weights, moments, and the step function."""

import math

import numpy as np
import pytest

from opuckit import make_pair, moments, quadrature, step_eval, verblunsky_to_pair
from opuckit.errors import InvalidParameters
from opuckit.measure import _SUM_TOL
from conftest import random_pair


def lebesgue_pair(n):
    # alpha = 0 forces m = 1/2 throughout, i.e. d = (1/2, 1/4, 1/4, ...)
    return make_pair([0.0] * n, m=[0.0] + [0.5] * n)


def test_single_node_weights():
    # R_1 = z + 1, Q_1 = 1: weight 1/2 at z = 1 and 1/2 at z = -1
    meas = quadrature(make_pair([0.0], d=[0.5]), 1)
    assert np.allclose(meas.theta, [0.0, math.pi], atol=1e-13)
    assert np.allclose(meas.weights, [0.5, 0.5], atol=1e-13)


def test_two_node_weights():
    # lambda_0 = 1 - Q_2(1)/R_2(1) = 1 - 2/3, and the node weights follow from
    # Q_2 = z + 1, R_2' = 2z + 1 at the primitive cube roots of unity
    meas = quadrature(lebesgue_pair(2), 2)
    assert np.allclose(meas.theta, [0.0, 2 * math.pi / 3, 4 * math.pi / 3], atol=1e-12)
    assert np.allclose(meas.weights, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)


def test_lebesgue_is_uniform_on_roots_of_unity():
    # R_n = 1 + z + ... + z^n by induction on the recurrence, so the nodes sit
    # at the (n + 1)-th roots of unity with equal weights
    for n in (3, 8, 17):
        meas = quadrature(lebesgue_pair(n), n)
        expect = 2.0 * math.pi * np.arange(n + 1) / (n + 1)
        assert np.max(np.abs(meas.theta - expect)) < 1e-10
        assert np.max(np.abs(meas.weights - 1.0 / (n + 1))) < 1e-12


def test_lebesgue_moments_vanish():
    n = 8
    mu = moments(quadrature(lebesgue_pair(n), n), n)
    assert abs(mu[0] - 1.0) < 1e-14
    assert np.max(np.abs(mu[1:])) < 1e-12


def test_first_moment_reproduces_alpha0(rng):
    # orthogonality of z - conj(alpha_0) against constants gives
    # integral of conj(z) = alpha_0; the discrete measures inherit it exactly
    for a0 in (0.5, 0.3 - 0.4j, -0.25 + 0.6j):
        alpha = [a0] + [0.2 + 0.1j] * 11
        pair = verblunsky_to_pair(alpha)
        for n in (2, 7, 12):
            mu = moments(quadrature(pair, n), 1)
            assert abs(mu[1] - a0) < 1e-12


def test_weights_positive_and_normalized(rng):
    for _ in range(10):
        pair = random_pair(rng, 20)
        meas = quadrature(pair, 20)
        assert np.all(meas.weights[1:] > 0.0)
        assert meas.weights[0] >= 0.0
        assert abs(float(np.sum(meas.weights)) - 1.0) < 1e-10


def test_step_eval_levels():
    meas = quadrature(lebesgue_pair(3), 3)  # jumps at 0, pi/2, pi, 3 pi/2
    assert step_eval(meas, 0.0) == 0.0
    assert abs(step_eval(meas, 0.3) - 0.25) < 1e-13
    # left-continuous at a jump: the new mass arrives just after the angle
    assert abs(step_eval(meas, math.pi / 2) - 0.25) < 1e-13
    assert abs(step_eval(meas, math.pi / 2 + 1e-9) - 0.5) < 1e-13
    assert abs(step_eval(meas, 1.5 * math.pi) - 0.75) < 1e-13
    assert abs(step_eval(meas, 1.5 * math.pi + 1e-9) - 1.0) < 1e-13
    assert step_eval(meas, 2.0 * math.pi) == 1.0


def test_step_eval_vector_and_domain():
    meas = quadrature(lebesgue_pair(2), 2)
    grid = np.linspace(0.0, 2.0 * math.pi, 57)
    vals = step_eval(meas, grid)
    assert vals.shape == grid.shape
    assert np.all(np.diff(vals) >= -1e-15)
    with pytest.raises(InvalidParameters):
        step_eval(meas, -0.1)
    with pytest.raises(InvalidParameters):
        step_eval(meas, 2.0 * math.pi + 0.1)


def test_step_eval_monotone_random(rng):
    pair = random_pair(rng, 15)
    meas = quadrature(pair, 15)
    grid = np.sort(rng.uniform(0.0, 2.0 * math.pi, 200))
    vals = step_eval(meas, grid)
    assert np.all(np.diff(vals) >= -1e-15)
    assert step_eval(meas, 2.0 * math.pi) == 1.0


def test_moment_stabilization(rng):
    # deeper approximants agree on low moments once n passes the moment order
    pair = random_pair(rng, 60)
    mu_30 = moments(quadrature(pair, 30), 3)
    mu_60 = moments(quadrature(pair, 60), 3)
    assert np.max(np.abs(mu_30 - mu_60)) < 1e-10


def test_node_next_to_z_one():
    # pair 83 of default_rng(12345), drawn like the acceptance ensemble, puts
    # a node 1.2e-3 rad from z = 1, where weights formed from R_n and Q_n
    # lose about 2e-16 / t^2 each and broke the sum
    rng = np.random.default_rng(12345)
    for _ in range(83):
        c = rng.uniform(-0.5, 0.5, 40)
        m = np.concatenate([[0.0], rng.uniform(0.2, 0.8, 40)])
    meas = quadrature(make_pair(c, m=m), 40)
    t = np.minimum(meas.theta[1:], 2.0 * math.pi - meas.theta[1:])
    assert 1.1e-3 < float(np.min(t)) < 1.3e-3
    assert np.all(meas.weights > 0.0)
    assert abs(float(np.sum(meas.weights)) - 1.0) <= 1e-12


def test_zero_weight_deep_in_a_gap():
    # a weight below the Schur vectors' absolute accuracy rounds to 0.0 here
    # (weight 416), which is allowed: only a negative or NaN weight is an error
    meas = quadrature(random_pair(np.random.default_rng(4), 500, c_scale=2.0), 500)
    assert np.all(meas.weights >= 0.0)
    assert abs(float(np.sum(meas.weights)) - 1.0) <= _SUM_TOL


def test_weights_at_depth_200():
    # the zero ladder by bisection raised at level 121 on this pair
    pair = random_pair(np.random.default_rng(23), 200)
    meas = quadrature(pair, 200)
    assert np.all(meas.weights > 0.0)
    assert abs(float(np.sum(meas.weights)) - 1.0) <= 1e-12
