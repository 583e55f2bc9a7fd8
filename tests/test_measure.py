"""Discrete approximating measures: weights, moments, and the step function."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opuckit import (
    ChainSequence,
    bijection,
    make_pair,
    maximal_parameters,
    moments,
    pair_to_verblunsky,
    quadrature,
    step_eval,
    verblunsky_to_pair,
    w_zeros,
    zero_ladder,
)
from opuckit import measure, zeros
from opuckit.errors import InvalidParameters
from opuckit.measure import _SUM_TOL
from conftest import cayley_node_bound, random_pair


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
    meas = quadrature(lebesgue_pair(n), n)
    mu = moments(meas, n)
    assert abs(mu[0] - 1.0) < 1e-14
    assert np.max(np.abs(mu[1:])) < 1e-12
    with pytest.raises(InvalidParameters, match="k_max"):
        moments(meas, -1)


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
    for bad in (math.nan, [0.5, math.nan]):
        with pytest.raises(InvalidParameters):
            step_eval(meas, bad)


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


# ---- psi_n against a 48-digit oracle

# the oracle's fixed point: a number v is the integer round(v 2^BITS)
BITS = 160
ONE = 1 << BITS


def fixed(v):
    return int(mp.nint(mp.ldexp(v, BITS)))


def cis(angle):
    """cos and sin of the fixed-point angle, in fixed point."""
    with mp.workprec(BITS + 32):
        a = mp.ldexp(angle, -BITS)
        return fixed(mp.cos(a)), fixed(mp.sin(a))


def gauss_szego_oracle(alpha, beta, theta):
    """The nodes of psi_n next to the angles theta and their weights, from
    the Szego recurrence phi_{k+1} = (z phi_k - conj(alpha_k) phi_k*)/rho_k,
    phi_{k+1}* = (phi_k* - alpha_k z phi_k)/rho_k in 160-bit fixed point.

    On |z| = 1, e^{i (arg beta - (n+1) t)/2} (z phi_n - conj(beta) phi_n*)
    is i times a real function of t, whose zeros are the nodes; the secant
    method refines each from its float start to about 40 digits.  The weight
    of a node is the Christoffel number 1/sum_{k<=n} |phi_k(z)|^2.
    """
    n = len(alpha)
    with mp.workprec(BITS + 32):
        coeffs = [
            (fixed(a.real), fixed(a.imag), fixed(1 / mp.sqrt(1 - mp.mpf(a.real) ** 2 - mp.mpf(a.imag) ** 2)))
            for a in alpha
        ]
        half_arg = fixed(mp.atan2(beta.imag, beta.real) / 2)
    br, bi = cis(2 * half_arg)

    def evaluate(t):
        zr, zi = cis(t)
        pr, pi, qr, qi, total = ONE, 0, ONE, 0, ONE
        for ar, ai, rinv in coeffs:
            zpr, zpi = (zr * pr - zi * pi) >> BITS, (zr * pi + zi * pr) >> BITS
            pr, pi, qr, qi = (
                (zpr - ((ar * qr + ai * qi) >> BITS)) * rinv >> BITS,
                (zpi - ((ar * qi - ai * qr) >> BITS)) * rinv >> BITS,
                (qr - ((ar * zpr - ai * zpi) >> BITS)) * rinv >> BITS,
                (qi - ((ar * zpi + ai * zpr) >> BITS)) * rinv >> BITS,
            )
            total += (pr * pr + pi * pi) >> BITS
        zpr, zpi = (zr * pr - zi * pi) >> BITS, (zr * pi + zi * pr) >> BITS
        wr, wi = cis(half_arg - (n + 1) * t // 2)
        return wr * (zpi - ((br * qi - bi * qr) >> BITS)) + wi * (zpr - ((br * qr + bi * qi) >> BITS)), total

    nodes, weights = [], []
    for start in theta:
        t = fixed(mp.mpf(float(start)))
        u = t + (ONE >> 40)
        ft, _ = evaluate(t)
        fu, total = evaluate(u)
        while abs(u - t) > ONE >> 110 and fu != ft:
            t, u, ft = u, u - fu * (u - t) // (fu - ft), fu
            fu, total = evaluate(u)
        nodes.append(u / ONE)
        weights.append(ONE / total)
    return np.array(nodes), np.array(weights)


def test_quadrature_against_high_precision_oracle():
    # weights as the benchmark's weight_bound derives them, for the Cayley
    # route: nodes to b = cayley_node_bound(n), eigenvectors to dv = b/sep,
    # since the eigenvalues h = tan(psi/2) of H are at least sep/2 apart
    rng = np.random.default_rng(2027)
    checked = 0
    for _ in range(30):
        n = int(rng.integers(5, 91))
        pair = random_pair(rng, n, c_scale=float(rng.uniform(0.0, 3.0)))
        vs = pair_to_verblunsky(pair)
        meas = quadrature(pair, n)
        theta, w = gauss_szego_oracle(vs.alpha[:n], vs.tau[n].conjugate(), meas.theta)
        if not abs(math.fsum(w) - 1.0) <= 1e-12:
            continue
        checked += 1
        b = cayley_node_bound(n)
        assert np.all(np.abs(np.angle(np.exp(1j * (meas.theta - theta)))) <= b)
        gaps = np.abs(np.angle(np.exp(1j * (theta[:, None] - theta[None, :]))))
        np.fill_diagonal(gaps, math.inf)
        sep = gaps.min(axis=1)
        dv = b / sep
        bound = (n + 1 + 2.0 / sep) * w * b + 2.0 * np.sqrt(w) * dv + dv * dv
        assert np.all(np.abs(meas.weights - w) <= bound)
    assert checked >= 25


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_mass_at_one_is_m0_of_the_prefix_chain(data):
    # psi_n's weight at z = 1 is 1/sum_{k<=n} |phi_k(1)|^2, which is M_0 of the
    # backward pass M_{k-1} = 1 - d_k/M_k from M_n = 1 over d_1..d_n, no tail
    n = data.draw(st.integers(1, 120))
    c = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    m = data.draw(st.lists(st.floats(0.02, 0.98), min_size=n, max_size=n))
    pair = make_pair(c, m=[0.0] + m)
    meas = quadrature(pair, n)
    prefix = ChainSequence(d=pair.chain.d[:n], m=pair.chain.m[: n + 1])
    maximal = maximal_parameters(prefix)
    m0 = maximal.M[0]
    # the weight: the weight_bound form of the Cayley route, with sep the
    # distance from node 0 to its nearest node
    b = cayley_node_bound(n)
    sep = float(np.min(np.minimum(meas.theta[1:], 2.0 * math.pi - meas.theta[1:])))
    dv = b / sep
    weight_error = (n + 1 + 2.0 / sep) * m0 * b + 2.0 * math.sqrt(m0) * dv + dv * dv
    # the chain side: maximal.error, without a tail a bound relative to M_0
    assert abs(meas.weights[0] - m0) <= maximal.error + weight_error


def test_ladders_and_quadrature_convert_only_n_terms(rng, monkeypatch):
    # zero_ladder, w_zeros and quadrature read alpha_0..alpha_{n-1} and
    # tau_0..tau_n alone: they convert the n-term prefix of a long pair, and
    # agree bit for bit with the same calls on the prefix pair (n passes one
    # renormalization block of tau)
    n = 70
    pair = random_pair(rng, 3000)
    prefix = make_pair(pair.c[:n], m=pair.m[: n + 1])
    convert = bijection._alpha_tau
    lengths = []

    def counting(c, m):
        lengths.append(len(c))
        return convert(c, m)

    monkeypatch.setattr(zeros, "_alpha_tau", counting)
    monkeypatch.setattr(measure, "_alpha_tau", counting)

    def results(p):
        ladder = zero_ladder(p, n)
        top = w_zeros(p, n)
        meas = quadrature(p, n)
        return repr((
            [(z.x.tolist(), z.theta.tolist()) for z in ladder],
            (top.x.tolist(), top.theta.tolist()),
            (meas.theta.tolist(), meas.nodes.tolist(), meas.weights.tolist()),
        ))

    long, short = results(pair), results(prefix)
    assert lengths == [n] * 6
    assert long == short
