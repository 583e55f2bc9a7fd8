"""Zero ladders: interlacing, accuracy, and the excluded interval."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opuckit import (
    make_pair,
    pair_to_verblunsky,
    quadrature,
    r_coeffs,
    support_gap_check,
    w_eval,
    w_zeros,
    zero_ladder,
    zeros,
)
from opuckit.cmv import cmv_matrix
from opuckit.errors import GapViolated, HypothesisViolated, InternalInvariant, InvalidParameters
from conftest import cayley_node_bound, random_pair

EPS = sys.float_info.epsilon


def test_level_one_closed_form():
    zs = w_zeros(make_pair([1.0], d=[0.5]), 1)
    assert abs(zs.x[0] - 1.0 / math.sqrt(2.0)) < 1e-13
    assert abs(zs.theta[0] - math.pi / 2.0) < 1e-13


def test_level_two_roots_of_unity():
    # R_2 = z^2 + z + 1 for the zero-c pair, so theta = 2 pi/3 and 4 pi/3
    zs = w_zeros(make_pair([0.0, 0.0], d=[0.5, 0.25]), 2)
    assert np.allclose(zs.theta, [2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0], atol=1e-12)
    assert np.allclose(zs.x, [0.5, -0.5], atol=1e-12)


def test_zero_set_orientation(rng):
    zs = w_zeros(random_pair(rng, 12), 12)
    assert np.all(np.diff(zs.x) < 0.0)
    assert np.all(np.diff(zs.theta) > 0.0)
    assert np.allclose(zs.theta, 2.0 * np.arccos(zs.x), atol=1e-13)


def test_residuals_at_reported_zeros(rng):
    pair = random_pair(rng, 18)
    zs = w_zeros(pair, 18)
    residual = np.max(np.abs(w_eval(pair, 18, zs.x)))
    scale = float(np.max(np.abs(w_eval(pair, 18, np.linspace(-1.0, 1.0, 301)))))
    assert residual < 1e-10 * max(scale, 1e-30)


def test_strict_interlacing(rng):
    for _ in range(5):
        pair = random_pair(rng, 25)
        ladder = zero_ladder(pair, 25)
        for prev, cur in zip(ladder, ladder[1:]):
            lo = np.concatenate([[-1.0], np.sort(prev.x)])
            hi = np.concatenate([np.sort(prev.x), [1.0]])
            cur_sorted = np.sort(cur.x)
            assert np.all(cur_sorted - lo > 1e-12)
            assert np.all(hi - cur_sorted > 1e-12)


def test_ladder_at_depth_200():
    # consecutive levels of this pair share zeros to rounding inside a gap of
    # the support; bisection between them raised at level 121
    pair = random_pair(np.random.default_rng(23), 200)
    ladder = zero_ladder(pair, 200)
    for zs in (ladder[120], ladder[-1]):
        residual = np.max(np.abs(w_eval(pair, zs.n, zs.x)))
        scale = float(np.max(np.abs(w_eval(pair, zs.n, np.linspace(-1.0, 1.0, 301)))))
        assert residual < 1e-10 * max(scale, 1e-300)
    closest = math.inf
    for prev, cur in zip(ladder, ladder[1:]):
        lower, upper = prev.x[::-1], cur.x[::-1]
        slack = 64.0 * (cur.n + 1) * EPS
        assert np.all(upper[:-1] <= lower + slack) and np.all(lower <= upper[1:] + slack)
        closest = min(closest, float(np.min(np.abs(cur.x[:, None] - prev.x[None, :]))))
    assert closest < 1e-15


def test_interlacing_breach_names_level_and_index(rng, monkeypatch):
    pair = random_pair(rng, 6)
    real = zeros._cayley_level

    def shifted(u, k, a, tau, pole, vectors=False):
        h, first = real(u, k, a, tau, pole, vectors)
        if k == 4:
            # angles ascend with h cyclically from z = 1, which is h = cot(pole/2),
            # so theta[2] = theta[3] of the level: past the zero of level 3 between them
            j = int(np.argmin(np.abs(h - 1.0 / math.tan(0.5 * pole))))
            h[(j + 3) % 5] = h[(j + 4) % 5]
        return h, first

    monkeypatch.setattr(zeros, "_cayley_level", shifted)
    with pytest.raises(InternalInvariant, match=r"levels 3 and 4 do not interlace at index \d"):
        zero_ladder(pair, 6)


def test_against_companion_roots(rng):
    # independent oracle: angles of the circle roots of the degree-n coefficient
    # array, found by the numpy companion-matrix solver (test-only dependency)
    pair = random_pair(rng, 12)
    zs = w_zeros(pair, 12)
    roots = np.roots(r_coeffs(pair, 12).coeffs[::-1])
    assert np.max(np.abs(np.abs(roots) - 1.0)) < 1e-8
    theta = np.sort(np.mod(np.angle(roots), 2.0 * math.pi))
    assert np.max(np.abs(theta - zs.theta)) < 1e-8


def test_ladder_validation(rng):
    pair = random_pair(rng, 3)
    for fn in (zero_ladder, w_zeros, quadrature):
        with pytest.raises(InvalidParameters):
            fn(pair, 0)
        with pytest.raises(InvalidParameters):
            fn(pair, 4)


def test_w_zeros_is_top_of_ladder(rng):
    # w_zeros solves level n alone; it must agree bit for bit with the ladder
    pair = random_pair(rng, 40)
    top = zero_ladder(pair, 40)[-1]
    zs = w_zeros(pair, 40)
    assert zs.n == top.n == 40
    assert np.array_equal(zs.x, top.x) and np.array_equal(zs.theta, top.theta)


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_quadrature_nodes_are_the_top_level(data):
    # psi_n is level n of the ladder's level routine with weights: eigh's
    # angles against eigvalsh's on the same Cayley transform, within the
    # node bound of each
    n = data.draw(st.integers(1, 120))
    c = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    m = data.draw(st.lists(st.floats(0.02, 0.98), min_size=n, max_size=n))
    pair = make_pair(c, m=[0.0] + m)
    meas = quadrature(pair, n)
    zs = w_zeros(pair, n)
    assert meas.theta[0] == 0.0 and meas.theta.size == n + 1
    gap = np.abs(np.angle(np.exp(1j * (meas.theta[1:] - zs.theta))))
    assert np.all(gap <= 2.0 * cayley_node_bound(n))


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_sliced_levels_match_their_own_cmv_matrices(data):
    # level k the slow way: the eigenvalues of its own (k+1)x(k+1) CMV matrix
    # closed by conj(tau_k), less the one nearest z = 1, against the ladder's
    # slices of one matrix; every level of both parities, from n up to 120
    n = data.draw(st.integers(1, 120))
    c = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    m = data.draw(st.lists(st.floats(0.02, 0.98), min_size=n, max_size=n))
    pair = make_pair(c, m=[0.0] + m)
    vs = pair_to_verblunsky(pair)
    bound = cayley_node_bound(n)
    for k, zs in enumerate(zero_ladder(pair, n), start=1):
        z = np.linalg.eigvals(cmv_matrix(vs.alpha[:k], vs.tau[k].conjugate()))
        theta = np.sort(np.mod(np.angle(z), 2.0 * math.pi))
        theta = np.delete(theta, np.argmin(np.minimum(theta, 2.0 * math.pi - theta)))
        assert np.all(np.abs(np.angle(np.exp(1j * (zs.theta - theta)))) <= bound)


def test_support_gap_alternating(rng):
    n = 15
    tilde = rng.uniform(1.0, 2.0, n)
    c = [((-1.0) ** k) * tilde[k - 1] for k in range(1, n + 1)]
    pair = make_pair(c, m=[0.0] + list(rng.uniform(0.1, 0.9, n)))
    report = support_gap_check(pair, n)
    floor = min(tilde)
    g = floor / math.sqrt(1.0 + floor * floor)
    assert abs(report.c_floor - floor) < 1e-15
    assert report.x_excluded == (-g, g)
    assert report.margin > 0.0
    # theta_c = arccos((c^2 - 1)/(c^2 + 1)) doubles the arccos of the x bound
    assert abs(report.theta_c - 2.0 * math.acos(g)) < 1e-13
    for lo, hi in report.observed_arcs:
        assert lo <= hi
        assert hi <= report.theta_c + 1e-9 or lo >= 2.0 * math.pi - report.theta_c - 1e-9


def test_support_gap_constant_magnitude():
    n = 10
    c = [((-1.0) ** k) * 1.0 for k in range(1, n + 1)]
    pair = make_pair(c, m=[0.0] + [0.5] * n)
    report = support_gap_check(pair, n)
    assert abs(report.theta_c - math.pi / 2.0) < 1e-13
    assert report.margin >= 0.0


def ladder_margin_and_arcs(pair, n):
    """margin and observed_arcs of support_gap_check the way it was computed
    from every level of zero_ladder, before the Sturm walks replaced it.

    A zero within rounding of theta = pi is the exact zero x = 0 of an odd
    level (c = 0); the eigenvalues put it on either side of pi, and it joins
    the first arc, theta <= pi, where it belongs.
    """
    tilde = np.abs(pair.c[:n])
    c_floor = float(np.min(tilde)) if np.any(tilde) else 0.0
    g = c_floor / math.sqrt(1.0 + c_floor * c_floor)
    ladder = zero_ladder(pair, n)
    margin = min(float(np.min(np.abs(zs.x))) for zs in ladder) - (g - zeros._GAP_TOL)
    theta = np.sort(np.concatenate([zs.theta for zs in ladder]))
    pi = math.pi + 32 * (n + 1) * EPS
    arcs = [(part[0], part[-1]) for part in (theta[theta <= pi], theta[theta > pi]) if part.size]
    return margin, arcs


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_support_gap_matches_ladder(data):
    # c_k = sign (-1)^k c~_k for either sign, or c = 0 at the smaller depths
    sign = data.draw(st.sampled_from([1.0, -1.0, 0.0]))
    n = data.draw(st.integers(1, 120 if sign else 50))
    tilde = data.draw(st.lists(st.floats(0.1, 1.5), min_size=n, max_size=n))
    m = data.draw(st.lists(st.floats(0.05, 0.95), min_size=n, max_size=n))
    c = sign * np.asarray(tilde) * (-1.0) ** np.arange(1, n + 1)
    pair = make_pair(c, m=[0.0] + m)
    report = support_gap_check(pair, n)
    margin, arcs = ladder_margin_and_arcs(pair, n)
    # x = cos(theta/2) to 16 (n+1) eps on both routes, so theta to twice that
    # over |sin(theta/2)|, plus 32 (n+1) eps for the eigenvalues' backward
    # error: the form of the benchmark's node_bound
    assert abs(report.margin - margin) <= 16 * (n + 1) * EPS
    assert len(report.observed_arcs) == len(arcs)
    for got, want in zip(report.observed_arcs, arcs):
        bound = 32 * (n + 1) * EPS * (1.0 / np.abs(np.sin(0.5 * np.asarray(want))) + 1.0)
        assert np.all(np.abs(np.asarray(got) - want) <= bound)


def test_support_gap_violation_names_level_and_zero(monkeypatch):
    # the sharp pair has its level-1 zero on -g = -1/sqrt(2); admitting no
    # zero within 1e-6 outside +-g puts that one inside
    n = 10
    pair = make_pair([(-1.0) ** k for k in range(1, n + 1)], m=[0.0] + [0.5] * n)
    monkeypatch.setattr(zeros, "_GAP_TOL", -1e-6)
    with pytest.raises(GapViolated) as caught:
        support_gap_check(pair, n)
    assert caught.value.level == 1
    assert abs(caught.value.x + 1.0 / math.sqrt(2.0)) <= 4 * EPS


def test_support_gap_without_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("support_gap_check called an eigensolver")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    monkeypatch.setattr(np.linalg, "eig", refuse)
    n = 1000
    rng = np.random.default_rng(23)
    c = rng.uniform(0.3, 1.0, n) * (-1.0) ** np.arange(1, n + 1)
    pair = make_pair(c, m=np.concatenate([[0.0], rng.uniform(0.2, 0.8, n)]))
    report = support_gap_check(pair, n)
    assert report.n == n and report.margin > 0.0 and len(report.observed_arcs) == 2


def test_support_gap_arc_ends_next_to_z_one():
    # at n = 1000 this pair has zeros 1.5e-6 rad past z = 1 and 1.1e-12 rad
    # before it; walks in theta match level n of the ladder at both ends to
    # the eigenvalues' accuracy, where walks in x = cos(theta/2) would
    # resolve an end t rad from z = 1 only to about eps/t
    n = 1000
    rng = np.random.default_rng(23)
    c = rng.uniform(0.3, 1.0, n) * (-1.0) ** np.arange(1, n + 1)
    pair = make_pair(c, m=np.concatenate([[0.0], rng.uniform(0.2, 0.8, n)]))
    (first, _), (_, last) = support_gap_check(pair, n).observed_arcs
    top = w_zeros(pair, n)
    assert 2.0 * math.pi - top.theta[-1] < 1e-11
    assert abs(first - top.theta[0]) <= cayley_node_bound(n)
    assert abs(last - top.theta[-1]) <= cayley_node_bound(n)


def test_support_gap_vacuous_for_zero_c():
    pair = make_pair([0.0, 0.0], d=[0.5, 0.25])
    report = support_gap_check(pair, 2)
    assert report.c_floor == 0.0
    assert report.x_excluded == (0.0, 0.0)


def test_support_gap_sign_pattern_enforced():
    pair = make_pair([1.0, 1.0], m=[0.0, 0.5, 0.5])
    with pytest.raises(HypothesisViolated):
        support_gap_check(pair, 2)


def test_conjugation_reflects_zeros(rng):
    # flipping the sign of every c mirrors the zero set through the origin
    from opuckit import conjugate_pair

    pair = random_pair(rng, 14)
    direct = w_zeros(pair, 14)
    mirrored = w_zeros(conjugate_pair(pair), 14)
    assert np.max(np.abs(np.sort(mirrored.x) + np.sort(direct.x)[::-1])) < 1e-10
