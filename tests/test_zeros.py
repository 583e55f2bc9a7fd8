"""Zero ladders: interlacing, accuracy, and the excluded interval."""

import math
import sys

import numpy as np
import pytest

from opuckit import make_pair, r_coeffs, support_gap_check, w_eval, w_zeros, zero_ladder, zeros
from opuckit.errors import HypothesisViolated, InternalInvariant, InvalidParameters
from conftest import random_pair

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
    real = zeros.para_orthogonal_angles

    def shifted(alpha, beta):
        theta = real(alpha, beta)
        if len(alpha) == 4:
            theta[2] = theta[3]  # past the zero of level 3 between them
        return theta

    monkeypatch.setattr(zeros, "para_orthogonal_angles", shifted)
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
    for fn in (zero_ladder, w_zeros):
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
