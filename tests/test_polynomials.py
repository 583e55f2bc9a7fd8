"""Coupled polynomial recurrences and the links between the three families."""

import math

import numpy as np
import pytest

from opuckit import (
    PeriodTwoParams,
    family_discriminant,
    family_weight,
    kappa_from_alpha,
    make_pair,
    pair_to_verblunsky,
    q_coeffs,
    r_coeffs,
    rq_eval,
    szego_coeffs,
    szego_eval,
    tau_from_c,
    w_eval,
    w_from_r_check,
)
from opuckit.errors import InvalidParameters, NumericsError
from opuckit.polynomials import eval_poly, self_inversive_defect, w_eval_scaled
from conftest import random_pair


def test_r1_coefficients():
    pair = make_pair([1.0], d=[0.5])
    coeffs = r_coeffs(pair, 1).coeffs
    assert np.allclose(coeffs, [1.0 - 1j, 1.0 + 1j], atol=1e-15)


def test_r2_real_for_one_minus_one():
    # [(1 - i) z + (1 + i)] [(1 + i) z + (1 - i)] - z = 2 z^2 - z + 2 by hand
    pair = make_pair([1.0, -1.0], d=[0.5, 0.25])
    coeffs = r_coeffs(pair, 2).coeffs
    assert np.allclose(coeffs, [2.0, -1.0, 2.0], atol=1e-14)


def test_r2_zero_c():
    # (z + 1)^2 - z = z^2 + z + 1
    pair = make_pair([0.0, 0.0], d=[0.5, 0.25])
    assert np.allclose(r_coeffs(pair, 2).coeffs, [1.0, 1.0, 1.0], atol=1e-15)


def test_q_low_levels():
    pair = make_pair([0.0, 0.0], d=[0.5, 0.25])
    assert np.allclose(q_coeffs(pair, 1).coeffs, [1.0], atol=1e-15)
    # Q_2 = (z + 1) Q_1 - z Q_0 = z + 1
    assert np.allclose(q_coeffs(pair, 2).coeffs, [1.0, 1.0], atol=1e-15)


def test_q_degree_is_n_minus_one(rng):
    pair = random_pair(rng, 8)
    for n in range(1, 9):
        assert len(q_coeffs(pair, n).coeffs) == n


def test_r_leading_coefficient(rng):
    pair = random_pair(rng, 10)
    lead = 1.0 + 0.0j
    for ck in pair.c:
        lead *= 1.0 + 1j * ck
    assert abs(r_coeffs(pair, 10).coeffs[-1] - lead) < 1e-10 * abs(lead)


def test_r_self_inversive(rng):
    for _ in range(5):
        pair = random_pair(rng, 20)
        coeffs = r_coeffs(pair, 20).coeffs
        scale = float(np.max(np.abs(coeffs)))
        assert self_inversive_defect(coeffs) < 1e-10 * scale


def test_rq_eval_matches_coefficients(rng):
    pair = random_pair(rng, 15)
    z = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 11))
    for n in (1, 7, 15):
        vals = rq_eval(pair, n, z)
        scale = 2.0**vals.exp2
        r_direct = eval_poly(r_coeffs(pair, n).coeffs, z)
        assert np.max(np.abs(vals.r * scale - r_direct)) < 1e-9 * max(
            1.0, np.max(np.abs(r_direct))
        )


def test_w_matches_rescaled_circle_values(rng):
    # W_n(cos(theta/2)) must equal 2^{-n} e^{-i n theta / 2} R_n(e^{i theta}),
    # evaluated here through the independent coefficient route
    pair = random_pair(rng, 12)
    theta = rng.uniform(0.0, 2.0 * math.pi, 9)
    for n in (1, 5, 12):
        circle = eval_poly(r_coeffs(pair, n).coeffs, np.exp(1j * theta))
        circle = circle * np.exp(-0.5j * n * theta) / 2.0**n
        assert float(np.max(np.abs(circle.imag))) < 1e-12 * max(
            1.0, float(np.max(np.abs(circle)))
        )
        w = w_eval(pair, n, np.cos(0.5 * theta))
        assert np.max(np.abs(w - circle.real)) < 1e-11


def test_w_from_r_check_small(rng):
    pair = random_pair(rng, 25)
    theta = rng.uniform(0.0, 2.0 * math.pi, 16)
    assert w_from_r_check(pair, 25, theta) < 1e-10


def test_w_level_one_zero():
    # W_1 = x - c_1 sqrt(1 - x^2) vanishes at x = c_1/sqrt(1 + c_1^2)
    pair = make_pair([1.0], d=[0.5])
    x = 1.0 / math.sqrt(2.0)
    assert abs(w_eval(pair, 1, x)) < 1e-15
    assert w_eval(pair, 1, 1.0) > 0.0
    assert w_eval(pair, 1, 0.0) < 0.0


def test_w_eval_domain_check():
    pair = make_pair([0.0], d=[0.5])
    with pytest.raises(InvalidParameters):
        w_eval(pair, 1, 1.5)


@pytest.mark.parametrize("x", [math.nan, [0.5, math.nan]])
def test_w_eval_rejects_nan(x):
    pair = make_pair([0.0], d=[0.5])
    with pytest.raises(InvalidParameters):
        w_eval(pair, 1, x)


def test_w_eval_scaled_shared_exponent():
    # 500 levels of growth ~2.2 per step push past the rescale threshold, so
    # the mantissa must stay moderate while the exponent absorbs the size
    n = 500
    pair = make_pair([3.0] * n, m=[0.0] + [0.5] * n)
    val, exp2 = w_eval_scaled(pair, n, np.array([-0.9]))
    assert np.isfinite(val).all() and abs(float(val[0])) > 0.0
    assert exp2 > 0
    full = w_eval(pair, n, -0.9)
    assert np.isfinite(full)
    assert abs(full - float(val[0]) * 2.0**exp2) <= 1e-9 * abs(full)


def test_szego_lebesgue():
    z = np.exp(1j * np.linspace(0.3, 5.9, 7))
    st = szego_eval([0.0, 0.0, 0.0], z)
    assert np.allclose(st.phi, z**3, atol=1e-15)
    assert np.allclose(st.phi_star, np.ones_like(z), atol=1e-15)
    assert kappa_from_alpha(()) == 1.0


def test_szego_eval_past_kappa_overflow():
    # kappa_600 of alpha = 0.97 passes the largest float; the monic values
    # do not need it
    with pytest.raises(NumericsError):
        kappa_from_alpha([0.97] * 600)
    st = szego_eval([0.97] * 600, 1.0)
    assert np.isfinite(st.phi) and np.isfinite(st.phi_star)


def test_szego_coeffs_match_values(rng):
    alpha = tuple(0.6 * rng.uniform(-1, 1, 8) + 0.6j * rng.uniform(-1, 1, 8))
    alpha = tuple(a for a in alpha if abs(a) < 1.0)
    z = np.exp(1j * rng.uniform(0, 2 * math.pi, 6))
    phi_c, star_c = szego_coeffs(alpha)
    st = szego_eval(alpha, z)
    assert np.max(np.abs(eval_poly(phi_c, z) - st.phi)) < 1e-12
    assert np.max(np.abs(eval_poly(star_c, z) - st.phi_star)) < 1e-12
    # the reversed family is the conjugate-reflected coefficient array
    assert np.max(np.abs(star_c - np.conj(phi_c[::-1]))) < 1e-14


def test_kappa_single():
    assert abs(kappa_from_alpha([0.5]) - 2.0 / math.sqrt(3.0)) < 1e-15


def test_kappa_overflow_names_index():
    # each 0.97 adds -log(1 - 0.97^2)/2 = 1.41 to log kappa, past log(max float)
    # = 709.78 at the 502nd coefficient
    with pytest.raises(NumericsError, match=r"alpha\[501\]"):
        kappa_from_alpha([0.97] * 2000)
    assert math.isfinite(kappa_from_alpha([0.97] * 501))


@pytest.mark.parametrize("bad", [1.0, 1.5j, float("nan")])
def test_kappa_rejects_coefficients_off_the_disk(bad):
    with pytest.raises(InvalidParameters, match=r"alpha\[1\]"):
        kappa_from_alpha([0.5, bad])


def test_r_via_szego_prefactor(rng):
    # R_n(z) agrees with the rescaled combination of phi_n and phi_n* built
    # from the image reflection coefficients:
    #   prod (1 - u_j) / prod (1 - Re u_j) * (z phi_n - tau_n phi_n*)/(z - 1)
    # where u_j = tau_{j-1} alpha_{j-1} and tau_n = phi_n(1)/phi_n*(1)
    for _ in range(3):
        n = 9
        pair = random_pair(rng, n)
        vs = pair_to_verblunsky(pair)
        num, den = 1.0 + 0.0j, 1.0
        for j in range(n):
            u = vs.tau[j] * vs.alpha[j]
            num *= 1.0 - u
            den *= 1.0 - u.real
        theta = rng.uniform(0.15, 2.0 * math.pi - 0.15, 10)
        z = np.exp(1j * theta)
        st = szego_eval(vs.alpha, z)
        rhs = (num / den) * (z * st.phi - vs.tau[n] * st.phi_star) / (z - 1.0)
        lhs = eval_poly(r_coeffs(pair, n).coeffs, z)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * float(np.max(np.abs(lhs)))
        at_one = szego_eval(vs.alpha, np.array([1.0 + 0.0j]))
        tau_from_phi = complex(at_one.phi[0] / at_one.phi_star[0])
        assert abs(tau_from_phi - vs.tau[n]) < 1e-11


def test_degree_validation(rng):
    pair = random_pair(rng, 4)
    with pytest.raises(InvalidParameters):
        r_coeffs(pair, 5)
    with pytest.raises(InvalidParameters):
        r_coeffs(pair, -1)
    # no degree cap: every stored degree has its coefficient array
    assert r_coeffs(random_pair(rng, 70), 70).coeffs.shape == (71,)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize(
    "call, entry",
    [
        (lambda bad: tau_from_c([0.1, bad]), r"c\[1\]"),
        (lambda bad: rq_eval(make_pair([0.0], d=[0.5]), 1, [0.5, bad]), r"z\[1\]"),
        (lambda bad: szego_eval([0.2], bad), "z"),
        (lambda bad: family_weight(PeriodTwoParams(1.0, 0.3, 0.5), bad), "theta"),
        (lambda bad: family_discriminant(PeriodTwoParams(1.0, 0.3, 0.5), [1.0, bad]), r"theta\[1\]"),
    ],
    ids=["tau_from_c", "rq_eval", "szego_eval", "family_weight", "family_discriminant"],
)
def test_non_finite_input_names_the_entry(call, entry, bad):
    with pytest.raises(InvalidParameters, match=rf"^{entry} = \(?(nan|inf)"):
        call(bad)
