"""Closed forms of the two-periodic model family against the general machinery."""

import cmath
import math

import numpy as np
import pytest

from opuckit import (
    PeriodTwoParams,
    ac_weight,
    discriminant,
    family_alpha,
    family_band_edges,
    family_discriminant,
    family_masses,
    family_pair,
    family_phi2_coeffs,
    family_weight,
    full_spectrum,
    kappa_from_alpha,
    mass_series,
    pair_to_verblunsky,
)
from opuckit.errors import InvalidParameters
from opuckit.polynomials import szego_coeffs

TWO_PI = 2.0 * math.pi

REFERENCE = PeriodTwoParams(c=1.0, b1=0.3, b2=0.5)


def test_params_validation():
    with pytest.raises(InvalidParameters):
        PeriodTwoParams(c=0.0, b1=1.0, b2=0.0)
    with pytest.raises(InvalidParameters):
        PeriodTwoParams(c=float("inf"), b1=0.0, b2=0.0)
    assert abs(REFERENCE.disc_scale - (1.0 - 0.09) * (1.0 - 0.25)) < 1e-15


@pytest.mark.parametrize("name", ["c", "b1", "b2"])
def test_params_refuse_a_bool(name):
    # True == 1 would build the c = 1 family or fail on |b| < 1 instead
    values = {"c": 1.0, "b1": 0.3, "b2": 0.5, name: True}
    with pytest.raises(InvalidParameters, match=f"^{name} = True must be a finite real$"):
        PeriodTwoParams(**values)


def test_family_alpha_reference_values():
    a0, a1 = family_alpha(REFERENCE)
    # (0.3 + i)(1 - i)/2 and (0.5 - i)(1 - i)/2 expanded by hand
    assert abs(a0 - (0.65 + 0.35j)) < 1e-15
    assert abs(a1 - (-0.25 - 0.75j)) < 1e-15


def test_family_pair_matches_alpha():
    # the pair and the explicit alpha formulas must be two views of one object
    pair = family_pair(REFERENCE, 12)
    assert pair.tail_period == 2
    assert pair.c[:4] == (-1.0, 1.0, -1.0, 1.0)
    assert abs(pair.m[1] - 0.35) < 1e-15
    assert abs(pair.m[2] - 0.25) < 1e-15
    a0, a1 = family_alpha(REFERENCE)
    expected = [a0 if k % 2 == 0 else a1 for k in range(12)]
    got = pair_to_verblunsky(pair).alpha
    assert max(abs(x - y) for x, y in zip(got, expected)) < 1e-13


def test_family_pair_matches_alpha_other_params():
    for params in (
        PeriodTwoParams(c=-0.5, b1=-0.7, b2=0.3),
        PeriodTwoParams(c=0.0, b1=0.3, b2=-0.3),
        PeriodTwoParams(c=2.0, b1=0.0, b2=0.7),
    ):
        pair = family_pair(params, 10)
        a0, a1 = family_alpha(params)
        expected = [a0 if k % 2 == 0 else a1 for k in range(10)]
        got = pair_to_verblunsky(pair).alpha
        assert max(abs(x - y) for x, y in zip(got, expected)) < 1e-13


def test_family_discriminant_against_general():
    theta = np.linspace(0.0, TWO_PI, 400)
    for params in (REFERENCE, PeriodTwoParams(c=0.5, b1=-0.3, b2=0.7)):
        closed = family_discriminant(params, theta)
        general = discriminant(family_alpha(params), theta)
        assert np.max(np.abs(closed - general)) < 1e-12


def test_family_band_edges_shape():
    e = family_band_edges(REFERENCE)
    assert e[0] < e[1] <= e[2] < e[3]
    assert abs(e[2] - (TWO_PI - e[1])) < 1e-15
    assert abs(e[3] - (TWO_PI - e[0])) < 1e-15
    # the discriminant takes the defining values +-2 at the edges
    assert abs(family_discriminant(REFERENCE, e[0]) - 2.0) < 1e-12
    assert abs(family_discriminant(REFERENCE, e[1]) + 2.0) < 1e-12


def test_family_edges_against_scanner():
    spec = full_spectrum(family_alpha(REFERENCE))
    e = family_band_edges(REFERENCE)
    lo = sorted(b.lo % TWO_PI for b in spec.bands)
    hi = sorted(b.hi % TWO_PI for b in spec.bands)
    assert abs(lo[0] - e[0]) < 1e-10 and abs(lo[1] - e[2]) < 1e-10
    assert abs(hi[0] - e[1]) < 1e-10 and abs(hi[1] - e[3]) < 1e-10
    first = min(spec.bands, key=lambda b: b.lo)
    assert (first.lo_sign, first.hi_sign) == (1, -1)


def test_family_weight_against_general():
    e = family_band_edges(REFERENCE)
    inner = np.concatenate(
        [
            np.linspace(e[0] + 0.05, e[1] - 0.05, 25),
            np.linspace(e[2] + 0.05, e[3] - 0.05, 25),
        ]
    )
    closed = family_weight(REFERENCE, inner)
    general = ac_weight(family_alpha(REFERENCE), inner)
    assert np.max(np.abs(closed - general)) < 1e-12 * max(1.0, float(np.max(closed)))


def test_family_weight_nan_off_band():
    val = family_weight(REFERENCE, 0.01)
    assert math.isnan(val)


def test_family_masses_reference():
    masses = family_masses(REFERENCE)
    assert len(masses) == 2
    at_one, at_w2 = masses
    assert at_one.w == 1.0 + 0.0j and at_one.theta == 0.0
    assert abs(at_one.mass - 8.0 / 15.0) < 1e-15
    # w2 = -(1 + i)/(1 - i) = -i sits at theta = 3 pi/2
    assert abs(at_w2.w - (-1j)) < 1e-15
    assert abs(at_w2.theta - 1.5 * math.pi) < 1e-15
    assert abs(at_w2.mass - 2.0 / 15.0) < 1e-15


def test_family_masses_conditions():
    none_at_one = family_masses(PeriodTwoParams(c=0.3, b1=-0.3, b2=0.3))
    assert all(mp.w != 1.0 + 0.0j for mp in none_at_one)
    only_w2 = family_masses(PeriodTwoParams(c=0.0, b1=-0.5, b2=-0.3))
    assert len(only_w2) == 1
    assert abs(only_w2[0].mass - 0.2 / 0.7) < 1e-14
    empty = family_masses(PeriodTwoParams(c=0.5, b1=0.4, b2=-0.4))
    # b1 + b2 = 0 and b2 < b1: no mass anywhere
    assert empty == ()


def test_masses_against_general_machinery():
    alpha = family_alpha(REFERENCE)
    points = full_spectrum(alpha).pure_points
    assert len(points) == len(family_masses(REFERENCE))
    for mp in family_masses(REFERENCE):
        got = [pp.mass for pp in points if abs(pp.w - mp.w) < 1e-12]
        assert len(got) == 1, mp
        assert abs(got[0] - mp.mass) < 1e-12
        assert abs(mass_series(alpha, mp.w, 4000) - mp.mass) < 1e-8


def test_massless_points_against_general_machinery():
    params = PeriodTwoParams(c=0.7, b1=-0.6, b2=-0.2)
    spec = full_spectrum(family_alpha(params))
    # b1 + b2 < 0: the candidate at z = 1 carries no mass
    assert any(abs(z - 1.0) < 1e-12 for z in spec.candidates)
    # b2 > b1: the rotated candidate does carry mass (0.4)/(0.8)
    w2 = -(1.0 + 0.7j) / (1.0 - 0.7j)
    [point] = spec.pure_points
    assert abs(point.w - w2) < 1e-12
    assert abs(point.mass - 0.5) < 1e-12


def test_spectrum_pure_points_near_closed_form():
    spec = full_spectrum(family_alpha(REFERENCE))
    expect = {0.0: 8.0 / 15.0, 1.5 * math.pi: 2.0 / 15.0}
    assert len(spec.pure_points) == 2
    for pp in spec.pure_points:
        target = min(expect, key=lambda t: abs(t - pp.theta))
        assert abs(pp.theta - target) < 1e-8
        assert abs(pp.mass - expect[target]) < 1e-9


def test_family_phi2_matches_recurrence():
    for params in (REFERENCE, PeriodTwoParams(c=-0.8, b1=0.2, b2=-0.6)):
        alpha = family_alpha(params)
        monic, _ = szego_coeffs(alpha)
        kappa = kappa_from_alpha(alpha)
        closed = family_phi2_coeffs(params)
        assert max(abs(k * kappa - c2) for k, c2 in zip(monic, closed)) < 1e-13


def test_family_pair_length_validation():
    with pytest.raises(InvalidParameters):
        family_pair(REFERENCE, 0)
