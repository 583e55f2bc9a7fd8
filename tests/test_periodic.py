"""Spectral machinery for periodic reflection coefficients."""

import cmath
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from opuckit import (
    ChainSequence,
    ac_weight,
    discriminant,
    full_spectrum,
    is_periodic_pair,
    mass_series,
    maximal_parameters,
    normalization_report,
    parallel_lines_check,
    transfer_product,
    verblunsky_to_pair,
)
from opuckit import periodic
from opuckit.errors import (
    DenominatorVanished,
    HypothesisViolated,
    InternalInvariant,
    InvalidParameters,
    NoConvergence,
    NonRealDiscriminant,
    NumericsError,
    OffBand,
)
from opuckit.polynomials import kappa_from_alpha
from opuckit.period_two import PeriodTwoParams, family_alpha
from conftest import alternating_alpha, alternating_block, random_alpha

TWO_PI = 2.0 * math.pi
EPS = sys.float_info.epsilon


def transfer_rounding(alpha):
    """16 p eps prod_j (1 + |alpha_j|)/rho_j, the rounding bound of the transfer product."""
    norm = math.prod((1 + abs(a)) / math.sqrt(1 - abs(a) ** 2) for a in alpha)
    return 16 * len(alpha) * EPS * norm


def checked_report(alpha, spec=None):
    """normalization_report, with |total - 1| within ac_error + point_error."""
    report = normalization_report(alpha, spec)
    assert abs(report["total"] - 1.0) <= report["ac_error"] + report["point_error"]
    return report


def assert_bands_match_discriminant(alpha, spec):
    """p bands with p edges per sign, Delta = 2 sign at every edge, and the
    bands covering exactly the sampled angles where |Delta| < 2."""
    p = len(alpha)
    bound = transfer_rounding(alpha)
    assert len(spec.bands) == p
    assert len(spec.plus_solutions) == p and len(spec.minus_solutions) == p
    assert np.all(np.abs(discriminant(alpha, spec.plus_solutions) - 2.0) <= bound)
    assert np.all(np.abs(discriminant(alpha, spec.minus_solutions) + 2.0) <= bound)
    for band in spec.bands:
        edges = discriminant(alpha, [band.lo, band.hi])
        assert np.all(np.abs(edges - 2.0 * np.array([band.lo_sign, band.hi_sign])) <= bound)
    theta = np.linspace(0.0, TWO_PI, 64 * p, endpoint=False)
    delta = np.abs(discriminant(alpha, theta))
    inside = np.zeros(theta.size, dtype=bool)
    for band in spec.bands:
        inside |= np.mod(theta - band.lo, TWO_PI) <= band.hi - band.lo
    assert not np.any((delta < 2.0 - bound) & ~inside)
    assert not np.any((delta > 2.0 + bound) & inside)


def test_transfer_matrix_determinant():
    # det A(a, z) = z, so det T_p = z^p
    for alpha, z in [
        ((0.5, -0.3j), 1j),
        ((0.3 - 0.4j, 0.2, -0.6 + 0.1j), cmath.exp(0.5j)),
        ((0.0, 0.7, 0.1j, -0.4), -1.0),
    ]:
        T = transfer_product(alpha, z)
        assert abs(np.linalg.det(T) - z ** len(alpha)) < 1e-14


def test_transfer_product_matches_matmul():
    alpha = (0.3, -0.2 + 0.4j, 0.1j)
    z = complex(math.cos(1.1), math.sin(1.1))
    direct = transfer_product(alpha, z)
    manual = np.eye(2, dtype=complex)
    for a in alpha:
        A = np.array([[z, -a.conjugate()], [-a * z, 1.0]]) / math.sqrt(1.0 - abs(a) ** 2)
        manual = A @ manual
    assert np.max(np.abs(direct - manual)) < 1e-13


def test_discriminant_free_case():
    theta = np.linspace(0.0, TWO_PI, 201)
    vals = discriminant((0.0,), theta)
    assert np.max(np.abs(vals - 2.0 * np.cos(0.5 * theta))) < 1e-13


def test_discriminant_real_single():
    # the trace for a single coefficient is (z + 1)/sqrt(1 - |a|^2)
    r = 0.5
    theta = np.linspace(0.0, TWO_PI, 101)
    vals = discriminant((r,), theta)
    expect = 2.0 * np.cos(0.5 * theta) / math.sqrt(1.0 - r * r)
    assert np.max(np.abs(vals - expect)) < 1e-12


def test_discriminant_odd_branch_flip():
    # odd periods change sign across the cut: Delta(2 pi) = -Delta(0)
    alpha = (0.3, -0.2, 0.1)
    assert abs(discriminant(alpha, 0.0) + discriminant(alpha, TWO_PI)) < 1e-12


def test_discriminant_validation():
    with pytest.raises(InvalidParameters):
        discriminant((), 0.0)
    with pytest.raises(InvalidParameters):
        discriminant((1.0,), 0.0)


def test_discriminant_overflow_is_numerics_error():
    # 1200 steps in a gap overflow the transfer product, and its rounding
    # bound with it; the NaN trace must fail the realness check, not pass as
    # a value with |Delta| >= 2, and numpy must not warn
    with pytest.raises(NonRealDiscriminant, match=r"at theta = 1\.0 .* bound exp\(\d"):
        discriminant((0.97,) * 1200, 1.0)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf, [0.5, math.nan]])
@pytest.mark.parametrize("fn", [discriminant, ac_weight])
def test_non_finite_theta_is_invalid(fn, theta):
    with pytest.raises(InvalidParameters, match="not finite"):
        fn((0.5, 0.2), theta)


@pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.0, math.inf), math.nan])
def test_transfer_product_rejects_non_finite_z(z):
    with pytest.raises(InvalidParameters, match="not finite"):
        transfer_product((0.3, -0.2 + 0.4j), z)


def test_transfer_matrix_rejects_modulus_one_or_more():
    with pytest.raises(InvalidParameters, match="modulus < 1"):
        transfer_product((1.5,), 1.0)


def test_band_structure_free_case():
    spec = full_spectrum((0.0,))
    assert spec.p == 1
    assert len(spec.bands) == 1
    band = spec.bands[0]
    assert abs(band.lo - 0.0) < 1e-10 and abs(band.hi - TWO_PI) < 1e-10
    assert (band.lo_sign, band.hi_sign) == (1, -1)
    assert len(spec.gaps) == 1 and spec.gaps[0].closed


def test_band_structure_single_real():
    # |Delta| <= 2 iff |cos(theta/2)| <= sqrt(3)/2, the arc [pi/3, 5 pi/3]
    spec = full_spectrum((0.5,))
    band = spec.bands[0]
    assert abs(band.lo - math.pi / 3.0) < 1e-10
    assert abs(band.hi - 5.0 * math.pi / 3.0) < 1e-10
    assert (band.lo_sign, band.hi_sign) == (1, -1)
    gap = spec.gaps[0]
    assert not gap.closed
    assert abs(gap.lo - 5.0 * math.pi / 3.0) < 1e-10
    assert abs(gap.hi - (TWO_PI + math.pi / 3.0)) < 1e-10


def test_full_spectrum_single_with_mass():
    spec = full_spectrum((0.5,))
    assert spec.candidate_thetas == (0.0,)
    assert len(spec.pure_points) == 1
    pp = spec.pure_points[0]
    # q = (1 - 1/2)^2/(1 - 1/4) = 1/3, so the mass is (1 - q)/(1 - q + q)
    assert abs(pp.mass - 2.0 / 3.0) < 1e-12
    assert pp.theta == 0.0


def test_full_spectrum_single_without_mass():
    # alpha = -1/2 pushes q = (3/2)^2/(3/4) = 3 >= 1: the candidate z = 1
    # stays massless and the measure is purely absolutely continuous
    spec = full_spectrum((-0.5,))
    assert spec.candidate_thetas == (0.0,)
    assert spec.pure_points == ()
    assert checked_report((-0.5,), spec)["point_mass"] == 0.0


def test_mass_series_agreement():
    [point] = full_spectrum((0.5,)).pure_points
    assert point.theta == 0.0
    closed = point.mass
    series = mass_series((0.5,), 1.0, 4000)
    assert abs(closed - series) < 1e-10


@pytest.mark.parametrize("w", [complex(math.nan, 0.0), complex(1.0, math.inf)])
def test_mass_series_rejects_non_finite_w(w):
    with pytest.raises(InvalidParameters, match="not finite"):
        mass_series((0.5,), w, 100)


@pytest.mark.parametrize("n_terms", [0, -5, 2.5])
def test_mass_series_rejects_n_terms_below_one(n_terms):
    with pytest.raises(InvalidParameters, match="n_terms"):
        mass_series((0.5,), 1.0, n_terms)


def test_ac_weight_free_case():
    theta = np.array([0.5, 2.0, 4.0, 6.0])
    assert np.max(np.abs(ac_weight((0.0,), theta) - 1.0)) < 1e-12


def test_ac_weight_off_band():
    with pytest.raises(OffBand):
        ac_weight((0.5,), 0.1)


def test_normalization_free_case():
    # w = 1 on the whole circle, with a closed gap at z = 1 where both factors
    # of the density vanish
    report = normalization_report((0.0,))
    assert abs(report["ac_mass"] - 1.0) <= report["ac_error"]
    assert report["point_mass"] == 0.0


@pytest.mark.parametrize(
    "alpha", [(0.0,), (0.5,), (0.3 + 0.1j, -0.2 + 0.4j), (0.3, 0.2j, -0.1)]
)
def test_normalization_report_values_are_floats(alpha):
    # (0.0,) carries no mass at any candidate, so point_mass is an empty sum;
    # without a spectrum the report computes the one full_spectrum gives
    report = normalization_report(alpha)
    assert {key: type(value) for key, value in report.items()} == dict.fromkeys(report, float)
    assert repr(report) == repr(normalization_report(alpha, full_spectrum(alpha)))


def test_normalization_single_with_mass():
    assert abs(checked_report((0.5,))["point_mass"] - 2.0 / 3.0) < 1e-12


def test_period_three_structure():
    alpha = (0.3, 0.2j, -0.1)
    spec = full_spectrum(alpha)
    assert len(spec.bands) == 3
    assert len(spec.plus_solutions) == 3
    assert len(spec.minus_solutions) == 3
    for band in spec.bands:
        mid = 0.5 * (band.lo + band.hi) % TWO_PI
        assert abs(discriminant(alpha, mid)) < 2.0
    for gap in spec.gaps:
        if not gap.closed:
            mid = 0.5 * (gap.lo + gap.hi) % TWO_PI
            assert abs(discriminant(alpha, mid)) > 2.0
    assert len(spec.candidates) == 3
    assert len(spec.candidate_thetas) == 3
    checked_report(alpha, spec)


def test_band_and_gap_angles_cover_circle():
    alpha = (0.3, 0.2j, -0.1)
    spec = full_spectrum(alpha)
    open_gaps = [g for g in spec.gaps if not g.closed]
    total = sum(b.hi - b.lo for b in spec.bands)
    total += sum(g.hi - g.lo for g in open_gaps)
    assert abs(total - TWO_PI) < 1e-9


@pytest.mark.parametrize(
    "alpha, touching",
    [((0.0, 0.0), (0.0, math.pi)), ((0.5j, 0.0, 0.5j, 0.0), (0.5 * math.pi, 1.5 * math.pi))],
)
def test_interior_closed_gaps(alpha, touching):
    # each touching point is a double eigenvalue of one Floquet matrix
    spec = full_spectrum(alpha)
    closed = [g for g in spec.gaps if g.closed]
    assert len(closed) == 2
    assert all(g.lo == g.hi for g in closed)
    assert np.allclose([g.lo for g in closed], touching, rtol=0.0, atol=1e-12)
    assert_bands_match_discriminant(alpha, spec)


def test_odd_period_band_through_branch_cut():
    # the last band runs through angle 0; with Delta(theta + 2 pi) = -Delta(theta)
    # its upper edge is reported at raw angle above 2 pi, which keeps p
    # solutions per sign (a scan over raw [0, 2 pi] counts 6 and 4)
    alpha = random_alpha(np.random.default_rng(20), 5)
    spec = full_spectrum(alpha)
    assert spec.bands[-1].hi > TWO_PI
    assert_bands_match_discriminant(alpha, spec)
    assert len(spec.candidates) == 5


def test_fast_turning_candidates_at_period_16():
    # tau_16 turns about 8e6 rad/rad at a candidate of this block, so a
    # candidate located to 1e-12 in angle misses |tau_p(w) - 1| <= 1e-6
    alpha = alternating_alpha(np.random.default_rng(1312), 16, 0.2, 1.0, 0.3, 0.7)
    spec = full_spectrum(alpha)
    assert len(spec.candidates) == 16
    assert_bands_match_discriminant(alpha, spec)


def mp_candidates(alpha):
    """Reference candidates and masses at 36 digits: mpmath's eigenvalues of
    the CMV matrix of alpha_0..alpha_{p-2} closed by
    beta = (1 + alpha_{p-1})/(1 + conj alpha_{p-1}), built entry by entry from
    the exact float inputs, and at each the mass gamma/(gamma + delta) of the
    tau recursion, gamma = 1 - prod q_j, delta = sum_n prod_{j<n} q_j (0 when
    prod q_j >= 1).  Returns (theta, mass, |tau_p - 1|) per eigenvalue."""
    with mpmath.mp.workdps(36):
        a = [mpmath.mpc(x.real, x.imag) for x in alpha]
        p = len(a)
        beta = (1 + a[-1]) / (1 + mpmath.conj(a[-1]))
        closed = a[:-1] + [beta]
        blocks = []
        for first in (0, 1):
            m = mpmath.zeros(p, p)
            if first:
                m[0, 0] = 1
            for j in range(first, p, 2):
                m[j, j] = mpmath.conj(closed[j])
                if j < p - 1:
                    rho = mpmath.sqrt(1 - abs(closed[j]) ** 2)
                    m[j, j + 1] = m[j + 1, j] = rho
                    m[j + 1, j + 1] = -closed[j]
            blocks.append(m)
        out = []
        for w in mpmath.eig(blocks[0] * blocks[1], left=False, right=False):
            w /= abs(w)
            tau, prod_q, delta = mpmath.mpc(1), mpmath.mpf(1), mpmath.mpf(0)
            for aj in a:
                prod_q *= abs(1 - w * tau * aj) ** 2 / (1 - abs(aj) ** 2)
                delta += prod_q
                tau = (w * tau - mpmath.conj(aj)) / (1 - w * tau * aj)
            mass = (1 - prod_q) / (1 - prod_q + delta) if prod_q < 1 else 0
            out.append((float(mpmath.arg(w)) % TWO_PI, float(mass), float(abs(tau - 1))))
    return out


@pytest.mark.parametrize("p, seed", [(16, 187), (24, 0), (32, 34)])
def test_masses_against_mpmath(p, seed):
    # tau_p turns up to about 1e15 rad/rad at a candidate of these blocks, so
    # |tau_p - 1| at a float candidate cannot confirm it, nor can a mass be
    # built on tau_j there; the masses come from eigenvector entries, which
    # do not see that turning
    alpha = alternating_alpha(np.random.default_rng(seed), p, 0.2, 1.5, 0.2, 0.8)
    spec = full_spectrum(alpha)
    ref = mp_candidates(alpha)
    assert max(r[2] for r in ref) <= 1e-9
    points = {pp.theta: pp for pp in spec.pure_points}
    assert len(spec.candidate_thetas) == p
    for got in spec.candidate_thetas:
        # a candidate at z = 1 may sit on either side of the cut
        dist = [abs((got - theta + math.pi) % TWO_PI - math.pi) for theta, _, _ in ref]
        j = int(np.argmin(dist))
        assert dist[j] <= 64 * p * EPS
        want = ref.pop(j)[1]
        assert (got in points) == (want > 0.0)
        if got in points:
            assert abs(points[got].mass - want) <= points[got].error


def mass_at_one(spectrum):
    """full_spectrum's mass at z = 1, to the eigensolver's 64 p eps, and its
    error bound, or 0.0 and the spectrum's summed bound when there is none."""
    near = 64 * spectrum.p * EPS
    at_one = [pp for pp in spectrum.pure_points if abs(pp.w - 1.0) <= near]
    if not at_one:
        return 0.0, spectrum.point_error
    return at_one[0].mass, at_one[0].error


def draw_alternating_block(data):
    """An alternating block with even p <= 32."""
    half = data.draw(st.integers(1, 16))
    tilde = data.draw(st.lists(st.floats(0.0, 1.5), min_size=half, max_size=half))
    m = data.draw(st.lists(st.floats(0.05, 0.95), min_size=2 * half, max_size=2 * half))
    return tilde, m


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mass_at_one_is_m0_of_the_periodic_chain(data):
    # the mass at z = 1 of the periodic alternating block is M_0 of its chain
    # sequence with that periodic tail; a backward pass over d and the
    # eigenvectors of a CMV matrix share no code, and each side reports its
    # own error bound
    tilde, m = draw_alternating_block(data)
    spectrum = full_spectrum(alternating_block(tilde, m))
    tail = ChainSequence.from_minimal([0.0] + m * 6, tail_period=len(m))
    maximal = maximal_parameters(tail)
    mass, mass_error = mass_at_one(spectrum)
    assert abs(mass - maximal.M[0]) <= maximal.error + mass_error


def edge_distance(spectrum):
    """The smallest circle distance from a band edge to a candidate."""
    edges = np.array([(band.lo, band.hi) for band in spectrum.bands]).reshape(-1, 1)
    t = np.array(spectrum.candidate_thetas)
    return float(np.min(np.abs((edges - t + math.pi) % TWO_PI - math.pi)))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_normalization_within_reported_errors(data):
    # the band integrals plus the masses sum to 1 within ac_error plus
    # point_error, however close two candidates come.  A candidate within
    # the eigensolver's 64 p eps of a band edge is left out: the band
    # integrals take it to be on the edge, and ac_error does not cover what
    # that may cost (test_candidate_just_off_an_edge)
    tilde, m = draw_alternating_block(data)
    alpha = alternating_block(tilde, m)
    spec = full_spectrum(alpha)
    assume(edge_distance(spec) > 64 * len(alpha) * EPS)
    checked_report(alpha, spec)


@pytest.mark.xfail(
    strict=True,
    reason="a candidate 3.6e-15 outside a band edge is taken to be on it, and the band "
    "integrals miss the density's dip next to the edge: |total - 1| is 2.6e-8 against "
    "ac_error 4.8e-11; the masses match mpmath to 4e-15",
)
def test_candidate_just_off_an_edge():
    tilde = [0.25122402411473294, 0.9325193092155992, 0.640583743988319, 0.5,
             0.879802779200354, 0.8125558376255847, 0.19325169364736955,
             0.41568635777038276, 0.31981420621582923, 0.4460961430494399, 0.2]
    m = [0.7930500573961, 0.877458729845183, 0.6829202782351107, 0.8175085204568135,
         0.4919347151072969, 0.05, 0.95, 0.8898065278002971, 0.95, 0.5,
         0.8933169280491831] + tilde
    checked_report(alternating_block(tilde, m))


def min_cos_half(spectrum):
    """The smallest |cos(theta/2)| over the bands and pure points: at a band
    edge, at theta = pi where a band contains it, or at a point."""
    angles = [pp.theta for pp in spectrum.pure_points]
    for band in spectrum.bands:
        angles += [band.lo, band.hi]
        if (math.pi - band.lo) % TWO_PI <= band.hi - band.lo:
            angles.append(math.pi)
    return min(abs(math.cos(0.5 * t)) for t in angles)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_gap_theorem_on_periodic_spectra(data):
    # the paper: c_{2n} = -c_{2n-1} = c~_n >= c > 0 keeps the support of the
    # measure out of |cos(theta/2)| < c / sqrt(1 + c^2), around z = -1
    p = data.draw(st.sampled_from([2, 4, 8, 16, 24, 32]))
    tilde = data.draw(st.lists(st.floats(0.2, 1.5), min_size=p // 2, max_size=p // 2))
    m = data.draw(st.lists(st.floats(0.1, 0.9), min_size=p, max_size=p))
    spec = full_spectrum(alternating_block(tilde, m))
    c = min(tilde)
    assert min_cos_half(spec) >= c / math.sqrt(1.0 + c * c) - 64 * p * EPS


@pytest.mark.parametrize("p, seeds", [(64, range(20)), (48, [9])])
def test_bands_thinner_than_rounding(p, seeds):
    # the shortest arcs between sorted edges are 0 to 4e-15 rad on these
    # blocks, and a thin band's two edges come out in either order, so their
    # signs read + - + - where + - - + was due; pairing adjacent edges must
    # still give p bands
    for seed in seeds:
        alpha = alternating_alpha(np.random.default_rng(seed), p, 0.2, 1.5, 0.2, 0.8)
        spec = full_spectrum(alpha)
        assert len(spec.bands) == len(spec.gaps) == p
        assert len(spec.plus_solutions) == len(spec.minus_solutions) == p
        checked_report(alpha, spec)


def assert_clustered_block_within_errors(seed, p):
    alpha = alternating_alpha(np.random.default_rng(seed), p, 0.2, 1.5, 0.05, 0.95)
    spec = full_spectrum(alpha)
    report = checked_report(alpha, spec)
    assert all(math.isfinite(v) for v in report.values())
    assert all(math.isfinite(x) for b in spec.bands for x in (b.lo, b.hi))
    assert all(math.isfinite(pp.mass) for pp in spec.pure_points)


def test_period_512_leaks_no_warning():
    # deep in this block's gaps the Floquet entries reach 1e180 at quadrature
    # nodes and Delta^2 overflows; pyproject turns a warning from the package
    # into an error.  Its total misses 1 by 1.5e-3 with ac_error 0: two
    # candidates 1.1e-13 apart mix their eigenvectors, which point_error covers
    assert_clustered_block_within_errors(1, 512)


def test_period_256_cluster_within_point_error():
    # |total - 1| is 1.9e-4 against ac_error 5.3e-6; the closest candidates
    # are 1.6e-12 apart
    assert_clustered_block_within_errors(1001, 256)


def test_discriminant_bound_at_period_32():
    # the transfer entries reach 3e10 here while Delta near a band edge is 2,
    # so the imaginary rounding must be measured against the entries
    alpha = alternating_alpha(np.random.default_rng(0), 32, 0.2, 1.5, 0.2, 0.8)
    discriminant(alpha, np.linspace(0.0, TWO_PI, 4096 * 32))
    spec = full_spectrum(alpha)
    assert_bands_match_discriminant(alpha, spec)


@pytest.mark.parametrize(
    "seed, lo, hi, estimate",
    [
        (101, 7e-10, 8e-10, 1e-10),
        (129, 3e-9, 3.2e-9, 1e-10),
        (190, 5e-9, 5.5e-9, 1e-10),
        (1244, 5e-13, 6e-13, 1e-9),
    ],
)
def test_near_pole_normalization(seed, lo, hi, estimate):
    # a candidate at distance delta outside a band edge makes the density
    # about sqrt(x) / (x + delta) next to it; on the last block scipy's quad
    # gave the total mass 1 + 3.5e-7, and the rounding of the density near its
    # pole limits any rule to about 1e-10 there
    alpha = alternating_alpha(np.random.default_rng(seed), 16, 0.2, 1.0, 0.3, 0.7)
    spec = full_spectrum(alpha)
    assert lo < edge_distance(spec) < hi
    assert checked_report(alpha, spec)["ac_error"] <= estimate


def test_normalization_over_period_two_grid():
    # b1 = b2 and b1 = -b2 put a candidate on a band edge, c = 0 with b1 = b2
    # = 0 closes both gaps; the closed forms give every mass
    worst = 0.0
    # b1 = b2 with c near 0 opens the gap at z = -1 to a sliver with a
    # candidate on its edge
    for c in (0.0, 0.5, -0.5, 1.0, -1.0, 1e-9, -1e-9, 1e-6, -1e-6):
        for b1 in (0.3, -0.3, 0.7, -0.7, 0.0):
            for b2 in (0.3, -0.3, 0.7, -0.7, 0.0):
                alpha = family_alpha(PeriodTwoParams(c, b1, b2))
                spec = full_spectrum(alpha)
                report = normalization_report(alpha, spec)
                bound = report["ac_error"] + report["point_error"]
                assert abs(report["total"] - 1.0) <= bound, (c, b1, b2)
                worst = max(worst, bound)
    assert worst <= 1e-11


@pytest.mark.xfail(
    strict=True,
    reason="at c = 1e-12 the band integrals miss by about 3.5 times ac_error; the masses "
    "match the closed form to 1e-16",
)
@pytest.mark.parametrize("b", [0.3, 0.7])
def test_normalization_at_nearly_closed_gap(b):
    # the gap at z = -1 is 4e-12 wide with a candidate on its edge:
    # |total - 1| is 3.1e-12 (b = 0.3) and 1.7e-12 (b = 0.7) against ac_error
    # 8.8e-13 and 5.1e-13
    checked_report(family_alpha(PeriodTwoParams(1e-12, b, b)))


def test_normalization_at_period_16():
    for seed in range(20):
        alpha = alternating_alpha(np.random.default_rng(seed), 16, 0.2, 1.0, 0.3, 0.7)
        spec = full_spectrum(alpha)
        report = normalization_report(alpha, spec)
        assert abs(report["total"] - 1.0) <= report["ac_error"] + report["point_error"], seed
        assert report["ac_error"] <= 1e-10


def test_normalization_past_kappa_overflow():
    # kappa_p = prod 1/rho_j passes the largest float at alpha[228]; the
    # density comes from the orthonormal recurrence, which never forms it
    alpha = (0.999,) * 240
    with pytest.raises(NumericsError, match="kappa overflows"):
        kappa_from_alpha(alpha)
    checked_report(alpha)


def test_candidate_check_names_index_and_value(monkeypatch):
    # a matrix 1% off unitary moves every eigenvalue off the circle
    build = periodic._floquet
    monkeypatch.setattr(periodic, "_floquet", lambda *args: 1.01 * build(*args))
    with pytest.raises(InternalInvariant, match=r"candidate 0 .* has \|\|z\| - 1\| 0\.01"):
        full_spectrum((0.5, 0.2))


def test_band_integrals_raise_on_nan_density(monkeypatch):
    # phi_p of the start (1, 1), whose imaginary part is h, turns NaN; the
    # column starts, and so Delta, stay as they are
    szego = periodic._szego

    def nan_h(alpha, z, phi, star):
        phi, star = szego(alpha, z, phi, star)
        if len(phi) == 3:
            phi = phi.copy()
            phi[2] = np.nan
        return phi, star

    monkeypatch.setattr(periodic, "_szego", nan_h)
    with pytest.raises(InternalInvariant, match="band density"):
        normalization_report((0.5,))


def test_ac_weight_raises_where_h_vanishes(monkeypatch):
    # h = 0 at a band-interior point makes the density infinite
    entries = periodic._floquet_entries

    def zero_h(alpha, t):
        *parts, h = entries(alpha, t)
        return (*parts, np.zeros_like(h))

    monkeypatch.setattr(periodic, "_floquet_entries", zero_h)
    with pytest.raises(DenominatorVanished, match="orthonormal phi_p is real"):
        ac_weight((0.5,), math.pi)


def test_band_integrals_cap_panels(monkeypatch):
    # with one panel per half-band the first bisection passes the budget
    monkeypatch.setattr(periodic, "_PANELS_PER_HALF_BAND", 1)
    with pytest.raises(NoConvergence, match="panels"):
        normalization_report((0.5,))


def test_is_periodic_pair_true_and_false(rng):
    alpha = (0.4, -0.1 + 0.3j, 0.25j)
    pair = verblunsky_to_pair(alpha * 4)
    assert is_periodic_pair(pair, 3).ok
    assert not is_periodic_pair(pair, 2).ok
    perturbed = list(alpha * 4)
    perturbed[5] += 0.05
    assert not is_periodic_pair(verblunsky_to_pair(perturbed), 3).ok


def test_is_periodic_pair_validation(rng):
    pair = verblunsky_to_pair((0.3, 0.3, 0.3))
    for p in (3, 0, 1.5):
        with pytest.raises(InvalidParameters, match=f"got {p}"):
            is_periodic_pair(pair, p)


def test_is_periodic_pair_counts_checks():
    alpha = (0.4, -0.2)
    pair = verblunsky_to_pair(alpha * 5)
    report = is_periodic_pair(pair, 2)
    assert report.ok
    assert report.checked == len(pair) - 2
    assert report.arg_residual < 1e-10
    assert report.modulus_residual < 1e-10


def loop_periodicity(pair, p):
    """is_periodic_pair's residuals and count, one index at a time."""
    b, c = pair.b, pair.c
    arg_res = mod_res = 0.0
    for n in range(len(pair) - p):
        lhs = sum(cmath.phase((1 + 1j * c[j]) / (1 - 1j * c[j])) for j in range(n, n + p))
        z1 = (b[n] - 1j * c[n]) / (1 - 1j * c[n])
        z2 = (b[n + p] - 1j * c[n + p]) / (1 - 1j * c[n + p])
        mod_res = max(mod_res, abs(abs(z1) ** 2 - abs(z2) ** 2))
        if abs(z1) >= 1e-14 or abs(z2) >= 1e-14:
            diff = lhs - (cmath.phase(z1) - cmath.phase(z2))
            arg_res = max(arg_res, abs(cmath.phase(cmath.exp(1j * diff))))
    return arg_res, mod_res, len(pair) - p


def test_is_periodic_pair_matches_index_loop(rng):
    # periodic, perturbed and alpha = 0 blocks, p = 1-16, up to 640 terms,
    # and 1250 periods of p = 16, where a cumsum difference of the phases
    # would be 2e-12 off; the window sums add p phases of modulus below pi
    # in another order
    pairs = []
    for k in range(25):
        p = int(rng.integers(1, 17))
        alpha = list(random_alpha(rng, p)) * int(rng.integers(2, 40))
        if k % 3 == 1:
            alpha[int(rng.integers(len(alpha)))] *= 1 + 1e-9
        if k % 5 == 2:
            alpha[::p] = [0j] * len(alpha[::p])
        pairs.append((verblunsky_to_pair(alpha), p))
    long_block = random_alpha(np.random.default_rng(0), 16)
    pairs.append((verblunsky_to_pair(list(long_block) * 1250), 16))
    for k, (pair, p) in enumerate(pairs):
        for q in {p, max(1, p - 1)}:
            report = is_periodic_pair(pair, q)
            arg_res, mod_res, checked = loop_periodicity(pair, q)
            tol = 4 * (q + 2) * math.pi * EPS
            assert report.checked == checked
            assert abs(report.arg_residual - arg_res) <= tol, (k, q)
            assert abs(report.modulus_residual - mod_res) <= tol, (k, q)
            assert report.ok == (arg_res < 1e-10 and mod_res < 1e-10), (k, q)


def test_parallel_lines_hand_cases():
    # (0.75 + 0.25i) - 1 = -0.25 + 0.25i and (-0.5 - 0.5i) + 1 = 0.5 - 0.5i
    # have zero cross product; (0.5) - 1 and (0.5i) + 1 do not
    assert parallel_lines_check((0.75 + 0.25j, -0.5 - 0.5j))
    assert not parallel_lines_check((0.5, 0.5j))
    with pytest.raises(HypothesisViolated):
        parallel_lines_check((0.5, 0.1, 0.2))


def test_parallel_lines_built_families():
    # alpha_{2k} = 1 - u_k v and alpha_{2k+1} = -1 + s_k v put the even points
    # on one line through 1 and the odd points on the parallel line through -1;
    # Re(v) > 0 with u, s < 2 Re(v) keeps every point inside the disk
    v = complex(math.cos(0.5), math.sin(0.5))
    alpha = []
    for u, s in [(0.3, 0.4), (0.5, 0.2), (0.8, 0.6)]:
        alpha.extend([1.0 - u * v, -1.0 + s * v])
    assert all(abs(a) < 1.0 for a in alpha)
    assert parallel_lines_check(tuple(alpha))


def test_normalization_report_refuses_a_spectrum_of_another_period():
    alpha = (0.3 + 0.1j, -0.2 + 0.4j)
    other = full_spectrum((0.5, 0.1j, -0.3, 0.2))
    with pytest.raises(InvalidParameters, match="spectrum of period 4 .* alpha of period 2"):
        normalization_report(alpha, other)


def reference_bands(p, theta, sign):
    """The edge-by-edge assembly that _bands replaced, kept as it was: the
    plus and minus solutions, bands and gaps, as _bands returns them."""
    ends = np.append(theta, theta[0] + TWO_PI)
    signs = np.append(sign, sign[0] * (-1) ** p)
    flips = signs[:-1] != signs[1:]
    s = int(np.count_nonzero(flips[1::2]) > np.count_nonzero(flips[0::2]))
    bands: list[periodic.Band] = []
    gaps: list[periodic.Gap] = []
    for i in range(2 * p):
        lo, hi = float(ends[i]), float(ends[i + 1])
        if i % 2 == s:
            if not flips[i]:
                raise InternalInvariant(f"band [{lo!r}, {hi!r}] has one sign at both edges")
            bands.append(periodic.Band(lo=lo, hi=hi, lo_sign=int(signs[i]), hi_sign=int(signs[i + 1])))
        elif hi - lo <= 64.0 * p * periodic._EPS:
            mid = 0.5 * (lo + hi) % TWO_PI
            gaps.append(periodic.Gap(lo=mid, hi=mid, closed=True))
        else:
            gaps.append(periodic.Gap(lo=lo, hi=hi, closed=False))
    if p % 2 and s == 1:
        theta[0], sign[0] = ends[-1], signs[-1]
    return (
        tuple(sorted(float(t) for t in theta[sign > 0])),
        tuple(sorted(float(t) for t in theta[sign < 0])),
        tuple(sorted(bands, key=lambda b: b.lo)),
        tuple(sorted(gaps, key=lambda g: g.lo)),
    )


def circle_offset(theta, lo):
    """theta - lo reduced to [0, 2 pi)."""
    return (theta - lo) % TWO_PI


@settings(deadline=None)
@given(st.data())
def test_full_spectrum_structure_on_random_blocks(data):
    # any block, odd p included: p bands alternating with p gaps, each band
    # from Delta = +2 to -2 or back, p solutions of each sign, and one
    # candidate in the closure of each gap to the eigensolver's 64 p eps
    p = data.draw(st.integers(1, 24))
    r = data.draw(st.lists(st.floats(0.0, 0.95), min_size=p, max_size=p))
    phi = data.draw(st.lists(st.floats(0.0, TWO_PI), min_size=p, max_size=p))
    alpha = tuple(cmath.rect(a, b) for a, b in zip(r, phi))
    spec = full_spectrum(alpha)
    tol = 64 * p * EPS
    assert len(spec.bands) == len(spec.gaps) == p
    assert len(spec.plus_solutions) == len(spec.minus_solutions) == p
    # each band ends where a gap starts and each gap ends where a band
    # starts (a closed gap is its touching point), and the arcs cover the
    # circle once
    def meets(x, starts):
        return any(min(circle_offset(x, y), circle_offset(y, x)) <= tol for y in starts)

    assert all(meets(b.hi, [g.lo for g in spec.gaps]) for b in spec.bands)
    assert all(meets(g.hi, [b.lo for b in spec.bands]) for g in spec.gaps)
    widths = sum(b.hi - b.lo for b in spec.bands) + sum(g.hi - g.lo for g in spec.gaps)
    assert abs(widths - TWO_PI) <= 2 * p * tol
    assert all(b.lo_sign == -b.hi_sign for b in spec.bands)
    for gap in spec.gaps:
        held = [t for t in spec.candidate_thetas
                if circle_offset(t, gap.lo - tol) <= gap.hi - gap.lo + 2 * tol]
        assert len(held) == 1, (gap, spec.candidate_thetas)
    theta, sign = periodic._edges(alpha, periodic._matrices(alpha)[0])
    want = reference_bands(p, theta.copy(), sign.copy())
    assert repr(periodic._bands(p, theta, sign)) == repr(want)
