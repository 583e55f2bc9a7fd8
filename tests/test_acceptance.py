"""End-to-end acceptance gate: ten numbered criteria, one line each.

Every test draws its own frozen ensemble, prints a one-line summary with the
observed worst-case figure, and asserts the stated tolerance.  The whole file
is sized to finish well under a minute on a single core; the heavyweight
shared pieces (fifty zero ladders with their quadratures) are built once per
module.
"""

import time

import numpy as np
import pytest

from opuckit import (
    PeriodTwoParams,
    band_structure,
    conjugate_pair,
    discriminant,
    family_alpha,
    family_band_edges,
    family_discriminant,
    family_masses,
    full_spectrum,
    make_pair,
    mass_series,
    is_periodic_pair,
    normalization_report,
    pair_to_verblunsky,
    parallel_lines_check,
    pure_point_mass,
    quadrature,
    moments,
    r_coeffs,
    rotate_alpha,
    support_gap_check,
    unfold_alternating,
    verblunsky_to_pair,
    w_eval,
    zero_ladder,
)


TWO_PI = 2.0 * np.pi

# Period-two closed-form sweep: all combinations are admissible (|b| < 1).
GRID_C = (0.0, 0.5, -0.5, 1.0, -1.0)
GRID_B = (0.3, -0.3, 0.7, -0.7, 0.0)


def _circle_dist(a, b):
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def _distinct_points(values, tol=1e-6):
    """Distinct points on the circle, collapsing 0 with 2 pi."""
    points = []
    for v in values:
        v = v % TWO_PI
        if not any(_circle_dist(v, q) < tol for q in points):
            points.append(v)
    return sorted(points)


@pytest.fixture(scope="module")
def ladder_ensemble():
    """Fifty random pairs of depth 40 with their ladders and quadratures.

    |c| <= 0.5 with minimal parameters in [0.2, 0.8] keeps consecutive zero
    levels separated far above criterion 3's 1e-12 margin at this depth;
    deeper ladders or larger |c| open spectral gaps whose interior zeros
    cluster exponentially, until consecutive levels share a zero to rounding
    (tests/test_zeros.py has such a pair at depth 200).
    """
    rng = np.random.default_rng(20240824)
    out = []
    for _ in range(50):
        c = rng.uniform(-0.5, 0.5, 40)
        m = np.concatenate([[0.0], rng.uniform(0.2, 0.8, 40)])
        pair = make_pair(c, m=m)
        out.append((pair, zero_ladder(pair, 40), quadrature(pair, 40)))
    return out


def test_criterion_01_bijection_round_trip():
    # The backward map amplifies rounding by (1 - m_n)/m_n at step n, so the
    # middle-third m range keeps the 50-step product of factors well below
    # the tolerance; c plays no role in the amplification and spans +-5.
    rng = np.random.default_rng(20240824)
    start = time.perf_counter()
    worst_pair = 0.0
    for _ in range(200):
        c = rng.uniform(-5.0, 5.0, 50)
        m = np.concatenate([[0.0], rng.uniform(1.0 / 3.0, 2.0 / 3.0, 50)])
        pair = make_pair(c, m=m)
        back = verblunsky_to_pair(pair_to_verblunsky(pair).alpha)
        worst_pair = max(
            worst_pair,
            max(abs(a - b) for a, b in zip(back.c, pair.c)),
            max(abs(a - b) for a, b in zip(back.m, pair.m)),
        )
    worst_alpha = 0.0
    for _ in range(200):
        radius = np.sqrt(rng.uniform(0.0, 1.0, 50)) * 0.9
        alpha = list(radius * np.exp(1j * rng.uniform(0.0, TWO_PI, 50)))
        again = pair_to_verblunsky(verblunsky_to_pair(alpha)).alpha
        worst_alpha = max(worst_alpha, max(abs(a - b) for a, b in zip(again, alpha)))
    elapsed = time.perf_counter() - start
    print(
        f"criterion 1: round trips pair {worst_pair:.2e} / alpha {worst_alpha:.2e}"
        f" (< 1e-10), {elapsed:.2f}s (< 1s)"
    )
    assert worst_pair < 1e-10
    assert worst_alpha < 1e-10
    assert elapsed < 1.0


def test_criterion_02_quadrature_validity(ladder_ensemble):
    min_weight = np.inf
    worst_sum = 0.0
    for _, _, measure in ladder_ensemble:
        min_weight = min(min_weight, float(np.min(measure.weights)))
        worst_sum = max(worst_sum, abs(float(np.sum(measure.weights)) - 1.0))
    # the symmetric free pair: first moments of the discrete approximations
    free = make_pair([0.0] * 60, m=[0.0] + [0.5] * 60)
    mus = [abs(moments(quadrature(free, n), 1)[1]) for n in (15, 30, 60)]
    print(
        f"criterion 2: min weight {min_weight:.2e} (> 0), "
        f"|sum-1| {worst_sum:.2e} (< 1e-10), |mu_1| at 15/30/60 = "
        f"{mus[0]:.2e}/{mus[1]:.2e}/{mus[2]:.2e}"
    )
    assert min_weight > 0.0
    assert worst_sum < 1e-10
    assert mus[2] <= 0.05
    assert mus[1] <= mus[0] + 1e-12
    assert mus[2] <= mus[1] + 1e-12


def test_criterion_03_interlacing(ladder_ensemble):
    margin = np.inf
    for _, ladder, _ in ladder_ensemble:
        for prev, cur in zip(ladder, ladder[1:]):
            lo = np.concatenate([[-1.0], np.sort(prev.x)])
            hi = np.concatenate([np.sort(prev.x), [1.0]])
            cur_sorted = np.sort(cur.x)
            margin = min(margin, float(np.min(cur_sorted - lo)))
            margin = min(margin, float(np.min(hi - cur_sorted)))
    print(f"criterion 3: interlacing margin {margin:.2e} (> 1e-12) at depth 40")
    assert margin > 1e-12


def test_criterion_04_support_gap():
    edge = 1.0 / np.sqrt(2.0)
    rng = np.random.default_rng(1)
    intruding = 0.0
    for _ in range(12):
        tilde = rng.uniform(1.0, 2.0, 30)
        c = [((-1.0) ** k) * tilde[k - 1] for k in range(1, 31)]
        m = np.concatenate([[0.0], rng.uniform(0.2, 0.8, 30)])
        pair = make_pair(c, m=m)
        support_gap_check(pair, 30)
        for level in zero_ladder(pair, 30):
            inside = (np.asarray(level.x) > -edge + 1e-9) & (
                np.asarray(level.x) < edge - 1e-9
            )
            if np.any(inside):
                intruding = max(
                    intruding, float(np.max(edge - np.abs(np.asarray(level.x)[inside])))
                )
    worst_member = 0.0
    rng = np.random.default_rng(2)
    for cval in (1.0, 1.5, 2.0):
        c = [((-1.0) ** k) * cval for k in range(1, 31)]
        m = np.concatenate([[0.0], rng.uniform(0.2, 0.8, 30)])
        ladder = zero_ladder(make_pair(c, m=m), 30)
        target = -cval / np.sqrt(1.0 + cval * cval)
        for level in range(1, 31, 2):
            worst_member = max(
                worst_member, min(abs(x - target) for x in ladder[level - 1].x)
            )
    print(
        f"criterion 4: no zeros intrude the central gap (worst 0.0 required, "
        f"got {intruding:.2e}); constant-couple odd-level member defect "
        f"{worst_member:.2e} (< 1e-10)"
    )
    assert intruding == 0.0
    assert worst_member < 1e-10


def test_criterion_05_discriminant_and_bands():
    thetas = np.linspace(0.0, TWO_PI, 1000)
    worst_disc = 0.0
    worst_edge = 0.0
    for c in GRID_C:
        for b1 in GRID_B:
            for b2 in GRID_B:
                params = PeriodTwoParams(c, b1, b2)
                alpha = list(family_alpha(params))
                worst_disc = max(
                    worst_disc,
                    float(
                        np.max(
                            np.abs(
                                family_discriminant(params, thetas)
                                - discriminant(alpha, thetas)
                            )
                        )
                    ),
                )
                spectrum = band_structure(alpha)
                assert len(spectrum.bands) == 2
                # compare as points on the circle: a gap closing at angle 0
                # may legitimately be reported on either side of the cut
                scanned = _distinct_points(
                    [b.lo for b in spectrum.bands] + [b.hi for b in spectrum.bands]
                )
                closed = _distinct_points(family_band_edges(params))
                assert len(scanned) == len(closed)
                worst_edge = max(
                    worst_edge,
                    max(min(_circle_dist(s, q) for q in closed) for s in scanned),
                )
    print(
        f"criterion 5: discriminant {worst_disc:.2e} and band edges "
        f"{worst_edge:.2e} over the 5x5x5 sweep (< 1e-10)"
    )
    assert worst_disc < 1e-10
    assert worst_edge < 1e-10


def test_criterion_06_point_masses():
    worst_mass = 0.0
    worst_series = 0.0
    condition_faults = 0
    for c in GRID_C:
        for b1 in GRID_B:
            for b2 in GRID_B:
                params = PeriodTwoParams(c, b1, b2)
                alpha = list(family_alpha(params))
                w2 = -(1.0 + 1j * c) / (1.0 - 1j * c)
                cases = (
                    (1.0 + 0.0j, b1 + b2 > 1e-12, (b1 + b2) / (1.0 + b2)),
                    (w2, b2 - b1 > 1e-12, (b2 - b1) / (1.0 + b2)),
                )
                for w, exists, expected in cases:
                    got = pure_point_mass(alpha, w)
                    if not exists:
                        condition_faults += got is not None
                        continue
                    if got is None:
                        condition_faults += 1
                        continue
                    worst_mass = max(worst_mass, abs(got - expected))
                    worst_series = max(
                        worst_series, abs(mass_series(alpha, w, 4000) - got)
                    )
    reference = family_masses(PeriodTwoParams(1.0, 0.3, 0.5))
    ref_defect = max(
        abs(reference[0].mass - 8.0 / 15.0), abs(reference[1].mass - 2.0 / 15.0)
    )
    print(
        f"criterion 6: masses {worst_mass:.2e} (< 1e-12) with "
        f"{condition_faults} existence faults, reference 8/15 & 2/15 defect "
        f"{ref_defect:.2e}, series {worst_series:.2e} (< 1e-8)"
    )
    assert condition_faults == 0
    assert worst_mass < 1e-12
    assert ref_defect < 1e-12
    assert worst_series < 1e-8


def test_criterion_07_normalization():
    parameter_sets = (
        (1.0, 0.3, 0.5),
        (0.0, 0.0, 0.0),
        (0.5, -0.3, 0.7),
        (1.0, 0.7, 0.7),
        (-0.5, 0.3, -0.7),
        (-1.0, -0.3, 0.3),
        (0.5, 0.7, -0.3),
        (1.0, -0.7, -0.3),
        (0.0, 0.7, 0.7),
        (-0.5, -0.7, 0.7),
    )
    worst = 0.0
    worst_ratio = 0.0
    on_edge = 0
    for c, b1, b2 in parameter_sets:
        alpha = list(family_alpha(PeriodTwoParams(c, b1, b2)))
        spectrum = full_spectrum(alpha)
        report = normalization_report(alpha, spectrum)
        defect = abs(report["total"] - 1.0)
        bound = report["ac_error"] + report["point_error"]
        assert defect <= bound, (c, b1, b2)
        worst = max(worst, defect)
        worst_ratio = max(worst_ratio, defect / bound)
        # b1 = b2 or b1 = -b2 puts a candidate on a band edge (a zero of the
        # density's denominator where its numerator vanishes too)
        edges = [e for band in spectrum.bands for e in (band.lo, band.hi)]
        on_edge += any(
            _circle_dist(t, e) < 1e-13 for t in spectrum.candidate_thetas for e in edges
        )
    print(
        f"criterion 7: normalization defect {worst:.2e} over 10 sets, at most "
        f"{worst_ratio:.2f} of ac_error + point_error; {on_edge} sets with a "
        f"candidate on an edge"
    )
    assert on_edge >= 1


def test_criterion_08_transform_suite():
    rng = np.random.default_rng(20240824)
    worst_unfold = 0.0
    for _ in range(10):
        couples = rng.uniform(-1.5, 1.5, 30)
        c = np.empty(60)
        c[0::2] = couples
        c[1::2] = -couples
        m = np.concatenate([[0.0], rng.uniform(0.25, 0.75, 60)])
        data = unfold_alternating(make_pair(c, m=m))
        alpha_check = pair_to_verblunsky(data.pair_tilde).alpha
        worst_unfold = max(
            worst_unfold,
            max(abs(a - b) for a, b in zip(alpha_check, data.alpha_tilde)),
        )
    # the way back to the pair amplifies rounding by (1 - m)/m per step, so
    # the middle-third m range keeps the 60-step product within tolerance
    worst_rotation = 0.0
    rng = np.random.default_rng(17)
    for cval in (0.4, 1.0, -0.8, 2.0):
        c = [((-1.0) ** k) * cval for k in range(1, 61)]
        m = np.concatenate([[0.0], rng.uniform(1.0 / 3.0, 2.0 / 3.0, 60)])
        vs = pair_to_verblunsky(make_pair(c, m=m))
        beta = -(1.0 + 1j * cval) / (1.0 - 1j * cval)
        back = verblunsky_to_pair(rotate_alpha(vs.alpha, beta))
        worst_rotation = max(worst_rotation, max(abs(x - cval) for x in back.c))
    worst_mirror = 0.0
    rng = np.random.default_rng(8)
    for _ in range(3):
        c = rng.uniform(-0.5, 0.5, 25)
        m = np.concatenate([[0.0], rng.uniform(0.2, 0.8, 25)])
        pair = make_pair(c, m=m)
        direct = zero_ladder(pair, 25)[-1]
        mirrored = zero_ladder(conjugate_pair(pair), 25)[-1]
        worst_mirror = max(
            worst_mirror,
            float(np.max(np.abs(np.sort(mirrored.x) + np.sort(direct.x)[::-1]))),
        )
    print(
        f"criterion 8: unfolding {worst_unfold:.2e} / rotation "
        f"{worst_rotation:.2e} (< 1e-11), mirrored zeros {worst_mirror:.2e}"
        f" (< 1e-10)"
    )
    assert worst_unfold < 1e-11
    assert worst_rotation < 1e-11
    assert worst_mirror < 1e-10


def test_criterion_09_periodicity_and_geometry():
    rng = np.random.default_rng(12)
    disagreements = 0
    for _ in range(100):
        p = int(rng.integers(1, 6))
        block = (np.sqrt(rng.uniform(0.0, 1.0, p)) * 0.8) * np.exp(
            1j * rng.uniform(0.0, TWO_PI, p)
        )
        repeats = int(np.ceil((p + 12) / p))
        alpha = list(np.tile(block, repeats)[: p + 12])
        direct = max(abs(alpha[i + p] - alpha[i]) for i in range(len(alpha) - p))
        if is_periodic_pair(verblunsky_to_pair(alpha), p).ok != (direct < 1e-10):
            disagreements += 1
        j = int(rng.integers(0, len(alpha)))
        perturbed = list(alpha)
        perturbed[j] = perturbed[j] + 0.05 * np.exp(1j * rng.uniform(0.0, TWO_PI))
        if abs(perturbed[j]) >= 0.95:
            perturbed[j] = 0.5 * perturbed[j] / abs(perturbed[j])
        direct_p = max(
            abs(perturbed[i + p] - perturbed[i]) for i in range(len(perturbed) - p)
        )
        if is_periodic_pair(verblunsky_to_pair(perturbed), p).ok != (direct_p < 1e-10):
            disagreements += 1

    built_failures = 0
    rng = np.random.default_rng(13)
    for _ in range(50):
        p = 2 * int(rng.integers(1, 4))
        v = np.exp(1j * rng.uniform(-1.2, 1.2))
        u = rng.uniform(0.1, 1.9 * v.real, p // 2)
        s = rng.uniform(0.1, 1.9 * v.real, p // 2)
        alpha = []
        for i in range(p // 2):
            alpha += [1.0 - u[i] * v, -1.0 + s[i] * v]
        assert all(abs(a) < 1.0 for a in alpha)
        built_failures += not parallel_lines_check(alpha)
    for c in GRID_C:
        built_failures += not parallel_lines_check(
            list(family_alpha(PeriodTwoParams(c, 0.3, -0.5)))
        )
    false_positives = 0
    accepted = 0
    while accepted < 100:
        p = 2 * int(rng.integers(1, 4))
        alpha = list(
            (np.sqrt(rng.uniform(0.0, 1.0, p)) * 0.9)
            * np.exp(1j * rng.uniform(0.0, TWO_PI, p))
        )
        directions = [a - 1.0 for a in alpha[0::2]] + [a + 1.0 for a in alpha[1::2]]
        cross = max(
            abs((directions[0] * np.conj(w)).imag) for w in directions[1:]
        )
        if cross <= 1e-6:
            continue
        accepted += 1
        false_positives += parallel_lines_check(alpha)
    print(
        f"criterion 9: periodicity disagreements {disagreements} (= 0), "
        f"parallel-geometry built failures {built_failures} and false "
        f"positives {false_positives} (= 0)"
    )
    assert disagreements == 0
    assert built_failures == 0
    assert false_positives == 0


def test_criterion_10_alternating_constant_structure():
    # The coefficients of the degree-2n polynomials scale like (1 + c^2)^n,
    # so an absolute imaginary-part bound is testable for moderate |c|.
    rng = np.random.default_rng(5)
    worst_imag = 0.0
    worst_even = 0.0
    xs = np.linspace(0.0, 0.999, 101)
    for cval in (0.2, 0.3, -0.3):
        c = [((-1.0) ** k) * cval for k in range(1, 41)]
        m = np.concatenate([[0.0], rng.uniform(0.2, 0.8, 40)])
        pair = make_pair(c, m=m)
        for level in range(2, 41, 2):
            worst_imag = max(
                worst_imag, float(np.max(np.abs(r_coeffs(pair, level).coeffs.imag)))
            )
            worst_even = max(
                worst_even,
                float(np.max(np.abs(w_eval(pair, level, xs) - w_eval(pair, level, -xs)))),
            )
    print(
        f"criterion 10: even-level imaginary defect {worst_imag:.2e} (< 1e-11), "
        f"evenness residual {worst_even:.2e} (< 1e-10)"
    )
    assert worst_imag < 1e-11
    assert worst_even < 1e-10
