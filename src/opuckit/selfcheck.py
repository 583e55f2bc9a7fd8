"""Deterministic invariant battery behind the `check` subcommand.

Every check is self-contained with fixed inputs (seeded RNG where random data
is wanted), so two runs produce identical reports but for each check's wall
time.  A check fails by raising; the runner converts that into ok = False with
the exception text.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import period_two, periodic
from .bijection import make_pair, pair_to_verblunsky, verblunsky_to_pair
from .chain import ChainSequence, maximal_parameters, minimal_parameters
from .errors import InternalInvariant
from .measure import moments, quadrature, step_eval
from .polynomials import _rq_levels, self_inversive_defect
from .transforms import conjugate_pair, unfold_alternating
from .zeros import _GAP_TOL, support_gap_check, w_zeros, zero_ladder

__all__ = ["run_checks"]

_EPS = float(np.finfo(float).eps)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise InternalInvariant(message)


def _random_pair(rng, n):
    c = rng.uniform(-2.0, 2.0, n)
    m = np.concatenate([[0.0], rng.uniform(0.1, 0.9, n)])
    return make_pair(c, m=m)


def check_chain_constant_quarter() -> str:
    """Minimal parameters of d = 1/4 are n/(2(n+1)) exactly."""
    n = 40
    m = minimal_parameters([0.25] * n)
    worst = max(abs(m[k] - k / (2.0 * (k + 1.0))) for k in range(n + 1))
    _require(worst < 1e-14, f"closed-form defect {worst!r}")
    return f"defect {worst:.3e}"


def check_bijection_round_trip() -> str:
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(5):
        pair = _random_pair(rng, 30)
        back = verblunsky_to_pair(pair_to_verblunsky(pair).alpha)
        worst = max(
            worst,
            max(abs(a - b) for a, b in zip(pair.c, back.c)),
            max(abs(a - b) for a, b in zip(pair.m, back.m)),
        )
    _require(worst < 1e-10, f"round-trip defect {worst!r}")
    return f"defect {worst:.3e}"


def check_self_inversive() -> str:
    rng = np.random.default_rng(12)
    pair = _random_pair(rng, 24)
    defect = max(self_inversive_defect(coeffs) for coeffs in _rq_levels(pair, 24, "R"))
    _require(defect < 1e-10, f"self-inversive defect {defect!r}")
    return f"defect {defect:.3e}"


def check_zero_interlacing() -> str:
    rng = np.random.default_rng(13)
    pair = _random_pair(rng, 20)
    ladder = zero_ladder(pair, 20)
    worst = math.inf
    for a, b in zip(ladder[:-1], ladder[1:]):
        lo = np.concatenate([[-1.0], np.sort(a.x), [1.0]])
        hi = np.sort(b.x)
        worst = min(worst, float(np.min(np.diff(np.sort(np.concatenate([lo, hi]))))))
        _require(
            all(lo[i] < hi[i] < lo[i + 1] for i in range(len(hi))),
            f"interlacing broken between levels {a.n} and {b.n}",
        )
    return f"minimum spacing {worst:.3e}"


def check_quadrature() -> str:
    rng = np.random.default_rng(14)
    pair = _random_pair(rng, 18)
    meas = quadrature(pair, 18)
    s = float(np.sum(meas.weights))
    _require(abs(s - 1.0) < 1e-10, f"weight sum {s!r}")
    _require(float(np.min(meas.weights)) > 0.0, "non-positive weight")
    psi0 = step_eval(meas, 0.0)
    psi1 = step_eval(meas, 2.0 * math.pi)
    _require(psi0 == 0.0 and psi1 == 1.0, f"boundary values {psi0!r}, {psi1!r}")
    return f"sum defect {abs(s - 1.0):.3e}"


def check_lebesgue_moments() -> str:
    pair = make_pair([0.0] * 24, m=[0.0] + [0.5] * 24)
    meas = quadrature(pair, 24)
    mom = moments(meas, 3)
    worst = float(np.max(np.abs(mom[1:])))
    _require(worst < 1e-12, f"moment defect {worst!r}")
    return f"max |mu_k| {worst:.3e}"


def check_support_gap() -> str:
    n = 15
    c = [((-1.0) ** k) * 1.0 for k in range(1, n + 1)]
    pair = make_pair(c, m=[0.0] + [0.5] * n)
    report = support_gap_check(pair, n)
    _require(report.margin >= 0.0, f"gap margin {report.margin!r}")
    # the Sturm walks against every level's eigenvalues: the ladder takes
    # only its poles from Sturm counts, and its angles do not depend on them
    # past rounding
    g_tol = report.x_excluded[1] - _GAP_TOL
    ladder = min(float(np.min(np.abs(zs.x))) for zs in zero_ladder(pair, n)) - g_tol
    _require(
        abs(report.margin - ladder) <= 16 * (n + 1) * _EPS,
        f"gap margin {report.margin!r}, from the zero ladder {ladder!r}",
    )
    return f"margin {report.margin:.3e}"


def check_period_two_discriminant() -> str:
    params = period_two.PeriodTwoParams(c=1.0, b1=0.3, b2=0.5)
    alpha = period_two.family_alpha(params)
    t = np.linspace(0.0, 2.0 * math.pi, 241)
    defect = float(
        np.max(np.abs(periodic.discriminant(alpha, t) - period_two.family_discriminant(params, t)))
    )
    _require(defect < 1e-12, f"discriminant defect {defect!r}")
    return f"defect {defect:.3e}"


def check_period_two_masses() -> str:
    params = period_two.PeriodTwoParams(c=1.0, b1=0.3, b2=0.5)
    alpha = period_two.family_alpha(params)
    worst = 0.0
    for mp in period_two.family_masses(params):
        mass = periodic.pure_point_mass(alpha, mp.w)
        _require(mass is not None, f"missing mass at {mp.w!r}")
        series = periodic.mass_series(alpha, mp.w, 4000)
        worst = max(worst, abs(mass - mp.mass), abs(series - mp.mass))
    _require(worst < 1e-8, f"mass defect {worst!r}")
    return f"defect {worst:.3e}"


def check_period_two_normalization() -> str:
    """Band integrals plus point masses sum to 1, within ac_error plus
    point_error, on an open-gap block and on one whose gap at z = -1 is a
    sliver 4e-9 wide with a candidate on its edge."""
    details = []
    for c, b1, b2 in ((1.0, 0.3, 0.5), (1e-9, 0.3, 0.3)):
        alpha = period_two.family_alpha(period_two.PeriodTwoParams(c=c, b1=b1, b2=b2))
        spec = periodic.full_spectrum(alpha)
        rep = periodic.normalization_report(alpha, spec)
        defect = abs(rep["total"] - 1.0)
        bound = rep["ac_error"] + rep["point_error"]
        _require(
            defect <= bound,
            f"normalization defect {defect!r} exceeds {bound!r} at (c, b1, b2) = {(c, b1, b2)}",
        )
        details.append(f"c = {c:g}: total {rep['total']:.15f}, defect {defect:.1e} <= {bound:.1e}")
    return "; ".join(details)


def check_periodic_support_gap() -> str:
    """The paper's gap theorem on a periodic spectrum: with
    c_{2n} = -c_{2n-1} = c~_n >= c > 0, no band and no pure point enters
    |cos(theta/2)| < g = c / sqrt(1 + c^2), to the eigensolver's 64 p eps.
    With c~ = 1 (g = 1/sqrt(2)) and these m a band edge sits on the bound,
    so the check is sharp."""
    rng = np.random.default_rng(17)
    p = 8
    c = np.tile([-1.0, 1.0], p // 2)
    m = np.concatenate([[0.0], rng.uniform(0.1, 0.9, p)])
    spec = periodic.full_spectrum(pair_to_verblunsky(make_pair(c, m=m)).alpha)
    angles = [pp.theta for pp in spec.pure_points]
    for band in spec.bands:
        angles += [band.lo, band.hi]
        if (math.pi - band.lo) % (2.0 * math.pi) <= band.hi - band.lo:
            angles.append(math.pi)
    dist = min(abs(math.cos(0.5 * t)) for t in angles) - math.sqrt(0.5)
    _require(dist >= -64.0 * p * _EPS, f"support enters the gap by {-dist!r}")
    return f"min |cos(theta/2)| - g = {dist:.3e}"


def check_periodic_mass_at_one() -> str:
    """The mass at z = 1 of a periodic alternating block is M_0, the maximal
    parameter of its chain sequence with that periodic tail (six periods
    stored), to the chain side's error bound plus the mass's."""
    rng = np.random.default_rng(19)
    p = 6
    c = np.repeat(rng.uniform(0.2, 1.5, p // 2), 2) * np.tile([-1.0, 1.0], p // 2)
    m = np.concatenate([[0.0], rng.uniform(0.1, 0.9, p)])
    spec = periodic.full_spectrum(pair_to_verblunsky(make_pair(c, m=m)).alpha)
    at_one = [pp for pp in spec.pure_points if abs(pp.w - 1.0) <= 64.0 * p * _EPS]
    _require(len(at_one) == 1, "no mass at z = 1")
    tail = ChainSequence.from_minimal(np.concatenate([m, np.tile(m[1:], 5)]), tail_period=p)
    maximal = maximal_parameters(tail)
    mass, m0 = at_one[0].mass, maximal.M[0]
    bound = maximal.error + at_one[0].error
    defect = abs(mass - m0)
    _require(defect <= bound, f"mass {mass!r} at z = 1 is {defect!r} off M_0 = {m0!r} > {bound!r}")
    return f"mass {mass:.15f}, defect {defect:.1e} <= {bound:.1e}"


def check_unfolding() -> str:
    rng = np.random.default_rng(15)
    n = 12
    half = rng.uniform(0.2, 1.5, n)
    c = np.empty(2 * n)
    c[0::2] = -half
    c[1::2] = half
    pair = make_pair(c, m=np.concatenate([[0.0], rng.uniform(0.2, 0.8, 2 * n)]))
    data = unfold_alternating(pair)
    direct = pair_to_verblunsky(data.pair_tilde).alpha
    defect = max(abs(a - b) for a, b in zip(direct, data.alpha_tilde))
    _require(defect < 1e-11, f"unfolding defect {defect!r}")
    return f"defect {defect:.3e}"


def check_conjugate_symmetry() -> str:
    rng = np.random.default_rng(16)
    pair = _random_pair(rng, 10)
    za = w_zeros(pair, 10)
    zb = w_zeros(conjugate_pair(pair), 10)
    defect = float(np.max(np.abs(np.sort(za.x) - np.sort(-np.asarray(zb.x)))))
    _require(defect < 1e-10, f"conjugate zero defect {defect!r}")
    return f"defect {defect:.3e}"


def check_periodicity_report() -> str:
    params = period_two.PeriodTwoParams(c=1.0, b1=0.3, b2=0.5)
    pair = period_two.family_pair(params, 12)
    rep = periodic.is_periodic_pair(pair, 2)
    _require(rep.ok, f"period-2 pair not recognized: {rep!r}")
    bad = make_pair(
        list(pair.c[:-1]) + [pair.c[-1] + 0.3], m=pair.m
    )
    rep2 = periodic.is_periodic_pair(bad, 2)
    _require(not rep2.ok, "perturbed pair passed the periodicity test")
    return f"residuals {rep.arg_residual:.3e}, {rep.modulus_residual:.3e}"


_CHECKS = [
    ("chain_constant_quarter", check_chain_constant_quarter),
    ("bijection_round_trip", check_bijection_round_trip),
    ("self_inversive_coefficients", check_self_inversive),
    ("zero_interlacing", check_zero_interlacing),
    ("quadrature_weights", check_quadrature),
    ("lebesgue_moments", check_lebesgue_moments),
    ("support_gap", check_support_gap),
    ("period_two_discriminant", check_period_two_discriminant),
    ("period_two_masses", check_period_two_masses),
    ("period_two_normalization", check_period_two_normalization),
    ("periodic_support_gap", check_periodic_support_gap),
    ("periodic_mass_at_one", check_periodic_mass_at_one),
    ("unfolding_consistency", check_unfolding),
    ("conjugate_zero_symmetry", check_conjugate_symmetry),
    ("periodicity_report", check_periodicity_report),
]


def run_checks() -> list[dict]:
    """Run the battery; one {name, ok, detail, seconds} record per check,
    seconds being the check's wall time by time.perf_counter."""
    report = []
    for name, fn in _CHECKS:
        start = time.perf_counter()
        try:
            entry = {"name": name, "ok": True, "detail": fn()}
        except Exception as exc:  # noqa: BLE001 - report, do not crash
            entry = {"name": name, "ok": False, "detail": f"{type(exc).__name__}: {exc}"}
        entry["seconds"] = time.perf_counter() - start
        report.append(entry)
    return report
