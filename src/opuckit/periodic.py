"""Spectral decomposition for periodic reflection coefficients.

A period-p block (alpha_0, ..., alpha_{p-1}) determines the transfer matrix

    T_p(z) = A(alpha_{p-1}, z) ... A(alpha_0, z),
    A(a, z) = (1 - |a|^2)^{-1/2} [[z, -conj(a)], [-a z, 1]],   det A = z,

whose rescaled trace Delta(theta) = e^{-i p theta/2} Tr T_p(e^{i theta}) is
real on the circle (branch fixed by theta in [0, 2 pi]; for odd p the value at
theta = 2 pi is minus the value at 0, and the two ends count as separate
solutions of Delta = +-2).  The essential support is the p bands where
|Delta| <= 2; the gaps between them are open arcs or single touching points
(closed gaps).  The band edges are the eigenvalues of the unitary Floquet CMV
matrices E(+1) and E(-1) (see cmv), and a touching point is a double
eigenvalue.  Point masses can only sit at the p zeros of
pi(z) = phi_p*(z) - phi_p(z), equivalently where tau_p(w) = 1, which are the
eigenvalues of a p x p CMV matrix; each candidate carries mass
1/(1 + sum of tail products) when the product of one period's factors q_j is
< 1, and no mass otherwise.  On band interiors the absolutely continuous
weight is

    w(theta) = sqrt(4 - Delta^2) / (2 |Im(e^{-i p theta/2} phi_p_on(e^{i theta}))|)

with phi_p_on the orthonormal polynomial, normalized so that the band
integrals of w/(2 pi) plus the point masses sum to one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bijection import RENORM_EVERY, SequencePair
from .cmv import cmv_matrix, floquet_matrix
from .errors import (
    DenominatorVanished,
    HypothesisViolated,
    InternalInvariant,
    InvalidParameters,
    NonRealDiscriminant,
    NotACandidate,
    OffBand,
)
from .polynomials import kappa_from_alpha, szego_eval

__all__ = [
    "Band",
    "Gap",
    "PurePoint",
    "PeriodicSpectrum",
    "PeriodicityReport",
    "transfer_matrix",
    "transfer_product",
    "discriminant",
    "band_structure",
    "gap_candidates",
    "tau_w",
    "pure_point_mass",
    "mass_series",
    "ac_weight",
    "full_spectrum",
    "normalization_report",
    "is_periodic_pair",
    "parallel_lines_check",
]

TWO_PI = 2.0 * math.pi

_EPS = float(np.finfo(float).eps)


def _check_alpha(alpha) -> tuple[complex, ...]:
    alpha = tuple(complex(a) for a in alpha)
    if len(alpha) == 0:
        raise InvalidParameters("need at least one reflection coefficient")
    for k, a in enumerate(alpha):
        if not abs(a) < 1.0:
            raise InvalidParameters(f"alpha[{k}] = {a!r} must have modulus < 1")
    return alpha


def transfer_matrix(a: complex, z) -> np.ndarray:
    """A(a, z) with the symmetric normalization; det = z exactly."""
    a = complex(a)
    s = 1.0 / math.sqrt(1.0 - abs(a) ** 2)
    z = complex(z)
    return np.array(
        [[s * z, -s * a.conjugate()], [-s * a * z, s]], dtype=complex
    )


def _transfer_entries(alpha, z):
    """Entries (A, B, C, D) of T_p(z), elementwise over an array of z."""
    A = np.ones_like(z)
    B = np.zeros_like(z)
    C = np.zeros_like(z)
    D = np.ones_like(z)
    for a in alpha:
        s = 1.0 / math.sqrt(1.0 - abs(a) ** 2)
        ac = a.conjugate()
        A, B, C, D = (
            s * (z * A - ac * C),
            s * (z * B - ac * D),
            s * (-a * z * A + C),
            s * (-a * z * B + D),
        )
    return A, B, C, D


def transfer_product(alpha, z) -> np.ndarray:
    """T_p(z) as a 2x2 matrix for scalar z."""
    alpha = _check_alpha(alpha)
    zz = np.asarray(complex(z))
    A, B, C, D = _transfer_entries(alpha, zz)
    return np.array([[A, B], [C, D]], dtype=complex)


def discriminant(alpha, theta):
    """Delta(theta) = e^{-i p theta/2} Tr T_p(e^{i theta}).

    theta is taken literally in [0, 2 pi] (not reduced), which fixes the branch
    for odd p.  The imaginary part must vanish to the rounding bound of the
    transfer product, 16 p eps prod_j (1 + |alpha_j|)/rho_j (each factor is the
    infinity norm of A(alpha_j, z)); NonRealDiscriminant otherwise.
    """
    alpha = _check_alpha(alpha)
    p = len(alpha)
    t = np.asarray(theta, dtype=float)
    scalar = t.shape == ()
    t = np.atleast_1d(t)
    z = np.exp(1j * t)
    A, _, _, D = _transfer_entries(alpha, z)
    val = np.exp(-0.5j * p * t) * (A + D)
    norm = math.prod((1.0 + abs(a)) / math.sqrt(1.0 - abs(a) ** 2) for a in alpha)
    bound = 16.0 * p * _EPS * norm
    defect = float(np.max(np.abs(val.imag)))
    if not defect <= bound:
        raise NonRealDiscriminant(
            f"discriminant imaginary defect {defect!r} exceeds {bound!r}"
        )
    out = val.real
    return float(out[0]) if scalar else out


# ------------------ bands and gaps ------------------ #


@dataclass(frozen=True)
class Band:
    lo: float
    hi: float  # hi may exceed 2 pi when the band wraps through angle 0
    lo_sign: int  # +1 where Delta = +2, -1 where Delta = -2
    hi_sign: int


@dataclass(frozen=True)
class Gap:
    lo: float
    hi: float
    closed: bool  # closed gaps have lo == hi (a single touching point)


@dataclass(frozen=True)
class PurePoint:
    w: complex
    theta: float
    mass: float


@dataclass(frozen=True)
class PeriodicSpectrum:
    p: int
    plus_solutions: tuple[float, ...]  # raw angles with multiplicity
    minus_solutions: tuple[float, ...]
    bands: tuple[Band, ...]
    gaps: tuple[Gap, ...]
    candidates: tuple[complex, ...] = ()
    candidate_thetas: tuple[float, ...] = ()
    pure_points: tuple[PurePoint, ...] = ()


def _edges(alpha) -> tuple[np.ndarray, np.ndarray]:
    """The 2p solutions of Delta = +-2: raw angles in [0, 2 pi], ascending, and
    the sign of Delta at each.

    Even p: the eigenvalues of the Floquet matrices E(+1) and E(-1), signed by
    the matrix they come from.  Odd p: the eigenvalues of E(+1) of the doubled
    block, whose discriminant is Delta^2 - 2, signed by Delta at their angle.
    """
    p = len(alpha)
    if p % 2 == 0:
        z = np.concatenate([np.linalg.eigvals(floquet_matrix(alpha, b)) for b in (1.0, -1.0)])
        sign = np.repeat([1, -1], p)
        theta = np.mod(np.angle(z), TWO_PI)
    else:
        theta = np.mod(np.angle(np.linalg.eigvals(floquet_matrix(alpha + alpha, 1.0))), TWO_PI)
        sign = np.where(discriminant(alpha, theta) > 0.0, 1, -1)
    order = np.argsort(theta, kind="stable")
    return theta[order], sign[order]


def band_structure(alpha) -> PeriodicSpectrum:
    """Locate all solutions of Delta = +-2 and assemble bands and gaps.

    Walking the edges around the circle, an arc between a +2 and a -2 edge is
    a band and an arc between two edges of one sign is a gap.  The arc that
    wraps through angle 0 ends at the first edge plus 2 pi, where Delta has
    the first edge's sign times (-1)^p; for odd p that lifted angle is the one
    reported for the edge when the arc is a band.  A gap is closed, lo == hi,
    when its edges agree to the eigensolver's backward error 64 p eps: the
    Floquet matrices are normal, so a touching point is an exact double
    eigenvalue.
    """
    alpha = _check_alpha(alpha)
    p = len(alpha)
    theta, sign = _edges(alpha)
    ends = np.append(theta, theta[0] + TWO_PI)
    signs = np.append(sign, sign[0] * (-1) ** p)
    bands: list[Band] = []
    gaps: list[Gap] = []
    for i in range(2 * p):
        lo, hi = float(ends[i]), float(ends[i + 1])
        if signs[i] != signs[i + 1]:
            bands.append(Band(lo=lo, hi=hi, lo_sign=int(signs[i]), hi_sign=int(signs[i + 1])))
        elif hi - lo <= 64.0 * p * _EPS:
            mid = 0.5 * (lo + hi) % TWO_PI
            gaps.append(Gap(lo=mid, hi=mid, closed=True))
        else:
            gaps.append(Gap(lo=lo, hi=hi, closed=False))
    if len(bands) != p:
        raise InternalInvariant(
            f"assembled {len(bands)} bands for period {p}: "
            f"{[(round(b.lo, 6), round(b.hi, 6)) for b in bands]}"
        )
    if p % 2 and signs[-2] != signs[-1]:
        theta[0], sign[0] = ends[-1], signs[-1]
    return PeriodicSpectrum(
        p=p,
        plus_solutions=tuple(sorted(float(t) for t in theta[sign > 0])),
        minus_solutions=tuple(sorted(float(t) for t in theta[sign < 0])),
        bands=tuple(sorted(bands, key=lambda b: b.lo)),
        gaps=tuple(sorted(gaps, key=lambda g: g.lo)),
    )


# ------------------ point-mass candidates ------------------ #


def _h_values(alpha, theta):
    """Im(e^{-i p theta/2} phi_p(e^{i theta})) with monic phi_p; its circle
    zeros are exactly the zeros of pi(z) = phi_p* - phi_p."""
    p = len(alpha)
    t = np.atleast_1d(np.asarray(theta, dtype=float))
    st = szego_eval(alpha, np.exp(1j * t))
    return (np.exp(-0.5j * p * t) * st.phi).imag


def _pi_defect(alpha, z) -> float:
    st = szego_eval(alpha, np.asarray(complex(z)))
    num = abs(complex(st.phi_star) - complex(st.phi))
    return num / max(1.0, abs(complex(st.phi)), abs(complex(st.phi_star)))


def gap_candidates(alpha, defect_tol: float = 1e-6):
    """The p circle zeros of pi(z) = phi_p*(z) - phi_p(z), as (z, theta) lists.

    pi = -(1 + alpha_{p-1}) (z phi_{p-1} - conj(beta) phi_{p-1}*) with
    beta = (1 + alpha_{p-1})/(1 + conj(alpha_{p-1})), so the zeros are the
    eigenvalues of the CMV matrix of alpha_0..alpha_{p-2} closed by beta.
    Each is verified against pi directly; thetas ascend in [0, 2 pi].
    """
    alpha = _check_alpha(alpha)
    a = alpha[-1]
    z = np.linalg.eigvals(cmv_matrix(alpha[:-1], (1.0 + a) / (1.0 + a.conjugate())))
    thetas = tuple(sorted(float(t) for t in np.mod(np.angle(z), TWO_PI)))
    zs = []
    for th in thetas:
        z = cmath.exp(1j * th)
        defect = _pi_defect(alpha, z)
        if not defect <= defect_tol:
            raise InternalInvariant(f"candidate theta = {th!r} has pi-defect {defect!r}")
        zs.append(z)
    return tuple(zs), thetas


# ------------------ point masses ------------------ #


def tau_w(alpha, w: complex, n: int | None = None) -> np.ndarray:
    """tau_0..tau_n at w for the periodically extended coefficients.

    tau_{j+1} = (w tau_j - conj(a_j)) / (1 - w tau_j a_j); unimodular when
    |w| = 1, which is required of the input.
    """
    alpha = _check_alpha(alpha)
    w = complex(w)
    if abs(abs(w) - 1.0) > 1e-9:
        raise InvalidParameters(f"w = {w!r} must lie on the unit circle")
    p = len(alpha)
    if n is None:
        n = p
    out = np.empty(n + 1, dtype=complex)
    t = 1.0 + 0.0j
    out[0] = t
    for j in range(n):
        a = alpha[j % p]
        den = 1.0 - w * t * a
        if abs(den) < 1e-14:
            raise DenominatorVanished(f"1 - w tau_{j} alpha_{j} = {den!r}")
        t = (w * t - a.conjugate()) / den
        if (j + 1) % RENORM_EVERY == 0:
            t /= abs(t)
        out[j + 1] = t
    return out


def _q_factors(alpha, w: complex, taus) -> list[float]:
    return [
        abs(1.0 - w * taus[j] * alpha[j]) ** 2 / (1.0 - abs(alpha[j]) ** 2)
        for j in range(len(alpha))
    ]


def pure_point_mass(
    alpha,
    w: complex,
    candidate_tol: float = 1e-8,
    margin: float = 1e-12,
) -> float | None:
    """Mass at a candidate w, or None when the defining series diverges.

    Requires tau_p(w) = 1 within candidate_tol (NotACandidate otherwise).
    With q_j = |1 - w tau_{j-1} alpha_{j-1}|^2 / (1 - |alpha_{j-1}|^2) over one
    period, the mass is gamma/(gamma + delta), gamma = 1 - prod q_j,
    delta = sum_n prod_{j<=n} q_j; prod q_j >= 1 - margin means no pure point
    (margin absorbs round-off at the existence boundary).
    """
    alpha = _check_alpha(alpha)
    p = len(alpha)
    taus = tau_w(alpha, w, p)
    if abs(taus[p] - 1.0) > candidate_tol:
        raise NotACandidate(
            f"tau_p(w) = {taus[p]!r} differs from 1 by more than {candidate_tol!r}"
        )
    q = _q_factors(alpha, w, taus)
    prod_q = 1.0
    delta = 0.0
    for qj in q:
        prod_q *= qj
        delta += prod_q
    if prod_q >= 1.0 - margin:
        return None
    gamma = 1.0 - prod_q
    return gamma / (gamma + delta)


def mass_series(alpha, w: complex, n_terms: int, stop_tol: float = 1e-14) -> float:
    """Independent truncated-series route: 1/(1 + sum_{n<=N} prod_{j<=n} q_j).

    Recomputes tau_j(w) term by term without using the one-period closed form;
    meaningful as a cross-check when the period product of q_j is below 1.

    When a mass exists, tau = 1 is a repelling fixed point of the one-period
    Moebius map (its multiplier is the reciprocal of the period product), so
    rounding drift grows geometrically and eventually derails the iteration.
    The sum is therefore truncated once the running term product falls below
    stop_tol: by then the remaining tail is negligible while the drift is
    still far from the escape scale. n_terms stays as the hard cap, which a
    divergent series runs into with a huge partial sum (result near 0).
    """
    alpha = _check_alpha(alpha)
    w = complex(w)
    p = len(alpha)
    t = 1.0 + 0.0j
    lam = 0.0
    prod_q = 1.0
    for j in range(n_terms):
        a = alpha[j % p]
        prod_q *= abs(1.0 - w * t * a) ** 2 / (1.0 - abs(a) ** 2)
        lam += prod_q
        if prod_q < stop_tol:
            break
        den = 1.0 - w * t * a
        if abs(den) < 1e-14:
            raise DenominatorVanished(f"1 - w tau_{j} alpha_{j} = {den!r}")
        t = (w * t - a.conjugate()) / den
        if (j + 1) % RENORM_EVERY == 0:
            t /= abs(t)
    return 1.0 / (1.0 + lam)


# ------------------ absolutely continuous part ------------------ #


def ac_weight(alpha, theta, edge_eps: float = 1e-10):
    """The density w(theta) strictly inside a band; OffBand when |Delta| >= 2."""
    alpha = _check_alpha(alpha)
    t = np.asarray(theta, dtype=float)
    scalar = t.shape == ()
    t = np.atleast_1d(t)
    delta = np.atleast_1d(discriminant(alpha, t))
    inside = np.abs(delta) < 2.0 - edge_eps
    if not np.all(inside):
        bad = int(np.argmin(inside))
        raise OffBand(
            f"theta = {float(t[bad])!r} has |Delta| = {float(abs(delta[bad]))!r}"
            f" >= 2 - {edge_eps!r}"
        )
    h = _h_values(alpha, t) * kappa_from_alpha(alpha)
    if np.any(np.abs(h) < 1e-300):
        raise DenominatorVanished("orthonormal phi_p is real at a band-interior point")
    out = np.sqrt(4.0 - delta**2) / (2.0 * np.abs(h))
    return float(out[0]) if scalar else out


def _weight_clamped(alpha, theta: float, kappa: float) -> float:
    """Non-raising weight for quadrature; exact edges clamp to the limit 0."""
    d = discriminant(alpha, theta)
    num = math.sqrt(max(0.0, 4.0 - d * d))
    den = 2.0 * abs(float(_h_values(alpha, theta)[0])) * kappa
    if den == 0.0:
        return 0.0
    return num / den


def _band_integral(alpha, lo: float, hi: float, kappa: float) -> float:
    """Integral of the weight over one band, sqrt-substituted at both edges."""
    from scipy.integrate import quad

    mid = 0.5 * (lo + hi)

    def from_lo(u):
        return 2.0 * u * _weight_clamped(alpha, lo + u * u, kappa)

    def from_hi(u):
        return 2.0 * u * _weight_clamped(alpha, hi - u * u, kappa)

    left, _ = quad(from_lo, 0.0, math.sqrt(mid - lo), limit=200)
    right, _ = quad(from_hi, 0.0, math.sqrt(hi - mid), limit=200)
    return left + right


def full_spectrum(alpha, candidate_tol: float = 1e-6) -> PeriodicSpectrum:
    """Bands, gaps, candidates and confirmed pure points in one report."""
    spec = band_structure(alpha)
    zs, thetas = gap_candidates(alpha)
    points = []
    for z, th in zip(zs, thetas):
        mass = pure_point_mass(alpha, z, candidate_tol=candidate_tol)
        if mass is not None:
            points.append(PurePoint(w=z, theta=th, mass=mass))
    return PeriodicSpectrum(
        p=spec.p,
        plus_solutions=spec.plus_solutions,
        minus_solutions=spec.minus_solutions,
        bands=spec.bands,
        gaps=spec.gaps,
        candidates=zs,
        candidate_thetas=thetas,
        pure_points=tuple(points),
    )


def normalization_report(alpha, spectrum: PeriodicSpectrum | None = None) -> dict:
    """Band integrals of w/(2 pi) plus point masses; total should be 1."""
    alpha = _check_alpha(alpha)
    if spectrum is None or not spectrum.candidates:
        spectrum = full_spectrum(alpha)
    kappa = kappa_from_alpha(alpha)  # h is computed with monic phi
    ac = sum(_band_integral(alpha, b.lo, b.hi, kappa) for b in spectrum.bands)
    ac /= TWO_PI
    point = sum(pp.mass for pp in spectrum.pure_points)
    return {"ac_mass": ac, "point_mass": point, "total": ac + point}


# ------------------ periodicity of pairs ------------------ #


@dataclass(frozen=True)
class PeriodicityReport:
    ok: bool
    p: int
    checked: int
    arg_residual: float
    modulus_residual: float


def is_periodic_pair(pair: SequencePair, p: int, tol: float = 1e-10) -> PeriodicityReport:
    """Test the (c, b) conditions equivalent to alpha_{n+p} = alpha_n.

    For every n with n + p + 1 <= stored length, compare

        sum_{j=n+1}^{n+p} arg((1 + i c_j)/(1 - i c_j))
            == arg((b_{n+1} - i c_{n+1})/(1 - i c_{n+1}))
             - arg((b_{n+p+1} - i c_{n+p+1})/(1 - i c_{n+p+1}))   (mod 2 pi)

    and the modulus condition (b^2 + c^2)/(1 + c^2) equal at n+1 and n+p+1.
    When both compared numerators vanish (alpha = 0 there) the phase is
    unconstrained and only the modulus condition applies.
    """
    N = len(pair)
    if not 1 <= p <= N - 1:
        raise InvalidParameters(f"need 1 <= p <= {N - 1} to check at least one index")
    b = pair.b
    c = pair.c
    arg_res = 0.0
    mod_res = 0.0
    checked = 0
    for n in range(N - p):
        k1, k2 = n + 1, n + p + 1
        if k2 > N:
            break
        lhs = sum(
            cmath.phase((1.0 + 1j * c[j - 1]) / (1.0 - 1j * c[j - 1]))
            for j in range(n + 1, n + p + 1)
        )
        z1 = (b[k1 - 1] - 1j * c[k1 - 1]) / (1.0 - 1j * c[k1 - 1])
        z2 = (b[k2 - 1] - 1j * c[k2 - 1]) / (1.0 - 1j * c[k2 - 1])
        mod_res = max(mod_res, abs(abs(z1) ** 2 - abs(z2) ** 2))
        if abs(z1) < 1e-14 and abs(z2) < 1e-14:
            pass  # phase unconstrained at alpha = 0
        else:
            diff = lhs - (cmath.phase(z1) - cmath.phase(z2))
            arg_res = max(arg_res, abs(cmath.phase(cmath.exp(1j * diff))))
        checked += 1
    return PeriodicityReport(
        ok=(arg_res < tol and mod_res < tol),
        p=p,
        checked=checked,
        arg_residual=arg_res,
        modulus_residual=mod_res,
    )


def parallel_lines_check(alpha, tol: float = 1e-9) -> bool:
    """Even-period geometry: alpha_{2k} - 1 and alpha_{2k+1} + 1 all parallel."""
    alpha = _check_alpha(alpha)
    p = len(alpha)
    if p % 2 != 0:
        raise HypothesisViolated(f"period {p} is odd; the line geometry needs even p")
    vecs = [alpha[2 * k] - 1.0 for k in range(p // 2)]
    vecs += [alpha[2 * k + 1] + 1.0 for k in range(p // 2)]
    ref = vecs[0]
    return all(
        abs(ref.real * v.imag - ref.imag * v.real) <= tol for v in vecs[1:]
    )
