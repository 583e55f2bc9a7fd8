"""Spectral decomposition for periodic reflection coefficients.

A period-p block (alpha_0, ..., alpha_{p-1}) determines the transfer matrix

    T_p(z) = A(alpha_{p-1}, z) ... A(alpha_0, z),
    A(a, z) = (1 - |a|^2)^{-1/2} [[z, -conj(a)], [-a z, 1]],   det A = z,

whose rescaled trace Delta(theta) = e^{-i p theta/2} Tr T_p(e^{i theta}) is
real on the circle (branch fixed by theta in [0, 2 pi]; for odd p the value at
theta = 2 pi is minus the value at 0, and the two ends count as separate
solutions of Delta = +-2).  The essential support is the p bands where
|Delta| <= 2; the gaps between them are open arcs or single touching points
(closed gaps, detected as tangential roots).  Point masses can only sit at the
p zeros of pi(z) = phi_p*(z) - phi_p(z), equivalently where tau_p(w) = 1; each
candidate carries mass 1/(1 + sum of tail products) when the product of one
period's factors q_j is < 1, and no mass otherwise.  On band interiors the
absolutely continuous weight is

    w(theta) = sqrt(4 - Delta^2) / (2 |Im(e^{-i p theta/2} phi_p_on(e^{i theta}))|)

with phi_p_on the orthonormal polynomial, normalized so that the band
integrals of w/(2 pi) plus the point masses sum to one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .bijection import SequencePair
from .errors import (
    CandidateCountMismatch,
    DenominatorVanished,
    HypothesisViolated,
    InternalInvariant,
    InvalidParameters,
    NonRealDiscriminant,
    NotACandidate,
    OffBand,
    RootCountMismatch,
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

_MERGE_TOL = 1e-9  # vertices closer than this (in z-angle) are one point
_DETECT_FRACTION = 1e-3  # loose trigger for refining a candidate tangential dip
_TOUCH_TOL = 1e-8  # confirmed |f| at a tangential root (closed gap)
_PAIR_TOL = 1e-6  # simple roots this close are one noise-floor tangency


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


def discriminant(alpha, theta, imag_tol: float = 1e-10):
    """Delta(theta) = e^{-i p theta/2} Tr T_p(e^{i theta}).

    theta is taken literally in [0, 2 pi] (not reduced), which fixes the branch
    for odd p.  The imaginary part must vanish to imag_tol (relative to the
    trace magnitude); NonRealDiscriminant otherwise.
    """
    alpha = _check_alpha(alpha)
    p = len(alpha)
    t = np.asarray(theta, dtype=float)
    scalar = t.shape == ()
    t = np.atleast_1d(t)
    z = np.exp(1j * t)
    A, _, _, D = _transfer_entries(alpha, z)
    val = np.exp(-0.5j * p * t) * (A + D)
    bound = imag_tol * float(np.max(np.maximum(1.0, np.abs(val))))
    defect = float(np.max(np.abs(val.imag)))
    if defect > bound:
        raise NonRealDiscriminant(
            f"discriminant imaginary defect {defect!r} exceeds {bound!r}"
        )
    out = val.real
    return float(out[0]) if scalar else out


def _disc_deriv(alpha, theta: float) -> float:
    """d Delta / d theta at a scalar theta, from the z-derivative of T_p.

    A band touching point is a critical point of Delta, and locating it from
    Delta values alone is sqrt(eps)-limited by the quadratic flatness; the
    analytic derivative restores full precision there.
    """
    p = len(alpha)
    z = cmath.exp(1j * theta)
    A = D = 1.0 + 0.0j
    B = C = 0.0j
    dA = dB = dC = dD = 0.0j
    for a in alpha:
        s = 1.0 / math.sqrt(1.0 - abs(a) ** 2)
        ac = a.conjugate()
        dA, dB, dC, dD = (
            s * (A + z * dA - ac * dC),
            s * (B + z * dB - ac * dD),
            s * (-a * (A + z * dA) + dC),
            s * (-a * (B + z * dB) + dD),
        )
        A, B, C, D = (
            s * (z * A - ac * C),
            s * (z * B - ac * D),
            s * (-a * z * A + C),
            s * (-a * z * B + D),
        )
    trace = A + D
    trace_z = dA + dD
    val = cmath.exp(-0.5j * p * theta) * (-0.5j * p * trace + 1j * z * trace_z)
    return val.real


# ------------------ root scanning on the circle ------------------ #


def _bisect_scalar(fun, lo, hi, flo, fhi, tol):
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        fm = fun(mid)
        if fm == 0.0:
            return mid
        if (flo < 0.0) != (fm < 0.0):
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def _refine_minimum(fun, lo, hi):
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(
        lambda t: fun(t) ** 2, bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-14},
    )
    return float(res.x)


def _polish_critical(deriv, theta, span):
    """Sharpen a tangential root to the nearby zero of the derivative.

    Returns theta unchanged when no derivative sign change shows up within a
    couple of scan cells (the confirmation step has already accepted the point,
    so this only ever improves the location)."""
    d0 = deriv(theta)
    if d0 == 0.0:
        return theta
    for h in (span / 8.0, span / 4.0, span / 2.0, span, 2.0 * span):
        lo, hi = theta - h, theta + h
        dlo, dhi = deriv(lo), deriv(hi)
        if dlo == 0.0:
            return lo
        if dhi == 0.0:
            return hi
        if (dlo < 0.0) != (dhi < 0.0):
            return _bisect_scalar(deriv, lo, hi, dlo, dhi, 1e-15)
    return theta


@dataclass
class _Root:
    theta: float  # raw angle in [0, 2 pi]
    mult: int
    tangential: bool


def _nearest_sign(sgn, i, step, wrap, limit=16):
    n = len(sgn)
    j = i
    for _ in range(limit):
        j = (j + step) % n if wrap else j + step
        if not wrap and not 0 <= j < n:
            return None
        if sgn[j] != 0:
            return int(sgn[j])
    raise InternalInvariant("sign plateau wider than the scan window")


def _scan_roots(fun, grid, fvals, wrap, band_side, tol, polish=None):
    """Roots of a sampled real function on the circle.

    wrap=True treats the grid as periodic (even p).  band_side is the sign the
    function takes on the |Delta| < 2 side of a touching point (-1 for
    Delta - 2, +1 for Delta + 2); it classifies one-sided roots at the branch
    cut, which count with multiplicity 1.  Interior tangential roots count 2.
    polish, when given, maps a tangential root to the nearby zero of the
    function's derivative (tangencies are critical points, where value-based
    location is only sqrt(eps)-accurate).
    """
    n = len(grid)
    sgn = np.sign(fvals)
    span = grid[1] - grid[0]
    cell_used = np.zeros(n, dtype=bool)  # cell i = (grid[i], next angle)
    roots: list[_Root] = []

    def lift(i):
        # angle of grid point (i % n) on the branch side of cell i-1..i
        return grid[i] if i < n else TWO_PI

    # exact grid zeros
    for i in np.flatnonzero(sgn == 0.0):
        left = _nearest_sign(sgn, i, -1, wrap) if (wrap or i > 0) else None
        right = _nearest_sign(sgn, i, +1, wrap) if (wrap or i < n - 1) else None
        if left is None or right is None:
            side = right if left is None else left
            root = _Root(float(grid[i]), 1, side == band_side)
        else:
            tang = left * right > 0
            root = _Root(float(grid[i]), 2 if tang else 1, tang)
        if root.tangential and polish is not None:
            root.theta = _polish_critical(polish, root.theta, span)
            if not wrap:
                root.theta = min(max(root.theta, 0.0), TWO_PI)
        roots.append(root)
        for cell in (i - 1, i):
            if wrap:
                cell_used[cell % n] = True
            elif 0 <= cell < n:
                cell_used[cell] = True

    # sign changes
    last = n if wrap else n - 1
    for i in range(last):
        j = (i + 1) % n
        if cell_used[i % n] or sgn[i] == 0.0 or sgn[j] == 0.0:
            continue
        if sgn[i] * sgn[j] < 0.0:
            lo, hi = float(grid[i]), float(lift(i + 1))
            theta = _bisect_scalar(fun, lo, hi, fvals[i], fvals[j], tol)
            roots.append(_Root(theta, 1, False))
            cell_used[i % n] = True

    scale = max(1.0, float(np.max(np.abs(fvals))))

    # A tangency whose grid value rounds to the wrong side of zero shows up as
    # two simple crossings through the noise floor a few nanoradians apart;
    # collapse such a pair to one polished double root.
    if polish is not None and len(roots) >= 2:
        roots.sort(key=lambda r: r.theta)

        def merged_pair(hint):
            theta = _polish_critical(polish, hint, span)
            if wrap:
                theta %= TWO_PI
            else:
                theta = min(max(theta, 0.0), TWO_PI)
            if abs(fun(theta)) >= _TOUCH_TOL * scale:
                return None
            return _Root(theta, 2, True)

        def simple(r):
            return r.mult == 1 and not r.tangential

        out: list[_Root] = []
        k = 0
        while k < len(roots):
            r = roots[k]
            if (
                k + 1 < len(roots)
                and simple(r)
                and simple(roots[k + 1])
                and roots[k + 1].theta - r.theta < _PAIR_TOL
            ):
                m = merged_pair(0.5 * (r.theta + roots[k + 1].theta))
                if m is not None:
                    out.append(m)
                    k += 2
                    continue
            out.append(r)
            k += 1
        if (
            wrap
            and len(out) >= 2
            and simple(out[0])
            and simple(out[-1])
            and out[0].theta + TWO_PI - out[-1].theta < _PAIR_TOL
        ):
            m = merged_pair(0.5 * (out[0].theta + out[-1].theta - TWO_PI))
            if m is not None:
                out = [m] + out[1:-1]
        roots = out

    # tangential dips: loose detection, strict confirmation
    loose = _DETECT_FRACTION * scale
    for ii in range(n):
        f0 = abs(fvals[ii])
        if not 0.0 < f0 < loose:
            continue
        il = (ii - 1) % n if wrap else max(ii - 1, 0)
        ir = (ii + 1) % n if wrap else min(ii + 1, n - 1)
        if cell_used[il] or cell_used[ii]:
            continue
        if f0 > abs(fvals[il]) or f0 > abs(fvals[ir]):
            continue
        lo = float(grid[ii]) - 2.0 * span
        hi = float(grid[ii]) + 2.0 * span
        if not wrap:
            lo, hi = max(lo, 0.0), min(hi, TWO_PI)
        theta = _refine_minimum(fun, lo, hi)
        if abs(fun(theta)) >= _TOUCH_TOL * scale:
            continue
        if polish is not None:
            theta = _polish_critical(polish, theta, span)
            if not wrap:
                theta = min(max(theta, 0.0), TWO_PI)
        at_cut = not wrap and (theta < 2.0 * span or theta > TWO_PI - 2.0 * span)
        if at_cut:
            roots.append(_Root(theta, 1, True))
        else:
            roots.append(_Root(theta, 2, True))
        cell_used[il] = True
        cell_used[ii] = True
    return roots


def _solution_grid(p: int, grid_per_period: int):
    wrap = p % 2 == 0
    n = grid_per_period * p
    if wrap:
        return np.linspace(0.0, TWO_PI, n, endpoint=False), wrap
    return np.linspace(0.0, TWO_PI, n + 1), wrap


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


def band_structure(
    alpha, grid_per_period: int = 4096, tol: float = 1e-12
) -> PeriodicSpectrum:
    """Locate all solutions of Delta = +-2 and assemble bands and gaps.

    Simple roots come from certified sign-change bisection on the scan grid;
    touching points (closed gaps) are tangential dips of |Delta -+ 2| confirmed
    below 1e-8 and count with multiplicity 2 (1 at the odd-p branch cut).
    RootCountMismatch if either count differs from p.
    """
    alpha = _check_alpha(alpha)
    p = len(alpha)
    grid, wrap = _solution_grid(p, grid_per_period)
    dvals = discriminant(alpha, grid)

    def f_plus(t):
        return discriminant(alpha, t) - 2.0

    def f_minus(t):
        return discriminant(alpha, t) + 2.0

    def deriv(t):
        return _disc_deriv(alpha, t)

    plus = _scan_roots(
        f_plus, grid, dvals - 2.0, wrap, band_side=-1, tol=tol, polish=deriv
    )
    minus = _scan_roots(
        f_minus, grid, dvals + 2.0, wrap, band_side=+1, tol=tol, polish=deriv
    )
    for name, roots in (("+2", plus), ("-2", minus)):
        got = sum(r.mult for r in roots)
        if got != p:
            raise RootCountMismatch(
                f"{got} solutions of Delta = {name} (multiplicity counted), "
                f"expected {p}; angles {[round(r.theta, 6) for r in roots]}"
            )

    # vertices in z-space: merge raw angles mod 2 pi
    tagged = [(r, +1) for r in plus] + [(r, -1) for r in minus]
    verts: list[dict] = []
    for r, sign in sorted(tagged, key=lambda t: t[0].theta % TWO_PI):
        ang = r.theta % TWO_PI
        home = None
        for v in verts:
            d = abs(ang - v["angle"])
            if min(d, TWO_PI - d) < _MERGE_TOL:
                home = v
                break
        if home is None:
            home = {"angle": ang, "roots": [], "tangential": False}
            verts.append(home)
        home["roots"].append((sign, r.theta))
        home["tangential"] = home["tangential"] or r.tangential
    verts.sort(key=lambda v: v["angle"])

    def vertex_sign(v, lifted_angle):
        best = min(v["roots"], key=lambda sr: abs(sr[1] - lifted_angle))
        return best[0]

    bands: list[Band] = []
    gaps: list[Gap] = []
    K = len(verts)
    for i in range(K):
        a = verts[i]["angle"]
        b = verts[(i + 1) % K]["angle"] + (TWO_PI if i == K - 1 else 0.0)
        if K == 1:
            b = a + TWO_PI
        mid = 0.5 * (a + b) % TWO_PI
        if abs(discriminant(alpha, mid)) < 2.0:
            bands.append(
                Band(
                    lo=a,
                    hi=b,
                    lo_sign=vertex_sign(verts[i], a),
                    hi_sign=vertex_sign(verts[(i + 1) % K], b),
                )
            )
        else:
            gaps.append(Gap(lo=a, hi=b, closed=False))
    for v in verts:
        if v["tangential"]:
            gaps.append(Gap(lo=v["angle"], hi=v["angle"], closed=True))
    gaps.sort(key=lambda g: g.lo)
    if len(bands) != p:
        raise InternalInvariant(
            f"assembled {len(bands)} bands for period {p}: "
            f"{[(round(b.lo, 6), round(b.hi, 6)) for b in bands]}"
        )
    return PeriodicSpectrum(
        p=p,
        plus_solutions=tuple(sorted(r.theta for r in plus for _ in range(r.mult))),
        minus_solutions=tuple(sorted(r.theta for r in minus for _ in range(r.mult))),
        bands=tuple(sorted(bands, key=lambda b: b.lo)),
        gaps=tuple(gaps),
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


def gap_candidates(
    alpha, grid_per_period: int = 4096, tol: float = 1e-12, defect_tol: float = 1e-6
):
    """The p circle zeros of pi(z) = phi_p*(z) - phi_p(z), as (z, theta) lists.

    Found by sign-change scanning of the real function h(theta) =
    Im(e^{-i p theta/2} phi_p(e^{i theta})), then verified against pi directly.
    For odd p a zero at the branch cut appears at both theta = 0 and 2 pi; it
    is the single point z = 1 and is counted once (twice only when the two cut
    ends flank it with opposite growth, the double-zero signature).
    """
    alpha = _check_alpha(alpha)
    p = len(alpha)
    grid, wrap = _solution_grid(p, grid_per_period)
    hvals = _h_values(alpha, grid)

    def fun(t):
        return float(_h_values(alpha, t)[0])

    roots = _scan_roots(fun, grid, hvals, wrap, band_side=0, tol=tol)
    if not wrap:
        # odd p: both cut ends describe z = 1; merge them
        at_zero = [r for r in roots if r.theta < _MERGE_TOL]
        at_two_pi = [r for r in roots if TWO_PI - r.theta < _MERGE_TOL]
        if at_zero and at_two_pi:
            for r in at_two_pi:
                roots.remove(r)
            lo_side = _nearest_sign(np.sign(hvals), 0, +1, wrap=False)
            hi_side = _nearest_sign(np.sign(hvals), len(grid) - 1, -1, wrap=False)
            at_zero[0].mult = 1 if lo_side == hi_side else 2
    total = sum(r.mult for r in roots)
    if total != p:
        raise CandidateCountMismatch(
            f"{total} candidate zeros found (multiplicity counted), expected {p}; "
            f"angles {[round(r.theta % TWO_PI, 6) for r in roots]}"
        )
    thetas = sorted(r.theta % TWO_PI for r in roots)
    zs = []
    for th in thetas:
        z = cmath.exp(1j * th)
        defect = _pi_defect(alpha, z)
        if defect > defect_tol:
            raise InternalInvariant(
                f"scanned candidate theta = {th!r} has pi-defect {defect!r}"
            )
        zs.append(z)
    return tuple(zs), tuple(thetas)


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
        if (j + 1) % 64 == 0:
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
        if (j + 1) % 64 == 0:
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


def full_spectrum(
    alpha,
    grid_per_period: int = 4096,
    tol: float = 1e-12,
    candidate_tol: float = 1e-6,
) -> PeriodicSpectrum:
    """Bands, gaps, candidates and confirmed pure points in one report."""
    spec = band_structure(alpha, grid_per_period, tol)
    zs, thetas = gap_candidates(alpha, grid_per_period, tol)
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
