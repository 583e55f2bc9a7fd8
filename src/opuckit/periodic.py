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
pi(z) = phi_p*(z) - phi_p(z), which are the eigenvalues of a p x p CMV
matrix; the same eigendecomposition gives each candidate's mass from two
entries of its eigenvector, and its Davis-Kahan error (see _candidates).
For even p one CMV fill builds E(+1), E(-1) and that matrix as one stack,
and one eigvals call on the stacked E(+-1) gives the edges; bands, gaps and
the solution tuples are then read off arrays, one tolist per field;
mass_series sums the defining series along the tau recursion as a second,
independent route.  On
band interiors the absolutely continuous weight is

    w(theta) = sqrt(4 - Delta^2) / (2 |Im(e^{-i p theta/2} phi_p_on(e^{i theta}))|)

with phi_p_on the orthonormal polynomial (Simon, OPUC vol. 2 chapter 11),
normalized so that the band integrals of w/(2 pi) plus the point masses sum
to one.  normalization_report checks that sum, to the band integrals'
error estimate plus the summed mass errors.  Its band integrals run one
adaptive G7-K15 Gauss-Kronrod rule (Piessens et al., QUADPACK, 1983) over the
panels of all 2p half-bands at once, in u with theta = edge +- u^2 so that the
square-root behaviour at each edge becomes smooth; a half-band whose edge has
a candidate at distance delta just outside it starts with panels graded at
sqrt(delta) 2^j.  Each round evaluates the density on the 15 nodes of every
open panel in one array call and bisects the panels whose error is above an
equal share of the tolerance.  The reported ac_error sums QUADPACK's error
estimate of every panel and a rounding estimate of the density, from two
evaluations of its denominator h (see _gk15).

T_p, Delta and phi_p_on come from one loop, the orthonormal Szego recurrence
(phi, phi*) -> A(alpha_k, z) (phi, phi*): from the starts (1, 0) and (0, 1)
it gives the columns of T_p, from (1, 1) it gives (phi_p_on, phi_p_on*).
Each set of angles takes one pass over the block with all three starts, and
kappa_p = prod 1/rho_j, which overflows at 229 copies of 0.999, never forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bijection import RENORM_EVERY, SequencePair
from .cmv import _cmv, _floquet
from .errors import (
    DenominatorVanished,
    HypothesisViolated,
    InternalInvariant,
    InvalidParameters,
    NoConvergence,
    NonRealDiscriminant,
    NotACandidate,
    OffBand,
    _check_count,
    _check_disc,
    _check_finite,
)

__all__ = [
    "Band",
    "Gap",
    "PurePoint",
    "PeriodicSpectrum",
    "PeriodicityReport",
    "transfer_product",
    "discriminant",
    "band_structure",
    "gap_candidates",
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
_EDGE_TOL = 1e-10
_SERIES_TOL = 1e-14
_PERIODIC_TOL = 1e-10
_PARALLEL_TOL = 1e-9


def _check_alpha(alpha) -> tuple[complex, ...]:
    """alpha in the disc (see errors._check_disc) as a nonempty tuple."""
    alpha = tuple(_check_disc(alpha).tolist())
    if not alpha:
        raise InvalidParameters("need at least one reflection coefficient")
    return alpha


def _angles(theta) -> tuple[np.ndarray, tuple]:
    """theta flattened to floats, and its shape; InvalidParameters where an
    angle is not finite."""
    t = _check_finite(theta, "theta")
    return t.ravel(), t.shape


def _szego(alpha, z, phi, star):
    """The orthonormal Szego recurrence
        phi_{k+1} = (z phi_k - conj(a_k) phi_k*)/rho_k,
        phi_{k+1}* = (phi_k* - a_k z phi_k)/rho_k,
    that is A(a_k, z) applied to (phi, phi*), elementwise over z and over
    start values (phi_0, phi_0*) stacked on a leading axis."""
    for a in alpha:
        s = 1.0 / math.sqrt(1.0 - abs(a) ** 2)
        zphi = z * phi
        phi, star = s * (zphi - a.conjugate() * star), s * (star - a * zphi)
    return phi, star


def transfer_product(alpha, z) -> np.ndarray:
    """T_p(z) as a 2x2 matrix for scalar z: its columns are _szego from the
    starts (1, 0) and (0, 1)."""
    alpha = _check_alpha(alpha)
    z = complex(_check_finite(z, "z", complex))
    return np.array(_szego(alpha, z, np.array([1.0, 0.0]), np.array([0.0, 1.0])))


def _floquet_entries(alpha, t: np.ndarray):
    """Delta, the entries E11, E12, E21, E22 of E = e^{-i p t/2} T_p(e^{i t})
    (det E = 1) and h = Im(e^{-i p t/2} phi_p(e^{i t})), whose circle zeros
    are those of pi = phi_p* - phi_p, over a 1-d array of angles, from one
    _szego pass over the starts (1, 0), (0, 1) and (1, 1).

    Delta = Tr E must be real to the rounding bound of the transfer product,
    16 p eps prod_j (1 + |alpha_j|)/rho_j (each factor is the infinity norm of
    A(alpha_j, z)), carried as a sum of logs since it overflows at large p,
    as the product itself does in a gap.  NonRealDiscriminant names the
    first angle where Delta is not finite or not real to that bound.
    """
    p = len(alpha)
    log_bound = math.log(16.0 * p * _EPS) + sum(
        math.log((1.0 + abs(a)) / math.sqrt(1.0 - abs(a) ** 2)) for a in alpha
    )
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        phi, star = _szego(
            alpha, np.exp(1j * t), np.array([[1.0], [0.0], [1.0]]), np.array([[0.0], [1.0], [1.0]])
        )
        phase = np.exp(-0.5j * p * t)
        val = phase * (phi[0] + star[1])
        real = np.isfinite(val.real) & (np.log(np.abs(val.imag)) <= log_bound)
    if not real.all():
        j = int(np.argmin(real))
        raise NonRealDiscriminant(
            f"discriminant {complex(val[j])!r} at theta = {float(t[j])!r} is not real within"
            f" the transfer product's rounding bound exp({log_bound!r})"
        )
    return (val.real, *(phase * phi[:2]), *(phase * star[:2]), (phase * phi[2]).imag)


def _four_minus_delta_sq(delta, E11, E12, E21, E22):
    """4 - Delta^2, which is -((E11 - E22)^2 + 4 E12 E21) since det E = 1.

    Near E = +-1 (a closed gap, where Delta = +-2 to second order) the entry
    form keeps its relative accuracy and 4 - Delta^2 from a rounded Delta
    keeps none; where the off-diagonal part is large the entry form is the
    one that cancels.  Their rounding errors are in the ratio of
    0.5 |E11 - E22| + |E12| + |E21| to 1, which picks the form.
    """
    # At large p the entries reach 1e180 deep in a gap: the entry form's
    # products overflow and may sum to inf - inf = nan, but off >= 1 there,
    # so it is not picked; Delta^2 overflows too, and 4 - Delta^2 = -inf is
    # the right limit, since such a point is off every band, where the
    # density is 0.
    with np.errstate(over="ignore", invalid="ignore"):
        off = 0.5 * np.abs(E11 - E22) + np.abs(E12) + np.abs(E21)
        entry_form = -((E11 - E22) ** 2 + 4.0 * E12 * E21).real
        return np.where(off < 1.0, entry_form, 4.0 - delta * delta)


def discriminant(alpha, theta):
    """Delta(theta) = e^{-i p theta/2} Tr T_p(e^{i theta}).

    theta is taken literally in [0, 2 pi] (not reduced), which fixes the branch
    for odd p.  The imaginary part must vanish to the rounding bound of the
    transfer product (see _floquet_entries); NonRealDiscriminant otherwise.
    """
    alpha = _check_alpha(alpha)
    t, shape = _angles(theta)
    delta = _floquet_entries(alpha, t)[0].reshape(shape)
    return float(delta) if shape == () else delta


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
    error: float  # first-order bound on |mass - exact mass| (see _candidates)


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
    point_error: float = 0.0  # the mass errors summed over all candidates


def _edges(alpha, floquets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 2p solutions of Delta = +-2: raw angles in [0, 2 pi], ascending, and
    the sign of Delta at each, from one eigvals call on the stacked Floquet
    matrices of _matrices.

    Even p: the eigenvalues of the Floquet matrices E(+1) and E(-1), signed by
    the matrix they come from.  Odd p: the eigenvalues of E(+1) of the doubled
    block, whose discriminant is Delta^2 - 2, signed by Delta at their angle.
    """
    p = len(alpha)
    theta = np.mod(np.angle(np.linalg.eigvals(floquets)), TWO_PI).ravel()
    order = theta.argsort(kind="stable")
    if p % 2 == 0:
        # the first p eigenvalues are those of E(+1)
        return theta[order], np.where(order < p, 1, -1)
    sign = np.where(_floquet_entries(alpha, theta)[0] > 0.0, 1, -1)
    return theta[order], sign[order]


def _matrices(alpha) -> tuple[np.ndarray, np.ndarray]:
    """The stacked Floquet matrices of _edges and the candidate matrix C of
    _candidates.

    Even p: E(+1), E(-1) and C are the three layers of one fill.  Odd p:
    E(+1) of the doubled block, and C by a fill of its own.  C is closed by
    beta = (1 + alpha_{p-1})/(1 + conj(alpha_{p-1})), formed by Python's
    complex division, since numpy's rounds differently.
    """
    a = alpha[-1]
    beta = (1.0 + a) / (1.0 + a.conjugate())
    if len(alpha) % 2:
        return _floquet(alpha + alpha, (1.0,)), _cmv(alpha[:-1], beta)
    stack = _floquet(alpha, (1.0, -1.0), beta)
    return stack[:2], stack[2]


def band_structure(alpha) -> PeriodicSpectrum:
    """Locate all solutions of Delta = +-2 and assemble bands and gaps.

    Bands and gaps alternate, so the arcs from sorted edge i to i + 1,
    i = s, s + 2, ..., are the p bands, with s in {0, 1} the offset giving
    more pairs of opposite sign, and the arcs between them are the gaps.  A
    band thinner than rounding stays whole: its two edges are adjacent in
    either order.  A band with one sign at both edges raises
    InternalInvariant.  The arc that wraps through angle 0 ends at the first
    edge plus 2 pi, where Delta has the first edge's sign times (-1)^p; for
    odd p that lifted angle is the one reported for the edge when the arc is
    a band.  A gap is closed, lo == hi, when its edges agree to the
    eigensolver's backward error 64 p eps: the Floquet matrices are normal,
    so a touching point is an exact double eigenvalue.
    """
    alpha = _check_alpha(alpha)
    p = len(alpha)
    return PeriodicSpectrum(p, *_bands(p, *_edges(alpha, _matrices(alpha)[0])))


def _bands(p: int, theta: np.ndarray, sign: np.ndarray):
    """plus_solutions, minus_solutions, bands and gaps of PeriodicSpectrum
    from the ascending edges of _edges (see band_structure), each field from
    arrays."""
    ends = np.concatenate((theta, theta[:1] + TWO_PI))
    signs = np.concatenate((sign, sign[:1] * (-1) ** p))
    flips = signs[:-1] != signs[1:]
    s = int(np.count_nonzero(flips[1::2]) > np.count_nonzero(flips[0::2]))
    if np.count_nonzero(flips[s::2]) < p:
        j = s + 2 * int(np.argmin(flips[s::2]))
        raise InternalInvariant(
            f"band [{float(ends[j])!r}, {float(ends[j + 1])!r}] has one sign at both edges"
        )
    # band j is the arc from edge s + 2j to the next, gap j the arc from
    # edge 1 - s + 2j; both ascend in j
    e, g = ends.tolist(), signs.tolist()
    bands = map(Band, e[s:-1:2], e[s + 1 :: 2], g[s:-1:2], g[s + 1 :: 2])
    lo, hi = ends[1 - s : -1 : 2], ends[2 - s :: 2]
    closed = hi - lo <= 64.0 * p * _EPS
    if np.count_nonzero(closed):
        # a closed gap is its midpoint; one through angle 0 moves to the front
        mid = np.mod(0.5 * (lo + hi), TWO_PI)
        lo, hi = np.where(closed, mid, lo), np.where(closed, mid, hi)
        order = lo.argsort(kind="stable")
        lo, hi, closed = lo[order], hi[order], closed[order]
    gaps = map(Gap, lo.tolist(), hi.tolist(), closed.tolist())
    # for odd p with s = 1 the first edge is reported lifted by 2 pi, as the
    # last: the edges stay ascending
    theta, sign = (ends[1:], signs[1:]) if p % 2 and s else (ends[:-1], signs[:-1])
    return (tuple(theta[sign > 0].tolist()), tuple(theta[sign < 0].tolist()),
            tuple(bands), tuple(gaps))


# ------------------ point-mass candidates ------------------ #


def _candidates(alpha, cmv: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Angles of the p candidates, ascending in [0, 2 pi], their masses (0
    where there is none) and what each mass may be off by, from one
    eigendecomposition of the candidate matrix cmv (_matrices).

    pi = -(1 + alpha_{p-1}) (z phi_{p-1} - conj(beta) phi_{p-1}*) with
    beta = (1 + alpha_{p-1})/(1 + conj(alpha_{p-1})), so the candidates z_j
    are the eigenvalues of C, the CMV matrix of alpha_0..alpha_{p-2} closed by
    beta (Cantero-Moral-Velazquez, LAA 362 (2003); Simon, OPUC vol. 1
    sections 4.1-4.2).  A unit eigenvector of C has
    |V[k, j]|^2 = lambda_j |phi_k(z_j)|^2 with orthonormal phi_k and the
    Christoffel weight lambda_j = 1/sum_{k<p} |phi_k(z_j)|^2.

    Along the tau recursion of mass_series, tau_k = phi_k/phi_k* and
    q_0 ... q_{k-1} = |phi_k(w)|^2, so the mass gamma/(gamma + delta), with
    gamma = 1 - P, P = q_0 ... q_{p-1} and delta the sum of the partial
    products q_0 ... q_{k-1}, k = 1..p, is (1 - P) lambda_j, since
    gamma + delta = 1 + sum_{0<k<p} |phi_k(z_j)|^2 = 1/lambda_j.  At a candidate
    z_j tau_{p-1} = conj(beta), so q_{p-1} = rho_{p-1}^2 / |1 + alpha_{p-1}|^2
    and P = |phi_{p-1}(z_j)|^2 q_{p-1}, which gives, for every p,

        mass_j = |V[0, j]|^2 - k |V[p-1, j]|^2,   k = (1 - |alpha_{p-1}|^2) / |1 + alpha_{p-1}|^2.

    A mass exists when it exceeds 16 p eps, the rounding of the eigenvector
    weights.  The output is checked instead of the input: every eigenpair must
    have residual |C v - z v| and ||z| - 1| within the eigensolver's backward
    error 64 p eps (C is unitary), InternalInvariant otherwise.

    The error of mass_j, to first order: with r_j the residual plus 16 eps
    (the rounding of C and of C v) and sep_j the distance to the nearest
    other candidate, the sine of the angle between v and the exact
    eigenvector u is at most r_j/(sep_j - r_j), and 1 (Davis and Kahan, SIAM
    J. Numer. Anal. 7 (1970); C is normal).  |v_i|^2 - |u_i|^2 is a diagonal
    entry of v v* - u u*, whose norm is that sine, so the constant is 1:

        error_j = (1 + k) (min(1, r_j/(sep_j - r_j)) + 16 p eps),

    the last term the rounding of the weights, which also covers a raw mass
    clipped to 0.  For p = 1 only that term is left.
    """
    p = len(alpha)
    a = alpha[-1]
    z, v = np.linalg.eig(cmv)
    bound = 64.0 * p * _EPS
    residual = np.linalg.norm(cmv @ v - v * z, axis=0)
    off_circle = np.abs(np.abs(z) - 1.0)
    for name, values in (("eigen-residual", residual), ("||z| - 1|", off_circle)):
        if not values.max() <= bound:
            j = int(np.argmin(values <= bound))
            raise InternalInvariant(
                f"candidate {j} (z = {complex(z[j])!r}) has {name} {float(values[j])!r}"
                f" above {bound!r}"
            )
    k = (1.0 - abs(a) ** 2) / abs(1.0 + a) ** 2
    mass = np.abs(v[0]) ** 2 - np.abs(v[-1]) ** 2 * k
    mass = np.where(mass > 16.0 * p * _EPS, mass, 0.0)
    theta = np.mod(np.angle(z), TWO_PI)
    order = np.argsort(theta)
    tilt = np.zeros(p)
    if p > 1:
        # the sorted candidates closed into a ring; sep is the smaller of the
        # distances to the previous and the next
        ring = z[np.concatenate((order[-1:], order, order[:1]))]
        step = np.abs(ring[1:] - ring[:-1])
        sep = np.minimum(step[:-1], step[1:])
        r = residual[order] + 16.0 * _EPS
        # r/(sep - r) where sep >= 2 r, else 1
        tilt = r / np.maximum(sep - r, r)
    return theta[order], mass[order], (1.0 + k) * (tilt + 16.0 * p * _EPS)


def gap_candidates(alpha):
    """The p circle zeros of pi(z) = phi_p*(z) - phi_p(z), as (z, theta)
    tuples with thetas ascending in [0, 2 pi]; see _candidates."""
    alpha = _check_alpha(alpha)
    thetas = _candidates(alpha, _matrices(alpha)[1])[0]
    return tuple(np.exp(1j * thetas).tolist()), tuple(thetas.tolist())


# ------------------ point masses ------------------ #


def pure_point_mass(alpha, w: complex) -> float | None:
    """Mass at the candidate nearest w, or None when it carries none.

    w must be within 64 p eps of a candidate (NotACandidate otherwise); the
    mass is the one full_spectrum reports there (see _candidates).
    """
    alpha = _check_alpha(alpha)
    thetas, masses, _ = _candidates(alpha, _matrices(alpha)[1])
    dist = np.abs(np.exp(1j * thetas) - complex(w))
    j = int(np.argmin(dist))
    bound = 64.0 * len(alpha) * _EPS
    if not dist[j] <= bound:
        raise NotACandidate(
            f"w = {w!r} is {float(dist[j])!r} from the nearest candidate, above {bound!r}"
        )
    return float(masses[j]) if masses[j] > 0.0 else None


def mass_series(alpha, w: complex, n_terms: int) -> float:
    """Independent truncated-series route: 1/(1 + sum_{n<=N} prod_{j<=n} q_j),
    q_j = |1 - w tau_j alpha_j|^2 / (1 - |alpha_j|^2) along the recursion
    tau_{j+1} = (w tau_j - conj(alpha_j)) / (1 - w tau_j alpha_j), tau_0 = 1.

    Uses neither the eigenvectors nor the one-period closed form; meaningful
    as a cross-check when the period product of q_j is below 1.

    When a mass exists, tau = 1 is a repelling fixed point of the one-period
    Moebius map (its multiplier is the reciprocal of the period product), so
    rounding drift grows geometrically and eventually derails the iteration.
    The sum is therefore truncated once the running term product falls below
    1e-14: by then the remaining tail is negligible while the drift is
    still far from the escape scale. n_terms stays as the hard cap, which a
    divergent series runs into with a huge partial sum (result near 0).
    """
    alpha = _check_alpha(alpha)
    w = complex(_check_finite(w, "w", complex))
    n_terms = _check_count(n_terms, "n_terms", 1)
    p = len(alpha)
    t = 1.0 + 0.0j
    lam = 0.0
    prod_q = 1.0
    for j in range(n_terms):
        a = alpha[j % p]
        prod_q *= abs(1.0 - w * t * a) ** 2 / (1.0 - abs(a) ** 2)
        lam += prod_q
        if prod_q < _SERIES_TOL:
            break
        den = 1.0 - w * t * a
        if abs(den) < 1e-14:
            raise DenominatorVanished(f"1 - w tau_{j} alpha_{j} = {den!r}")
        t = (w * t - a.conjugate()) / den
        if (j + 1) % RENORM_EVERY == 0:
            t /= abs(t)
    return 1.0 / (1.0 + lam)


# ------------------ absolutely continuous part ------------------ #


def ac_weight(alpha, theta):
    """The density w(theta) inside a band; OffBand where |Delta| >= 2 - 1e-10,
    DenominatorVanished where h = 0 leaves it not finite."""
    alpha = _check_alpha(alpha)
    t, shape = _angles(theta)
    delta, *entries, h = _floquet_entries(alpha, t)
    inside = np.abs(delta) < 2.0 - _EDGE_TOL
    if not np.all(inside):
        bad = int(np.argmin(inside))
        raise OffBand(
            f"theta = {float(t[bad])!r} has |Delta| = {float(abs(delta[bad]))!r}"
            f" >= 2 - {_EDGE_TOL!r}"
        )
    with np.errstate(divide="ignore"):
        out = np.sqrt(_four_minus_delta_sq(delta, *entries)) / (2.0 * np.abs(h))
    if not np.all(np.isfinite(out)):
        raise DenominatorVanished("orthonormal phi_p is real at a band-interior point")
    return float(out[0]) if shape == () else out.reshape(shape)


# G7-K15 (Piessens et al., QUADPACK, 1983, qk15): the 15 Kronrod abscissae on
# [-1, 1] ascending, their weights, and the 7-point Gauss weights at the Gauss
# abscissae (every second node), zero elsewhere.
_XK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
])
_WK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
])
_WG = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
])
_GK_NODES = np.concatenate([-_XK, [0.0], _XK[::-1]])
_GK_KRONROD = np.concatenate([_WK, [0.209482141084727828012999174891714], _WK[::-1]])
_GK_GAUSS = np.zeros(15)
_GK_GAUSS[[1, 3, 5, 9, 11, 13]] = np.concatenate([_WG, _WG[::-1]])
_GK_GAUSS[7] = 0.417959183673469387755102040816327

# The rule refines until its summed error estimate is below _AC_TOL times
# 2 pi (ac_mass to _AC_TOL); the 50 eps floor of every panel sums to about
# 1.1e-14 of the integral.  A tighter tolerance mostly bisects the panels next
# to an edge with a candidate on it, where the rounding of the density grows
# as the nodes approach the edge: at 1e-13 the estimate fell short of the
# error on 12 of 600 period-two blocks with such edges, at 1e-12 on none.
_AC_TOL = 1e-12
# the panel budget per half-band; NoConvergence beyond
_PANELS_PER_HALF_BAND = 64


def _initial_panels(spectrum: PeriodicSpectrum):
    """The 2p half-bands in the square-root variable u, theta = edge + sign u^2,
    u in [0, sqrt(half width)], as panel arrays (edge, sign, lo, hi, on_edge).

    A candidate at distance delta outside an edge (a zero of h in the gap)
    makes the density about u^2 / (u^2 + delta) there, so that half-band is
    cut at sqrt(delta) 2^j, j = 0, 1, ..., and every panel sees that scale.  A
    candidate within the eigensolver's 64 p eps of the edge is on it (also at
    a closed gap): the density is the quotient of two vanishing factors there
    but regular in u, and on_edge marks the panel that touches the edge.
    """
    limit = 64.0 * spectrum.p * _EPS
    edges = np.array([(band.lo, band.hi) for band in spectrum.bands]).ravel()
    signs = np.tile([1.0, -1.0], spectrum.p)
    tops = np.repeat([math.sqrt(0.5 * (band.hi - band.lo)) for band in spectrum.bands], 2)
    cand = np.asarray(spectrum.candidate_thetas, dtype=float)
    gap_side = np.mod(signs[:, None] * (edges[:, None] - cand[None, :]), TWO_PI)
    deltas = np.min(gap_side, axis=1)
    on_edge = np.minimum(deltas, TWO_PI - np.max(gap_side, axis=1)) <= limit
    panels = []
    for edge, sign, top, delta, touch in zip(edges, signs, tops, deltas, on_edge):
        cuts = [0.0]
        if delta > limit:
            u = math.sqrt(delta)
            while u < top:
                cuts.append(u)
                u *= 2.0
        cuts.append(top)
        panels.extend(
            (edge, sign, lo, hi, touch and lo == 0.0) for lo, hi in zip(cuts[:-1], cuts[1:])
        )
    edge, sign, lo, hi, touch = zip(*panels)
    return np.array(edge), np.array(sign), np.array(lo), np.array(hi), np.array(touch)


def _gk15(alpha, edge, sign, lo, hi, on_edge):
    """G7-K15 over each panel [lo, hi] of u: the integral, the rule's error
    estimate, the rounding estimate, and whether rounding limits the panel.

    The integrand is 2 u w(edge + sign u^2), from one _floquet_entries pass;
    it is 0 where rounding makes 4 - Delta^2 negative at an edge or h vanish,
    the limit there.  h, from the start (1, 1), is also the imaginary part of
    E11 + E12, from the column starts, rounded differently; the Kronrod sum
    of |f| times the relative difference of the two is the rounding
    estimate, which is what limits the density next to a zero of h.

    The rule's error is QUADPACK's resasc min(1, (200 |K - G| / resasc)^1.5),
    at least 50 eps resabs.  That scaling assumes a smooth integrand, so it
    is dropped for the plain |K - G| where the panel touches an edge with a
    candidate on it (a 0/0 of the density) and where |K - G| is within the
    rounding estimate; the latter panels are rounding-limited.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    u = mid[:, None] + half[:, None] * _GK_NODES
    t = (edge[:, None] + sign[:, None] * u * u).ravel()
    delta, *entries, h = _floquet_entries(alpha, t)
    q = _four_minus_delta_sq(delta, *entries)
    size = np.abs(h)
    root = np.sqrt(np.maximum(q, 0.0))
    w = np.divide(root, 2.0 * size, out=np.zeros_like(size), where=size != 0.0)
    f = 2.0 * u * w.reshape(u.shape)
    if not np.all(np.isfinite(f)):
        bad = int(np.argmin(np.isfinite(f).ravel()))
        raise InternalInvariant(f"band density is {f.ravel()[bad]!r} at theta = {t[bad]!r}")
    other = (entries[0] + entries[1]).imag
    rel = np.divide(np.abs(h - other), size, out=np.zeros_like(size), where=size != 0.0)
    rounding = (np.abs(f) * rel.reshape(u.shape)) @ _GK_KRONROD * half
    kronrod = f @ _GK_KRONROD
    diff = np.abs(kronrod - f @ _GK_GAUSS) * half
    resabs = np.abs(f) @ _GK_KRONROD * half
    resasc = np.abs(f - 0.5 * kronrod[:, None]) @ _GK_KRONROD * half
    ratio = np.divide(200.0 * diff, resasc, out=np.ones_like(diff), where=resasc > 0.0)
    err = np.where(resasc > 0.0, resasc * np.minimum(1.0, ratio**1.5), diff)
    noisy = diff <= rounding
    err = np.where(noisy, diff, np.where(on_edge, np.maximum(err, diff), err))
    return kronrod * half, np.maximum(err, 50.0 * _EPS * resabs), rounding, noisy


def _ac_integral(alpha, spectrum: PeriodicSpectrum) -> tuple[float, float]:
    """Integral of w over all bands and its error estimate, by one adaptive
    G7-K15 rule over the panels of every half-band at once.

    Each round replaces every panel whose rule error exceeds an equal share
    of the tolerance by its two halves, until the summed rule error is below
    it.  Only the panels _gk15 marks noisy, whose |K - G| is within their
    rounding estimate, are never split.  The loop also ends when no panel may
    be split, and raises NoConvergence beyond _PANELS_PER_HALF_BAND panels per
    half-band.  The returned error is the rule's plus the rounding estimate,
    summed over the panels.
    """
    tol = _AC_TOL * TWO_PI
    cap = _PANELS_PER_HALF_BAND * 2 * spectrum.p
    edge, sign, lo, hi, on_edge = _initial_panels(spectrum)
    val, err, rounding, limited = _gk15(alpha, edge, sign, lo, hi, on_edge)
    while not float(np.sum(err)) <= tol:
        split = (err > tol / val.size) & ~limited
        n_split = int(np.count_nonzero(split))
        if n_split == 0:
            break
        if val.size + n_split > cap:
            raise NoConvergence(
                f"band integrals need more than {cap} panels; error {float(np.sum(err))!r}"
            )
        mid = 0.5 * (lo[split] + hi[split])
        halves = (
            np.tile(edge[split], 2),
            np.tile(sign[split], 2),
            np.concatenate([lo[split], mid]),
            np.concatenate([mid, hi[split]]),
            np.concatenate([on_edge[split], np.zeros(n_split, dtype=bool)]),
        )
        keep = ~split
        edge, sign, lo, hi, on_edge, val, err, rounding, limited = (
            np.concatenate([mine[keep], theirs])
            for mine, theirs in zip(
                (edge, sign, lo, hi, on_edge, val, err, rounding, limited),
                halves + _gk15(alpha, *halves),
            )
        )
    return float(np.sum(val)), float(np.sum(err) + np.sum(rounding))


def full_spectrum(alpha) -> PeriodicSpectrum:
    """Bands, gaps, candidates and confirmed pure points in one report; each
    point carries its mass's error bound, and point_error sums the bound over
    all p candidates, since mixed eigenvectors move mass onto clipped ones."""
    return _spectrum(_check_alpha(alpha))


def _spectrum(alpha) -> PeriodicSpectrum:
    """full_spectrum of a checked alpha, from the matrices of _matrices."""
    p = len(alpha)
    floquets, cmv = _matrices(alpha)
    thetas, masses, errors = _candidates(alpha, cmv)
    zs = np.exp(1j * thetas).tolist()
    thetas, errors = thetas.tolist(), errors.tolist()
    points = zip(zs, thetas, masses.tolist(), errors)
    return PeriodicSpectrum(
        p,
        *_bands(p, *_edges(alpha, floquets)),
        candidates=tuple(zs),
        candidate_thetas=tuple(thetas),
        pure_points=tuple(PurePoint(z, t, m, e) for z, t, m, e in points if m > 0.0),
        point_error=sum(errors),
    )


def normalization_report(alpha, spectrum: PeriodicSpectrum | None = None) -> dict:
    """Band integrals of w/(2 pi) plus point masses; total should be 1.

    ac_error is the summed error estimate of the band integrals over 2 pi, and
    point_error the spectrum's summed bound on the errors of the masses (see
    full_spectrum), so |total - 1| should be within ac_error + point_error.

    A given spectrum must be full_spectrum(alpha): one of another period
    raises InvalidParameters, and one of another block of the same period is
    the caller's responsibility.
    """
    alpha = _check_alpha(alpha)
    if spectrum is not None and spectrum.p != len(alpha):
        raise InvalidParameters(
            f"spectrum of period {spectrum.p} given for alpha of period {len(alpha)}"
        )
    if spectrum is None or not spectrum.candidates:
        spectrum = _spectrum(alpha)
    ac, ac_err = (x / TWO_PI for x in _ac_integral(alpha, spectrum))
    point = sum((pp.mass for pp in spectrum.pure_points), 0.0)
    return {"ac_mass": ac, "point_mass": point, "total": ac + point, "ac_error": ac_err,
            "point_error": spectrum.point_error}


# ------------------ periodicity of pairs ------------------ #


@dataclass(frozen=True)
class PeriodicityReport:
    ok: bool
    p: int
    checked: int
    arg_residual: float
    modulus_residual: float


def is_periodic_pair(pair: SequencePair, p: int) -> PeriodicityReport:
    """Test the (c, b) conditions equivalent to alpha_{n+p} = alpha_n.

    For every n with n + p + 1 <= stored length, compare

        sum_{j=n+1}^{n+p} arg((1 + i c_j)/(1 - i c_j))
            == arg((b_{n+1} - i c_{n+1})/(1 - i c_{n+1}))
             - arg((b_{n+p+1} - i c_{n+p+1})/(1 - i c_{n+p+1}))   (mod 2 pi)

    and the modulus condition (b^2 + c^2)/(1 + c^2) equal at n+1 and n+p+1;
    ok when both residuals are below 1e-10.
    When both compared numerators vanish (alpha = 0 there) the phase is
    unconstrained and only the modulus condition applies.
    """
    N = len(pair)
    p = _check_count(p, "p", 1, N - 1)
    c = np.asarray(pair.c, dtype=float)
    phase = np.angle((1.0 + 1j * c) / (1.0 - 1j * c))
    # window n sums phase[n..n+p-1]; a cumsum difference would lose about
    # N pi eps against the 1e-10 threshold on long pairs
    lhs = np.lib.stride_tricks.sliding_window_view(phase, p)[: N - p].sum(axis=1)
    z = (np.asarray(pair.b) - 1j * c) / (1.0 - 1j * c)
    z1, z2 = z[: N - p], z[p:]
    mod_res = float(np.max(np.abs(np.abs(z1) ** 2 - np.abs(z2) ** 2)))
    diff = np.angle(np.exp(1j * (lhs - (np.angle(z1) - np.angle(z2)))))
    # the phase is unconstrained where alpha = 0 at both ends
    free = (np.abs(z1) < 1e-14) & (np.abs(z2) < 1e-14)
    arg_res = float(np.max(np.abs(diff[~free]), initial=0.0))
    return PeriodicityReport(
        ok=(arg_res < _PERIODIC_TOL and mod_res < _PERIODIC_TOL),
        p=p,
        checked=N - p,
        arg_residual=arg_res,
        modulus_residual=mod_res,
    )


def parallel_lines_check(alpha) -> bool:
    """Even-period geometry: alpha_{2k} - 1 and alpha_{2k+1} + 1 parallel to 1e-9."""
    alpha = _check_alpha(alpha)
    p = len(alpha)
    if p % 2 != 0:
        raise HypothesisViolated(f"period {p} is odd; the line geometry needs even p")
    vecs = [alpha[2 * k] - 1.0 for k in range(p // 2)]
    vecs += [alpha[2 * k + 1] + 1.0 for k in range(p // 2)]
    ref = vecs[0]
    return all(
        abs(ref.real * v.imag - ref.imag * v.real) <= _PARALLEL_TOL for v in vecs[1:]
    )
