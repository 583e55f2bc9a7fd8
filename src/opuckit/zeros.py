"""Zero ladders for the trigonometric family W_n.

W_n(x) = 2^{-n} e^{-i n theta/2} R_n(e^{i theta}) with x = cos(theta/2) has
exactly n simple zeros in (-1, 1), and consecutive levels interlace with +-1
as outer bounds.  Level k is read off the spectrum of the (k+1)x(k+1) unitary
CMV matrix of alpha_0..alpha_{k-1} closed with alpha_k = conj(tau_k) (see
cmv): one eigenvalue is z = 1, the other k are the zeros of R_k.  The ladder
factors one CMV matrix U = L M of alpha_0..alpha_{n-1} and takes level k as
its leading (k+1)x(k+1) block with line k replaced: column k for odd k, row
k for even k, tau_k (rho_{k-1}, -alpha_{k-1}) at k - 1, k.  Each level then
costs one inverse and one eigvalsh of its Cayley transform (eigh for the
weights of psi_n, see measure); the angles, the sort, the drop of the
eigenvalue nearest z = 1, x = cos(theta/2) and the interlacing check of
consecutive levels run once over all levels.  One pass of Sturm counts
(below) places the pole of every level's Cayley transform.

support_gap_check tests the paper's zero-free interval on every level
without the ladder: the three-term recurrence of W_n gives a Sturm sign
pattern at any point in O(n) (Wilkinson, The Algebraic Eigenvalue Problem,
1965, ch. 5), with IEEE infinities in place of a pivot guard for a zero
pivot (Marques, Riedy and Voemel, SIAM J. Sci. Comput. 28, 2006), and
bisection in theta on those patterns finds the zeros nearest the gap and the
ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bijection import SequencePair, _alpha_tau
from .cmv import _cmv, cayley_angles, cayley_level, nearest_one
from .errors import GapViolated, HypothesisViolated, InternalInvariant, _check_count

__all__ = ["ZeroSet", "SupportGapReport", "zero_ladder", "w_zeros", "support_gap_check"]

_EPS = float(np.finfo(float).eps)
# support_gap_check admits zeros down to |x| = g - _GAP_TOL: with constant
# c~ and m = 1/2 the extreme zeros sit on +-g to rounding
_GAP_TOL = 1e-12
# points each walk of support_gap_check puts across its bracket per round
_WALK_POINTS = 63


@dataclass(frozen=True)
class ZeroSet:
    """Zeros of W_n: theta ascending in (0, 2 pi), x = cos(theta/2) descending."""

    n: int
    x: np.ndarray
    theta: np.ndarray


def zero_ladder(pair: SequencePair, n: int) -> list[ZeroSet]:
    """ZeroSets for every level 1..n, from one CMV matrix of alpha_0..alpha_{n-1}
    and the poles of one _poles pass (see _levels).

    Raises InternalInvariant, naming the level and the index, where two
    consecutive levels fail to interlace by more than 64 (k+1) eps; equality
    is allowed, since levels can share a zero to rounding.
    """
    n = _check_count(n, "n", 1, len(pair))
    theta, x = _levels(pair, n, 1)
    _check_interlacing(x, n)
    cuts = np.cumsum(np.arange(1, n))
    return [
        ZeroSet(n=k, x=xk, theta=tk)
        for k, xk, tk in zip(range(1, n + 1), np.split(x, cuts), np.split(theta, cuts))
    ]


def w_zeros(pair: SequencePair, n: int) -> ZeroSet:
    """Level n of the ladder alone, without the levels below it."""
    n = _check_count(n, "n", 1, len(pair))
    theta, x = _levels(pair, n, n)
    return ZeroSet(n=n, x=x, theta=theta)


def _levels(pair: SequencePair, n: int, first: int, weights: bool = False):
    """theta and x = cos(theta/2) of levels first..n one after the other,
    each level's angles ascending.  With weights, also the Gauss-Szego
    weights |Q[0, j]|^2 of those angles, then those of z = 1, one per level.

    Each level is one cayley_level step on the slices of a single CMV matrix;
    the angles, the sort and the drop of the eigenvalue nearest z = 1 then
    run once over all levels.  The caller checks n.
    """
    alpha, tau = _alpha_tau(pair.c[:n], pair.m[1 : n + 1])
    u = _cmv(alpha, tau[n].conjugate())
    poles = _poles(pair, n)[first - 1 :]
    levels = np.arange(first, n + 1)
    h, q = zip(*[
        cayley_level(u, k, alpha[k - 1], tau[k], pole, weights)
        for k, pole in zip(levels.tolist(), poles.tolist())
    ])
    size = levels + 1
    level = np.repeat(levels, size)
    theta = cayley_angles(np.concatenate(h), np.repeat(poles, size))
    order = np.lexsort((theta, level))
    theta = theta[order]
    last = np.cumsum(size) - 1
    one = nearest_one(theta, last - levels, last)
    theta = np.delete(theta, one)
    x = np.cos(0.5 * theta)
    if not weights:
        return theta, x
    w = np.abs(np.concatenate(q)[order]) ** 2
    return theta, x, np.delete(w, one), w[one]


def _check_interlacing(x: np.ndarray, n: int) -> None:
    """x_k[j + 1] <= x_{k-1}[j] <= x_k[j] for levels k = 2..n, each
    descending in x one after the other; index i = k - 2 - j counts in
    ascending x."""
    k = np.repeat(np.arange(2, n + 1), np.arange(1, n))
    q = np.arange(k.size)
    lower, hi, lo = x[: k.size], x[q + k - 1], x[q + k]
    slack = 64.0 * (k + 1) * _EPS
    bad = np.flatnonzero(~(lo <= lower + slack) | ~(lower <= hi + slack))
    if bad.size:
        level = int(k[bad[0]])
        b = int(bad[k[bad] == level][-1])
        i = level - 2 - (b - (level - 1) * (level - 2) // 2)
        raise InternalInvariant(
            f"levels {level - 1} and {level} do not interlace at index {i}: "
            f"x = {float(lower[b])!r} at level {level - 1} outside "
            f"[{float(lo[b])!r}, {float(hi[b])!r}]"
        )


def _poles(pair: SequencePair, n: int) -> np.ndarray:
    """For each level k = 1..n, an angle at least pi/(4(n+1)) from every
    eigenvalue of its CMV matrix: the pole of its Cayley transform (cmv).

    One _sign_pattern pass over the G - 1 interior angles 2 pi j/G,
    G = 4(n+1), counts by a cumsum over levels N_k, the number of level-k
    zeros in (x, 1]: r_j(1) = 1 - m_j > 0, and by interlacing N_k - N_{k-1}
    is 0 or 1.  The pole of level k is the centre of the longest run of grid
    cells over which N_k does not change, leaving out the two cells next to
    theta = 0, since z = 1 is an eigenvalue.  Each of the k <= n zeros
    changes N_k over one cell, so runs exist, and a run of L cells keeps its
    centre L pi/G >= pi/(4(n+1)) from every eigenvalue.  The Cayley transform
    with that pole has ||H|| <= cot(pi/(8(n+1))), about 2.5 (n+1).
    """
    grid = 4 * (n + 1)
    theta = 2.0 * math.pi * np.arange(1, grid) / grid
    counts = np.cumsum(_sign_pattern(np.asarray(pair.c[:n], dtype=float), pair.d[:n], theta), axis=0)
    # cell j + 1 lies between theta[j] and theta[j + 1]; run[k, j] is the
    # number of unchanged cells of level k + 1 that end with it
    changed = counts[:, 1:] != counts[:, :-1]
    cells = np.arange(changed.shape[1])
    run = cells - np.maximum.accumulate(np.where(changed, cells, -1), axis=1)
    end = np.argmax(run, axis=1)
    length = run[np.arange(n), end]
    return 2.0 * math.pi * (end + 2 - 0.5 * length) / grid


@dataclass(frozen=True)
class SupportGapReport:
    """Outcome of the excluded-interval check for alternating-sign c."""

    n: int
    c_floor: float
    x_excluded: tuple[float, float]
    theta_c: float
    margin: float
    # per side of z = -1, the angles of the outermost and innermost zeros over
    # every level: (theta <= pi) first, then (theta > pi); a side with no
    # zero is left out
    observed_arcs: tuple[tuple[float, float], ...]


def support_gap_check(pair: SequencePair, n: int) -> SupportGapReport:
    """Verify no zero enters the interval forced by c_k = (-1)^k c~_k, c~_k >= c > 0.

    The zeros then keep |x| >= c/sqrt(1 + c^2), equivalently the node angles
    stay within the two closed arcs ending at theta_c = arccos((c^2-1)/(c^2+1)).
    The uniform-sign magnitude floor c is inferred from the stored prefix; an
    all-zero c passes vacuously, a broken sign pattern raises
    HypothesisViolated, and a zero with |x| < g' = g - 1e-12 raises
    GapViolated; margin is the least |x| - g' over every level.

    No eigenvalue is computed.  W_k = r_1 ... r_k for the ratios of
    _sign_pattern, so by interlacing no level 1..n has a zero between two
    points exactly when their sign patterns agree, and the lowest level whose
    sign differs has one zero there.  Equal patterns at x = +-g' certify the
    gap; otherwise GapViolated names that level and its zero.  Four walks in
    theta, each to the first angle whose pattern differs from its start (up
    from 0, down from 2 pi, down from x = g' and up from x = -g', or both
    inner ones from just past pi when g' <= 0), give the extreme zeros over
    every level to the adjacent float: the margin and the arcs.  Each costs
    O(n) per point.
    """
    n = _check_count(n, "n", 1, len(pair))
    tilde = [(-1.0) ** k * ck for k, ck in enumerate(pair.c[:n], start=1)]
    if all(t == 0.0 for t in tilde):
        c_floor = 0.0
    elif all(t > 0.0 for t in tilde):
        c_floor = min(tilde)
    elif all(t < 0.0 for t in tilde):
        c_floor = min(-t for t in tilde)
    else:
        raise HypothesisViolated(
            "c is not alternating with a uniform sign: "
            f"(-1)^k c_k = {tuple(round(t, 6) for t in tilde)}"
        )
    g = c_floor / math.sqrt(1.0 + c_floor * c_floor)
    theta_c = math.acos((c_floor**2 - 1.0) / (c_floor**2 + 1.0))
    c = np.asarray(pair.c[:n], dtype=float)
    d = pair.d[:n]
    g_tol = g - _GAP_TOL
    two_pi = 2.0 * math.pi
    if g_tol > 0.0:
        inner = 2.0 * np.arccos([g_tol, -g_tol])
        signs = _sign_pattern(c, d, inner)
        differ = np.flatnonzero(signs[:, 0] != signs[:, 1])
        if differ.size:
            k = int(differ[0]) + 1
            theta = _walks(c[:k], d[:k], inner[1:], inner[:1])[0]
            raise GapViolated(k, math.cos(0.5 * theta), g)
    else:
        # the pattern just past pi, so that a zero at x = 0 (theta = pi)
        # joins the first arc, whose angles are <= pi
        inner = np.full(2, np.nextafter(math.pi, two_pi))
    # interlacing puts the extreme zeros of every level on level n; the inner
    # walks find the zeros nearest the gap on whichever levels hold them
    top, bottom, upper, lower = _walks(
        c, d, np.array([0.0, two_pi, inner[0], inner[1]]), np.array([two_pi, 0.0, 0.0, two_pi])
    ).tolist()
    arcs, nearest = [], []
    if not math.isnan(upper):
        arcs.append((top, upper))
        nearest.append(math.cos(0.5 * upper))
    if not math.isnan(lower):
        arcs.append((lower, bottom))
        nearest.append(-math.cos(0.5 * lower))
    return SupportGapReport(
        n=n,
        c_floor=c_floor,
        x_excluded=(-g, g),
        theta_c=theta_c,
        margin=min(nearest) - g_tol,
        observed_arcs=tuple(arcs),
    )


def _sign_pattern(c: np.ndarray, d: tuple[float, ...], theta: np.ndarray) -> np.ndarray:
    """np.signbit of r_k = W_k(x)/W_{k-1}(x), k = 1..n, as an (n, P) array,
    at the angles theta in [0, 2 pi].

    r_1 = x - c_1 s and r_{k+1} = (x - c_{k+1} s) - d_{k+1}/r_k, with
    x = cos(theta/2) and s = sin(theta/2).  A zero pivot r_k = +-0 makes the
    next one -+inf and the one after that finite again, the one-sided limit
    on the side the zero's sign picks; a subnormal pivot overflows the same
    way.
    """
    x, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
    r = x - np.multiply.outer(c, s)
    with np.errstate(divide="ignore", over="ignore"):
        for prev, row, dk in zip(r, r[1:], d[1:]):
            row -= dk / prev
    return np.signbit(r)


def _walks(c: np.ndarray, d: tuple[float, ...], start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """For each start angle, the first angle towards its end whose sign
    pattern differs from the start's: the nearest zero of any level 1..n, to
    the float next to it.  NaN where end's pattern is the start's, so that no
    level has a zero between them.

    Each round puts _WALK_POINTS points across the bracket of every walk
    still open, all in one array, and keeps the piece where the pattern first
    changes; a walk closes once its bracket's ends are adjacent floats.  The
    first round evaluates the starts and the ends with its points.
    """
    w = start.size
    frac = np.arange(1, _WALK_POINTS + 1) / (_WALK_POINTS + 1)
    lo, hi = start, end
    pts = lo[:, None] + (hi - lo)[:, None] * frac
    signs = _sign_pattern(c, d, np.concatenate([start, end, pts.ravel()]))
    ref = signs[:, :w, None]
    found = np.any(signs[:, w : 2 * w] != signs[:, :w], axis=0)
    signs = signs[:, 2 * w :]
    out = np.full(w, np.nan)
    walks = np.arange(w)
    while True:
        changed = np.any(signs.reshape(c.size, walks.size, -1) != ref, axis=0)
        j = np.argmax(changed, axis=1)
        rows = np.arange(walks.size)
        hit = changed[rows, j]
        lo = np.where(hit, np.concatenate([lo[:, None], pts], axis=1)[rows, j], pts[:, -1])
        hi = np.where(found, np.where(hit, pts[rows, j], hi), lo)
        still = np.nextafter(lo, hi) != hi
        if not still.all():
            done = ~still & found
            out[walks[done]] = hi[done]
            if not still.any():
                return out
            walks, lo, hi, found, ref = walks[still], lo[still], hi[still], found[still], ref[:, still]
        pts = lo[:, None] + (hi - lo)[:, None] * frac
        signs = _sign_pattern(c, d, pts.ravel())
