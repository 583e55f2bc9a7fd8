"""Zero ladders for the trigonometric family W_n.

W_n(x) = 2^{-n} e^{-i n theta/2} R_n(e^{i theta}) with x = cos(theta/2) has
exactly n simple zeros in (-1, 1), and consecutive levels interlace with +-1
as outer bounds.  Level k is read off the spectrum of the (k+1)x(k+1) unitary
CMV matrix of alpha_0..alpha_{k-1} closed with alpha_k = conj(tau_k) (see
cmv): one eigenvalue is z = 1, the other k are the zeros of R_k.  The ladder
drops the eigenvalue nearest z = 1, maps the rest to x = cos(theta/2), and
checks the interlacing of consecutive levels on its output.  One pass of
Sturm counts (below) places the pole of every level's Cayley transform.

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

from .bijection import SequencePair, VerblunskySequence, pair_to_verblunsky
from .cmv import para_orthogonal_angles
from .errors import GapViolated, HypothesisViolated, InternalInvariant, InvalidParameters

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
    """ZeroSets for every level 1..n, each from the eigenvalues of a CMV matrix,
    with the poles of one _poles pass.

    Raises InternalInvariant, naming the level and the index, where two
    consecutive levels fail to interlace by more than 64 (k+1) eps; equality
    is allowed, since levels can share a zero to rounding.
    """
    vs = _verblunsky(pair, n)
    ladder: list[ZeroSet] = []
    for level, pole in enumerate(_poles(pair, n), start=1):
        zs = _level(vs, level, pole)
        if ladder:
            _check_interlacing(ladder[-1].x[::-1], zs.x[::-1], level)
        ladder.append(zs)
    return ladder


def _check_depth(pair: SequencePair, n: int) -> None:
    if not 1 <= n <= len(pair):
        raise InvalidParameters(f"need 1 <= n <= {len(pair)}, got {n}")


def _verblunsky(pair: SequencePair, n: int) -> VerblunskySequence:
    _check_depth(pair, n)
    return pair_to_verblunsky(pair)


def _level(vs: VerblunskySequence, level: int, pole: float) -> ZeroSet:
    """Level k of the ladder from the (k+1)x(k+1) CMV matrix closed by conj(tau_k)."""
    theta = para_orthogonal_angles(vs.alpha[:level], vs.tau[level].conjugate(), pole)
    return ZeroSet(n=level, x=np.cos(0.5 * theta), theta=theta)


def _check_interlacing(lower: np.ndarray, upper: np.ndarray, level: int) -> None:
    """upper[i] <= lower[i] <= upper[i+1] for ascending levels k - 1 and k."""
    slack = 64.0 * (level + 1) * _EPS
    below = ~(upper[:-1] <= lower + slack)
    above = ~(lower <= upper[1:] + slack)
    bad = np.flatnonzero(below | above)
    if bad.size:
        i = int(bad[0])
        raise InternalInvariant(
            f"levels {level - 1} and {level} do not interlace at index {i}: "
            f"x = {float(lower[i])!r} at level {level - 1} outside "
            f"[{float(upper[i])!r}, {float(upper[i + 1])!r}]"
        )


def w_zeros(pair: SequencePair, n: int) -> ZeroSet:
    """Level n of the ladder alone, without the levels below it."""
    vs = _verblunsky(pair, n)
    return _level(vs, n, _poles(pair, n)[-1])


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
    _check_depth(pair, n)
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

    Each round puts _WALK_POINTS points across every bracket, all walks in
    one array, and keeps the piece where the pattern first changes, until
    every bracket's ends are adjacent floats.  The first round evaluates the
    starts and the ends with its points.
    """
    w, rows = start.size, np.arange(start.size)
    frac = np.arange(1, _WALK_POINTS + 1) / (_WALK_POINTS + 1)
    lo, hi = start, end
    pts = lo[:, None] + (hi - lo)[:, None] * frac
    signs = _sign_pattern(c, d, np.concatenate([start, end, pts.ravel()]))
    ref = signs[:, :w, None]
    found = np.any(signs[:, w : 2 * w] != signs[:, :w], axis=0)
    signs = signs[:, 2 * w :]
    while True:
        changed = np.any(signs.reshape(c.size, w, -1) != ref, axis=0)
        j = np.argmax(changed, axis=1)
        hit = changed[rows, j]
        lo = np.where(hit, np.concatenate([lo[:, None], pts], axis=1)[rows, j], pts[:, -1])
        hi = np.where(found, np.where(hit, pts[rows, j], hi), lo)
        if not np.any(np.nextafter(lo, hi) != hi):
            return np.where(found, hi, np.nan)
        pts = lo[:, None] + (hi - lo)[:, None] * frac
        signs = _sign_pattern(c, d, pts.ravel())
