"""Zero ladders for the trigonometric family W_n.

W_n(x) = 2^{-n} e^{-i n theta/2} R_n(e^{i theta}) with x = cos(theta/2) has
exactly n simple zeros in (-1, 1), and consecutive levels interlace with +-1
as outer bounds.  Level k is read off the spectrum of the (k+1)x(k+1) unitary
CMV matrix of alpha_0..alpha_{k-1} closed with alpha_k = conj(tau_k) (see
cmv): one eigenvalue is z = 1, the other k are the zeros of R_k.  The ladder
drops the eigenvalue nearest z = 1, maps the rest to x = cos(theta/2), and
checks the interlacing of consecutive levels on its output.
support_gap_check tests the paper's zero-free interval on every level.
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


@dataclass(frozen=True)
class ZeroSet:
    """Zeros of W_n: theta ascending in (0, 2 pi), x = cos(theta/2) descending."""

    n: int
    x: np.ndarray
    theta: np.ndarray


def zero_ladder(pair: SequencePair, n: int) -> list[ZeroSet]:
    """ZeroSets for every level 1..n, each from the eigenvalues of a CMV matrix.

    Raises InternalInvariant, naming the level and the index, where two
    consecutive levels fail to interlace by more than 64 (k+1) eps; equality
    is allowed, since levels can share a zero to rounding.
    """
    vs = _verblunsky(pair, n)
    ladder: list[ZeroSet] = []
    for level in range(1, n + 1):
        zs = _level(vs, level)
        if ladder:
            _check_interlacing(ladder[-1].x[::-1], zs.x[::-1], level)
        ladder.append(zs)
    return ladder


def _verblunsky(pair: SequencePair, n: int) -> VerblunskySequence:
    if not 1 <= n <= len(pair):
        raise InvalidParameters(f"need 1 <= n <= {len(pair)}, got {n}")
    return pair_to_verblunsky(pair)


def _level(vs: VerblunskySequence, level: int) -> ZeroSet:
    """Level k of the ladder from the (k+1)x(k+1) CMV matrix closed by conj(tau_k)."""
    theta = para_orthogonal_angles(vs.alpha[:level], vs.tau[level].conjugate())
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
    return _level(_verblunsky(pair, n), n)


@dataclass(frozen=True)
class SupportGapReport:
    """Outcome of the excluded-interval check for alternating-sign c."""

    n: int
    c_floor: float
    x_excluded: tuple[float, float]
    theta_c: float
    margin: float
    observed_arcs: tuple[tuple[float, float], ...]  # heuristic theta hulls


def support_gap_check(pair: SequencePair, n: int) -> SupportGapReport:
    """Verify no zero enters the interval forced by c_k = (-1)^k c~_k, c~_k >= c > 0.

    The zeros then keep |x| >= c/sqrt(1 + c^2), equivalently the node angles
    stay within the two closed arcs ending at theta_c = arccos((c^2-1)/(c^2+1)).
    The uniform-sign magnitude floor c is inferred from the stored prefix; an
    all-zero c passes vacuously, a broken sign pattern raises
    HypothesisViolated, and a zero with |x| < g - 1e-12 raises GapViolated;
    margin is the least |x| - (g - 1e-12) over every level.
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
    ladder = zero_ladder(pair, n)
    margin = math.inf
    for zs in ladder:
        dist = np.abs(zs.x) - (g - _GAP_TOL)
        j = int(np.argmin(dist))
        if dist[j] < 0.0:
            raise GapViolated(zs.n, float(zs.x[j]), g)
        margin = min(margin, float(dist[j]))
    all_theta = np.sort(np.concatenate([zs.theta for zs in ladder]))
    arcs = []
    for cluster in (all_theta[all_theta <= math.pi], all_theta[all_theta > math.pi]):
        if cluster.size:
            arcs.append((float(cluster[0]), float(cluster[-1])))
    return SupportGapReport(
        n=n,
        c_floor=c_floor,
        x_excluded=(-g, g),
        theta_c=theta_c,
        margin=margin,
        observed_arcs=tuple(arcs),
    )
