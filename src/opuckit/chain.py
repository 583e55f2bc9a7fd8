"""Positive chain sequences and their parameter sequences.

A prefix (d_1, ..., d_N) of positives is a positive chain sequence prefix when
it can be written d_n = (1 - g_{n-1}) g_n with g_0 in [0, 1) and g_n in (0, 1).
The minimal parameters take g_0 = 0 and are produced by forward iteration; the
maximal parameters are the pointwise largest admissible g.  They are recovered
by one backward pass over e_k = M_k - m_k >= 0, whose recurrence
e_{k-1} = (1 - m_{k-1}) e_k/(m_k + e_k) has only positive terms, seeded at
e_N = 1 - m_N or, with a periodic tail, at the fixed point of one period less
m_N.  A tail whose fixed point lies below m_N by more than its error is no
chain sequence.  M_0 equals the jump the associated measure places at z = 1,
and MaximalParameters.error bounds its error.  Without a tail that bound is
relative, a few roundings per step, and M_0 > 0 unless e underflows, so
is_determinate is False there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters, NotAChainSequence, NumericsError

__all__ = [
    "ChainSequence",
    "MaximalParameters",
    "minimal_parameters",
    "d_from_minimal",
    "maximal_parameters",
    "is_determinate",
]

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


def _check_finite(values, name: str, dtype=float) -> np.ndarray:
    """values as an array of dtype; InvalidParameters naming the first
    non-finite entry (NaN included), by its flat index unless values is a
    scalar."""
    a = np.asarray(values, dtype=dtype)
    finite = np.isfinite(a).ravel()
    if not finite.all():
        k = int(np.argmin(finite))
        entry = f"{name}[{k}]" if a.ndim else name
        raise InvalidParameters(f"{entry} = {a.ravel()[k].item()!r} is not finite")
    return a


def minimal_parameters(d) -> tuple[float, ...]:
    """Forward iteration m_0 = 0, m_n = d_n / (1 - m_{n-1}).

    To first order e_n = a_n e_{n-1} + 4 eps m_n, a_n = m_n / (1 - m_{n-1}),
    bounds the rounding in m_n.  An m_n that escapes [0, 1) by more than e_n
    raises NotAChainSequence, by less a NumericsError naming n and e_n.
    Non-positive or non-finite d entries raise InvalidParameters.
    """
    _check_finite(d, "d")
    m, e = [0.0], 0.0
    for n, dn in enumerate(d, start=1):
        if dn <= 0.0:
            raise InvalidParameters(f"d[{n - 1}] = {dn!r} must be positive")
        mn = dn / (1.0 - m[-1])
        e = mn / (1.0 - m[-1]) * e + 4.0 * _EPS * mn
        if not mn < 1.0:
            if mn - 1.0 < e:
                raise NumericsError(
                    f"m_{n} = {mn!r} left [0, 1) by less than its rounding bound "
                    f"e_{n} = {e!r}, so rounding may have pushed it out"
                )
            raise NotAChainSequence(n, mn)
        m.append(mn)
    return tuple(m)


def d_from_minimal(m) -> tuple[float, ...]:
    """Inverse of minimal_parameters: d_n = (1 - m_{n-1}) m_n.

    Requires m_0 = 0 and m_n in (0, 1) for n >= 1.
    """
    m = _check_finite(m, "m")
    if m.size == 0 or m[0] != 0.0:
        raise InvalidParameters("minimal parameters must start with m_0 = 0")
    inside = (m[1:] > 0.0) & (m[1:] < 1.0)
    if not inside.all():
        n = int(np.argmin(inside)) + 1
        raise InvalidParameters(f"m[{n}] = {float(m[n])!r} outside (0, 1)")
    return tuple(((1.0 - m[:-1]) * m[1:]).tolist())


@dataclass(frozen=True)
class ChainSequence:
    """A chain sequence prefix with its minimal parameters.

    d has length N and m, of length N + 1, must be its minimal parameters:
    m_0 = 0, m_n in (0, 1) and d_n = (1 - m_{n-1}) m_n to 4 eps (d_n + tiny),
    or InvalidParameters names n.  tail_period = p marks the convention
    d_{n+p} = d_n beyond the stored prefix; operations never assume data
    beyond prefix + tail.
    """

    d: tuple[float, ...]
    m: tuple[float, ...]
    tail_period: int | None = None

    def __post_init__(self):
        if len(self.m) != len(self.d) + 1:
            raise InvalidParameters(
                f"m has length {len(self.m)}, expected {len(self.d) + 1}"
            )
        want = np.array(d_from_minimal(self.m))
        d = np.asarray(self.d, dtype=float)
        off = ~(np.abs(d - want) <= 4.0 * _EPS * (want + _TINY))
        if off.any():
            n = int(np.argmax(off)) + 1
            raise InvalidParameters(
                f"d_{n} = {float(d[n - 1])!r} is not (1 - m_{n - 1}) m_{n} = "
                f"{float(want[n - 1])!r}: m are not the minimal parameters of d"
            )
        if self.tail_period is not None:
            p = self.tail_period
            if not (isinstance(p, int) and 1 <= p <= len(self.d)):
                raise InvalidParameters(
                    f"tail_period = {p!r} must be an integer in [1, {len(self.d)}]"
                )

    @classmethod
    def from_d(cls, d, tail_period: int | None = None) -> "ChainSequence":
        d = tuple(np.asarray(d, dtype=float).tolist())
        return cls(d=d, m=minimal_parameters(d), tail_period=tail_period)

    @classmethod
    def from_minimal(cls, m, tail_period: int | None = None) -> "ChainSequence":
        m = np.asarray(m, dtype=float)
        return cls(d=d_from_minimal(m), m=tuple(m.tolist()), tail_period=tail_period)

    def __len__(self) -> int:
        return len(self.d)


@dataclass(frozen=True)
class MaximalParameters:
    """Maximal parameters M[n] at indices n = 0..N.

    tail_depth is p, the one period of the tail whose fixed point seeds M_N,
    or 0 without a tail (M_N = 1).  error is a first-order bound on
    |M_0 - exact M_0| for the chain whose minimal parameters are m.
    """

    M: tuple[float, ...]
    tail_depth: int
    error: float


def _backward(d, M: float, top: int) -> tuple[float, float, float]:
    """M_{top-len(d)} of M_{k-1} = 1 - d_k/M_k from M_top = M, where
    d = (d_{top-len(d)+1}, ..., d_top).

    Also returns the slope dM_{top-len(d)}/dM_top = prod d_k/M_k^2 and a
    first-order bound on the rounding of the last iterate (each step rounds
    twice; later steps scale an error by d_k/M_k^2).  A non-positive M_k
    raises InvalidParameters: no chain sequence has it.
    """
    slope, noise = 1.0, 0.0
    for k, dk in zip(range(top, 0, -1), reversed(d)):
        if not M > 0.0:
            raise InvalidParameters(
                f"backward iterate M_{k} = {M!r} is not positive: d with its "
                "periodic tail is not a chain sequence"
            )
        q = dk / M
        ratio = q / M
        M = 1.0 - q
        slope *= ratio
        noise = noise * ratio + _EPS * (q + abs(M))
    return M, slope, noise


def _fixed_point(d, top: int) -> tuple[float, float]:
    """Largest fixed point of one period P of the backward map over
    d = (d_{top-p+1}, ..., d_top), applied last entry first, and its error.

    P is increasing and concave on (0, inf) with P(1) < 1, so Newton's method
    on g(M) = P(M) - M from M = 1 falls monotonically onto the largest root.
    It stops once g(M) >= 0, P'(M) >= 1 or a step no longer lowers M.  A step
    taken on rounding noise near a double root can overshoot past the peak of
    g, so the result is the last iterate with g(M) >= -2 r, r the rounding
    bound of P(M); with none, P has no fixed point: d is no chain sequence.
    The error is 2 r/(1 - P') at a simple root, and within sqrt(3 r/a) of a
    double root M*, g = -a (M - M*)^2, where |1 - P'| = 2 a |M - M*|; so
    6 r/max(|1 - P'|, eps) + eps M bounds both to first order.
    """
    M, found = 1.0, None
    while True:
        last, slope, noise = _backward(d, M, top)
        g = last - M
        if g >= -2.0 * noise:
            found = M, 6.0 * noise / max(abs(1.0 - slope), _EPS) + _EPS * M
        if g >= 0.0 or slope >= 1.0:
            break
        step = M - g / (slope - 1.0)
        if not step < M:
            break
        M = step
    if found is None:
        raise InvalidParameters(
            f"one period of the backward map has no fixed point: P(M) - M = "
            f"{g!r} at M_{top} = {M!r}, beyond its rounding {noise!r}; d with "
            "its periodic tail is not a chain sequence"
        )
    return found


def maximal_parameters(chain: ChainSequence) -> MaximalParameters:
    """M_k = m_k + e_k, where e_k = M_k - m_k >= 0 (maximal parameters
    dominate every parameter sequence) obeys the positive recurrence
    e_{k-1} = (1 - m_{k-1}) e_k/(m_k + e_k) of M_{k-1} = 1 - d_k/M_k, run
    once backward over the stored m: nothing cancels.

    Without a tail e_N = 1 - m_N.  With a tail of period p, M_N is the
    largest fixed point of the backward map over the last p d, the limit of
    backward iteration seeded at 1 ever further out, with error err (a few
    roundings of that period over 1 - P'(M_N), about sqrt(eps) where the two
    fixed points merge as d_n -> 1/4).  An M_N below m_N by more than err
    raises InvalidParameters; one within err of m_N gives e_N = 0, so M = m
    and M_0 = 0.0.  The ends of e_N's bracket [e_N - err, e_N + err], cut at
    0, pass through the same increasing map; error is their larger distance
    from M_0 plus (4N + 1) eps M_0, since each step rounds at most 4 times
    relative and e_k's relative sensitivity m_k/(m_k + e_k) is at most 1.
    """
    d, m, N, p = chain.d, chain.m, len(chain.d), chain.tail_period
    if p is None:
        e, err = 1.0 - m[N], 0.0
    else:
        M_N, err = _fixed_point(d[N - p :], N)
        e = M_N - m[N]
        if e < -err:
            raise InvalidParameters(
                f"M_{N} = {M_N!r} is below m_{N} = {m[N]!r} by more than its "
                f"error bound {err!r}: d with its periodic tail is not a chain sequence"
            )
        if abs(e) <= err:
            e = 0.0
    lo, hi = max(e - err, 0.0), e + err
    M = [m[N] + e]
    for mk, prev in zip(reversed(m[1:]), reversed(m[:-1])):
        f = 1.0 - prev
        e = f * e / (mk + e)
        lo = f * lo / (mk + lo)
        hi = f * hi / (mk + hi)
        M.append(prev + e)
    M.reverse()
    error = max(abs(M[0] - lo), abs(hi - M[0])) + (4 * N + 1) * _EPS * M[0]
    return MaximalParameters(M=tuple(M), tail_depth=p or 0, error=error)


def is_determinate(chain: ChainSequence, maximal: MaximalParameters) -> bool:
    """True when the maximal parameters are the minimal ones: by Wall's
    parametrisation of the parameter sequences by g_0 in [0, M_0] (Chihara,
    An Introduction to Orthogonal Polynomials (1978), ch. III), exactly when
    M_0 = 0.  maximal_parameters returns that for a tail whose fixed point
    lies within its error of m_N; without a tail M_0 > 0 unless e underflows.
    """
    return maximal.M[0] == 0.0
