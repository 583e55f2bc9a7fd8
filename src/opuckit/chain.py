"""Positive chain sequences and their parameter sequences.

A prefix (d_1, ..., d_N) of positives is a positive chain sequence prefix when
it can be written d_n = (1 - g_{n-1}) g_n with g_0 in [0, 1) and g_n in (0, 1).
The minimal parameters take g_0 = 0 and are produced by forward iteration; the
maximal parameters are the pointwise largest admissible g and are recovered by
backward iteration seeded at 1 beyond the stored data.  M_0 equals the jump the
associated measure places at z = 1, so "M_0 = 0" certifies no mass there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DivisionByZero,
    InvalidParameters,
    NoConvergence,
    NotAChainSequence,
)

__all__ = [
    "ChainSequence",
    "MaximalParameters",
    "minimal_parameters",
    "d_from_minimal",
    "maximal_parameters",
    "is_determinate",
]


def _check_finite(values, name: str) -> np.ndarray:
    """values as a float array; InvalidParameters naming the first
    non-finite entry (NaN included)."""
    a = np.asarray(values, dtype=float)
    finite = np.isfinite(a)
    if not finite.all():
        k = int(np.argmin(finite))
        raise InvalidParameters(f"{name}[{k}] = {float(a[k])!r} is not finite")
    return a


def minimal_parameters(d) -> tuple[float, ...]:
    """Forward iteration m_0 = 0, m_n = d_n / (1 - m_{n-1}).

    Raises NotAChainSequence at the first index where the parameter escapes
    [0, 1), and InvalidParameters for non-positive or non-finite d entries.
    """
    _check_finite(d, "d")
    m = [0.0]
    for n, dn in enumerate(d, start=1):
        if dn <= 0.0:
            raise InvalidParameters(f"d[{n - 1}] = {dn!r} must be positive")
        mn = dn / (1.0 - m[-1])
        if not 0.0 <= mn < 1.0:
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

    d has length N, m has length N + 1 with m[0] = 0.  tail_period = p marks
    the convention d_{n+p} = d_n beyond the stored prefix; operations never
    assume data beyond prefix + tail.
    """

    d: tuple[float, ...]
    m: tuple[float, ...]
    tail_period: int | None = None

    def __post_init__(self):
        if len(self.m) != len(self.d) + 1:
            raise InvalidParameters(
                f"m has length {len(self.m)}, expected {len(self.d) + 1}"
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

    def d_at(self, n: int) -> float:
        """d_n with 1-based index, extended through the periodic tail."""
        N = len(self.d)
        if 1 <= n <= N:
            return self.d[n - 1]
        if n < 1:
            raise InvalidParameters(f"index {n} out of range")
        if self.tail_period is None:
            raise InvalidParameters(
                f"index {n} beyond stored prefix of length {N} and no periodic tail"
            )
        p = self.tail_period
        return self.d[N - p + (n - N - 1) % p]


@dataclass(frozen=True)
class MaximalParameters:
    """Result of the truncated backward iteration.

    M[n] approximates the maximal parameter at index n (0..N); tail_depth is
    the extension depth at which successive doubling moved M[0] by < tol.
    """

    M: tuple[float, ...]
    tail_depth: int
    tol: float


def _backward_pass(chain: ChainSequence, depth: int) -> list[float]:
    N = len(chain)
    top = N + depth
    M = 1.0
    out = [0.0] * (N + 1)
    if top == N:
        out[N] = M
    for k in range(top, 0, -1):
        if M <= 0.0:
            raise DivisionByZero(
                f"backward iterate M_{k} = {M!r} is not positive; "
                "the extended d sequence is not a chain sequence"
            )
        M = 1.0 - chain.d_at(k) / M
        if k - 1 <= N:
            out[k - 1] = M
    return out


def maximal_parameters(
    chain: ChainSequence,
    tol: float = 1e-12,
    initial_depth: int = 64,
    max_depth: int = 2**21,
) -> MaximalParameters:
    """Maximal parameters by backward iteration seeded at 1 past the prefix.

    With a periodic tail the prefix is extended by `depth` periods' worth of
    entries and the depth doubles until M_0 moves by less than tol, up to
    max_depth (NoConvergence beyond).  Without a tail no extension is possible
    and the seed sits at the stored end (depth 0, single pass).

    Near-boundary chains (d_n -> 1/4) converge only like 1/depth, so a tol
    of 1e-12 is honestly unreachable there; pass a looser tol for such data.
    """
    if chain.tail_period is None:
        M = _backward_pass(chain, 0)
        return MaximalParameters(M=tuple(M), tail_depth=0, tol=tol)
    depth = max(1, initial_depth)
    prev = _backward_pass(chain, depth)
    while depth <= max_depth:
        depth *= 2
        cur = _backward_pass(chain, depth)
        if abs(cur[0] - prev[0]) < tol:
            return MaximalParameters(M=tuple(cur), tail_depth=depth, tol=tol)
        prev = cur
    raise NoConvergence(
        f"M_0 still moving by >= {tol!r} at extension depth {depth // 2}"
    )


def is_determinate(
    chain: ChainSequence, maximal: MaximalParameters, tol: float = 1e-8
) -> bool:
    """True when minimal and maximal parameters coincide within tol."""
    return max(abs(M - m) for M, m in zip(maximal.M, chain.m)) < tol
