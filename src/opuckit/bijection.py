"""Bijection between real sequence pairs and reflection coefficients.

A nontrivial probability measure on the unit circle is encoded either by its
Verblunsky coefficients alpha_n (all of modulus < 1) or by a pair of real
sequences: c_n arbitrary real and m_n the minimal parameters of a positive
chain sequence d_n.  The two directions are rational in the data once the
unimodular bookkeeping sequence tau_n is carried along:

    forward   tau_0 = 1,  alpha_{n-1} = conj(tau_{n-1}) (1 - 2 m_n - i c_n)/(1 - i c_n),
              tau_n = tau_{n-1} (1 - i c_n)/(1 + i c_n)
    backward  u = tau_{n-1} alpha_{n-1},
              c_n = -Im u / (1 - Re u),   m_n = |1 - u|^2 / (2 (1 - Re u)),
              tau_n = tau_{n-1} (1 - conj u)/(1 - u)

b_n = 1 - 2 m_n is the convenient companion of m_n in periodicity tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chain import ChainSequence, _check_finite, d_from_minimal
from .errors import DegenerateDenominator, InvalidParameters

__all__ = [
    "SequencePair",
    "VerblunskySequence",
    "make_pair",
    "tau_from_c",
    "pair_to_verblunsky",
    "verblunsky_to_pair",
]

# every running unimodular product in the package (here, transforms, periodic)
# is renormalized at this stride to stop drift
RENORM_EVERY = 64


@dataclass(frozen=True)
class SequencePair:
    """(c_1..c_N, chain sequence d_1..d_N with minimal parameters m_0..m_N)."""

    c: tuple[float, ...]
    chain: ChainSequence
    tail_period: int | None = None

    def __post_init__(self):
        if len(self.c) != len(self.chain.d):
            raise InvalidParameters(
                f"c has length {len(self.c)}, d has length {len(self.chain.d)}"
            )
        _check_finite(self.c, "c")
        if self.tail_period is not None:
            p = self.tail_period
            if not (isinstance(p, int) and 1 <= p <= len(self.c)):
                raise InvalidParameters(
                    f"tail_period = {p!r} must be an integer in [1, {len(self.c)}]"
                )

    def __len__(self) -> int:
        return len(self.c)

    @property
    def m(self) -> tuple[float, ...]:
        return self.chain.m

    @property
    def d(self) -> tuple[float, ...]:
        return self.chain.d

    @property
    def b(self) -> tuple[float, ...]:
        """b_n = 1 - 2 m_n for n = 1..N."""
        return tuple(1.0 - 2.0 * mn for mn in self.chain.m[1:])

    def c_at(self, n: int) -> float:
        """c_n with 1-based index, extended through the periodic tail."""
        N = len(self.c)
        if 1 <= n <= N:
            return self.c[n - 1]
        if n < 1 or self.tail_period is None:
            raise InvalidParameters(f"index {n} beyond stored prefix")
        p = self.tail_period
        return self.c[N - p + (n - N - 1) % p]


@dataclass(frozen=True)
class VerblunskySequence:
    """alpha_0..alpha_{N-1} with the accompanying tau_0..tau_N."""

    alpha: tuple[complex, ...]
    tau: tuple[complex, ...]
    tail_period: int | None = None

    def __post_init__(self):
        if len(self.tau) != len(self.alpha) + 1:
            raise InvalidParameters(
                f"tau has length {len(self.tau)}, expected {len(self.alpha) + 1}"
            )

    def __len__(self) -> int:
        return len(self.alpha)


def make_pair(c, m=None, d=None, tail_period: int | None = None) -> SequencePair:
    """Build a SequencePair from c plus exactly one of m (minimal) or d."""
    if (m is None) == (d is None):
        raise InvalidParameters("provide exactly one of m or d")
    if m is not None:
        chain = ChainSequence.from_minimal([float(v) for v in m], tail_period)
    else:
        chain = ChainSequence.from_d([float(v) for v in d], tail_period)
    return SequencePair(
        c=tuple(float(v) for v in c), chain=chain, tail_period=tail_period
    )


def tau_from_c(c) -> tuple[complex, ...]:
    """tau_0 = 1, tau_n = tau_{n-1} (1 - i c_n)/(1 + i c_n); all unimodular."""
    tau = [1.0 + 0.0j]
    t = 1.0 + 0.0j
    for n, cn in enumerate(c, start=1):
        t = t * ((1.0 - 1j * cn) / (1.0 + 1j * cn))
        if n % RENORM_EVERY == 0:
            t /= abs(t)
        tau.append(t)
    return tuple(tau)


def pair_to_verblunsky(pair: SequencePair) -> VerblunskySequence:
    """Forward direction of the bijection; |alpha_n| < 1 is automatic."""
    alpha: list[complex] = []
    tau = [1.0 + 0.0j]
    t = 1.0 + 0.0j
    for n in range(1, len(pair) + 1):
        cn = pair.c[n - 1]
        mn = pair.m[n]
        alpha.append(t.conjugate() * (1.0 - 2.0 * mn - 1j * cn) / (1.0 - 1j * cn))
        t = t * ((1.0 - 1j * cn) / (1.0 + 1j * cn))
        if n % RENORM_EVERY == 0:
            t /= abs(t)
        tau.append(t)
    return VerblunskySequence(alpha=tuple(alpha), tau=tuple(tau))


def verblunsky_to_pair(alpha) -> SequencePair:
    """Backward direction; recovers (c, m) and rebuilds d from m."""
    alpha = tuple(complex(a) for a in alpha)
    for k, a in enumerate(alpha):
        if not abs(a) < 1.0:
            raise InvalidParameters(f"alpha[{k}] = {a!r} must have modulus < 1")
    c: list[float] = []
    m: list[float] = [0.0]
    t = 1.0 + 0.0j
    for n, a in enumerate(alpha, start=1):
        u = t * a
        denom = 1.0 - u.real
        if denom <= 1e-15:
            raise DegenerateDenominator(
                f"1 - Re(tau_{n - 1} alpha_{n - 1}) = {denom!r} at index {n - 1}"
            )
        c.append(-u.imag / denom)
        m.append(0.5 * abs(1.0 - u) ** 2 / denom)
        t = t * ((1.0 - u.conjugate()) / (1.0 - u))
        if n % RENORM_EVERY == 0:
            t /= abs(t)
    chain = ChainSequence(d=d_from_minimal(m), m=tuple(m))
    return SequencePair(c=tuple(c), chain=chain)
