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

The forward map is array work: tau is a cumulative product of the factors
(1 - i c_n)/(1 + i c_n), taken one RENORM_EVERY block at a time, and the last
tau of each full block is divided by its modulus before it seeds the next
block, which keeps |tau_n| - 1 at rounding level however long the sequence.
That product, running_product, also gives the rotations of transforms.py.
The backward map is sequential in tau, so only its recurrence is a loop; the
checks and c, m, d and b are array expressions.

A pair whose 1 - |alpha_{n-1}|^2 = 4 m_n (1 - m_n)/(1 + c_n^2) is below eps
is rejected at construction: alpha_{n-1} would round onto the unit circle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SequencePair:
    """(c_1..c_N, chain sequence d_1..d_N with minimal parameters m_0..m_N)."""

    c: tuple[float, ...]
    chain: ChainSequence

    def __post_init__(self):
        if len(self.c) != len(self.chain.d):
            raise InvalidParameters(
                f"c has length {len(self.c)}, d has length {len(self.chain.d)}"
            )
        c = _check_finite(self.c, "c")
        m = np.asarray(self.chain.m[1:], dtype=float)
        # dividing twice by hypot(1, c) cannot overflow, unlike 1 + c^2
        h = np.hypot(1.0, c)
        inside = 4.0 * m * (1.0 - m) / h / h >= _EPS
        if not inside.all():
            n = int(np.argmin(inside)) + 1
            raise InvalidParameters(
                f"1 - |alpha_{n - 1}|^2 = 4 m_n (1 - m_n)/(1 + c_n^2) is below eps "
                f"at n = {n} (c_n = {float(c[n - 1])!r}, m_n = {float(m[n - 1])!r}): "
                f"alpha_{n - 1} would round onto the unit circle"
            )

    def __len__(self) -> int:
        return len(self.c)

    @property
    def tail_period(self) -> int | None:
        return self.chain.tail_period

    @property
    def m(self) -> tuple[float, ...]:
        return self.chain.m

    @property
    def d(self) -> tuple[float, ...]:
        return self.chain.d

    @property
    def b(self) -> tuple[float, ...]:
        """b_n = 1 - 2 m_n for n = 1..N."""
        return tuple((1.0 - 2.0 * np.asarray(self.chain.m[1:])).tolist())


@dataclass(frozen=True)
class VerblunskySequence:
    """alpha_0..alpha_{N-1} with the accompanying tau_0..tau_N."""

    alpha: tuple[complex, ...]
    tau: tuple[complex, ...]

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
        chain = ChainSequence.from_minimal(m, tail_period)
    else:
        chain = ChainSequence.from_d(d, tail_period)
    return SequencePair(c=tuple(np.asarray(c, dtype=float).tolist()), chain=chain)


def running_product(step: np.ndarray) -> np.ndarray:
    """1, step_1, step_1 step_2, ... for unimodular factors, a cumulative
    product per RENORM_EVERY block whose last entry is divided by its modulus
    before it seeds the next block."""
    out = np.empty(step.size + 1, dtype=complex)
    out[0] = t = 1.0
    for s in range(0, step.size, RENORM_EVERY):
        block = t * np.cumprod(step[s : s + RENORM_EVERY])
        if block.size == RENORM_EVERY:
            block[-1] /= abs(block[-1])
        out[s + 1 : s + 1 + block.size] = block
        t = block[-1]
    return out


def _tau(c: np.ndarray) -> np.ndarray:
    """tau_0..tau_N for c_1..c_N."""
    return running_product((1.0 - 1j * c) / (1.0 + 1j * c))


def tau_from_c(c) -> tuple[complex, ...]:
    """tau_0 = 1, tau_n = tau_{n-1} (1 - i c_n)/(1 + i c_n); all unimodular."""
    return tuple(_tau(_check_finite(c, "c")).tolist())


def _alpha_tau(c, m) -> tuple[list[complex], list[complex]]:
    """alpha_0..alpha_{N-1} and tau_0..tau_N for c_1..c_N and m_1..m_N.

    tau_k depends on c_1..c_k alone, and running_product's blocks start at
    index 0 whatever N is, so a prefix of (c, m) gives a bit-identical prefix
    of both: callers that need n terms pass c[:n] and m[1:n+1].
    """
    c = np.asarray(c, dtype=float)
    tau = _tau(c)
    alpha = np.conj(tau[:-1]) * (1.0 - 2.0 * np.asarray(m, dtype=float) - 1j * c) / (1.0 - 1j * c)
    return alpha.tolist(), tau.tolist()


def pair_to_verblunsky(pair: SequencePair) -> VerblunskySequence:
    """Forward direction of the bijection; |alpha_n| < 1 is automatic."""
    alpha, tau = _alpha_tau(pair.c, pair.m[1:])
    return VerblunskySequence(alpha=tuple(alpha), tau=tuple(tau))


def _alpha_in_disc(alpha) -> np.ndarray:
    """alpha as a flat complex array; InvalidParameters unless every
    |alpha_k| < 1 (NaN included)."""
    a = np.asarray(alpha, dtype=complex).reshape(-1)
    inside = np.abs(a) < 1.0
    if not inside.all():
        k = int(np.argmin(inside))
        raise InvalidParameters(f"alpha[{k}] = {complex(a[k])!r} must have modulus < 1")
    return a


def verblunsky_to_pair(alpha) -> SequencePair:
    """Backward direction; recovers (c, m) and rebuilds d from m."""
    a = _alpha_in_disc(alpha)
    u = []  # u_n = tau_{n-1} alpha_{n-1}
    t = 1.0 + 0.0j
    for n, an in enumerate(a.tolist(), start=1):
        un = t * an
        denom = 1.0 - un.real
        if denom <= 1e-15:
            raise DegenerateDenominator(
                f"1 - Re(tau_{n - 1} alpha_{n - 1}) = {denom!r} at index {n - 1}"
            )
        u.append(un)
        t = t * ((1.0 - un.conjugate()) / (1.0 - un))
        if n % RENORM_EVERY == 0:
            t /= abs(t)
    u = np.array(u, dtype=complex)
    denom = 1.0 - u.real
    c = -u.imag / denom
    # |1 - u| by the libm hypot, as Python's abs(complex) takes it
    m = np.concatenate(([0.0], 0.5 * np.hypot(denom, u.imag) ** 2 / denom))
    chain = ChainSequence(d=d_from_minimal(m), m=tuple(m.tolist()))
    return SequencePair(c=tuple(c.tolist()), chain=chain)
