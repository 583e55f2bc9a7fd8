"""Recurrences for the orthogonal and para-orthogonal polynomial families.

Three families share the data of a sequence pair (c_n, d_n) / its reflection
coefficients alpha_n:

  * monic Szego polynomials phi_n and reversed phi_n* on the circle, as
    coefficients only (szego_coeffs); their values come from the one value
    loop of the Szego recurrence, periodic._szego,
  * the self-inversive family R_n and its companion Q_n,
        R_{n+1} = [(1 + i c_{n+1}) z + (1 - i c_{n+1})] R_n - 4 d_{n+1} z R_{n-1}
    with R_0 = 1, R_1 = (1 + i c_1) z + (1 - i c_1); Q_n obeys the same
    recurrence from Q_0 = 0, Q_1 = 2 d_1 and has degree n - 1,
  * the real trigonometric form W_n(x) = 2^{-n} e^{-i n theta/2} R_n(e^{i theta})
    with x = cos(theta/2), satisfying
        W_{n+1} = (x - c_{n+1} sqrt(1 - x^2)) W_n - d_{n+1} W_{n-1}.

Each family's coefficient levels 0..n come from one pass of its recurrence,
so a table of every level costs what the last level does.  R_n and W_n values
come from one loop that rescales by powers of two every few steps with a
shared exponent accumulator, so they stay finite where the coefficients
overflow.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass

import numpy as np

from .bijection import SequencePair
from .errors import InvalidParameters, NumericsError, _check_count, _check_disc, _check_finite

__all__ = [
    "PolyCoeffs",
    "RQValues",
    "kappa_from_alpha",
    "szego_coeffs",
    "r_coeffs",
    "q_coeffs",
    "self_inversive_defect",
    "rq_eval",
    "w_eval",
    "w_eval_scaled",
]

# rescale cadence/threshold of the value loop
_RESCALE_EVERY = 8
_RESCALE_LIMIT = 2.0**400

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def kappa_from_alpha(alpha) -> float:
    """Leading coefficient kappa_n of the orthonormal Szego polynomial.

    InvalidParameters for a coefficient of modulus >= 1 (or NaN);
    NumericsError, naming the index, when the product of the 1/rho_j passes
    the largest float.
    """
    acc = 0.0
    for k, a in enumerate(_check_disc(alpha).tolist()):
        acc -= 0.5 * math.log1p(-abs(a) ** 2)
        if acc > _LOG_FLOAT_MAX:
            raise NumericsError(
                f"kappa overflows at alpha[{k}] = {a!r}: log kappa_{k + 1} = {acc!r}"
            )
    return math.exp(acc)


def szego_coeffs(alpha) -> tuple[np.ndarray, np.ndarray]:
    """Ascending coefficient arrays of monic phi_n and phi_n*; InvalidParameters
    names the first alpha of modulus >= 1 (or NaN)."""
    alpha = _check_disc(alpha)
    phi = np.array([1.0 + 0.0j])
    star = np.array([1.0 + 0.0j])
    for a in alpha:
        zphi = np.concatenate([[0.0j], phi])
        phi = zphi - np.conj(a) * np.concatenate([star, [0.0j]])
        star = np.concatenate([star, [0.0j]]) - a * zphi
    return phi, star


@dataclass(frozen=True)
class PolyCoeffs:
    """Explicit ascending coefficients of one family member."""

    coeffs: np.ndarray
    family: str  # "R" | "Q"
    n: int


def self_inversive_defect(coeffs: np.ndarray) -> float:
    """max_k |r_k - conj(r_{n-k})|; zero for a self-inversive polynomial."""
    return float(np.max(np.abs(coeffs - np.conj(coeffs[::-1]))))


def _rq_levels(pair: SequencePair, n: int, family: str):
    """Coefficient arrays of R_k (family "R") or Q_k ("Q") for k = 0..n, one
    pass of the three-term recurrence; level k is a new array.  Q_0 is [0].
    The caller checks n."""
    is_r = family == "R"
    prev = np.array([1.0 + 0.0j if is_r else 0.0j])
    yield prev
    if n:
        c1 = pair.c[0]
        cur = np.array([1.0 - 1j * c1, 1.0 + 1j * c1] if is_r else [2.0 * pair.d[0] + 0.0j])
        yield cur
    for k in range(2, n + 1):
        ck, dk = pair.c[k - 1], pair.d[k - 1]
        shifted = np.concatenate([[0.0j], cur])
        nxt = (1.0 + 1j * ck) * shifted + (1.0 - 1j * ck) * np.concatenate([cur, [0.0j]])
        nxt[: len(prev) + 1] -= 4.0 * dk * np.concatenate([[0.0j], prev])
        prev, cur = cur, nxt
        yield cur


def r_coeffs(pair: SequencePair, n: int) -> PolyCoeffs:
    """Coefficients of R_n (degree n, self-inversive, leading prod(1 + i c_j))."""
    n = _check_count(n, "n", 0, len(pair))
    return PolyCoeffs(coeffs=deque(_rq_levels(pair, n, "R"), maxlen=1)[0], family="R", n=n)


def q_coeffs(pair: SequencePair, n: int) -> PolyCoeffs:
    """Coefficients of Q_n (degree n - 1)."""
    n = _check_count(n, "n", 0, len(pair))
    return PolyCoeffs(coeffs=deque(_rq_levels(pair, n, "Q"), maxlen=1)[0], family="Q", n=n)


@dataclass(frozen=True)
class RQValues:
    """Scaled values at common points: true value = field * 2**exp2."""

    r: np.ndarray
    exp2: int


def _common_rescale(arrays: list[np.ndarray], exp2: int) -> int:
    top = max(float(np.max(np.abs(a))) for a in arrays)
    if top > _RESCALE_LIMIT or (0.0 < top < 1.0 / _RESCALE_LIMIT):
        shift = int(math.floor(math.log2(top)))
        scale = math.ldexp(1.0, -shift)
        for a in arrays:
            a *= scale
        exp2 += shift
    return exp2


def _scaled_values(pair: SequencePair, n: int, t, step) -> tuple[np.ndarray, int]:
    """v_n at the points t as (mantissa shaped like t, exponent exp2), the true
    value being mantissa * 2**exp2: v_0 = 1, v_1 = a_1 and
    v_k = a_k v_{k-1} - b_k v_{k-2} with (a_k, b_k) = step(t, c_k, d_k).  step
    gets t at least 1-d, and every _RESCALE_EVERY steps the pair
    (v_{k-1}, v_k) is scaled in place by one power of two."""
    shape = np.shape(t)
    t = np.atleast_1d(t)
    v1 = np.ones_like(t)
    if n:
        v0, v1 = v1, step(t, pair.c[0], pair.d[0])[0]
    exp2 = 0
    for k, (c, d) in enumerate(zip(pair.c[1:n], pair.d[1:n]), start=2):
        a, b = step(t, c, d)
        v0, v1 = v1, a * v1 - b * v0
        if k % _RESCALE_EVERY == 0:
            exp2 = _common_rescale([v0, v1], exp2)
    return v1.reshape(shape), exp2


def rq_eval(pair: SequencePair, n: int, z) -> RQValues:
    """Evaluate R_n at z under a shared power-of-two exponent; InvalidParameters
    names the first non-finite z."""
    n = _check_count(n, "n", 0, len(pair))
    z = _check_finite(z, "z", complex)
    return RQValues(*_scaled_values(
        pair, n, z, lambda z, c, d: ((1.0 + 1j * c) * z + (1.0 - 1j * c), (4.0 * d) * z)
    ))


def w_eval_scaled(pair: SequencePair, n: int, x) -> tuple[np.ndarray, int]:
    """W_n at x in [-1, 1] as (mantissa array, shared base-2 exponent);
    InvalidParameters names the first non-finite x."""
    n = _check_count(n, "n", 0, len(pair))
    x = _check_finite(x, "x")
    if not np.all(np.abs(x) <= 1.0):
        raise InvalidParameters("w_eval requires x in [-1, 1]")
    s = np.sqrt((1.0 - x) * (1.0 + x))
    return _scaled_values(pair, n, x, lambda x, c, d: (x - c * s, d))


def w_eval(pair: SequencePair, n: int, x):
    """W_n at x; overflows to +-inf only if the true value exceeds float range."""
    val, exp2 = w_eval_scaled(pair, n, x)
    with np.errstate(over="ignore"):
        out = np.ldexp(val, exp2)
    if out.shape == ():
        return float(out)
    return out
