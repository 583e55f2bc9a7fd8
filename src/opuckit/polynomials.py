"""Recurrences for the orthogonal and para-orthogonal polynomial families.

Three families share the data of a sequence pair (c_n, d_n) / its reflection
coefficients alpha_n:

  * monic Szego polynomials phi_n and reversed phi_n* on the circle,
  * the self-inversive family R_n and its companion Q_n,
        R_{n+1} = [(1 + i c_{n+1}) z + (1 - i c_{n+1})] R_n - 4 d_{n+1} z R_{n-1}
    with R_0 = 1, R_1 = (1 + i c_1) z + (1 - i c_1); Q_n obeys the same
    recurrence from Q_0 = 0, Q_1 = 2 d_1 and has degree n - 1,
  * the real trigonometric form W_n(x) = 2^{-n} e^{-i n theta/2} R_n(e^{i theta})
    with x = cos(theta/2), satisfying
        W_{n+1} = (x - c_{n+1} sqrt(1 - x^2)) W_n - d_{n+1} W_{n-1}.

Coefficient arrays are built for any stored degree; the value recurrences
rescale by powers of two every few steps with a shared exponent accumulator,
so they stay finite where the coefficients overflow.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .bijection import SequencePair
from .chain import _check_finite
from .errors import InvalidParameters, NumericsError

__all__ = [
    "SzegoState",
    "PolyCoeffs",
    "RQValues",
    "kappa_from_alpha",
    "szego_eval",
    "szego_coeffs",
    "r_coeffs",
    "q_coeffs",
    "eval_poly",
    "self_inversive_defect",
    "rq_eval",
    "w_eval",
    "w_eval_scaled",
    "w_from_r_check",
]

# rescale cadence/threshold for the value recurrences
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
    for k, a in enumerate(alpha):
        if not abs(a) < 1.0:
            raise InvalidParameters(f"alpha[{k}] = {a!r} must have modulus < 1")
        acc -= 0.5 * math.log1p(-abs(a) ** 2)
        if acc > _LOG_FLOAT_MAX:
            raise NumericsError(
                f"kappa overflows at alpha[{k}] = {a!r}: log kappa_{k + 1} = {acc!r}"
            )
    return math.exp(acc)


@dataclass(frozen=True)
class SzegoState:
    """Values of the monic pair (phi_n, phi_n*) at given points."""

    n: int
    phi: np.ndarray
    phi_star: np.ndarray


def szego_eval(alpha, z) -> SzegoState:
    """Run the coupled recurrence phi_n = z phi - conj(a) phi*, phi* = phi* - a z phi.

    InvalidParameters names the first non-finite alpha or z."""
    alpha = _check_finite(alpha, "alpha", complex)
    z = _check_finite(z, "z", complex)
    phi = np.ones_like(z)
    star = np.ones_like(z)
    for a in alpha:
        zphi = z * phi
        phi, star = zphi - np.conj(a) * star, star - a * zphi
    return SzegoState(n=len(alpha), phi=phi, phi_star=star)


def szego_coeffs(alpha) -> tuple[np.ndarray, np.ndarray]:
    """Ascending coefficient arrays of monic phi_n and phi_n*."""
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
    family: str  # "R" | "Q" | "W-cos"
    n: int


def eval_poly(coeffs: np.ndarray, z):
    return np.polynomial.polynomial.polyval(z, coeffs)


def self_inversive_defect(coeffs: np.ndarray) -> float:
    """max_k |r_k - conj(r_{n-k})|; zero for a self-inversive polynomial."""
    return float(np.max(np.abs(coeffs - np.conj(coeffs[::-1]))))


def _check_degree(pair: SequencePair, n: int) -> None:
    if n < 0:
        raise InvalidParameters(f"degree n = {n} must be >= 0")
    if n > len(pair):
        raise InvalidParameters(
            f"degree n = {n} needs {n} pair entries, only {len(pair)} stored"
        )


def _rq_coeff_ladder(pair: SequencePair, n: int, first: np.ndarray, second: np.ndarray):
    prev, cur = first, second
    for k in range(2, n + 1):
        ck, dk = pair.c[k - 1], pair.d[k - 1]
        shifted = np.concatenate([[0.0j], cur])
        nxt = (1.0 + 1j * ck) * shifted + (1.0 - 1j * ck) * np.concatenate([cur, [0.0j]])
        nxt[: len(prev) + 1] -= 4.0 * dk * np.concatenate([[0.0j], prev])
        prev, cur = cur, nxt
    return cur if n >= 1 else prev


def r_coeffs(pair: SequencePair, n: int) -> PolyCoeffs:
    """Coefficients of R_n (degree n, self-inversive, leading prod(1 + i c_j))."""
    _check_degree(pair, n)
    r0 = np.array([1.0 + 0.0j])
    if n == 0:
        return PolyCoeffs(coeffs=r0, family="R", n=0)
    c1 = pair.c[0]
    r1 = np.array([1.0 - 1j * c1, 1.0 + 1j * c1])
    return PolyCoeffs(coeffs=_rq_coeff_ladder(pair, n, r0, r1), family="R", n=n)


def q_coeffs(pair: SequencePair, n: int) -> PolyCoeffs:
    """Coefficients of Q_n (degree n - 1)."""
    _check_degree(pair, n)
    q0 = np.array([0.0j])
    if n == 0:
        return PolyCoeffs(coeffs=q0, family="Q", n=0)
    q1 = np.array([2.0 * pair.d[0] + 0.0j])
    coeffs = _rq_coeff_ladder(pair, n, q0, q1)
    return PolyCoeffs(coeffs=coeffs[: max(1, n)], family="Q", n=n)


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


def rq_eval(pair: SequencePair, n: int, z) -> RQValues:
    """Evaluate R_n at z under a shared power-of-two exponent; InvalidParameters
    names the first non-finite z."""
    _check_degree(pair, n)
    z = _check_finite(z, "z", complex)
    shape = z.shape
    z = np.atleast_1d(z)
    r0 = np.ones_like(z)
    if n == 0:
        return RQValues(r=r0.reshape(shape), exp2=0)
    c1 = pair.c[0]
    r1 = (1.0 + 1j * c1) * z + (1.0 - 1j * c1)
    exp2 = 0
    for k in range(2, n + 1):
        ck, dk = pair.c[k - 1], pair.d[k - 1]
        r0, r1 = r1, ((1.0 + 1j * ck) * z + (1.0 - 1j * ck)) * r1 - (4.0 * dk) * z * r0
        if k % _RESCALE_EVERY == 0:
            exp2 = _common_rescale([r0, r1], exp2)
    return RQValues(r=r1.reshape(shape), exp2=exp2)


def w_eval_scaled(pair: SequencePair, n: int, x) -> tuple[np.ndarray, int]:
    """W_n at x in [-1, 1] as (mantissa array, shared base-2 exponent)."""
    _check_degree(pair, n)
    x = np.asarray(x, dtype=float)
    shape = x.shape
    x = np.atleast_1d(x)
    if not np.all(np.abs(x) <= 1.0):
        raise InvalidParameters("w_eval requires x in [-1, 1]")
    s = np.sqrt((1.0 - x) * (1.0 + x))
    w0 = np.ones_like(x)
    if n == 0:
        return w0.reshape(shape), 0
    w1 = x - pair.c[0] * s
    exp2 = 0
    for k in range(2, n + 1):
        w0, w1 = w1, (x - pair.c[k - 1] * s) * w1 - pair.d[k - 1] * w0
        if k % _RESCALE_EVERY == 0:
            exp2 = _common_rescale([w0, w1], exp2)
    return w1.reshape(shape), exp2


def w_eval(pair: SequencePair, n: int, x):
    """W_n at x; overflows to +-inf only if the true value exceeds float range."""
    val, exp2 = w_eval_scaled(pair, n, x)
    with np.errstate(over="ignore"):
        out = np.ldexp(val, exp2)
    if out.shape == ():
        return float(out)
    return out


def w_from_r_check(pair: SequencePair, n: int, theta) -> float:
    """Max residual of W_n(cos(theta/2)) against 2^{-n} e^{-i n theta/2} R_n."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    vals = rq_eval(pair, n, np.exp(1j * theta))
    circle_side = vals.r * np.exp(-0.5j * n * theta) * math.ldexp(1.0, vals.exp2 - n)
    wv, wexp = w_eval_scaled(pair, n, np.cos(0.5 * theta))
    w_side = wv * math.ldexp(1.0, wexp)
    return float(np.max(np.abs(circle_side - w_side)))
