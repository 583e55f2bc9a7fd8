"""Closed forms for the period-two family driven by (c, b1, b2).

The pair c_n = (-1)^n c, m_{2k+1} = (1 - b1)/2, m_{2k} = (1 - b2)/2 (with
|b1| < 1, |b2| < 1) corresponds to the two-periodic reflection coefficients

    alpha_{2n} = (b1 + i c) / (1 + i c),    alpha_{2n+1} = (b2 - i c) / (1 + i c).

Everything spectral is explicit here: the discriminant, the four band edges,
the absolutely continuous weight, and the point masses at w1 = 1 (present
when b1 + b2 > 0, mass (b1 + b2)/(1 + b2)) and at w2 = -(1 + ic)/(1 - ic)
(present when b2 > b1, mass (b2 - b1)/(1 + b2)).  These serve as independent
oracles for the general periodic machinery.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bijection import SequencePair, make_pair
from .errors import InvalidParameters, _check_count, _check_finite

__all__ = [
    "PeriodTwoParams",
    "MassPoint",
    "family_alpha",
    "family_pair",
    "family_discriminant",
    "family_band_edges",
    "family_weight",
    "family_masses",
    "family_phi2_coeffs",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PeriodTwoParams:
    c: float
    b1: float
    b2: float

    def __post_init__(self):
        for name in ("c", "b1", "b2"):
            v = getattr(self, name)
            if isinstance(v, bool) or not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise InvalidParameters(f"{name} = {v!r} must be a finite real")
        if not (abs(self.b1) < 1.0 and abs(self.b2) < 1.0):
            raise InvalidParameters(
                f"need |b1| < 1 and |b2| < 1, got b1 = {self.b1!r}, b2 = {self.b2!r}"
            )

    @property
    def disc_scale(self) -> float:
        """(1 - b1^2)(1 - b2^2), the square of the discriminant denominator."""
        return (1.0 - self.b1**2) * (1.0 - self.b2**2)


@dataclass(frozen=True)
class MassPoint:
    w: complex
    theta: float
    mass: float


def family_alpha(params: PeriodTwoParams) -> tuple[complex, complex]:
    """One period (alpha_0, alpha_1) of the reflection coefficients."""
    c, b1, b2 = params.c, params.b1, params.b2
    den = 1.0 + 1j * c
    return ((b1 + 1j * c) / den, (b2 - 1j * c) / den)


def family_pair(params: PeriodTwoParams, length: int) -> SequencePair:
    """The (c, m) pair of the family with tail_period = 2, cut to length >= 2."""
    length = _check_count(length, "length", 2)
    c = tuple(((-1.0) ** n) * params.c for n in range(1, length + 1))
    m1 = (1.0 - params.b1) / 2.0
    m2 = (1.0 - params.b2) / 2.0
    m = (0.0,) + tuple(m1 if n % 2 == 1 else m2 for n in range(1, length + 1))
    return make_pair(c, m=m, tail_period=2)


def family_discriminant(params: PeriodTwoParams, theta):
    """Delta(theta) = 2[(1 + c^2) cos(theta) + b1 b2 - c^2] / sqrt((1-b1^2)(1-b2^2))."""
    c, b1, b2 = params.c, params.b1, params.b2
    t = _check_finite(theta, "theta")
    scalar = t.shape == ()
    out = 2.0 * ((1.0 + c * c) * np.cos(t) + b1 * b2 - c * c) / math.sqrt(
        params.disc_scale
    )
    return float(out) if scalar else out


def family_band_edges(params: PeriodTwoParams) -> tuple[float, float, float, float]:
    """(t1_plus, t1_minus, t2_minus, t2_plus), the ordered edges of both bands.

    The first band [t1_plus, t1_minus] runs from Delta = +2 down to -2; the
    mirrored band is [t2_minus, t2_plus] = [2 pi - t1_minus, 2 pi - t1_plus].
    """
    c, b1, b2 = params.c, params.b1, params.b2
    root = math.sqrt(params.disc_scale)
    den = 1.0 + c * c
    arg_plus = (root + c * c - b1 * b2) / den
    arg_minus = (-root + c * c - b1 * b2) / den
    # (b1 -+ b2)^2 >= 0 keeps both arguments inside [-1, 1]
    t1_plus = math.acos(min(1.0, max(-1.0, arg_plus)))
    t1_minus = math.acos(min(1.0, max(-1.0, arg_minus)))
    return (t1_plus, t1_minus, TWO_PI - t1_minus, TWO_PI - t1_plus)


def family_weight(params: PeriodTwoParams, theta):
    """Band-interior density; nan outside the bands (argument of a negative
    sqrt), InvalidParameters at a non-finite theta."""
    c, b1, b2 = params.c, params.b1, params.b2
    t = _check_finite(theta, "theta")
    scalar = t.shape == ()
    x = (1.0 + c * c) * np.cos(t) + b1 * b2 - c * c
    den = np.abs((1.0 + b2) * (np.sin(t) + c * (1.0 - np.cos(t))))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.sqrt(params.disc_scale - x * x) / den
    return float(out) if scalar else out


def family_masses(params: PeriodTwoParams) -> tuple[MassPoint, ...]:
    """Point masses of the family: at z = 1 iff b1 + b2 > 0, at
    -(1 + ic)/(1 - ic) iff b2 > b1; zero, one, or two points."""
    c, b1, b2 = params.c, params.b1, params.b2
    out = []
    if b1 + b2 > 0.0:
        out.append(MassPoint(w=1.0 + 0.0j, theta=0.0, mass=(b1 + b2) / (1.0 + b2)))
    if b2 > b1:
        w = -(1.0 + 1j * c) / (1.0 - 1j * c)
        out.append(
            MassPoint(w=w, theta=cmath.phase(w) % TWO_PI, mass=(b2 - b1) / (1.0 + b2))
        )
    return tuple(out)


def family_phi2_coeffs(params: PeriodTwoParams) -> tuple[complex, complex, complex]:
    """Ascending coefficients of the orthonormal degree-two polynomial."""
    c, b1, b2 = params.c, params.b1, params.b2
    root = math.sqrt(params.disc_scale)
    c0 = (c * c - b2) - 1j * c * (b2 + 1.0)
    c1 = (b1 * b2 - b1 - 2.0 * c * c) + 1j * c * (b2 + 1.0)
    c2 = complex(1.0 + c * c)
    return (c0 / root, c1 / root, c2 / root)
