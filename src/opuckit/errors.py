"""Exception hierarchy and the argument checks that raise InvalidParameters.

Two branches matter to callers: InputError (bad data handed to us; CLI exit 2)
and NumericsError (a numerical contract broke mid-computation; CLI exit 3).

Each kind of argument has one check here, which every module calls: a finite
array (_check_finite), reflection coefficients in the unit disc (_check_disc),
a unimodular number such as a rotation or a closing coefficient
(_check_unimodular) and an integer count in a range (_check_count), such as a
level n, a period p or a tail period.
"""

import numpy as np


class OpucError(Exception):
    pass


class InputError(OpucError):
    """Invalid input: precondition on user-supplied data failed."""


class NumericsError(OpucError):
    """Numerical contract violation: an internal guarantee failed to hold."""


class InvalidParameters(InputError):
    pass


class NotAChainSequence(InputError):
    """The d-prefix admits no parameter sequence in [0, 1)."""

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(
            f"d prefix is not a positive chain sequence: parameter "
            f"m_{index} = {value!r} falls outside [0, 1)"
        )


class HypothesisViolated(InputError):
    """A structural hypothesis (sign pattern, alternation, parity) fails."""


class NotACandidate(InputError):
    """Point-mass evaluation requested at a point with tau_p(w) != 1."""


class OffBand(InputError):
    """Density evaluation requested outside the open bands (|Delta| >= 2)."""


class NoConvergence(NumericsError):
    pass


class GapViolated(NumericsError):
    """A zero landed inside the forbidden interval implied by the sign pattern."""

    def __init__(self, level: int, x: float, bound: float):
        self.level = level
        self.x = x
        self.bound = bound
        super().__init__(
            f"zero x = {x!r} at level {level} lies inside the excluded interval (+-{bound!r})"
        )


class NegativeWeight(NumericsError):
    def __init__(self, j: int, value: float):
        self.j = j
        self.value = value
        super().__init__(f"quadrature weight {j} is not >= 0: {value!r}")


class NonRealDiscriminant(NumericsError):
    pass


class DenominatorVanished(NumericsError):
    pass


class InternalInvariant(NumericsError):
    pass


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


def _check_disc(alpha) -> np.ndarray:
    """alpha as a flat complex array, empty allowed; InvalidParameters unless
    every |alpha_k| < 1 (NaN included)."""
    a = np.asarray(alpha, dtype=complex).reshape(-1)
    inside = np.abs(a) < 1.0
    if not inside.all():
        k = int(np.argmin(inside))
        raise InvalidParameters(f"alpha[{k}] = {complex(a[k])!r} must have modulus < 1")
    return a


def _check_unimodular(value, name: str) -> complex:
    """value as a complex; InvalidParameters naming it unless ||value| - 1|
    <= 1e-12 (NaN included)."""
    z = complex(value)
    if not abs(abs(z) - 1.0) <= 1e-12:
        raise InvalidParameters(f"{name} = {z!r} must be unimodular")
    return z


def _check_count(value, name: str, lo: int, hi: int | None = None) -> int:
    """value as an int; InvalidParameters naming it unless it is an integer
    (numpy's too, but no bool) in [lo, hi], or >= lo when hi is None."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if lo <= value and (hi is None or value <= hi):
            return int(value)
    span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    raise InvalidParameters(f"{name} must be an integer {span}, got {value!r}")
