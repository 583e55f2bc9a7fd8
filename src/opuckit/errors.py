"""Exception hierarchy.

Two branches matter to callers: InputError (bad data handed to us; CLI exit 2)
and NumericsError (a numerical contract broke mid-computation; CLI exit 3).
"""


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
