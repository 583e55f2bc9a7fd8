"""Measures on the unit circle through pairs of real sequences.

Core objects: positive chain sequences (chain), the bijection between
(c_n, m_n) pairs and reflection coefficients (bijection), the coupled
polynomial recurrences (polynomials), finite unitary CMV matrices (cmv), zero
ladders (zeros), discrete approximating measures (measure), spectral analysis
of periodic coefficients (periodic), measure symmetries (transforms), and the
closed-form two-periodic model family (period_two).

Submodules load on first use.  ``import opuckit`` registers every submodule
but ``cli`` in ``sys.modules`` without running it (an
``importlib.util.LazyLoader`` module, whose body runs on first attribute
access), and the names below resolve on first access, so a command runs only
the code it reaches.  ``import numpy`` happens with the first submodule that
runs.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# public names, by the submodule that defines them
_EXPORTS = {
    "bijection": (
        "SequencePair",
        "VerblunskySequence",
        "make_pair",
        "pair_to_verblunsky",
        "tau_from_c",
        "verblunsky_to_pair",
    ),
    "chain": (
        "ChainSequence",
        "MaximalParameters",
        "d_from_minimal",
        "is_determinate",
        "maximal_parameters",
        "minimal_parameters",
    ),
    "measure": ("DiscreteMeasure", "moments", "quadrature", "step_eval"),
    "period_two": (
        "MassPoint",
        "PeriodTwoParams",
        "family_alpha",
        "family_band_edges",
        "family_discriminant",
        "family_masses",
        "family_pair",
        "family_phi2_coeffs",
        "family_weight",
    ),
    "periodic": (
        "Band",
        "Gap",
        "PeriodicSpectrum",
        "PeriodicityReport",
        "PurePoint",
        "ac_weight",
        "band_structure",
        "discriminant",
        "full_spectrum",
        "gap_candidates",
        "is_periodic_pair",
        "mass_series",
        "normalization_report",
        "parallel_lines_check",
        "pure_point_mass",
        "transfer_product",
    ),
    "polynomials": (
        "PolyCoeffs",
        "RQValues",
        "kappa_from_alpha",
        "q_coeffs",
        "r_coeffs",
        "rq_eval",
        "szego_coeffs",
        "w_eval",
    ),
    "transforms": ("UnfoldingData", "conjugate_pair", "rotate_alpha", "unfold_alternating"),
    "zeros": ("SupportGapReport", "ZeroSet", "support_gap_check", "w_zeros", "zero_ladder"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["errors", *_ORIGIN]

# cli stays out: `python -m opuckit.cli` warns when it finds its module
# registered before it runs
for _name in (
    "bijection",
    "chain",
    "cmv",
    "errors",
    "measure",
    "period_two",
    "periodic",
    "polynomials",
    "selfcheck",
    "serialize",
    "transforms",
    "zeros",
):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = _module
    _spec.loader.exec_module(_module)
    globals()[_name] = _module
del _name, _spec, _module


def __getattr__(name):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[_ORIGIN[name]], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
