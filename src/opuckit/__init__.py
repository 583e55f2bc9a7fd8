"""Measures on the unit circle through pairs of real sequences.

Core objects: positive chain sequences (chain), the bijection between
(c_n, m_n) pairs and reflection coefficients (bijection), the coupled
polynomial recurrences (polynomials), finite unitary CMV matrices (cmv), zero
ladders (zeros), discrete approximating measures (measure), spectral analysis
of periodic coefficients (periodic), measure symmetries (transforms), and the
closed-form two-periodic model family (period_two).
"""

from . import errors
from .bijection import (
    SequencePair,
    VerblunskySequence,
    make_pair,
    pair_to_verblunsky,
    tau_from_c,
    verblunsky_to_pair,
)
from .chain import (
    ChainSequence,
    MaximalParameters,
    d_from_minimal,
    is_determinate,
    maximal_parameters,
    minimal_parameters,
)
from .measure import DiscreteMeasure, moments, quadrature, step_eval
from .period_two import (
    MassPoint,
    PeriodTwoParams,
    family_alpha,
    family_band_edges,
    family_discriminant,
    family_masses,
    family_pair,
    family_phi2_coeffs,
    family_weight,
)
from .periodic import (
    Band,
    Gap,
    PeriodicSpectrum,
    PeriodicityReport,
    PurePoint,
    ac_weight,
    band_structure,
    discriminant,
    full_spectrum,
    gap_candidates,
    is_periodic_pair,
    mass_series,
    normalization_report,
    parallel_lines_check,
    pure_point_mass,
    transfer_matrix,
    transfer_product,
)
from .polynomials import (
    PolyCoeffs,
    RQValues,
    SzegoState,
    kappa_from_alpha,
    q_coeffs,
    r_coeffs,
    rq_eval,
    szego_coeffs,
    szego_eval,
    w_eval,
    w_from_r_check,
)
from .transforms import UnfoldingData, conjugate_pair, rotate_alpha, unfold_alternating
from .zeros import SupportGapReport, ZeroSet, support_gap_check, w_zeros, zero_ladder

__version__ = "0.1.0"
