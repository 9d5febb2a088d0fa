"""Multi-species TASEP with species-dependent jump rates.

Exact finite-time transition probabilities via a spectral contour-integral
representation, cross-checked against a continuous-time Markov chain built
from the primitive jump rules.
"""

from .bethe import (
    ContourInvalid,
    NotConverged,
    OverflowRisk,
    ProbabilityResult,
    SpectralParams,
    ZeroSpectralValue,
    default_radius,
    epsilon,
    integrand,
    transition_matrix,
    transition_probability,
)
from .core import (
    NonIncreasingPositions,
    ParticleState,
    PermutationElem,
    RateTable,
    SpeciesOutOfRange,
    WordBlock,
    build_sector,
    enumerate_sn,
    validate_state,
)
from .oracle import (
    GeneratorWindow,
    TrajectorySample,
    WindowTooSmall,
    build_generator,
    default_window,
    gillespie,
    matrix_exponential_row,
    sample_trajectory,
)
from .rmatrix import (
    PoleOnContour,
    SpectralPoint,
    amplitude_S,
    amplitude_T,
    build_A_sigma,
    build_R,
    build_all_A,
    consistency_residuals,
    contour_bound,
    embed_T_l,
)

__all__ = [
    "ContourInvalid",
    "GeneratorWindow",
    "NonIncreasingPositions",
    "NotConverged",
    "OverflowRisk",
    "ParticleState",
    "PermutationElem",
    "PoleOnContour",
    "ProbabilityResult",
    "RateTable",
    "SpeciesOutOfRange",
    "SpectralParams",
    "SpectralPoint",
    "TrajectorySample",
    "WindowTooSmall",
    "WordBlock",
    "ZeroSpectralValue",
    "amplitude_S",
    "amplitude_T",
    "build_A_sigma",
    "build_R",
    "build_all_A",
    "build_generator",
    "build_sector",
    "consistency_residuals",
    "contour_bound",
    "default_radius",
    "default_window",
    "embed_T_l",
    "enumerate_sn",
    "epsilon",
    "gillespie",
    "integrand",
    "matrix_exponential_row",
    "sample_trajectory",
    "transition_matrix",
    "transition_probability",
    "validate_state",
]

__version__ = "0.1.0"
