"""Multi-species TASEP with species-dependent jump rates.

Exact finite-time transition probabilities via a spectral contour-integral
representation, each integral evaluated as a product of residues, cross-checked
against a continuous-time Markov chain built from the primitive jump rules.

The root exports the calls the README, the demos and the benchmark make, the
types they pass or get back, and the exceptions those calls raise.  The
building blocks (the stacked amplitude matrices, the Bethe sum at one
spectral point, word blocks) are imported from their modules.
"""

from .bethe import (
    NotConverged,
    OverflowRisk,
    ProbabilityResult,
    SpectralParams,
    transition_matrix,
    transition_probability,
)
from .core import (
    NonIncreasingPositions,
    ParticleState,
    RateTable,
    SpeciesOutOfRange,
    enumerate_sn,
)
from .oracle import (
    GeneratorWindow,
    WindowTooSmall,
    WindowTooWide,
    build_generator,
    default_window,
    gillespie,
    matrix_exponential_row,
)
from .rmatrix import PoleOnContour, SpectralPoint, consistency_residuals, contour_bound

__all__ = [
    "GeneratorWindow",
    "NonIncreasingPositions",
    "NotConverged",
    "OverflowRisk",
    "ParticleState",
    "PoleOnContour",
    "ProbabilityResult",
    "RateTable",
    "SpeciesOutOfRange",
    "SpectralParams",
    "SpectralPoint",
    "WindowTooSmall",
    "WindowTooWide",
    "build_generator",
    "consistency_residuals",
    "contour_bound",
    "default_window",
    "enumerate_sn",
    "gillespie",
    "matrix_exponential_row",
    "transition_matrix",
    "transition_probability",
]

__version__ = "0.13.0"
