"""Differentially private continual counting with k-ary trees.

Streaming prefix-sum mechanisms built on signed-digit number systems,
Laplace/Gaussian noise calibration, closed-form error analysis, and an
empirical packing-argument simulator.
"""

from .digits import DigitSystem
from .mechanisms import (
    BatchRunner,
    Mechanism,
    MechanismConfig,
    MechanismStateError,
)
from .noise import (
    CalibrationResult,
    NoiseRegime,
    calibrate_gaussian,
    calibrate_l2_laplace,
    calibrate_pure_laplace,
    epsilon_of_laplace,
    variance_ratio_bound,
)
from .analysis import (
    CrossoverReport,
    ErrorReport,
    crossover,
    empirical_mse,
    henzinger_bound,
    leading_constant,
    optimal_k,
)
from .lowerbound import (
    BlockCountDistribution,
    LowerBoundConfig,
    PackingReport,
    derive_xi,
    exact_block_tv,
    packing_experiment,
    sample_x0,
)

__all__ = [
    "DigitSystem",
    "BatchRunner",
    "Mechanism",
    "MechanismConfig",
    "MechanismStateError",
    "CalibrationResult",
    "NoiseRegime",
    "calibrate_gaussian",
    "calibrate_l2_laplace",
    "calibrate_pure_laplace",
    "epsilon_of_laplace",
    "variance_ratio_bound",
    "CrossoverReport",
    "ErrorReport",
    "crossover",
    "empirical_mse",
    "henzinger_bound",
    "leading_constant",
    "optimal_k",
    "BlockCountDistribution",
    "LowerBoundConfig",
    "PackingReport",
    "derive_xi",
    "exact_block_tv",
    "packing_experiment",
    "sample_x0",
]
__version__ = "0.1.0"
