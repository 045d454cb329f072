"""Self-phase-locked nondegenerate OPO: steady states, fluctuations,
two-mode squeezing, and a positive-P Monte Carlo cross-check."""

__version__ = "0.1.0"

from .entanglement import (MomentSet, VarianceReport, VarianceSweep, moments_above,
                           moments_below, unitary_minimum, unitary_variance,
                           variance_steady, variance_sweep, variances_from_moments)
from .errors import (EstimationError, NotSteadyStateError, ParameterDomainError,
                     RegimeError, SingularParameterError)
from .fluctuations import (AboveThresholdMatrices, BelowThresholdMatrices,
                           above_matrices, below_matrices,
                           equal_time_corr_below, mean_photon_below,
                           stationary_covariance_below, temporal_corr_below)
from .montecarlo import (EnsembleEstimate, PhaseHistogram, SimConfig, ensemble_moments,
                         moment_label, parse_moment_spec, sample_ensemble)
from .params import (DerivedScales, QuadratureAngles, SystemParams,
                     derive_scales, locking_feasible, wrap_angle)
from .steady import (CriticalPoints, SteadyStateBranch, critical_points,
                     drift_field, output_rates, replace_pump, stability_eigenvalues,
                     steady_state)

__all__ = [
    # entanglement
    "MomentSet", "VarianceReport", "VarianceSweep", "moments_above", "moments_below",
    "unitary_minimum", "unitary_variance", "variance_steady", "variance_sweep",
    "variances_from_moments",
    # errors
    "EstimationError", "NotSteadyStateError", "ParameterDomainError", "RegimeError",
    "SingularParameterError",
    # fluctuations
    "AboveThresholdMatrices", "BelowThresholdMatrices", "above_matrices",
    "below_matrices", "equal_time_corr_below", "mean_photon_below",
    "stationary_covariance_below", "temporal_corr_below",
    # montecarlo
    "EnsembleEstimate", "PhaseHistogram", "SimConfig", "ensemble_moments",
    "moment_label", "parse_moment_spec", "sample_ensemble",
    # params
    "DerivedScales", "QuadratureAngles", "SystemParams", "derive_scales",
    "locking_feasible", "wrap_angle",
    # steady
    "CriticalPoints", "SteadyStateBranch", "critical_points", "drift_field",
    "output_rates", "replace_pump", "stability_eigenvalues", "steady_state",
]
