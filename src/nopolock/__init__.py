"""Self-phase-locked nondegenerate OPO: steady states, fluctuations,
two-mode squeezing, and a positive-P Monte Carlo cross-check."""

__version__ = "0.1.0"

from .dynamics import adiabatic_pump, drift_field
from .entanglement import (MomentSet, VarianceReport, VarianceSweep, moments_above,
                           moments_below, optimal_angle_sum, unitary_minimum,
                           unitary_variance, variance_steady, variance_sweep,
                           variances_from_moments)
from .errors import (EstimationError, NotSteadyStateError, ParameterDomainError,
                     RegimeError, SingularParameterError)
from .fluctuations import (AboveThresholdMatrices, BelowThresholdMatrices,
                           above_matrices, below_matrices,
                           equal_time_corr_below, mean_photon_below,
                           stationary_covariance_below, temporal_corr_above,
                           temporal_corr_below)
from .montecarlo import (EnsembleEstimate, PhaseHistogram, SimConfig,
                         TrajectoryRecord, ensemble_moments, integrate_trajectory,
                         moment_label, noise_increment, parse_moment_spec,
                         phase_histogram, sample_ensemble)
from .params import (DerivedScales, QuadratureAngles, SystemParams,
                     derive_scales, locking_feasible, wrap_angle)
from .steady import (CriticalPoints, SteadyStateBranch, critical_points,
                     drift_residual, output_rates, replace_pump,
                     stability_eigenvalues, steady_state)

__all__ = [
    # dynamics
    "adiabatic_pump", "drift_field",
    # entanglement
    "MomentSet", "VarianceReport", "VarianceSweep", "moments_above", "moments_below",
    "optimal_angle_sum", "unitary_minimum", "unitary_variance", "variance_steady",
    "variance_sweep", "variances_from_moments",
    # errors
    "EstimationError", "NotSteadyStateError", "ParameterDomainError", "RegimeError",
    "SingularParameterError",
    # fluctuations
    "AboveThresholdMatrices", "BelowThresholdMatrices", "above_matrices",
    "below_matrices", "equal_time_corr_below", "mean_photon_below",
    "stationary_covariance_below", "temporal_corr_above", "temporal_corr_below",
    # montecarlo
    "EnsembleEstimate", "PhaseHistogram", "SimConfig", "TrajectoryRecord",
    "ensemble_moments", "integrate_trajectory", "moment_label", "noise_increment",
    "parse_moment_spec", "phase_histogram", "sample_ensemble",
    # params
    "DerivedScales", "QuadratureAngles", "SystemParams", "derive_scales",
    "locking_feasible", "wrap_angle",
    # steady
    "CriticalPoints", "SteadyStateBranch", "critical_points", "drift_residual",
    "output_rates", "replace_pump", "stability_eigenvalues", "steady_state",
]
