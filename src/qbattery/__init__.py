"""Open quantum battery simulation and free-energy fluctuation audits.

Lindblad dynamics of finite-dimensional batteries, the free-energy operator
F = H + ln(rho)/beta, the per-channel fluctuation Theta_j of F against the
jump operators, closed-form eigenstate diagnostics, and randomized
falsification of verbal claims relating Theta, charging power, and a
structural vanishing condition.
"""

from .audit import (ClaimInstance, ClaimVerdict, EigenstateAuditReport, EnsembleSpec,
                    EpsilonRow, EpsilonSweepReport, FalsifierReport, ScenarioSpec,
                    bundled_witnesses, claim_falsifier, eigenstate_audit, epsilon_sweep,
                    evaluate_instance, reevaluate_witness)
from .config import InitialState, RunConfig, TimeGrid, parse_config
from .dynamics import (DensityMatrix, JumpChannel, LindbladModel, liouvillian, propagate,
                       regularize, thermal_state, von_neumann_entropy)
from .errors import (ConfigError, ConsistencyError, ConvergenceError, DimensionError,
                     DomainError, ParameterError, PropagationError, QBatteryError,
                     RankDeficientError, ScenarioError, ValidationError)
from .free_energy import (BatteryContext, ChannelTheta, FreeEnergyDecomposition,
                          ThetaReport, VanishingConditionReport, compute_theta_report,
                          free_energy_operator, mean_free_energy, power_analytic, power_fd,
                          theta_index_form, theta_operator_form, vanishing_condition)
from .linalg import HermitianMatrix, Spectrum, hermitian_eig, matrix_function
from .tolerances import DEFAULT_TOLERANCES, ToleranceConfig

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BatteryContext",
    "ChannelTheta",
    "ClaimInstance",
    "ClaimVerdict",
    "ConfigError",
    "ConsistencyError",
    "ConvergenceError",
    "DEFAULT_TOLERANCES",
    "DensityMatrix",
    "DimensionError",
    "DomainError",
    "EigenstateAuditReport",
    "EnsembleSpec",
    "EpsilonRow",
    "EpsilonSweepReport",
    "FalsifierReport",
    "FreeEnergyDecomposition",
    "HermitianMatrix",
    "InitialState",
    "JumpChannel",
    "LindbladModel",
    "ParameterError",
    "PropagationError",
    "QBatteryError",
    "RankDeficientError",
    "RunConfig",
    "ScenarioError",
    "ScenarioSpec",
    "Spectrum",
    "ThetaReport",
    "TimeGrid",
    "ToleranceConfig",
    "ValidationError",
    "VanishingConditionReport",
    "bundled_witnesses",
    "claim_falsifier",
    "compute_theta_report",
    "eigenstate_audit",
    "epsilon_sweep",
    "evaluate_instance",
    "free_energy_operator",
    "hermitian_eig",
    "liouvillian",
    "matrix_function",
    "mean_free_energy",
    "parse_config",
    "power_analytic",
    "power_fd",
    "propagate",
    "regularize",
    "reevaluate_witness",
    "theta_index_form",
    "theta_operator_form",
    "thermal_state",
    "vanishing_condition",
    "von_neumann_entropy",
]
