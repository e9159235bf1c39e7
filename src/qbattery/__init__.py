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
from .dynamics import DensityMatrix, JumpChannel, LindbladModel, propagate, thermal_state
from .errors import (ConfigError, ConsistencyError, ConvergenceError, DimensionError,
                     DomainError, ParameterError, PropagationError, QBatteryError,
                     RankDeficientError, ScenarioError, ValidationError)
from .free_energy import BatteryContext, vanishing_condition
from .linalg import HermitianMatrix, Spectrum, hermitian_eig
from .tolerances import DEFAULT_TOLERANCES, ToleranceConfig

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BatteryContext",
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
    "TimeGrid",
    "ToleranceConfig",
    "ValidationError",
    "bundled_witnesses",
    "claim_falsifier",
    "eigenstate_audit",
    "epsilon_sweep",
    "evaluate_instance",
    "hermitian_eig",
    "parse_config",
    "propagate",
    "reevaluate_witness",
    "thermal_state",
    "vanishing_condition",
]
