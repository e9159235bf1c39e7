"""Centralized numerical tolerances.

Every invariant check in the package reads its threshold from a
ToleranceConfig instance so that the command line can override any of them
with repeated ``--tol NAME=VALUE`` flags.  Defaults are chosen for dense
double-precision matrices at desk scale (dimension up to a few dozen).
Each field must be finite and >= 0 (claim_band >= 1; int fields an int), or
ParameterError names it.  Zero is legal: the guard it feeds then always fires.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ParameterError


@dataclass(frozen=True)
class ToleranceConfig:
    # construction invariants
    hermiticity: float = 1e-12          # x max(1, ||M||_max) defect allowed at construction
    unitarity: float = 1e-10            # ||U^dag U - I||_max for eigenvector matrices
    reconstruction: float = 1e-10       # x max(1, ||M||_max) eigendecomposition residual
    psd: float = 1e-10                  # positivity slack for states
    density_trace: float = 1e-10        # |tr(rho) - 1| at construction

    # Jacobi eigensolver (round-robin order)
    jacobi_offdiag: float = 1e-13       # x ||M||_F convergence target
    jacobi_max_sweeps: int = 100

    # propagation (per-step revalidation; looser than construction)
    propagation_trace: float = 1e-8
    propagation_psd: float = 1e-8
    propagation_hermiticity: float = 1e-10  # x max(1, ||y||_max), like hermiticity

    # free-energy bookkeeping
    mean_crosscheck: float = 1e-9       # x max(1, |<F>|) agreement of the two mean forms
    zero_mean: float = 1e-9             # x max(1, ||F||_max) bound on |tr(rho deltaF)|
    theta_imag: float = 1e-10           # x max(1, |Theta|) imaginary residual
    theta_psd_slack: float = 1e-10      # x max(1, |Theta|) allowed negativity
    theta_discrepancy: float = 1e-9     # x max(1, Theta_operator) operator vs index form
    power_agreement: float = 1e-10      # x max(1, |P|) trace form vs index form
    generator_trace: float = 1e-12      # |tr D[rho]| and |tr L(rho)|

    # audit predicates
    eigenvector_residual: float = 1e-10  # x max(1, ||H||_max) scenario eigenvector check
    predicate_zero: float = 1e-10        # vanishing-condition structure checks
    claim_zero: float = 1e-10            # x claim scale: |value| below this counts as zero
    claim_band: float = 10.0             # straddle band multiplier for inconclusive calls

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            is_int = field.type in ("int", int)
            minimum = 1 if field.name == "claim_band" else 0
            if (isinstance(value, bool) or not isinstance(value, int if is_int else (int, float))
                    or not math.isfinite(value) or value < minimum):
                kind = "an int" if is_int else "a finite number"
                raise ParameterError(
                    f"tolerance {field.name} must be {kind} >= {minimum}, got {value!r}")

    def replace(self, **overrides) -> "ToleranceConfig":
        return dataclasses.replace(self, **overrides)


DEFAULT_TOLERANCES = ToleranceConfig()
