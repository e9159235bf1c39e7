"""Centralized numerical tolerances, and the one check per kind of scalar.

Every invariant check in the package reads its threshold from a
ToleranceConfig instance so that the command line can override any of them
with repeated ``--tol NAME=VALUE`` flags.  Defaults are chosen for dense
double-precision matrices at desk scale (dimension up to a few dozen).
Each field must be finite and >= 0 (claim_band >= 1; int fields an integer),
or ParameterError names it.  Zero is legal: the guard it feeds then always fires.

Every scalar that enters the library is checked below, as a numbers.Real or
numbers.Integral that is not a bool; its caller stores the float or int returned.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

from .errors import ParameterError


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _finite(value) -> float:
    """`value` as a float if it is a finite real number, else nan, which fails every
    comparison.  A float or int skips the numbers ABC check, ten times as slow."""
    try:
        x = float(value) if type(value) in (float, int) or _is_real(value) else math.nan
    except OverflowError:  # an int or Fraction beyond float range
        return math.nan
    return x if math.isfinite(x) else math.nan


def _finite_positive(value, name: str) -> float:
    if (x := _finite(value)) > 0.0:
        return x
    raise ParameterError(f"{name} must be finite and positive, got {value!r}")


def _finite_at_least(value, minimum: int, name: str) -> float:
    if (x := _finite(value)) >= minimum:
        return x
    raise ParameterError(f"{name} must be finite and >= {minimum}, got {value!r}")


def _open_unit(value, name: str) -> float:
    if 0.0 < (x := _finite(value)) < 1.0:
        return x
    raise ParameterError(f"{name} must lie strictly inside (0, 1), got {value!r}")


def _integer(value, name: str) -> int:
    if _is_integer(value):
        return int(value)
    raise ParameterError(f"{name} must be an integer, got {value!r}")


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
    generator_trace: float = 1e-12      # x max(1, ||L(rho)||_max) bound on |tr L(rho)|

    # audit predicates
    eigenvector_residual: float = 1e-10  # x max(1, ||H||_max) scenario eigenvector check
    predicate_zero: float = 1e-10        # vanishing-condition structure checks
    claim_zero: float = 1e-10            # x claim scale: |value| below this counts as zero
    claim_band: float = 10.0             # straddle band multiplier for inconclusive calls

    def __post_init__(self):
        for field in dataclasses.fields(self):
            name, value = f"tolerance {field.name}", getattr(self, field.name)
            is_int = field.type in ("int", int)
            value = _integer(value, name) if is_int else value
            checked = _finite_at_least(value, 1 if field.name == "claim_band" else 0, name)
            object.__setattr__(self, field.name, value if is_int else checked)

    def replace(self, **overrides) -> "ToleranceConfig":
        return dataclasses.replace(self, **overrides)


DEFAULT_TOLERANCES = ToleranceConfig()
