"""Exception types shared across the package."""


class QBatteryError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(QBatteryError):
    """Operands have incompatible or invalid shapes."""


class ValidationError(QBatteryError):
    """A construction invariant failed (finiteness, hermiticity, trace, positivity)."""


class ConvergenceError(QBatteryError):
    """The iterative eigensolver exhausted its sweep budget."""

    def __init__(self, message, off_diagonal_norm=None):
        super().__init__(message)
        self.off_diagonal_norm = off_diagonal_norm


class DomainError(QBatteryError):
    """A scalar function was evaluated outside its domain."""

    def __init__(self, message, eigenvalue=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class RankDeficientError(QBatteryError):
    """A state eigenvalue sits at or below the rank threshold."""

    def __init__(self, message, smallest_eigenvalue=None):
        super().__init__(message)
        self.smallest_eigenvalue = smallest_eigenvalue


class ParameterError(QBatteryError):
    """An argument lies outside its documented range."""


class ConsistencyError(QBatteryError):
    """Two independently computed values that must agree do not."""


class PropagationError(QBatteryError):
    """A propagated state violated the propagation tolerances.

    Carries the step index and the offending defects (the smallest eigenvalue
    may be None when it could not be computed).  There is no trajectory
    payload: the states before the breach are the ones the consumer of the
    propagation stream already took.
    """

    def __init__(self, message, step_index=None, trace_defect=None,
                 min_eigenvalue=None):
        super().__init__(message)
        self.step_index = step_index
        self.trace_defect = trace_defect
        self.min_eigenvalue = min_eigenvalue


class ScenarioError(QBatteryError):
    """An audit scenario precondition does not hold."""


class ConfigError(QBatteryError):
    """A configuration document is invalid; `path` points at the offending key."""

    def __init__(self, message, path=None):
        super().__init__(message if path is None else f"{path}: {message}")
        self.path = path
