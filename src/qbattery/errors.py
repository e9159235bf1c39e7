"""Exception types shared across the package, and the form in which their
messages echo an offending value.  An error carries its message, which names
that value, and only the fields a contract names: PropagationError.step_index
(the states `propagate` yielded before a breach) and ConfigError.path (the
offending key)."""

import math
import reprlib

# the longest echo of an offending value in a message
_SHOWN_MAX = 80


class _Bounded(reprlib.Repr):
    """reprlib's forms, but an int of more than `maxlong` digits by its sign
    and digit count, taken from its bit length: past 4300 digits
    (sys.get_int_max_str_digits) an int has no repr, and reprlib would cut its
    form from that repr."""

    def repr_int(self, x, level):
        n = abs(x)
        if n < 10 ** self.maxlong:
            return repr(x)
        digits = int(n.bit_length() * math.log10(2.0)) + 1  # the count, or one more
        digits -= n < 10 ** (digits - 1)
        return f"{'a negative' if x < 0 else 'an'} int of {digits} digits"


_BOUNDED = _Bounded()


def _shown(value, form=repr) -> str:
    """form(value) (repr, or str for a key in a path) when it is at most
    _SHOWN_MAX characters long, else _Bounded's form of value (the first items
    of a list, long strings cut in the middle, an int's digit count), itself
    cut to _SHOWN_MAX: a message echoes a config value or key, a command-line
    or library argument of any size in one short line."""
    try:
        text = form(value)
        if len(text) <= _SHOWN_MAX:
            return text
    except ValueError:  # an int of more than 4300 digits
        pass
    text = _BOUNDED.repr(value)
    return text if len(text) <= _SHOWN_MAX else text[:_SHOWN_MAX - 3] + "..."


class QBatteryError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(QBatteryError):
    """Operands have incompatible or invalid shapes."""


class ValidationError(QBatteryError):
    """A construction invariant failed (finiteness, hermiticity, trace, positivity)."""


class ConvergenceError(QBatteryError):
    """The iterative eigensolver exhausted its sweep budget."""


class DomainError(QBatteryError):
    """A scalar function was evaluated outside its domain."""


class RankDeficientError(QBatteryError):
    """A state eigenvalue sits at or below the rank threshold."""


class ParameterError(QBatteryError):
    """An argument lies outside its documented range."""


class ConsistencyError(QBatteryError):
    """Two independently computed values that must agree do not."""


class PropagationError(QBatteryError):
    """A propagated state violated the propagation tolerances.

    Carries the step index; the message names the step, its time and the
    defect that failed.  There is no trajectory payload: the states before the
    breach are the ones the consumer of the propagation stream already took.
    """

    def __init__(self, message, step_index=None):
        super().__init__(message)
        self.step_index = step_index


class ScenarioError(QBatteryError):
    """An audit scenario precondition does not hold."""


class ConfigError(QBatteryError):
    """A configuration document is invalid; `path` points at the offending key."""

    def __init__(self, message, path=None):
        super().__init__(message if path is None else f"{path}: {message}")
        self.path = path
