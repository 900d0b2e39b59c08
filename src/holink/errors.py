"""Exception types shared across the package."""


class HolinkError(Exception):
    """Base class for all package-specific errors."""


class DomainError(HolinkError, ValueError):
    """Input outside the mathematical domain (e.g. tau below the upper half-plane floor)."""


class PoleError(DomainError):
    """Evaluation requested at a pole (a lattice point)."""


class ConvergenceError(HolinkError, ArithmeticError):
    """A series term leaves double range."""


class HomologyError(HolinkError, ValueError):
    """Divisor fails the degree-zero requirement of the pairing."""


class DisjointnessError(HolinkError, ValueError):
    """Divisor supports overlap within the collision tolerance."""


class CurveMismatchError(HolinkError, ValueError):
    """Operands live on different curves."""


class CapabilityError(HolinkError, ValueError):
    """Requested map is outside the supported catalog."""


class BranchError(HolinkError, ValueError):
    """Pullback requested at a critical value of the map."""


class DivergenceError(HolinkError, ArithmeticError):
    """The argument of a logarithm, or a divisor, rounds to 0 in double
    precision: the value is lost (it is finite on the admissible domain)."""


class ActionValidationError(HolinkError, ValueError):
    """Group action data is malformed."""


class InternalError(HolinkError, RuntimeError):
    """A failed internal identity: a bug, not bad input.  Nothing in the
    package raises it; it stays public so that callers' handlers keep
    working."""
