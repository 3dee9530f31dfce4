"""Exception types raised across the package.

Every failure mode that callers are expected to handle gets its own class,
so scripts can branch on the *kind* of failure (bad configuration vs. a
numerical breakdown vs. a regime guard) without parsing messages.  The
kinds are the base classes ``ConfigError``, ``NumericalError`` and
``RegimeError``; the command line maps each kind to one exit code.
"""


class FracblowError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(FracblowError):
    """Base class for inputs outside their documented domain."""


class NumericalError(FracblowError):
    """Base class for numerical breakdowns on valid inputs."""


class BadConfig(ConfigError):
    """A parameter is outside its documented domain."""


class OutOfDomain(ConfigError):
    """A coordinate query lies outside the open interval (-1, 1)."""


class GridMismatch(ConfigError):
    """Two objects built on different grids were mixed."""


class RegimeError(FracblowError):
    """The requested operation is undefined in the given parameter regime."""


class SingularSystem(NumericalError):
    """A dense linear system was singular or numerically unusable."""


class NoAdmissiblePair(NumericalError):
    """No ordered sub/super-solution pair: the closed-form pair scales
    leave their range or fail the residual test."""


class NewtonStall(NumericalError):
    """Newton did not meet its stop test within its iteration limit."""


class MonotoneViolation(NumericalError):
    """The solution fell below the sub-solution somewhere it must not."""


class AuditFail(NumericalError):
    """A nonexistence audit could not certify the required residual signs."""


class TooFewPoints(NumericalError):
    """A fit or band check was asked to run on too small a node set."""
