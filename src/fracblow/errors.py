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


class NonIntegrable(NumericalError):
    """Declared integrand orders imply a divergent integral."""


class NoConvergence(NumericalError):
    """Adaptive refinement exhausted its subdivision budget above tolerance."""


class BracketFailure(NumericalError):
    """A sign-changing bracket could not be established for a root."""


class RegimeError(FracblowError):
    """The requested operation is undefined in the given parameter regime."""


class GridMismatch(FracblowError):
    """Two objects built on different grids (or exterior extensions) were mixed."""


class SingularSystem(NumericalError):
    """A dense linear system was singular or numerically unusable."""


class NoAdmissiblePair(NumericalError):
    """The scaling search for an ordered sub/super-solution pair failed."""


class NewtonStall(NumericalError):
    """Damped Newton hit its damping floor without reducing the residual."""


class MonotoneViolation(NumericalError):
    """An exhaustion iterate decreased somewhere it must not."""


class AuditFail(NumericalError):
    """A nonexistence audit could not certify the required residual signs."""


class TooFewPoints(NumericalError):
    """A fit or band check was asked to run on too small a node set."""
