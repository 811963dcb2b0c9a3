"""Exception hierarchy.

Every domain error carries a stable ``code`` string so front ends (notably the
command line interface) can report failures in machine-readable form.
"""


class SpinLiftError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "Error"


class InvalidMetricError(SpinLiftError):
    code = "InvalidMetric"


class InvalidBivectorError(SpinLiftError):
    code = "InvalidBivector"


class SimpleInputError(SpinLiftError):
    """An operation that needs a non-simple input received a simple one."""

    code = "SimpleInput"


class DegeneratePlaneError(SpinLiftError):
    """The plane of a simple bivector is null, so no projection exists."""

    code = "DegeneratePlane"


class InvalidTransformationError(SpinLiftError):
    code = "InvalidTransformation"


class NotSimpleError(SpinLiftError):
    """An operation restricted to simple transformations got a generic one."""

    code = "NotSimple"


class TracelessSimpleError(SpinLiftError):
    """Simple transformation with vanishing trace, outside a simple-only formula."""

    code = "TracelessSimple"


class SimpleTransformError(SpinLiftError):
    """Factorization requires a transformation with two distinct factors."""

    code = "SimpleTransform"


class NotNonsimpleError(SpinLiftError):
    code = "NotNonsimple"


class DegenerateDenominatorError(SpinLiftError):
    """The generic non-simple lift denominator vanishes; ``lift`` handles it."""

    code = "DegenerateDenominator"


class SingularSigmaError(SpinLiftError):
    code = "SingularSigma"


class NonFiniteOutputError(SpinLiftError):
    code = "NonFiniteOutput"


class MalformedInputError(SpinLiftError):
    """Raised by the CLI for requests that cannot be parsed at all."""

    code = "MalformedInput"
