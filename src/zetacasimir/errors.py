"""Exception hierarchy shared by all layers of the package."""


class ZetaCasimirError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ZetaCasimirError):
    """Input lies outside the mathematical domain of the operation."""


class PoleError(DomainError):
    """Evaluation requested exactly at a pole or a genuine discontinuity."""


class ConvergenceError(ZetaCasimirError):
    """A certified truncation bound could not reach the requested tolerance."""


class QuadratureError(ZetaCasimirError):
    """A quadrature error estimate or truncation bound exceeds the tolerance."""
