"""Exception types shared across the package."""


class SingeqError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(SingeqError):
    pass


class AlgebraMismatch(SingeqError):
    pass


class ValidationError(SingeqError):
    """A structural invariant failed (algebra axioms, d*d != 0, ...)."""


class IsomorphismUndecided(SingeqError):
    """find_isomorphism gave up beyond its exhaustive-search bound."""


class PeriodicityError(SingeqError):
    """NO-PERIODICITY-WITHIN-BOUND: no syzygy repetition detected."""


class LiftError(SingeqError):
    """PERIODIC-CLOSURE-FAILED: no tail-periodic lift within the bound."""


class NotGorensteinError(SingeqError):
    pass


class ConfigError(SingeqError):
    """An environment override has a value outside its domain."""


class UnsupportedShape(SingeqError):
    """Operation only implemented for the shapes the pipeline needs."""


class ParseError(SingeqError):
    """Input-format rejection; carries location information."""

    def __init__(self, message, line=None, column=None, path=None):
        self.line = line
        self.column = column
        self.path = path
        where = ""
        if path is not None:
            where += f"{path}: "
        if line is not None:
            where += f"line {line}, column {column}: "
        super().__init__(where + message)
