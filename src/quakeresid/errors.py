"""Exception types shared across the toolkit, and the finite-positive
check that several modules raise them from."""

import numpy as np


class QuakeResidError(Exception):
    """Base class for all toolkit errors."""


class ParseError(QuakeResidError):
    """A line of an input file could not be parsed."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class SchemaError(QuakeResidError):
    """Input rows are individually valid but mutually inconsistent."""


class ValidationError(QuakeResidError):
    """A value violates a documented invariant."""


class OutsideRegionError(QuakeResidError):
    """A point lies outside the active observation region."""


class DegenerateInfimumError(QuakeResidError):
    """A method needs a field's infimum rate positive and it is zero: exact
    thinning keeps nothing, and the weighted K's prefactor is zero."""


def check_finite_positive(name: str, value: float) -> None:
    """Raise ValidationError unless value is finite and positive."""
    if not (np.isfinite(value) and value > 0):
        raise ValidationError(f"{name} must be finite and positive")
