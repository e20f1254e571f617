"""Exception types shared across the package.

Every error raised by the library derives from QuasidentError, so callers
can catch one base class.  The names mirror the failure modes of the public
operations (missing evaluation data, dimension misuse, structural
preconditions, resource ceilings).
"""

from __future__ import annotations


class QuasidentError(Exception):
    """Base class for all errors raised by quasident."""


class MissingAssignment(QuasidentError):
    """A variable or generator needed by an evaluation has no value."""


class DimensionMismatch(QuasidentError):
    """Matrix dimensions or coefficient indices are inconsistent."""


class NotHomogeneous(QuasidentError):
    """Polarization input is not homogeneous in the chosen generator."""


class CoefficientDependsOnGenerator(QuasidentError):
    """Polarization input has coefficients involving the polarized generator."""


class NotMultilinear(QuasidentError):
    """Antisymmetrization input is not multilinear in the listed generators."""


class AmbientMismatch(QuasidentError):
    """Subspace operation on spaces with different ambient dimensions."""


class BudgetExceeded(QuasidentError):
    """A configured size ceiling would be exceeded; computation refused."""


def capped_power(base: int, e: int, budget: int) -> int:
    """base ** e as compared with the budget, the exponent capped at the
    budget's bit length (at least 1): for base >= 2 the capped power already
    exceeds the budget, and 0 and 1 have one power from exponent 1 on."""
    return base ** min(e, max(budget.bit_length(), 1))


class NotOneVariable(QuasidentError):
    """Division input involves more than one generator."""


class NotAQuasiIdentity(QuasidentError):
    """Division input does not vanish under the generic-matrix evaluation."""


class ArityMismatch(QuasidentError):
    """A multilinear function was applied to the wrong number of matrices."""


class WrongDegree(QuasidentError):
    """A graded operation received an element of the wrong degree."""


class DimensionRequired(QuasidentError):
    """The expression needs a matrix dimension n but none was supplied."""


class QuasiSyntaxError(QuasidentError):
    """Parse failure; carries 1-based line and column of the offending token."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column
