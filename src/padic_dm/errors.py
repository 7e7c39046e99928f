"""Exception types shared across the package.

Every error carries a stable machine-readable ``code`` so the CLI can
serialize failures deterministically.
"""

from __future__ import annotations


class PadicDMError(Exception):
    """Base class for all package errors."""

    code = "error"


class FieldMismatch(PadicDMError):
    code = "field-mismatch"


class NotExpandable(PadicDMError):
    """The denominator of a scalar is not a unit of the approximation ring."""

    code = "not-expandable"


class ZeroPolynomial(PadicDMError):
    code = "zero-polynomial"


class NotMonic(PadicDMError):
    code = "not-monic"


class ZeroDegree(PadicDMError):
    code = "zero-degree"


class SearchExhausted(PadicDMError):
    """The cyclic vector candidate schedule ran out.

    This signals an implementation limit of the documented schedule, not a
    mathematical impossibility.
    """

    code = "search-exhausted"


class IntegrabilityError(PadicDMError):
    """The per-derivation matrices of a module do not commute as operators."""

    code = "integrability"


class NoGap(PadicDMError):
    """No Newton-polygon break separates the radii at the requested value."""

    code = "no-gap"


class PrecisionLoss(PadicDMError):
    """A computation would drop below the requested valuation precision."""

    code = "precision-loss"


class IterationBudget(PadicDMError):
    """A factorization iteration stalled or ran past its budget."""

    code = "iteration-budget"


class CertificateFailure(PadicDMError):
    """A decomposition certificate check failed."""

    code = "certificate-failure"


class StabilityFailure(PadicDMError):
    """A component is not stable under a sibling derivation at precision."""

    code = "stability-failure"


class AllZero(PadicDMError):
    """Every coefficient in the inspected window is zero (radius +infinity)."""

    code = "all-zero"


class OutputError(PadicDMError):
    """The report could not be written to the requested --out file."""

    code = "output-error"


class ParseError(PadicDMError):
    """Grammar error in a text input; ``position`` is a 0-based offset."""

    code = "parse-error"

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
