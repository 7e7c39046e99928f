"""Exception types shared across the package.

Every error carries a stable machine-readable ``code`` so the CLI can
serialize failures deterministically, and the ``exit_code`` the CLI exits
with when it reports one: 1 by default (parse and input errors), 2 for a
certificate, gap or stability failure, 3 for a precision or iteration
budget abort.  These classes are the one table of exit statuses; the
README lists it.
"""

from __future__ import annotations


class PadicDMError(Exception):
    """Base class for all package errors.

    ``attempts`` holds the (code, message) of every failed try behind the
    error, the error itself last, when the raiser retried (``decompose``).
    """

    code = "error"
    exit_code = 1
    attempts: tuple = ()


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
    exit_code = 2


class PrecisionLoss(PadicDMError):
    """A computation would drop below the requested valuation precision.

    ``shortfall`` > 0 when a lifting floor missed the target by that many
    digits: a rerun with as many more working digits may reach it.
    """

    code = "precision-loss"
    exit_code = 3

    def __init__(self, message: str, shortfall: int = 0):
        self.shortfall = shortfall
        super().__init__(message)


class IterationBudget(PadicDMError):
    """A factorization iteration stalled or ran past its budget."""

    code = "iteration-budget"
    exit_code = 3


class CertificateFailure(PadicDMError):
    """A decomposition certificate check failed."""

    code = "certificate-failure"
    exit_code = 2


class StabilityFailure(PadicDMError):
    """A component is not stable under a sibling derivation at precision."""

    code = "stability-failure"
    exit_code = 2


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
