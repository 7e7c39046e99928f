"""Exact log-scale valuations.

A ``LogVal`` stores -log_B |x| as an exact rational, where B is the value
group base of the ambient field (B = p for the Gauss p-adic fields, an
abstract base for the Laurent field).  The zero element maps to +infinity.
Larger LogVal means smaller absolute value; all radii and norms in this
package live on this scale.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

RatLike = Union[int, Fraction]


class LogVal:
    """An exact rational, or +infinity.  Immutable.

    Addition mirrors multiplication of absolute values, min mirrors the
    ultrametric bound.  (+inf) + x = +inf; (+inf) - (+inf) is an error.
    """

    __slots__ = ("_v",)

    def __init__(self, value: "RatLike | LogVal | None"):
        # None encodes +infinity.
        if isinstance(value, LogVal):
            self._v = value._v
        elif value is None:
            self._v = None
        else:
            self._v = Fraction(value)

    @staticmethod
    def infinity() -> "LogVal":
        return LogVal(None)

    @property
    def is_infinite(self) -> bool:
        return self._v is None

    @property
    def value(self) -> Fraction:
        if self._v is None:
            raise ValueError("infinite LogVal has no finite value")
        return self._v

    def __add__(self, other: "LogVal | RatLike") -> "LogVal":
        other = _as_logval(other)
        if self._v is None or other._v is None:
            return LogVal(None)
        return LogVal(self._v + other._v)

    __radd__ = __add__

    def __sub__(self, other: "LogVal | RatLike") -> "LogVal":
        other = _as_logval(other)
        if other._v is None:
            raise ValueError("cannot subtract an infinite LogVal")
        if self._v is None:
            return LogVal(None)
        return LogVal(self._v - other._v)

    def __mul__(self, n: RatLike) -> "LogVal":
        if self._v is None:
            return LogVal(None)
        return LogVal(self._v * Fraction(n))

    __rmul__ = __mul__

    def __truediv__(self, n: RatLike) -> "LogVal":
        if self._v is None:
            return LogVal(None)
        return LogVal(self._v / Fraction(n))

    def __neg__(self) -> "LogVal":
        if self._v is None:
            raise ValueError("cannot negate an infinite LogVal")
        return LogVal(-self._v)

    def _cmp_key(self):
        # +infinity sorts above every finite value
        return (1,) if self._v is None else (0, self._v)

    def __lt__(self, other):
        return self._cmp_key() < _as_logval(other)._cmp_key()

    def __le__(self, other):
        return self._cmp_key() <= _as_logval(other)._cmp_key()

    def __gt__(self, other):
        return self._cmp_key() > _as_logval(other)._cmp_key()

    def __ge__(self, other):
        return self._cmp_key() >= _as_logval(other)._cmp_key()

    def __eq__(self, other):
        if not isinstance(other, (LogVal, int, Fraction)):
            return NotImplemented
        return self._cmp_key() == _as_logval(other)._cmp_key()

    def __hash__(self):
        return hash(self._cmp_key())

    def __str__(self):
        return "inf" if self._v is None else str(self._v)

    def __repr__(self):
        return f"LogVal({self})"


def _as_logval(x) -> LogVal:
    return x if isinstance(x, LogVal) else LogVal(x)


INF = LogVal.infinity()
