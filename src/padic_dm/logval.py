"""Exact log-scale valuations.

An lv is -log_B |x| (B = p for the Gauss fields, an abstract base for the
Laurent field) as an exact ``fractions.Fraction``, named ``LogVal``; lv(0)
is the sentinel ``INF`` for +infinity.  Larger lv means smaller absolute
value; all radii and norms live on this scale.  An lv is never a bare
``int``, whose ``/`` gives a float: producers return ``LogVal(...)``.
"""

from fractions import Fraction

LogVal = Fraction


class _Infinity:
    """+infinity on the lv scale, above every rational in both operand
    orders (``Fraction``'s operators return NotImplemented for it).  Absorbs
    ``+``, and ``/`` by n > 0; ``INF - x`` is INF; ``x - INF``, ``INF - INF``
    and ``-INF`` raise ValueError.  Copies and pickles stay ``INF``."""

    __slots__ = ()

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __sub__(self, other):
        if other is self:
            raise ValueError("cannot subtract an infinite lv")
        return self

    def __rsub__(self, other):
        raise ValueError("cannot subtract an infinite lv")

    def __neg__(self):
        raise ValueError("cannot negate an infinite lv")

    def __truediv__(self, n):
        if not n > 0:
            raise ValueError("an infinite lv divides only by n > 0")
        return self

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return object.__hash__(self)

    def __reduce__(self):
        return "INF"

    def __str__(self):
        return "inf"

    def __repr__(self):
        return "INF"


INF = _Infinity()
