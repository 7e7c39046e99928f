"""Text grammar for scalars, operators and matrices.

Scalar syntax: integer-coefficient rational expressions in the field
variables, e.g. ``(x^2+1)/(5*x)``.  Operator syntax: the same expressions
extended by the symbol T, read as coefficient notation ``sum c_k * T^k``
(the text is a presentation of the coefficient sequence, not a twisted
product: ``T*x`` and ``x*T`` denote the same operator with coefficient x).
Matrix syntax: rows separated by ``;``, entries by ``,``.

Grammar errors carry the 0-based offset of the offending token.
"""

from __future__ import annotations

from .errors import ParseError
from .precision import ExactDomain
from .scalarfield import FieldSpec, Scalar
from .twisted import TwistedPoly

_OPS = set("+-*/^(),;")

# Cap on exponents and on operator degree, so that a number written in the
# input cannot make parsing run for an unbounded time.
MAX_DEGREE = 512

# Cap on the total degree of the numerator and of the denominator of every
# parsed coefficient, checked after each sum, product and power: capped
# exponents alone still let nesting and products build degree 512^k from a
# short input, as in ((x+1)^32)^32.  README, test and benchmark inputs
# have degree <= 3; `radii` on the operator T + (x+1)^k takes ~1.2 s at
# k = 64 (in process, one run), so the cap guards against such nesting
# rather than against the cost of degree 64 itself.
MAX_SCALAR_DEGREE = 64


def _tokenize(text: str):
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            out.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("name", text[i:j], i))
            i = j
            continue
        if ch in _OPS:
            out.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    out.append(("end", None, n))
    return out


class _Expr:
    """Recursive-descent evaluator into dense T-polynomials over a field.

    A value is a list of Scalars indexed by T-power; scalar contexts
    require the list to have length 1.
    """

    def __init__(self, tokens, field: FieldSpec, allow_t: bool):
        self.toks = tokens
        self.pos = 0
        self.field = field
        self.allow_t = allow_t

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self) -> list:
        v = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return v

    # expr := term (('+'|'-') term)*
    def expr(self) -> list:
        v = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _txt, pos = self.take()
            w = self.term()
            v = _capped(_padd(v, w if op == "+" else _pneg(w)), pos)
        return v

    # term := unary (('*'|'/') unary)*
    def term(self) -> list:
        v = self.unary()
        while self.peek()[0] in ("*", "/"):
            op, _txt, pos = self.take()
            w = self.unary()
            if op == "*":
                v = _pmul(v, w)
            else:
                if len(w) != 1:
                    raise ParseError("cannot divide by an operator", pos)
                if w[0].is_zero():
                    raise ParseError("division by zero", pos)
                v = [c / w[0] for c in v]
            v = _capped(v, pos)
        return v

    def unary(self) -> list:
        tok = self.peek()
        if tok[0] == "-":
            self.take()
            return _pneg(self.unary())
        if tok[0] == "+":
            self.take()
            return self.unary()
        return self.power()

    # power := atom ('^' int)?
    def power(self) -> list:
        v = self.atom()
        if self.peek()[0] == "^":
            _op, _txt, pos = self.take()
            sign = 1
            if self.peek()[0] == "-":
                self.take()
                sign = -1
            etok = self.take("int")
            e = etok[1]
            if sign < 0:
                if len(v) != 1:
                    raise ParseError("negative power of an operator", pos)
                v = [v[0].inverse()]
            v = _ppow(v, e, pos)
        return v

    def atom(self) -> list:
        tok = self.take()
        kind, val, pos = tok
        if kind == "int":
            return [self.field.scalar(val)]
        if kind == "name":
            if val == "T":
                if not self.allow_t:
                    raise ParseError("symbol T not allowed in scalar input", pos)
                return [self.field.zero(), self.field.one()]
            if val in self.field.variables:
                return [self.field.var(self.field.variables.index(val))]
            raise ParseError(f"unknown symbol {val!r}", pos)
        if kind == "(":
            v = self.expr()
            self.take(")")
            return v
        raise ParseError(f"unexpected token {val!r}", pos)


def _padd(a: list, b: list) -> list:
    n = max(len(a), len(b))
    field = (a or b)[0].field
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else field.zero()
        y = b[i] if i < len(b) else field.zero()
        out.append(x + y)
    return out


def _pneg(a: list) -> list:
    return [-c for c in a]


def _pmul(a: list, b: list) -> list:
    field = a[0].field
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _ppow(a: list, e: int, pos: int) -> list:
    if e < 0:
        raise ParseError("negative exponent", pos)
    if e > MAX_DEGREE:
        raise ParseError(f"exponent above {MAX_DEGREE}", pos)
    field = a[0].field
    out = [field.one()]
    for _ in range(e):
        out = _capped(_pmul(out, a), pos)
        if len(out) > MAX_DEGREE:
            raise ParseError("operator degree too large", pos)
    return out


def _capped(a: list, pos: int) -> list:
    for c in a:
        for poly in (c.num, c.den):
            if max(map(sum, poly), default=0) > MAX_SCALAR_DEGREE:
                raise ParseError(
                    f"coefficient degree above {MAX_SCALAR_DEGREE}", pos)
    return a


def parse_scalar(text: str, field: FieldSpec) -> Scalar:
    v = _Expr(_tokenize(text), field, allow_t=False).parse()
    return v[0]


def parse_operator(text: str, field: FieldSpec, deriv: int = 0) -> TwistedPoly:
    v = _Expr(_tokenize(text), field, allow_t=True).parse()
    return TwistedPoly(ExactDomain(field), deriv, v)


def parse_matrix(text: str, field: FieldSpec) -> list:
    rows = []
    for row_txt in text.split(";"):
        row = [parse_scalar(e, field) for e in row_txt.split(",")]
        rows.append(row)
    if any(len(r) != len(rows) for r in rows):
        raise ParseError("matrix text is not square")
    return rows


def matrix_str(m: list) -> str:
    return ";".join(",".join(str(e) for e in row) for row in m)
