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

# Cap on the bit length of every integer literal and of the numerator and
# denominator of every rational coefficient a parsed scalar prints
# (``Scalar.rational_parts``), checked with the degree cap.  Reports print
# the input's coefficients (``dual_mats``) and quotients and short products
# of them (monic forms, cyclic operators), and Python refuses to print an
# int of more than 4300 decimal digits.  2048 bits are 617 digits, so a
# product of up to six capped integers still prints.
MAX_HEIGHT_BITS = 2048

# Cap on nesting: open parentheses plus unary signs around a token.  The
# recursive descent takes about six Python frames per parenthesis and two
# per sign, so without a cap 200 parentheses or 600 signs overrun the
# interpreter's default recursion limit of 1000 and end in a traceback.
# README, golden and test inputs nest at most 2 deep.
MAX_NESTING = 64


def _tokenize(text: str, base: int = 0):
    """The tokens of text as (kind, value, position), each position the
    0-based offset in text plus ``base``."""
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
            # k digits without leading zeros hold more than 3 (k - 1) bits,
            # so a literal is converted only when it may be under the cap
            digits = text[i:j].lstrip("0") or "0"
            if (3 * (len(digits) - 1) > MAX_HEIGHT_BITS
                    or int(digits).bit_length() > MAX_HEIGHT_BITS):
                raise ParseError(
                    f"integer literal above {MAX_HEIGHT_BITS} bits", base + i)
            out.append(("int", int(digits), base + i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("name", text[i:j], base + i))
            i = j
            continue
        if ch in _OPS:
            out.append((ch, ch, base + i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", base + i)
    out.append(("end", None, base + n))
    return out


def _shown(tok) -> str:
    """A token as error messages name it."""
    return "end of input" if tok[0] == "end" else repr(tok[1])


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
        self.depth = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {_shown(tok)}", tok[2])
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
                v = _pmul(v, w, pos)
            else:
                if len(w) != 1:
                    raise ParseError("cannot divide by an operator", pos)
                v = _pdiv(v, w, pos)
            v = _capped(v, pos)
        return v

    def nested(self, parse, pos: int) -> list:
        """parse() one level deeper, within MAX_NESTING."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING}", pos)
        v = parse()
        self.depth -= 1
        return v

    def unary(self) -> list:
        tok = self.peek()
        if tok[0] in ("-", "+"):
            self.take()
            v = self.nested(self.unary, tok[2])
            return _pneg(v) if tok[0] == "-" else v
        return self.power()

    # power := atom ('^' '-'? int)?; a^-e is (1/a)^e
    def power(self) -> list:
        v = self.atom()
        if self.peek()[0] == "^":
            _op, _txt, pos = self.take()
            negative = self.peek()[0] == "-"
            if negative:
                self.take()
            e = self.take("int")[1]
            if negative:
                if len(v) != 1:
                    raise ParseError("negative power of an operator", pos)
                v = _pdiv([self.field.one()], v, pos)
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
            v = self.nested(self.expr, pos)
            self.take(")")
            return v
        raise ParseError(f"unexpected token {_shown(tok)}", pos)


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


def _pmul(a: list, b: list, pos: int) -> list:
    """The product, refused before it is formed past the degree cap."""
    if len(a) + len(b) - 1 > MAX_DEGREE:
        raise ParseError("operator degree too large", pos)
    field = a[0].field
    out = [field.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero():
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _pdiv(a: list, b: list, pos: int) -> list:
    """a / b for a scalar b: the one zero test of a divisor."""
    if b[0].is_zero():
        raise ParseError("division by zero", pos)
    return [c / b[0] for c in a]


def _ppow(a: list, e: int, pos: int) -> list:
    if e > MAX_DEGREE:
        raise ParseError(f"exponent above {MAX_DEGREE}", pos)
    field = a[0].field
    out = [field.one()]
    for _ in range(e):
        out = _capped(_pmul(out, a, pos), pos)
    return out


def _capped(a: list, pos: int) -> list:
    for c in a:
        for poly in c.rational_parts():
            if max(map(sum, poly), default=0) > MAX_SCALAR_DEGREE:
                raise ParseError(
                    f"coefficient degree above {MAX_SCALAR_DEGREE}", pos)
            if any(q.numerator.bit_length() > MAX_HEIGHT_BITS
                   or q.denominator.bit_length() > MAX_HEIGHT_BITS
                   for q in poly.values()):
                raise ParseError(
                    f"coefficient height above {MAX_HEIGHT_BITS} bits", pos)
    return a


def parse_scalar(text: str, field: FieldSpec, offset: int = 0) -> Scalar:
    """The scalar of ``text``; error positions count from ``offset``, the
    start of text in a larger input."""
    v = _Expr(_tokenize(text, offset), field, allow_t=False).parse()
    return v[0]


def parse_operator(text: str, field: FieldSpec, deriv: int = 0) -> TwistedPoly:
    v = _Expr(_tokenize(text), field, allow_t=True).parse()
    return TwistedPoly(ExactDomain(field), deriv, v)


def parse_matrix(text: str, field: FieldSpec) -> list:
    """The square matrix of ``text``; its shape is checked before any entry
    is parsed, so a wide row costs no parsing.  Entry errors give their
    offset in ``text``."""
    rows = [row.split(",") for row in text.split(";")]
    if any(len(r) != len(rows) for r in rows):
        raise ParseError("matrix text is not square")
    out, start = [], 0
    for r in rows:
        row = []
        for e in r:
            row.append(parse_scalar(e, field, offset=start))
            start += len(e) + 1   # the entry and its ',' or ';'
        out.append(row)
    return out


def matrix_str(m: list) -> str:
    return ";".join(",".join(str(e) for e in row) for row in m)
