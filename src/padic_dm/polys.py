"""Internal multivariate polynomials over Q.

A polynomial in n variables is a dict mapping exponent tuples of length n
to nonzero ``Fraction`` coefficients; {} is the zero polynomial.  This is
plumbing for the scalar field layer: only the handful of operations the
field needs, no general polynomial API.

Univariate products, here and in ``precision._conv``, go through one
dispatcher (``p_mul_uni``): Kronecker substitution (``_kronecker``) from
``MUL_KRONECKER_PAIRS`` term pairs on, the pairwise loop below.  The gcd
of two polynomials of which one is a single term c*x^e is the monomial
``p_mono_gcd``, and dividing by it is the exponent shift ``p_shift``; the
remaining gcds (``p_gcd``) and exact divisions (``p_divexact``) evaluate
the integer primitive parts at powers of two, on Python integers only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd as int_gcd
from operator import add

Mono = tuple
Poly = dict

# Univariate products with at least this many term pairs go through
# ``_kronecker``, the others through the pairwise loop (``p_mul_uni``
# gives the measurement behind the value).
MUL_KRONECKER_PAIRS = 8


def p_const(nvars: int, c) -> Poly:
    c = Fraction(c)
    return {} if c == 0 else {(0,) * nvars: c}

def p_var(nvars: int, i: int) -> Poly:
    e = [0] * nvars
    e[i] = 1
    return {tuple(e): Fraction(1)}

def p_is_const(a: Poly) -> bool:
    return not any(map(any, a))

def p_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out

def p_neg(a: Poly) -> Poly:
    return {m: -c for m, c in a.items()}

def p_sub(a: Poly, b: Poly) -> Poly:
    return p_add(a, p_neg(b))

def p_mul(a: Poly, b: Poly) -> Poly:
    """Product of two polynomials.

    A single-term operand c*x^e scales the other in one pass (a shift
    alone when c = 1); other univariate operands go through
    ``p_mul_uni``, multivariate ones through the pairwise loop.
    """
    if not a or not b:
        return {}
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        ((ma, ca),) = a.items()
        if ca == 1:
            return {tuple(map(add, ma, mb)): cb for mb, cb in b.items()}
        return {tuple(map(add, ma, mb)): ca * cb for mb, cb in b.items()}
    if len(next(iter(a))) == 1:
        return p_mul_uni(a, b, max(a)[0] + max(b)[0])
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(map(add, ma, mb))
            s = out.get(m, 0) + ca * cb
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out

def p_mul_uni(a: dict, b: dict, dcap: int) -> dict:
    """Terms of degree <= dcap of the product of two nonzero univariate
    polynomials or digit dicts (``Fraction`` or ``int`` coefficients):
    the one univariate product of ``p_mul`` and ``precision._conv``.

    A single-term operand scales the other in one pass; at least
    ``MUL_KRONECKER_PAIRS`` term pairs go through ``_kronecker``, fewer
    through the pairwise loop.  Measured in one process, loop against
    packed product by pair count: on the 1535 multi-term products of the
    ``radii`` benchmark corpus (seed 202, ``Fraction`` coefficients, 2 to
    400 pairs) the loop is ahead below 8 pairs (the packed product takes
    1.2x as long) and the packed product wins by 1.3x from 8 to 15 pairs,
    2.7x from 32 to 63 and 7x from 128 to 255; the ``Fraction`` digits of
    the ``decompose`` corpus give the same crossover (0.7x below 8 pairs,
    1.3x at 8 to 15).  Its ``int`` digits (Gauss digits and Laurent
    numerators) favour the loop up to about 256 pairs, but the ~1400 such
    products of a pass cost only ~23 ms more on the packed path, so one
    threshold serves both.  On 65 x 65
    dense terms the packed product is 8x (4-digit rationals) to 44x
    (binomial coefficients) faster.  Zero results are dropped.
    """
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        ((ea,), ca), = a.items()
        rem = dcap - ea
        return {(ea + eb,): ca * cb for (eb,), cb in b.items() if eb <= rem}
    if len(a) * len(b) >= MUL_KRONECKER_PAIRS:
        return _kronecker(a, b, dcap)
    out: dict = {}
    for (ea,), ca in a.items():
        rem = dcap - ea
        for (eb,), cb in b.items():
            if eb <= rem:
                m = (ea + eb,)
                s = out.get(m, 0) + ca * cb
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
    return out

def p_scale(a: Poly, c) -> Poly:
    c = Fraction(c)
    if c == 0:
        return {}
    return {m: cc * c for m, cc in a.items()}

def p_derive(a: Poly, var: int) -> Poly:
    out: Poly = {}
    for m, c in a.items():
        e = m[var]
        if e:
            m2 = m[:var] + (e - 1,) + m[var + 1:]
            s = out.get(m2, 0) + c * e
            if s:
                out[m2] = s
            else:
                out.pop(m2, None)
    return out

def p_min_exp(a: Poly, var: int) -> int:
    return min((m[var] for m in a), default=-1)


def p_content(a: Poly) -> Fraction:
    """Positive rational c with a/c integer-coefficient and primitive."""
    if not a:
        return Fraction(1)
    return Fraction(int_gcd(*[c.numerator for c in a.values()]),
                    math.lcm(*[c.denominator for c in a.values()]))


def p_primitive(a: Poly) -> tuple:
    """The content c of a, and a/c as a polynomial with int coefficients."""
    c = p_content(a)
    return c, {m: v.numerator * (c.denominator // v.denominator) // c.numerator
               for m, v in a.items()}


def p_int_vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def p_frac_vp(c: Fraction, p: int) -> int:
    return p_int_vp(c.numerator, p) - p_int_vp(c.denominator, p)


def p_min_vp(a: Poly, p: int) -> int:
    """Gauss valuation: min over coefficients of the p-adic valuation."""
    return min(p_frac_vp(c, p) for c in a.values())


def p_mono_gcd(a: Poly, b: Poly) -> Mono:
    """Componentwise-minimal exponents over the terms of a and b (both
    nonzero): the exponents of gcd(a, b) when a or b is a single term."""
    return tuple(map(min, zip(*a, *b)))


def p_shift(a: Poly, e: Mono) -> Poly:
    """a / x^e; x^e must divide every term of a."""
    return {tuple(x - y for x, y in zip(m, e)): c for m, c in a.items()}


def p_gcd(a: Poly, b: Poly, nvars: int) -> Poly:
    """A gcd of a and b, with integer ``Fraction`` coefficients."""
    if not a or not b:
        return dict(a or b)
    return {m: Fraction(c) for m, c in _gcd_heu(a, b).items()}


def p_divexact(a: Poly, g: Poly, nvars: int) -> Poly:
    """Exact division a/g; ArithmeticError when g does not divide a."""
    if not a:
        return {}
    (ca, ia), (cg, ig) = p_primitive(a), p_primitive(g)
    q = _quo(ia, ig)
    if q is None:
        raise ArithmeticError("inexact polynomial division")
    return p_scale(q, ca / cg)


# Integer polynomials are solved one variable down: the last variable is set
# to 2^k (``_eval``) and the answer is read back from balanced base-2^k
# digits (``_rebuild``).  ``_quo`` sizes k by Mignotte's bound on factors of
# a, 2^(sum of the degrees of a) * |a|_2.  The heuristic gcd of Char, Geddes
# and Gonnet (GCDHEU, 1989) is exact once 2^k exceeds a bound fixed by the
# inputs (their norms and cofactor resultants; the unlucky values of y are
# finitely many), so doubling k ends; every candidate is checked by product.

def _gcd_heu(a: dict, b: dict) -> dict:
    """A gcd of two nonzero polynomials, with integer coefficients."""
    (ca, a), (cb, b) = p_primitive(a), p_primitive(b)
    c = int_gcd(ca.numerator, cb.numerator)
    if () in a:
        return {(): c}
    k = max(map(abs, (*a.values(), *b.values()))).bit_length() + 2
    while True:
        g = p_primitive(_rebuild(_gcd_heu(_eval(a, k), _eval(b, k)), k))[1]
        if _quo(a, g) is not None and _quo(b, g) is not None:
            return {m: c * v for m, v in g.items()}
        k += k


def _quo(a: dict, g: dict) -> dict | None:
    """a/g for integer polynomials, a nonzero; None if g does not divide a."""
    if not g:
        return None
    if () in a:
        q, r = divmod(a[()], g[()])
        return None if r else {(): q}
    bound = max(map(abs, a.values())) * len(a)
    k = sum(map(max, zip(*a))) + bound.bit_length() + 1
    q = _quo(_eval(a, k), _eval(g, k))
    q = q and _rebuild(q, k)
    return q if q and p_mul(g, q) == a else None


def _eval(a: dict, k: int) -> dict:
    out: dict = {}
    for m, c in a.items():
        out[m[:-1]] = out.get(m[:-1], 0) + (c << k * m[-1])
    return {m: c for m, c in out.items() if c}


def _rebuild(a: dict, k: int) -> dict:
    out = {}
    half = 1 << (k - 1)
    for m, v in a.items():
        e = 0
        while v:
            v, d = divmod(v + half, 1 << k)
            if d != half:
                out[m + (e,)] = d - half
            e += 1
    return out


def _kronecker(a: dict, b: dict, dcap: int) -> dict:
    """Truncated product of univariate polynomials or digit dicts
    (bivariate ones after ``precision._weighted``) by Kronecker
    substitution.

    Both digit vectors become integers (``ApproxScalar`` digits are ints;
    the ``Fraction`` coefficients of exact ``p_mul`` are put over one
    common denominator) and are evaluated at 2^k, so one product of ints
    does the whole convolution.  Each output digit is a sum of at most
    min(len a, len b) products, so |c| < 2^(k-1) for a slot width of
    bits(max|a|) + bits(max|b|) + bits(min(len a, len b)) + 2, rounded up
    to whole bytes; adding 2^(k-1) to every slot makes the slots
    non-negative, so they unpack exactly from the bytes of the product.
    """
    loa, hia = min(a)[0], max(a)[0]
    lob, hib = min(b)[0], max(b)[0]
    top = dcap - loa - lob
    if top < 0:
        return {}
    da, dena = _int_digits(a, loa, min(top, hia - loa) + 1)
    db, denb = _int_digits(b, lob, min(top, hib - lob) + 1)
    kb = (_bits(da) + _bits(db) + min(len(a), len(b)).bit_length() + 2 + 7) >> 3
    n = min(top + 1, len(da) + len(db) - 1)
    nbytes = n * kb
    bias = int.from_bytes((bytes(kb - 1) + b"\x80") * n, "little")
    prod = _pack(da, kb) * _pack(db, kb) + bias
    buf = (prod & ((1 << (nbytes << 3)) - 1)).to_bytes(nbytes, "little")
    half = 1 << ((kb << 3) - 1)
    frombytes = int.from_bytes
    digits = [frombytes(buf[i:i + kb], "little") - half
              for i in range(0, nbytes, kb)]
    lo = loa + lob
    if dena is None and denb is None:
        return {(lo + i,): c for i, c in enumerate(digits) if c}
    den = (dena or 1) * (denb or 1)
    return {(lo + i,): Fraction(c, den) for i, c in enumerate(digits) if c}


def _int_digits(d: dict, lo: int, n: int) -> tuple:
    """Dense integer digits of d at exponents lo .. lo+n-1, and the common
    denominator that scaled them: None when every digit is an int (every
    ``ApproxScalar`` digit is); ``Fraction``s come from exact ``p_mul``."""
    dense = [0] * n
    for (e,), c in d.items():
        if e - lo < n:
            dense[e - lo] = c
    if all(type(c) is int for c in d.values()):
        return dense, None
    den = math.lcm(*[c.denominator for c in dense])
    return [c.numerator * (den // c.denominator) for c in dense], den


def _bits(digits: list) -> int:
    return max(max(digits), -min(digits)).bit_length()


def _pack(digits: list, kb: int) -> int:
    """sum(c * 2^(8*kb*i)) for the signed digits c of the list."""
    x = int.from_bytes(b"".join([c.to_bytes(kb, "little", signed=True)
                                 for c in digits]), "little")
    if min(digits) < 0:
        # a negative slot is stored as c + 2^k: take back the 2^k it lent
        one, zero = b"\1" + bytes(kb - 1), bytes(kb)
        x -= int.from_bytes(b"".join([one if c < 0 else zero for c in digits]),
                            "little") << (kb << 3)
    return x


def p_sort_key(m: Mono):
    return (sum(m), m)


def p_to_str(a: Poly, names: tuple) -> str:
    if not a:
        return "0"
    parts = []
    for m in sorted(a, key=p_sort_key, reverse=True):
        c = a[m]
        factors = []
        for name, e in zip(names, m):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            txt = str(c)
        else:
            body = "*".join(factors)
            if c == 1:
                txt = body
            elif c == -1:
                txt = f"-{body}"
            else:
                txt = f"{c}*{body}"
        parts.append(txt)
    out = parts[0]
    for t in parts[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out
