"""Internal multivariate polynomials over Z.

A polynomial in n variables is a dict mapping exponent tuples of length n
to nonzero ``int`` coefficients; {} is the zero polynomial.  A field
element is a fraction of two such polynomials (``scalarfield.Scalar``), so
Python integers are the one coefficient type.  This is plumbing for the
scalar field layer: only the handful of operations the field needs, no
general polynomial API.

Univariate products, here and in ``precision._conv``, go through one
dispatcher (``p_mul_uni``): Kronecker substitution (``_kronecker``) from
``MUL_KRONECKER_PAIRS`` term pairs on, the pairwise loop below.  The gcd
of two polynomials of which one is a single term c*x^e is the monomial
``p_mono_gcd``, and dividing by it is the exponent shift ``p_shift``; the
remaining gcds (``p_gcd``, on primitive parts) and exact divisions
(``p_divexact``) evaluate their operands at powers of two.  ``p_gcd``
returns g with the cofactors a/g and b/g, which it computes to accept g.
"""

from __future__ import annotations

from math import gcd as int_gcd
from operator import add

Mono = tuple
Poly = dict

# Univariate products with at least this many term pairs go through
# ``_kronecker``, the others through the pairwise loop (``p_mul_uni``
# gives the measurement behind the value).
MUL_KRONECKER_PAIRS = 192


def p_const(nvars: int, c: int) -> Poly:
    return {(0,) * nvars: c} if c else {}

def p_var(nvars: int, i: int) -> Poly:
    e = [0] * nvars
    e[i] = 1
    return {tuple(e): 1}

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
    polynomials or digit dicts: the one univariate product of ``p_mul``
    and ``precision._conv``.

    A single-term operand scales the other in one pass; at least
    ``MUL_KRONECKER_PAIRS`` term pairs go through ``_kronecker``, fewer
    through the pairwise loop.  Loop time over packed time by pair count,
    replaying the multi-term products of one pass (corpus 202, one
    process) of the ``radii`` (4137 products) and ``decompose`` (4593)
    benchmarks:

        pairs       4-7  8-15  16-31  32-63  64-127  128-191  192-255  256-383
        radii      0.17  0.21   0.27   0.40    0.53     0.66     1.57     1.93
        decompose  0.18  0.25   0.35   0.50    0.62     0.84     1.13     1.31

    and 3.5 on the 2056 ``decompose`` products of 384 pairs or more.
    Zero results are dropped.
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


def p_primitive(a: Poly) -> tuple:
    """The content c > 0 of a nonzero a (the gcd of its coefficients), and
    the primitive part a/c."""
    c = int_gcd(*a.values())
    return c, a if c == 1 else {m: v // c for m, v in a.items()}


def p_int_vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def p_min_vp(a: Poly, p: int) -> int:
    """Gauss valuation of a nonzero a: the p-adic valuation of its content."""
    return p_int_vp(int_gcd(*a.values()), p)


def p_mono_gcd(a: Poly, b: Poly) -> Mono:
    """Componentwise-minimal exponents over the terms of a and b (both
    nonzero): the exponents of gcd(a, b) when a or b is a single term."""
    return tuple(map(min, zip(*a, *b)))


def p_shift(a: Poly, e: Mono) -> Poly:
    """a / x^e; x^e must divide every term of a."""
    return {tuple(x - y for x, y in zip(m, e)): c for m, c in a.items()}


def p_gcd(a: Poly, b: Poly) -> tuple:
    """(g, a/g, b/g) for nonzero a and b, g a gcd of a and b in Z[x]: the
    gcd of the contents times a gcd of the primitive parts."""
    return _gcd_heu(a, b)


def p_divexact(a: Poly, g: Poly) -> Poly:
    """Exact division a/g in Z[x]; ArithmeticError when g does not divide a."""
    if not a:
        return {}
    q = _quo(a, g)
    if q is None:
        raise ArithmeticError("inexact polynomial division")
    return q


# Integer polynomials are solved one variable down: the last variable is set
# to 2^k (``_eval``) and the answer is read back from balanced base-2^k
# digits (``_rebuild``).  ``_quo`` sizes k by Mignotte's bound on factors of
# a, 2^(sum of the degrees of a) * |a|_2.  The heuristic gcd of Char, Geddes
# and Gonnet (GCDHEU, 1989) is exact once 2^k exceeds a bound fixed by the
# inputs (their norms and cofactor resultants; the unlucky values of y are
# finitely many), so doubling k ends; every candidate is checked by product.

def _gcd_heu(a: dict, b: dict) -> tuple:
    """(g, a/g, b/g): a gcd g of two nonzero polynomials with integer
    coefficients, and its cofactors."""
    (ca, a), (cb, b) = p_primitive(a), p_primitive(b)
    c = int_gcd(ca, cb)
    g, qa, qb = {(): 1}, a, b
    if () not in a:
        k = max(map(abs, (*a.values(), *b.values()))).bit_length() + 2
        while True:
            g = p_primitive(_rebuild(_gcd_heu(_eval(a, k), _eval(b, k))[0],
                                     k))[1]
            qa = _quo(a, g)
            qb = qa and _quo(b, g)
            if qb:
                break
            k += k
    return tuple({m: s * v for m, v in q.items()}
                 for s, q in ((c, g), (ca // c, qa), (cb // c, qb)))


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
    """Truncated product of univariate int polynomials or digit dicts
    (bivariate ones after ``precision._weighted``) by Kronecker
    substitution.

    Both digit vectors are evaluated at 2^k, so one product of ints does
    the whole convolution.  Each output digit is a sum of at most
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
    da = _dense(a, loa, min(top, hia - loa) + 1)
    db = _dense(b, lob, min(top, hib - lob) + 1)
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
    return {(lo + i,): c for i, c in enumerate(digits) if c}


def _dense(d: dict, lo: int, n: int) -> list:
    """The digits of d at exponents lo .. lo+n-1, zeros included."""
    dense = [0] * n
    for (e,), c in d.items():
        if e - lo < n:
            dense[e - lo] = c
    return dense


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
