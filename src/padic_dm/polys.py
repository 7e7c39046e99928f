"""Internal multivariate polynomials over Z.

A polynomial in n variables is a dict mapping exponent tuples of length n
to nonzero ``int`` coefficients; {} is the zero polynomial.  A field
element is a fraction of two such polynomials (``scalarfield.Scalar``), so
Python integers are the one coefficient type.  This is plumbing for the
scalar field layer: only the handful of operations the field needs, no
general polynomial API.

Products, here and in ``precision._conv``, have one routine per arity
(``p_mul_uni``, ``p_mul_bi``), and balanced base-2^k digits one reader
(``_unpack``).  ``p_gcd`` returns a gcd g with the cofactors a/g and b/g,
whose coefficients have no common factor.  When a or b is a single term
c*x^e, g is x^(``p_mono_gcd``) times the gcd of all their coefficients,
and ``p_divexact`` divides by such a g with an exponent shift and an int
division; the other gcds (on primitive parts) and exact divisions
evaluate their operands at powers of two.
"""

from __future__ import annotations

from itertools import accumulate
from math import gcd as int_gcd
from operator import add

Mono = tuple
Poly = dict

# Univariate (bivariate) products with at least this many term pairs of
# degree <= dcap go through ``_kronecker``, the others through the
# pairwise loop; ``p_mul_uni`` (``p_mul_bi``) gives the measurement.
MUL_KRONECKER_PAIRS = 192
KRONECKER_PAIRS = 2 ** 14


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
    ``p_mul_uni``, bivariate ones through ``p_mul_bi`` capped at the sum
    of their total degrees, which keeps every term.
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
    out = p_mul_bi(a, b, max(map(sum, a)) + max(map(sum, b)))
    return {m: c for m, c in out.items() if c}

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

def p_mul_bi(a: dict, b: dict, dcap: int) -> dict:
    """Terms of total degree <= dcap of the product of two nonzero
    bivariate polynomials or digit dicts: the one bivariate product of
    ``p_mul`` and ``precision._conv``.  Zero digits may be kept.

    From ``KRONECKER_PAIRS`` term pairs of total degree <= dcap
    (``_pairs``) on, ``_kronecker`` multiplies the weighted operands
    (``_weighted``) below cap (dcap+1)^2 - 1, and an output exponent e maps
    back to x^(k-j) y^j for k, j = divmod(e, dcap + 1); fewer pairs go
    through the pairwise loop, with b scanned in degree order.  The pair
    count is the work of the loop; the packed product costs about
    (dcap+1)^2 slots, half of them empty, whatever the operands.  On the
    bivariate products of the ``multi-decompose`` benchmark (d = 28,
    digits of ~86 bits, one process), the loop was faster below 2^13
    pairs (the packed product took 1.4x to 20x as long: sparse operands
    pay for every slot of the triangle), the packed product won from
    about 2^13.25 pairs on, by 1.2x to 1.8x up to 2^15 and by 2.0x on
    dense 435-term triangles (~36k pairs).  ``KRONECKER_PAIRS`` = 2^14
    leaves the few products between 2^13 and 2^14 pairs on the loop.
    """
    bi = sorted(((sum(m), m, c) for m, c in b.items()))
    if _pairs(a, bi, dcap) >= KRONECKER_PAIRS:
        w = dcap + 1
        prod = _kronecker(_weighted(a, w), _weighted(b, w), w * w - 1)
        out = {}
        for (e,), c in prod.items():
            k, j = divmod(e, w)
            out[(k - j, j)] = c
        return out
    out = {}
    get = out.get
    for ma, ca in a.items():
        rem = dcap - sum(ma)
        ma0, ma1 = ma
        for db, mb, cb in bi:
            if db > rem:
                break
            m = (ma0 + mb[0], ma1 + mb[1])
            out[m] = get(m, 0) + ca * cb
    return out


def _pairs(a: dict, bi: list, dcap: int) -> int:
    """Number of term pairs (one of a, one of b) of total degree <= dcap,
    read off the two total-degree histograms; ``bi`` is b as sorted
    (degree, monomial, digit) triples."""
    hist = [0] * (dcap + 1)
    for db, _m, _c in bi:
        if db > dcap:
            break
        hist[db] += 1
    upto = list(accumulate(hist))   # upto[t]: terms of b of degree <= t
    return sum(upto[dcap - da] for m in a if (da := sum(m)) <= dcap)


def _weighted(d: dict, w: int) -> dict:
    """x^i y^j -> t^(i*w + j*(w+1)) = t^((i+j)*w + j), for w = dcap + 1.

    A term of total degree K <= dcap sits in slot K*w + j with j <= K < w,
    so a product of such terms, if its degree K stays <= dcap, lands in
    slot K*w + j without carrying into the next degree; every product of
    degree > dcap lands at or above w^2, so the cap w^2 - 1 drops exactly
    those.
    """
    return {(i * w + j * (w + 1),): c for (i, j), c in d.items()}

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
    gcd of the contents times a gcd of the primitive parts.  The two
    cofactors together have content 1."""
    if len(a) == 1 or len(b) == 1:
        g = {p_mono_gcd(a, b): int_gcd(*a.values(), *b.values())}
        return g, p_divexact(a, g), p_divexact(b, g)
    return _gcd_heu(a, b)


def p_divexact(a: Poly, g: Poly) -> Poly:
    """Exact division a/g in Z[x]; ArithmeticError when g does not divide a."""
    if not a:
        return {}
    if len(g) == 1:
        ((e, c),) = g.items()
        if c == 1 and not any(e):
            return a
        if any(v % c for v in a.values()) or \
                any(x < y for m in a for x, y in zip(m, e)):
            raise ArithmeticError("inexact polynomial division")
        q = p_shift(a, e)
        return q if c == 1 else {m: v // c for m, v in q.items()}
    q = _quo(a, g)
    if q is None:
        raise ArithmeticError("inexact polynomial division")
    return q


# Integer polynomials are solved one variable down: the last variable is set
# to 2^k (``_eval``) and the answer is read back from balanced base-2^k
# digits (``_rebuild``), k a whole number of bytes.  ``_quo`` sizes k by
# Mignotte's bound on factors of a, 2^(sum of the degrees of a) * |a|_2.
# The heuristic gcd of Char, Geddes and Gonnet (GCDHEU, 1989) is exact once
# 2^k exceeds a bound fixed by the inputs (their norms and cofactor
# resultants; the unlucky values of y are finitely many), so doubling k
# ends; every candidate is checked by product.

def _gcd_heu(a: dict, b: dict) -> tuple:
    """(g, a/g, b/g): a gcd g of two nonzero polynomials with integer
    coefficients, and its cofactors."""
    (ca, a), (cb, b) = p_primitive(a), p_primitive(b)
    c = int_gcd(ca, cb)
    g, qa, qb = {(): 1}, a, b
    if () not in a:
        k = _whole_bytes(
            max(map(abs, (*a.values(), *b.values()))).bit_length() + 2)
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
    k = _whole_bytes(sum(map(max, zip(*a))) + bound.bit_length() + 1)
    q = _quo(_eval(a, k), _eval(g, k))
    q = q and _rebuild(q, k)
    return q if q and p_mul(g, q) == a else None


def _whole_bytes(k: int) -> int:
    return (k + 7) & ~7


def _eval(a: dict, k: int) -> dict:
    # shift-and-add: unlucky gcd candidates overflow slots of k bits
    out: dict = {}
    for m, c in a.items():
        out[m[:-1]] = out.get(m[:-1], 0) + (c << k * m[-1])
    return {m: c for m, c in out.items() if c}


def _rebuild(a: dict, k: int) -> dict:
    """The inverse of ``_eval`` on balanced base-2^k digits, k in whole
    bytes.  A top digit at slot t makes |v| > 2^(kt-2), so
    (v.bit_length() + 1) // k + 1 slots hold v."""
    out = {}
    for m, v in a.items():
        n = (abs(v).bit_length() + 1) // k + 1
        for e, d in enumerate(_unpack(v, k >> 3, n)):
            if d:
                out[m + (e,)] = d
    return out


def _unpack(x: int, kb: int, n: int) -> list:
    """The n lowest digits of x in [-2^(k-1), 2^(k-1)), k = 8*kb: adding
    2^(k-1) to every slot makes them the bytes of x + bias mod 2^(kn)."""
    nbytes = n * kb
    bias = int.from_bytes((bytes(kb - 1) + b"\x80") * n, "little")
    buf = ((x + bias) & ((1 << (nbytes << 3)) - 1)).to_bytes(nbytes, "little")
    half = 1 << ((kb << 3) - 1)
    frombytes = int.from_bytes
    return [frombytes(buf[i:i + kb], "little") - half
            for i in range(0, nbytes, kb)]


def _kronecker(a: dict, b: dict, dcap: int) -> dict:
    """Truncated product of univariate int polynomials or digit dicts
    (bivariate ones after ``_weighted``) by Kronecker substitution.

    Both digit vectors are evaluated at 2^k, so one product of ints does
    the whole convolution.  Each output digit is a sum of at most
    min(len a, len b) products, so |c| < 2^(k-1) for a slot width of
    bits(max|a|) + bits(max|b|) + bits(min(len a, len b)) + 2, rounded up
    to whole bytes, and ``_unpack`` reads the digits exactly.
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
    digits = _unpack(_pack(da, kb) * _pack(db, kb), kb, n)
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
