"""Internal multivariate polynomials over Z.

A polynomial in n variables is a dict mapping exponent tuples of length n
to nonzero ``int`` coefficients; {} is the zero polynomial.  A field
element is a fraction of two such polynomials (``scalarfield.Scalar``), so
Python integers are the one coefficient type.  This is plumbing for the
scalar field layer: only the handful of operations the field needs, no
general polynomial API.

Products have one routine per arity (``p_mul_uni``, ``p_mul_bi``, which
``p_mul`` and ``precision._conv`` only pick), each scaling by a single
term in one pass and routing the rest by operand shape alone; the packed
routes share one slot width (``_slot_bytes``), and balanced base-2^k
digits one reader (``_unpack``).  ``p_gcd`` returns a gcd g with the
cofactors a/g and b/g, whose coefficients have no common factor.  When a
or b is a single term c*x^e, g is x^(``p_mono_gcd``) times the gcd of all
their coefficients, and ``p_divexact`` divides by such a g with an
exponent shift and an int division; the other gcds (on primitive parts)
and exact divisions evaluate their operands at powers of two.
"""

from __future__ import annotations

from math import gcd as int_gcd

Mono = tuple
Poly = dict

# Route thresholds of ``p_mul_uni`` (``MUL_KRONECKER_PAIRS``) and of
# ``p_mul_bi`` (``ROW_PAIRS``); their docstrings give the measurements.
MUL_KRONECKER_PAIRS = 192
ROW_PAIRS = 2 ** 11


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
    """Product of two polynomials, zero terms dropped: ``p_mul_uni`` or
    ``p_mul_bi`` capped at the sum of their degrees, which keeps them all."""
    if not a or not b:
        return {}
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

    A single-term operand scales the other in one pass; for the rest
    ``_bi_route`` picks, by shape alone, the pairwise loop (``_bi_loop``)
    below ``ROW_PAIRS`` term pairs, else one int product per pair of
    x-rows (``_bi_rows``), each cut to the slots below the cap.  Time of
    each route (ms, summed) replaying the products of one
    ``multi-decompose`` pass (corpus 505, d = 28, 4372 products, digits of
    ~33 bits) and of its variant 3 at d = 64 (1494), by single-term
    operand or term pairs, one process on a shared 2-core host (the
    single column from a later replay, median of 3 processes):

                      single  < 2^11  2^11-13  2^13-15  2^15-18  >= 2^18
        d=28 products   2926     908      149      113      276        0
             scale        25
             loop         60      61       89      199     2220
             rows        196     111       58       63      366
        d=64 products    993      92       54       50       82      223
             scale        54
             loop        145       6       32      174      311    35536
             rows        290       9       21       67      125     2277

    The rows lead from 2^11 pairs on because a pair of rows with h
    y-digits each costs one int product instead of h^2 loop steps.  One
    Kronecker product of the two operands weighted into (dcap+1)^2 slots
    lost to the rows in every bin above (3058 ms at d = 64, >= 2^18), and
    on single products of two full triangles up to d = 160; it wins only
    from d ~ 190 on, above ``cli.MAX_D`` (rows 876, 2088 ms against 583,
    1468 ms at d = 192, 256).
    """
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        ((ea0, ea1), ca), = a.items()
        rem = dcap - ea0 - ea1
        return {(ea0 + e0, ea1 + e1): ca * cb
                for (e0, e1), cb in b.items() if e0 + e1 <= rem}
    return _bi_route(len(a), len(b))(a, b, dcap)


def _bi_route(na: int, nb: int):
    """The route of ``p_mul_bi`` for multi-term operands of na, nb terms."""
    if na * nb < ROW_PAIRS:
        return _bi_loop
    return _bi_rows


def _bi_loop(a: dict, b: dict, dcap: int) -> dict:
    """Every term pair of total degree <= dcap, with b scanned in degree
    order."""
    bi = sorted(((sum(m), m, c) for m, c in b.items()))
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


def _bi_rows(a: dict, b: dict, dcap: int) -> dict:
    """One int product per pair of x-rows (``_rows``).

    Rows i1 of a and i2 of b, packed from y-degrees lo1 and lo2, add their
    product into output row s = i1 + i2 at y-degree lo1 + lo2.  Only the
    n = dcap - s + 1 - lo1 - lo2 lowest slots of that product are below
    the cap, and they depend only on each factor mod 2^(kn), so a row
    longer than n is cut to its n low slots first (``x & masks[n]``, which
    also makes it nonnegative; the mask of each n <= dcap + 1 is made once
    per call).  The slots above n of each product are junk, and they land
    above the dcap - s + 1 slots that ``_unpack`` reads from the sum.
    """
    rows_a, top_a = _rows(a, dcap)
    rows_b, top_b = _rows(b, dcap)
    kb = _slot_bytes(top_a, top_b, min(len(a), len(b)))
    k = kb << 3
    masks = [(1 << k * n) - 1 for n in range(dcap + 2)]
    rows_b = [(i, lo, _pack(ds, kb), len(ds)) for i, lo, ds in rows_b]
    acc: dict = {}
    get = acc.get
    for i1, lo1, ds1 in rows_a:
        x1, n1 = _pack(ds1, kb), len(ds1)
        for i2, lo2, x2, n2 in rows_b:
            s = i1 + i2
            if s > dcap:
                break
            lo = lo1 + lo2
            n = dcap - s + 1 - lo
            if n > 0:
                mask = masks[n]
                acc[s] = get(s, 0) + ((x1 & mask if n1 > n else x1)
                                      * (x2 & mask if n2 > n else x2) << k * lo)
    out = {}
    for s, v in acc.items():
        for j, c in enumerate(_unpack(v, kb, dcap - s + 1)):
            if c:
                out[(s, j)] = c
    return out


def _rows(d: dict, dcap: int) -> tuple:
    """The x-rows of the terms of d of total degree <= dcap, and their
    largest |digit| (0 when there are none): (i, lo, digits) for each
    x-degree i, by increasing i, with the y-digits of that row at y-degrees
    lo .. lo+len(digits)-1, zeros included.  Terms are grouped by x-degree
    under int y-degrees, and each dense row is filled from its group."""
    rows: dict = {}
    for (i, j), c in d.items():
        if i + j <= dcap:
            row = rows.get(i)
            if row is None:
                rows[i] = {j: c}
            else:
                row[j] = c
    out = []
    top = 0
    for i in sorted(rows):
        row = rows[i]
        lo = min(row)
        digits = [0] * (max(row) - lo + 1)
        for j, c in row.items():
            digits[j - lo] = c
        top = max(top, max(digits), -min(digits))
        out.append((i, lo, digits))
    return out, top

def p_derive(a: Poly, var: int) -> Poly:
    return {m[:var] + (m[var] - 1,) + m[var + 1:]: c * m[var]
            for m, c in a.items() if m[var]}

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
    """Truncated product of univariate int polynomials or digit dicts by
    Kronecker substitution: both digit vectors are evaluated at 2^(8*kb),
    kb = ``_slot_bytes``, so one product of ints does the whole
    convolution, and ``_unpack`` reads the digits exactly.
    """
    loa, hia = min(a)[0], max(a)[0]
    lob, hib = min(b)[0], max(b)[0]
    top = dcap - loa - lob
    if top < 0:
        return {}
    da = _dense(a, loa, min(top, hia - loa) + 1)
    db = _dense(b, lob, min(top, hib - lob) + 1)
    kb = _slot_bytes(max(max(da), -min(da)), max(max(db), -min(db)),
                     min(len(a), len(b)))
    n = min(top + 1, len(da) + len(db) - 1)
    digits = _unpack(_pack(da, kb) * _pack(db, kb), kb, n)
    lo = loa + lob
    return {(lo + i,): c for i, c in enumerate(digits) if c}


def _slot_bytes(top_a: int, top_b: int, terms: int) -> int:
    """Bytes per slot of a packed product (``_kronecker``, ``_bi_rows``)
    whose packed digits are at most top_a and top_b in absolute value, of
    operands of which one has at most ``terms`` terms.  Each digit of the
    product is a sum of at most ``terms`` products of a digit of each, so
    |c| < 2^(k-1) for a slot width k of bits(top_a) + bits(top_b) +
    bits(terms) + 2, rounded up to whole bytes."""
    return (top_a.bit_length() + top_b.bit_length()
            + terms.bit_length() + 2 + 7) >> 3


def _dense(d: dict, lo: int, n: int) -> list:
    """The digits of d at exponents lo .. lo+n-1, zeros included."""
    dense = [0] * n
    for (e,), c in d.items():
        if e - lo < n:
            dense[e - lo] = c
    return dense


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
