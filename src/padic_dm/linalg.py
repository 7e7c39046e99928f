"""Dense linear algebra over exact or truncated scalars.

Matrices are plain lists of rows.  The element type only needs ring
arithmetic, ``is_zero`` (exact zero, or zero at working precision) and
``val()`` for pivot selection; both ``Scalar`` and ``ApproxScalar``
qualify.  Solves, inverses and kernels are Gauss-Jordan elimination at
desk scale that divides by each pivot; pivots are chosen with minimal
valuation (largest absolute value), which is what keeps eliminations
stable over truncated scalars.  Two routines divide by nothing but exact
quotients: ``determinant`` (Berkowitz) and ``solve_fraction_free``, which
solves over integer polynomials (``polys`` dicts) by Bareiss's
integer-preserving steps and leaves the one division by the determinant
to the caller.
"""

from __future__ import annotations

from . import polys as P

Matrix = list


def identity(domain, n: int) -> Matrix:
    one, zero = domain.one(), domain.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def zeros(domain, n: int, m: int) -> Matrix:
    return [[domain.zero() for _ in range(m)] for _ in range(n)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_neg(a: Matrix) -> Matrix:
    return [[-x for x in row] for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = columns(b)
    return [[dot(row, col) for col in cols] for row in a]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def mat_equal(a: Matrix, b: Matrix) -> bool:
    return all((x - y).is_zero() for ra, rb in zip(a, b) for x, y in zip(ra, rb))


# a list of columns is the transposed row list
columns = from_columns = transpose


def _pivot_row(rows: Matrix, col: int, start: int) -> int | None:
    # the truncation ring is not a field: only invertible entries can pivot
    best, best_val = None, None
    for i in range(start, len(rows)):
        x = rows[i][col]
        if x.is_zero() or not x.is_invertible():
            continue
        v = x.val()
        if best is None or v < best_val:
            best, best_val = i, v
    return best


def _eliminate(rows: Matrix, c: int, r: int) -> bool:
    """One Gauss-Jordan step in place: bring an invertible pivot of column
    c (from row r down) to row r, normalise it to 1 and clear the rest of
    the column.  False, with rows untouched, when there is no pivot."""
    piv = _pivot_row(rows, c, r)
    if piv is None:
        return False
    rows[r], rows[piv] = rows[piv], rows[r]
    inv = rows[r][c].inverse()
    rows[r] = [x * inv for x in rows[r]]
    for i in range(len(rows)):
        if i != r and not rows[i][c].is_zero():
            f = rows[i][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
    return True


def _gauss_jordan(a: Matrix, b: Matrix, m: int) -> Matrix | None:
    """Gauss-Jordan elimination on the first m columns of [a | b].

    Returns the top m rows of the reduced b block (the solution of a X = b
    for square a); None as soon as a column has no invertible pivot.
    """
    aug = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    for c in range(m):
        if not _eliminate(aug, c, c):
            return None
    return [row[m:] for row in aug[:m]]


def solve(a: Matrix, b: Matrix) -> Matrix | None:
    """Solve a X = b for square invertible a; None when singular."""
    return _gauss_jordan(a, b, len(a))


def solve_fraction_free(a: Matrix, b: list) -> tuple | None:
    """Solve a x = b for square a over Z[x]: (r, det) with x = r / det,
    or None when a is singular.

    Entries are ``polys`` dicts.  Fraction-free Gauss-Jordan (E. H. Bareiss,
    Math. Comp. 22, 1968): step k replaces every entry right of column k
    outside the pivot row by (a_kk a_ic - a_ik a_kc) / p, p the previous
    pivot.  Each entry is then a minor of [a | b], so the division is
    exact, and after the last step every row reads det x_i = r_i.
    """
    n = len(a)
    rows = [list(ra) + [rb] for ra, rb in zip(a, b)]
    prev = None
    for k in range(n):
        piv = next((i for i in range(k, n) if rows[i][k]), None)
        if piv is None:
            return None
        rows[k], rows[piv] = rows[piv], rows[k]
        top = rows[k]
        pk = top[k]
        for i, row in enumerate(rows):
            if i == k:
                continue
            f = row[k]
            for c in range(k + 1, n + 1):
                e = P.p_mul(pk, row[c])
                if f:
                    e = P.p_sub(e, P.p_mul(f, top[c]))
                row[c] = e if prev is None else P.p_divexact(e, prev)
        prev = pk
    return [row[n] for row in rows], prev


def inverse(a: Matrix, domain) -> Matrix | None:
    return solve(a, identity(domain, len(a)))


def determinant(a: Matrix, domain):
    """Division-free determinant by Berkowitz's algorithm (S. Berkowitz,
    Inform. Process. Lett. 18, 1984): O(n^4) ring operations, no pivots.

    det(t I - A_k), the characteristic polynomial of the leading k x k
    block, is t^k + c[0] t^(k-1) + ... + c[k-1].  Bordering A_k by the
    column u, the row w and the corner a multiplies its coefficient vector
    by the lower-triangular Toeplitz matrix with first column 1, col[0],
    col[1], ... = 1, -a, -w u, -w A_k u, ..., -w A_k^(k-1) u.  The leading
    1 is kept implicit, so nothing is multiplied by one.  Then
    det A = (-1)^n c[n-1].
    """
    n = len(a)
    if n == 0:
        return domain.one()
    c = []
    for k in range(n):
        w = a[k][:k]
        v = [a[i][k] for i in range(k)]
        col = [-a[k][k]]
        for i in range(k):
            if i:
                v = [dot(r, v) for r in a[:k]]
            col.append(-dot(w, v))
        new = []
        for i in range(k + 1):
            acc = col[i] if i == k else c[i] + col[i]
            if i:
                acc = acc + dot(col[i - 1::-1], c)
            new.append(acc)
        c = new
    return c[-1] if n % 2 == 0 else -c[-1]


def dot(u: list, v: list):
    """Sum of u[i] * v[i] over the shorter length (at least one term),
    added left to right: truncated sums clamp err_lv, so the order shows."""
    acc = u[0] * v[0]
    for x, y in zip(u[1:], v[1:]):
        acc = acc + x * y
    return acc


def is_invertible(a: Matrix, domain) -> bool:
    """Invertibility over the underlying field, decided at precision.

    Uses a division-free determinant so the answer does not depend on
    pivot entries being invertible in the truncation ring.
    """
    return not determinant(a, domain).is_zero()


def solve_in_span(u: Matrix, w: Matrix) -> tuple[Matrix, Matrix] | None:
    """Solve u X = w for a tall full-column-rank u (n x m, n >= m).

    Returns (X, residual) where residual = u X - w; the caller decides
    whether the residual is acceptably zero.  None when u is column-rank
    deficient.
    """
    x = _gauss_jordan(u, w, len(u[0]))
    if x is None:
        return None
    return x, mat_sub(mat_mul(u, x), w)


def nullspace(a: Matrix, domain) -> list:
    """Basis (list of column vectors) of the right kernel of a."""
    if not a:
        return []
    n, m = len(a), len(a[0])
    rows = [list(r) for r in a]
    pivots: dict[int, int] = {}
    r = 0
    for c in range(m):
        if not _eliminate(rows, c, r):
            continue
        pivots[c] = r
        r += 1
        if r == n:
            break
    basis = []
    free = [c for c in range(m) if c not in pivots]
    one = domain.one()
    for fc in free:
        vec = [domain.zero() for _ in range(m)]
        vec[fc] = one
        for pc, pr in pivots.items():
            vec[pc] = -rows[pr][fc]
        basis.append(vec)
    return basis


def intersect_spans(u_cols: list, v_cols: list, domain) -> list:
    """Basis of span(u_cols) intersected with span(v_cols)."""
    if not u_cols or not v_cols:
        return []
    stacked = from_columns(u_cols + [[-x for x in col] for col in v_cols])
    ker = nullspace(stacked, domain)
    a = len(u_cols)
    out = []
    for vec in ker:
        col = [domain.zero() for _ in range(len(u_cols[0]))]
        for t in range(a):
            col = [x + vec[t] * y for x, y in zip(col, u_cols[t])]
        out.append(col)
    return out
