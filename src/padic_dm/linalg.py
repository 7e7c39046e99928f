"""Dense linear algebra over exact or truncated scalars.

Matrices are plain lists of rows.  The element type only needs ring
arithmetic, ``is_zero`` (exact zero, or zero at working precision) and
``val()`` for pivot selection; both ``Scalar`` and ``ApproxScalar``
qualify.  Everything is fraction-free-by-division Gaussian elimination at
desk scale; pivots are chosen with minimal valuation (largest absolute
value), which is what keeps eliminations stable over truncated scalars.
"""

from __future__ import annotations

Matrix = list


def identity(domain, n: int) -> Matrix:
    one, zero = domain.one(), domain.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def zeros(domain, n: int, m: int) -> Matrix:
    return [[domain.zero() for _ in range(m)] for _ in range(n)]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_neg(a: Matrix) -> Matrix:
    return [[-x for x in row] for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = a[i][0] * b[0][j]
            for t in range(1, k):
                acc = acc + a[i][t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def mat_scale(a: Matrix, c) -> Matrix:
    return [[x * c for x in row] for row in a]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def mat_derive(a: Matrix, j: int) -> Matrix:
    return [[x.derive(j) for x in row] for row in a]


def mat_equal(a: Matrix, b: Matrix) -> bool:
    return all((x - y).is_zero() for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def columns(a: Matrix) -> list:
    return [list(col) for col in zip(*a)]


def from_columns(cols: list) -> Matrix:
    return [list(row) for row in zip(*cols)]


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


def _gauss_jordan(a: Matrix, b: Matrix, m: int) -> Matrix | None:
    """Gauss-Jordan elimination on the first m columns of [a | b].

    Returns the top m rows of the reduced b block (the solution of a X = b
    for square a); None as soon as a column has no invertible pivot.
    """
    aug = [list(ra) + list(rb) for ra, rb in zip(a, b)]
    for c in range(m):
        piv = _pivot_row(aug, c, c)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = aug[c][c].inverse()
        aug[c] = [x * inv for x in aug[c]]
        for i in range(len(aug)):
            if i != c and not aug[i][c].is_zero():
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[m:] for row in aug[:m]]


def solve(a: Matrix, b: Matrix) -> Matrix | None:
    """Solve a X = b for square invertible a; None when singular."""
    return _gauss_jordan(a, b, len(a))


def inverse(a: Matrix, domain) -> Matrix | None:
    return solve(a, identity(domain, len(a)))


def determinant(a: Matrix, domain):
    """Division-free determinant (expansion over column subsets)."""
    n = len(a)
    if n == 0:
        return domain.one()
    prev = {(j,): a[0][j] for j in range(n)}
    for r in range(1, n):
        cur = {}
        for cols, minor in prev.items():
            if minor.is_zero():
                continue
            for j in range(n):
                if j in cols:
                    continue
                key = tuple(sorted(cols + (j,)))
                sign = 1 if sum(1 for c in cols if c > j) % 2 == 0 else -1
                term = minor * a[r][j]
                if sign < 0:
                    term = -term
                cur[key] = cur.get(key, domain.zero()) + term
        prev = cur
    full = tuple(range(n))
    return prev.get(full, domain.zero())


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
        piv = _pivot_row(rows, c, r)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
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
