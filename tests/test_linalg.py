"""Dense linear algebra: the division-free determinant and the
elimination family (solves, inverses, kernels, span intersections)."""

import random
import time
from fractions import Fraction

import pytest

from padic_dm import linalg as la
from padic_dm.precision import ApproxDomain, ExactDomain, PrecisionCtx
from padic_dm.scalarfield import FieldSpec


def _subset_determinant(a, domain):
    """Reference: Laplace expansion along the rows, one minor per column
    subset (O(n 2^n) products)."""
    n = len(a)
    if n == 0:
        return domain.one()
    prev = {(j,): a[0][j] for j in range(n)}
    for r in range(1, n):
        cur = {}
        for cols, minor in prev.items():
            for j in range(n):
                if j in cols:
                    continue
                key = tuple(sorted(cols + (j,)))
                term = minor * a[r][j]
                if sum(1 for c in cols if c > j) % 2:
                    term = -term
                cur[key] = cur[key] + term if key in cur else term
        prev = cur
    return prev[tuple(range(n))]


def _random_matrix(field, n, rng, singular):
    x = field.var(0)
    rows = [[field.scalar(Fraction(rng.randint(-9, 9),
                                   rng.choice([1, 1, 5, 25])))
             + rng.randint(0, 2) * x for _ in range(n)] for _ in range(n)]
    if singular and n >= 2:
        rows[-1] = [a + a for a in rows[0]]
    return rows


FIELDS = {"gauss": FieldSpec.gauss(5, ("x",)),
          "gauss2": FieldSpec.gauss(5, ("x", "y")),
          "laurent": FieldSpec.laurent("z")}


@pytest.mark.parametrize("singular", [False, True], ids=["regular", "singular"])
@pytest.mark.parametrize("kind", sorted(FIELDS))
@pytest.mark.parametrize("n", range(6))
def test_determinant_matches_subset_expansion(n, kind, singular):
    field = FIELDS[kind]
    rng = random.Random(10 * n + singular)
    exact = _random_matrix(field, n, rng, singular)
    dom = ExactDomain(field)
    det = la.determinant(exact, dom)
    assert det == _subset_determinant(exact, dom)
    assert det.is_zero() == (singular and n >= 2)

    adom = ApproxDomain(field, PrecisionCtx(Fraction(10), d=12), 16)
    approx = [[adom.coerce(e) for e in row] for row in exact]
    got, ref = la.determinant(approx, adom), _subset_determinant(approx, adom)
    assert (got - ref).is_zero()
    assert got.is_zero() == ref.is_zero() == det.is_zero()
    assert la.is_invertible(approx, adom) == (not det.is_zero())


def test_determinant_at_dimension_12_is_fast():
    # 0.33 s here against 2.8 s for the subset expansion (one process)
    field = FIELDS["gauss"]
    a = _random_matrix(field, 12, random.Random(1), singular=False)
    t0 = time.monotonic()
    det = la.determinant(a, ExactDomain(field))
    assert time.monotonic() - t0 < 1.5
    assert not det.is_zero()


def _random_rect(field, n, m, rng):
    x = field.var(0)
    return [[field.scalar(Fraction(rng.randint(-9, 9), rng.choice([1, 1, 5])))
             + rng.randint(0, 2) * x for _ in range(m)] for _ in range(n)]


DOMAINS = ["exact", "approx"]


def _domain(kind):
    """The exact Gauss domain or a truncated one (d = 12, err 16), with the
    map of exact matrices into it."""
    field = FIELDS["gauss"]
    if kind == "exact":
        return field, ExactDomain(field), lambda a: a
    dom = ApproxDomain(field, PrecisionCtx(Fraction(10), d=12), 16)
    return field, dom, lambda a: [[dom.coerce(e) for e in row] for row in a]


@pytest.mark.parametrize("kind", DOMAINS)
@pytest.mark.parametrize("n", range(1, 5))
def test_solve_and_inverse(n, kind):
    field, dom, into = _domain(kind)
    rng = random.Random(100 + n)
    a = _random_matrix(field, n, rng, singular=False)
    x = _random_rect(field, n, 2, rng)
    b = la.mat_mul(a, x)
    a, x, b = into(a), into(x), into(b)
    sol = la.solve(a, b)
    assert la.mat_equal(sol, x) and la.mat_equal(la.mat_mul(a, sol), b)
    inv = la.inverse(a, dom)
    assert la.mat_equal(la.mat_mul(a, inv), la.identity(dom, n))
    assert la.mat_equal(la.mat_mul(inv, a), la.identity(dom, n))
    if n >= 2:
        s = into(_random_matrix(field, n, rng, singular=True))
        assert la.solve(s, b) is None
        assert la.inverse(s, dom) is None


@pytest.mark.parametrize("kind", DOMAINS)
def test_solve_in_span(kind):
    field, dom, into = _domain(kind)
    rng = random.Random(7)
    u = _random_rect(field, 5, 3, rng)
    x = _random_rect(field, 3, 2, rng)
    w = into(la.mat_mul(u, x))
    u, x = into(u), into(x)
    got, residual = la.solve_in_span(u, w)
    assert la.mat_equal(got, x)
    assert all(e.is_zero() for row in residual for e in row)
    # a vector off the span leaves a nonzero residual
    off = into(_random_rect(field, 5, 1, rng))
    assert not all(e.is_zero() for row in la.solve_in_span(u, off)[1]
                   for e in row)
    # a repeated column makes u column-rank deficient
    deficient = [row[:2] + [row[0]] for row in u]
    assert la.solve_in_span(deficient, w) is None


@pytest.mark.parametrize("kind", DOMAINS)
@pytest.mark.parametrize("rank", range(4))
def test_nullspace_of_a_product_of_known_rank(rank, kind):
    field, dom, into = _domain(kind)
    rng = random.Random(20 + rank)
    n, m = 4, 5
    if rank:
        a = la.mat_mul(_random_rect(field, n, rank, rng),
                       _random_rect(field, rank, m, rng))
    else:
        a = la.zeros(ExactDomain(field), n, m)
    a = into(a)
    ker = la.nullspace(a, dom)
    assert len(ker) == m - rank
    for vec in ker:
        assert all(e.is_zero() for row in la.mat_mul(a, la.from_columns([vec]))
                   for e in row)
    assert la.nullspace([], dom) == []


@pytest.mark.parametrize("kind", DOMAINS)
@pytest.mark.parametrize("shared", range(3))
def test_intersect_spans(shared, kind):
    field, dom, into = _domain(kind)
    rng = random.Random(30 + shared)
    n = 6
    # span(u) and span(v) share exactly the span of ``common``
    common = la.columns(into(_random_rect(field, n, shared, rng)))
    u_cols = common + la.columns(into(_random_rect(field, n, 2, rng)))
    v_cols = common + la.columns(into(_random_rect(field, n, 3 - shared, rng)))
    out = la.intersect_spans(u_cols, v_cols, dom)
    assert len(out) == shared
    for col in out:
        for cols in (u_cols, v_cols):
            _x, residual = la.solve_in_span(la.from_columns(cols),
                                            la.from_columns([col]))
            assert all(e.is_zero() for row in residual for e in row)
    assert la.intersect_spans([], v_cols, dom) == []
