"""Dense linear algebra: the division-free determinant."""

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
