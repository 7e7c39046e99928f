"""Exact cyclic presentations against the ``Scalar`` Gauss-Jordan route.

``diffmod.cyclic_presentations`` builds the Krylov columns of an exact
module on integer numerators (the G_k recurrence started at the candidate)
and solves them fraction-free.  The reference below is the route it
replaced: columns v, T v, ... stepped by ``apply_T`` on ``Scalar``s and
solved by the valuation-pivoted ``linalg.solve``.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from padic_dm import (DiffModule, ExactDomain, FieldSpec, LogVal,
                      TwistedPoly, direct_sum, linalg as la, profile)
from padic_dm.diffmod import _candidate_schedule, cyclic_presentations

from conftest import nilpotent_shear_pair
from test_oracle import modules


def reference_presentations(m, j):
    """(v, P, C) for every candidate v of the schedule; P and C are None
    where the Krylov matrix of v is singular."""
    for v in _candidate_schedule(m, j):
        cols = [v]
        for _ in range(m.dim - 1):
            cols.append(m.apply_T(j, cols[-1]))
        cmat = la.from_columns(cols)
        sol = la.solve(cmat, la.from_columns([m.apply_T(j, cols[-1])]))
        if sol is None:
            yield v, None, None
            continue
        coeffs = [-sol[i][0] for i in range(m.dim)] + [m.domain.one()]
        yield v, TwistedPoly(m.domain, j, coeffs), cmat


def assert_matches_reference(m, j):
    """Both routes accept the same candidates and give equal (P, C)."""
    ref = [(p, c) for _, p, c in reference_presentations(m, j) if p is not None]
    got = list(cyclic_presentations(m, j))
    assert len(got) == len(ref)
    for (p, c), (q, d) in zip(got, ref):
        assert p.deriv == q.deriv and p.coeffs == q.coeffs
        assert c == d


# The reference takes up to 6 s on one bivariate 3 x 3 module (and
# ``cyclic_presentations`` 1.3 s), so bivariate modules stop at dimension 2.
@given(modules().filter(lambda mj: mj[0].field.nvars == 1 or mj[0].dim <= 2))
@settings(max_examples=30, deadline=None)
def test_fraction_free_route_matches_scalar_route(mj):
    assert_matches_reference(*mj)


def test_rejects_a_first_basis_vector_that_is_not_cyclic():
    # T e_0 = e_0 / 5, so e_0 spans a submodule; e_1 is the first cyclic
    # candidate
    field = FieldSpec.gauss(5, ("x",))
    x, c = field.var(0), field.scalar
    m = DiffModule(ExactDomain(field), 2, [[[c(Fraction(1, 5)), c(1)],
                                            [c(0), x]]])
    verdicts = [p is not None for _, p, _c in reference_presentations(m, 0)]
    assert verdicts[:2] == [False, True]
    p, cmat = next(cyclic_presentations(m, 0))
    assert la.columns(cmat)[0] == [c(0), c(1)]
    assert_matches_reference(m, 0)


def test_spaced_staircase_presents_a_constant_nilpotent_part(gauss5xy):
    # every earlier candidate of the schedule is rejected; the spaced
    # staircase (1, x^4, x^8, x^12) is cyclic
    m = direct_sum(*nilpotent_shear_pair(gauss5xy))
    _p, cmat = next(cyclic_presentations(m, 0))
    assert la.columns(cmat)[0] == list(_candidate_schedule(m, 0))[-1]
    for j in m.derivations:
        assert profile(m, j).entries == ((LogVal(1, 4), 4),)


def test_solve_fraction_free_over_z():
    def poly(*cs):
        return {(e,): v for e, v in enumerate(cs) if v}

    # [[x, 1], [2, x]] y = [1, x]: det x^2 - 2, y = (0, x^2 - 2) / det
    a = [[poly(0, 1), poly(1)], [poly(2), poly(0, 1)]]
    y, det = la.solve_fraction_free(a, [poly(1), poly(0, 1)])
    assert det == poly(-2, 0, 1) and y == [{}, poly(-2, 0, 1)]
    # a zero leading entry takes the pivot from the row below
    y, det = la.solve_fraction_free([[{}, poly(1)], [poly(3), {}]],
                                    [poly(1), poly(2)])
    assert [{m: Fraction(v, det[(0,)]) for m, v in e.items()} for e in y] \
        == [poly(Fraction(2, 3)), poly(1)]
    assert la.solve_fraction_free([[poly(1), poly(0, 1)],
                                   [poly(0, 1), poly(0, 0, 1)]],
                                  [poly(1), poly(0, 1)]) is None
