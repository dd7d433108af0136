"""The sparse structure-constant kernel against the Fraction oracle.

Every algebra converts its nonzero constants once (``Algebra.constants``)
and builds the identity, derivation, annihilator and cocycle systems from
them as sparse rows; the oracle comparisons of those systems on random
tables and catalog points live with the other oracle tests.  Here: the
product kernel ``multiply_table`` (through :func:`product`) and
``is_cocycle`` at random inputs on random sparse tables of dimensions 4 and
5, one fixed table per outcome of the identity checks, and that the
per-instance cache changes nothing.
"""

from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from novikov import linalg
from novikov.algebras import (algebra, algebra_from_json, algebra_to_json,
                              annihilator_basis, check_identities, derivation_dim,
                              derived_power_dims, multiply_table, nonzero_constants,
                              substitute)
from novikov.cohomology import Cocycle, cocycle_space, is_cocycle
from oracle import identity_flags, is_cocycle_frac, mult, table


def product(a, x, y):
    """x * y in ``a`` for vectors of expressions, as expressions: the table
    and both vectors converted into one field, ``multiply_table`` on the
    nonzero constants, and each entry brought back with ``to_expr``."""
    field, (tbl, x, y) = linalg.to_field(a.table, x, y)
    return tuple(linalg.to_expr(field, v)
                 for v in multiply_table(nonzero_constants(tbl), x, y, field))


def _sympy(products):
    return [(i, j, k, str(c)) for i, j, k, c in products]


_coeff = st.sampled_from([Fraction(c) for c in ("-2", "-1", "1", "3", "1/2", "-3/2")])


@st.composite
def _sparse_tables(draw):
    """(n, products): up to 3n random 1-based products of an n-dim table; a
    repeated index triple adds up, so some constants cancel to zero."""
    n = draw(st.sampled_from((4, 5)))
    index = st.integers(1, n)
    products = draw(st.lists(st.tuples(index, index, index, _coeff), max_size=3 * n))
    return n, products


def _vectors(n):
    return st.lists(st.sampled_from([Fraction(c) for c in ("0", "0", "1", "-2", "1/3")]),
                    min_size=n, max_size=n)


@settings(max_examples=30, deadline=None)
@given(_sparse_tables(), st.data())
def test_multiply_and_is_cocycle_match_oracle_on_random_tables(drawn, data):
    n, products = drawn
    a = algebra("random", n, _sympy(products))
    tbl = table(n, products)
    x, y = data.draw(_vectors(n)), data.draw(_vectors(n))
    got = product(a, [sp.Rational(v) for v in x], [sp.Rational(v) for v in y])
    assert [Fraction(str(v)) for v in got] == mult(tbl, x, y)
    theta = [data.draw(_vectors(n)) for _ in range(n)]
    cocycle = Cocycle(a, tuple(tuple(sp.Rational(v) for v in row) for row in theta))
    assert is_cocycle(a, cocycle) == is_cocycle_frac(tbl, theta)


# One table per outcome of the identity checks: (right-commutative,
# left-symmetric, Novikov, two-step).
@pytest.mark.parametrize("n, products, flags", [
    (4, [(1, 4, 2, 1)], (True, True, True, True)),
    (4, [(3, 3, 3, 2), (2, 4, 4, -1)], (True, True, True, False)),
    (4, [(1, 3, 1, 1), (4, 4, 4, -1), (1, 4, 1, 1), (4, 1, 4, 1), (2, 1, 3, -1)],
     (True, False, False, False)),
    (5, [(2, 2, 3, 2), (2, 3, 4, 2), (3, 1, 5, 1)], (False, True, False, False)),
    (4, [(2, 4, 4, 2), (2, 3, 2, 2), (2, 4, 3, -1), (4, 1, 2, 2), (3, 1, 3, 2)],
     (False, False, False, False)),
], ids=["two_step", "novikov", "right_commutative_only", "left_symmetric_only",
        "neither"])
def test_identity_outcomes_match_oracle(n, products, flags):
    f = check_identities(algebra("fixed", n, _sympy(products)))
    got = (f.right_commutative, f.left_symmetric, f.novikov, f.two_step)
    assert got == identity_flags(table(n, products)) == flags


def _profile(a):
    space = cocycle_space(a)
    return (check_identities(a), derived_power_dims(a), annihilator_basis(a),
            derivation_dim(a), space.dims,
            [c.matrix for c in space.z2_basis + space.b2_basis + space.h2_reps])


@pytest.mark.parametrize("name, at", [("N4_01", None), ("N4_20", None),
                                      ("N4_22", None), ("N4_22", {"lam": "2/3"}),
                                      ("zero_4", None)])
def test_constants_are_cached_without_changing_results(cat, name, at):
    a = cat.get(name)
    if at:
        a = substitute(a, at)
    table_before = a.table
    first = _profile(a)
    assert a.constants is a.constants
    assert _profile(a) == first
    assert a.table is table_before and a.table == algebra_from_json(algebra_to_json(a)).table
    # A fresh instance converts its own constants and agrees.
    assert _profile(algebra_from_json(algebra_to_json(a))) == first
