"""Deterministic exact linear algebra, cross-checked against the independent
Fraction-based oracle."""

import random
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from novikov import linalg, scalars
from oracle import nullspace_frac, rank_frac, rref_frac

lam = sp.Symbol("lam")


def _random_matrix(rng, rows, cols):
    return [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
             for _ in range(cols)] for _ in range(rows)]


def _field_rows(m):
    """Dense rows of expressions as their field and its sparse rows."""
    field, (elems,) = linalg.to_field(m)
    return field, linalg.sparse(elems)


def _dense(field, rows, ncols):
    """Sparse rows of field elements as dense rows of expressions."""
    return [[linalg.to_expr(field, row.get(c, field.zero)) for c in range(ncols)]
            for row in rows]


def in_span(vectors, v):
    return linalg.subspace_equal(vectors, [*vectors, v])


def test_rank_and_nullspace_match_oracle():
    rng = random.Random(5)
    for _ in range(40):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols)
        field, sparse = _field_rows([[sp.Rational(x) for x in row] for row in m])
        assert linalg.rank(sparse, cols, field) == rank_frac(m)
        ns = linalg.nullspace(sparse, cols, field)
        assert len(ns) == len(nullspace_frac(m, cols))
        for v in ns:
            for row in sparse:
                assert not sum((x * v[c] for c, x in row.items() if c in v), field.zero)


def test_rref_is_deterministic():
    field, rows = _field_rows([[1, 2], [2, 4], [0, 1]])
    assert linalg.rref(rows, 2, field) == linalg.rref(rows, 2, field)
    red, pivots = linalg.rref(rows, 2, field)
    assert pivots == [0, 1]


def test_parametric_rank_is_generic():
    field, rows = _field_rows([[lam, 1], [lam ** 2, lam]])
    assert linalg.rank(rows, 2, field) == 1
    field, rows = _field_rows([[lam, 1], [1, lam]])
    assert linalg.rank(rows, 2, field) == 2  # lam^2 - 1 is not the zero function


def test_solve_and_invert():
    a = [[sp.Integer(2), sp.Integer(1)], [sp.Integer(1), sp.Integer(1)]]
    field, rows = _field_rows(a)
    inv = _dense(field, linalg.invert(rows, field), 2)
    prod = [[sp.cancel(sum(a[i][k] * inv[k][j] for k in range(2)))
             for j in range(2)] for i in range(2)]
    assert prod == [[1, 0], [0, 1]]
    field, rows = _field_rows([[1, 2], [2, 4]])
    assert linalg.invert(rows, field) is None


def test_det_parametric():
    m = [[lam, sp.Integer(1)], [sp.Integer(1), lam]]
    assert sp.cancel(linalg.det(m) - (lam ** 2 - 1)) == 0


def test_subspace_operations():
    e1, e2, e3 = (sp.Integer(1), sp.Integer(0), sp.Integer(0)), \
                 (sp.Integer(0), sp.Integer(1), sp.Integer(0)), \
                 (sp.Integer(0), sp.Integer(0), sp.Integer(1))
    u = [e1, e2]
    v = [(sp.Integer(1), sp.Integer(1), sp.Integer(0)), e2]
    assert linalg.subspace_equal(u, v)
    assert not linalg.subspace_equal(u, [e1, e3])
    assert not linalg.subspace_equal(u, [e1])
    assert linalg.subspace_equal([], [])
    assert linalg.subspace_equal([], [(sp.Integer(0),) * 3])
    assert in_span(u, (sp.Integer(2), sp.Integer(-3), sp.Integer(0)))
    assert not in_span(u, e3)


def _sym(m):
    return [[sp.Rational(x.numerator, x.denominator) for x in row] for row in m]


def _rref_dense(m, ncols):
    """The reduced matrix of dense rows ``m`` padded with zero rows to its
    height, and the pivots."""
    field, rows = _field_rows(_sym(m))
    red, pivots = linalg.rref(rows, ncols, field)
    return _dense(field, red + [{}] * (len(m) - len(red)), ncols), pivots


@pytest.mark.parametrize("m", [
    [],                                           # no rows
    [[], []],                                     # no columns
    [[Fraction(0)] * 3 for _ in range(2)],        # all zero
    [[Fraction(0), Fraction(2), Fraction(1, 2)],  # zero first column
     [Fraction(0), Fraction(-4), Fraction(3)]],
])
def test_rref_edge_cases_match_oracle(m):
    red, pivots = _rref_dense(m, len(m[0]) if m else 0)
    want, want_pivots = rref_frac(m)
    assert pivots == want_pivots
    assert red == _sym(want)


def _large_matrix(rng, rows, cols):
    """Dense rows of 40-digit numerators over small denominators."""
    return [[Fraction(rng.randint(-10 ** 40, 10 ** 40), rng.randint(1, 3))
             for _ in range(cols)] for _ in range(rows)]


def test_rref_matches_oracle_entrywise():
    rng = random.Random(17)
    for k in range(80):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = (_random_matrix if k < 60 else _large_matrix)(rng, rows, cols)
        red, pivots = _rref_dense(m, cols)
        want, want_pivots = rref_frac(m)
        assert pivots == want_pivots
        assert red == _sym(want)


# ---------------------------------------------------------------------------
# Properties over Q(i) and Q(lam)
# ---------------------------------------------------------------------------

_small = st.integers(-3, 3)
_gauss = st.builds(lambda a, b, d: sp.Rational(a, d) + sp.Rational(b, d) * sp.I,
                   _small, _small, st.integers(1, 3))
_lam_fn = st.builds(lambda c0, c1, c2, k: (c0 + c1 * lam + c2 * lam ** 2) / (lam + k),
                    _small, _small, _small, st.integers(1, 3))


def _matrices(entries, square=False):
    def build(shape):
        rows, cols = shape
        return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                        min_size=rows, max_size=rows)
    dims = st.integers(1, 4)
    shapes = dims.map(lambda n: (n, n)) if square else st.tuples(dims, dims)
    return shapes.flatmap(build)


def _check_rref_properties(m):
    ncols = len(m[0])
    field, rows = _field_rows(m)
    red, pivots = linalg.rref(rows, ncols, field)
    assert len(red) == len(pivots) <= len(m)
    for r, pc in enumerate(pivots):
        assert red[r][pc] == field.one
        assert all(pc not in red[rr] for rr in range(len(red)) if rr != r)
        assert min(red[r]) == pc
    assert all(x for row in red for x in row.values())
    basis = _dense(field, red, ncols)
    assert all(in_span(basis, row) for row in m)
    assert all(in_span(m, row) for row in basis)


def _check_det(m):
    want = sp.cancel(sp.Matrix(m).det())
    assert sp.cancel(linalg.det(m) - want) == 0


@settings(max_examples=40, deadline=None)
@given(_matrices(_gauss))
def test_rref_properties_gaussian(m):
    _check_rref_properties(m)


@settings(max_examples=25, deadline=None)
@given(_matrices(_lam_fn))
def test_rref_properties_rational_functions(m):
    _check_rref_properties(m)


@settings(max_examples=40, deadline=None)
@given(_matrices(_gauss, square=True))
def test_det_gaussian(m):
    _check_det(m)


@settings(max_examples=25, deadline=None)
@given(_matrices(_lam_fn, square=True))
def test_det_rational_functions(m):
    _check_det(m)


# ---------------------------------------------------------------------------
# cleared_vector against the expression-based reference
# ---------------------------------------------------------------------------

def _cleared_reference(vec):
    """Each entry in cancel form, all scaled by the lcm of the denominators
    sympy.fraction reads off them."""
    vec = [sp.cancel(x) for x in vec]
    denominators = [sp.fraction(x)[1] for x in vec if x != 0]
    scale = sp.lcm(denominators) if denominators else 1
    return tuple(vec) if scale == 1 else tuple(sp.cancel(x * scale) for x in vec)


_rational = st.builds(sp.Rational, _small, st.integers(1, 6))
# a constant denominator under a sum: cancel spreads it over the terms
_lam_poly = st.builds(lambda c0, c1, d: (c0 + c1 * lam) / d,
                      _small, _small, st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.lists(_rational, min_size=1, max_size=5),
    st.lists(_gauss, min_size=1, max_size=5),
    st.lists(st.one_of(_rational, _lam_fn, _lam_poly), min_size=1, max_size=5)))
def test_cleared_vector_matches_expression_reference(vec):
    field, (elems,) = linalg.to_field(vec)
    [sparse] = linalg.sparse([elems])
    assert linalg.cleared_vector(field, sparse, len(vec)) == _cleared_reference(vec)


# ---------------------------------------------------------------------------
# Sparse rows over a field
# ---------------------------------------------------------------------------

def test_sparse_rows_sum_terms_and_drop_zeros():
    field, ([one, two, three],) = linalg.to_field([1, 2, 3])
    rows = linalg.sparse_rows([("a", 0, one), ("b", 1, two), ("a", 0, two),
                               ("b", 1, -two), ("c", 2, three)])
    assert rows == [{0: three}, {2: three}]
    assert linalg.sparse([[one, field.zero], [field.zero, field.zero]]) == [{0: one}, {}]


def test_field_entry_points_take_and_give_sparse_rows():
    field, (elems,) = linalg.to_field([[1, 2], [3, 4]])
    rows = linalg.sparse(elems)
    inv = linalg.invert(rows, field)
    assert _dense(field, inv, 2) == [[-2, 1], [sp.Rational(3, 2), sp.Rational(-1, 2)]]
    singular = linalg.sparse([elems[0], [field.zero, field.zero]])
    assert linalg.invert(singular, field) is None
    assert linalg.rank(singular, 2, field) == 1
    [null] = linalg.nullspace(singular, 2, field)
    assert set(null) == {0, 1} and null[1] == field.one
    assert linalg.independent_indices([{}, rows[0], {1: field.one}, rows[1]], field) == [1, 2]
    assert linalg.independent_indices([], field) == []
    assert linalg.nullspace([], 2, field) == [{0: field.one}, {1: field.one}]


def test_entry_points_leave_their_rows_unchanged():
    field, (elems,) = linalg.to_field([[2, 1, lam], [1, 1, 0], [0, lam, 1]])
    rows = linalg.sparse(elems)
    before = [dict(row) for row in rows]
    linalg.rref(rows, 3, field)
    linalg.nullspace(rows[:2], 3, field)
    linalg.invert(rows, field)
    assert rows == before


@pytest.mark.parametrize("entries", [
    [sp.Integer(0), sp.Integer(0)],
    [sp.Integer(3), sp.Integer(-7), sp.Integer(0)],
    [sp.Rational(1, 2), sp.Integer(5), sp.Rational(-10 ** 40, 3), sp.Integer(0)],
    [],
], ids=["zeros", "integers", "mixed", "empty"])
def test_rational_entries_convert_as_construct_domain_does(entries):
    from sympy.polys.constructor import construct_domain
    field, (elems,) = linalg.to_field(entries)
    want_field, want = construct_domain(entries, field=True)
    assert field == want_field == sp.QQ
    assert elems == want
    assert all(type(x) is type(w) for x, w in zip(elems, want))


def test_python_ints_and_other_entries_still_convert():
    field, (elems,) = linalg.to_field([1, 2])
    assert field == sp.QQ and elems == [sp.QQ(1), sp.QQ(2)]
    field, (elems,) = linalg.to_field([sp.Integer(1), sp.I])
    assert str(field) == "QQ_I" and linalg.to_expr(field, elems[1]) == sp.I


# ---------------------------------------------------------------------------
# Evaluating field elements at a point
# ---------------------------------------------------------------------------

a_sym, b_sym = sp.symbols("a b")


def _poly(coeff, gens):
    """Up to three terms coeff * monomial in ``gens`` (degrees 0..2)."""
    degrees = st.tuples(*[st.integers(0, 2) for _ in gens])
    return st.lists(st.tuples(coeff, degrees), min_size=1, max_size=3).map(
        lambda terms: sum(c * sp.Mul(*[g ** d for g, d in zip(gens, ds)])
                          for c, ds in terms))


def _fractions(coeff, gens):
    # Terms with Gaussian coefficients are not collected until expanded, so
    # a q that is not 0 as written may still vanish identically.
    return st.builds(lambda p, q: p / q if sp.expand(q) != 0 else p,
                     _poly(coeff, gens), _poly(coeff, gens))


_KINDS = {                                 # field -> strategy for its elements
    "QQ": _rational,
    "QQ_I": _gauss.filter(lambda x: x.has(sp.I)),
    "ZZ(a)": _fractions(_rational, [a_sym]).filter(lambda x: x.has(a_sym)),
    "ZZ_I(a,b)": _fractions(_gauss, [a_sym, b_sym]).filter(
        lambda x: all(sp.expand(x).has(s) for s in (sp.I, a_sym, b_sym))),
}
_point = st.fixed_dictionaries({a_sym: _rational.filter(bool),
                                b_sym: _rational.filter(bool)})


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_KINDS)).flatmap(
    lambda kind: st.tuples(st.just(kind), st.lists(_KINDS[kind], min_size=1,
                                                   max_size=4))), _point)
def test_evaluate_matches_substitute_and_cancel(drawn, point):
    kind, exprs = drawn
    want = [sp.cancel(scalars.substitute(e, point)) for e in exprs]
    field, (elems,) = linalg.to_field(exprs)
    assert str(field) == kind
    if any(w.has(sp.zoo, sp.nan) for w in want):
        return                             # a pole of the unreduced form
    const, (got,) = linalg.evaluate(field, point, elems)
    assert str(const) == ("QQ_I" if "I" in kind else "QQ")
    assert all(sp.expand(linalg.to_expr(const, g) - w) == 0 for g, w in zip(got, want))


def test_evaluate_needs_every_generator():
    field, (elems,) = linalg.to_field([a_sym + b_sym])
    with pytest.raises(ValueError, match="no value for b"):
        linalg.evaluate(field, {a_sym: sp.Integer(1)}, elems)
    field, (elems,) = linalg.to_field([1 / a_sym])
    with pytest.raises(ZeroDivisionError):
        linalg.evaluate(field, {a_sym: sp.Integer(0)}, elems)
