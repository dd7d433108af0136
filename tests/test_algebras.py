"""Structure-constant algebra core: multiplication, identities, annihilators,
derived powers, derivations, profiles, and the JSON schema."""

import random
from fractions import Fraction

import pytest
import sympy as sp

from novikov import linalg
from novikov.algebras import (Algebra, AlgebraError, ConstraintViolation, algebra,
                              algebra_from_json, algebra_to_json,
                              annihilator_basis, basis_vector, change_basis_table,
                              check_identities, derivation_dim,
                              derived_power_dims, invariant_profile,
                              parse_vector, substitute, vector_str)
from novikov.catalog import _admissible_samples
from novikov.cohomology import cocycle_space
from novikov.scalars import random_rational
from oracle import (annihilator_dim, cocycle_space_dims, derivation_dim_frac,
                    derivation_dim_gaussian,
                    derived_dims, h2_rep_count, identity_flags, random_products,
                    table)
from test_kernel import product

ZERO4 = (sp.Integer(0),) * 4


def e(n, i):
    return basis_vector(n, i - 1)


# ---------------------------------------------------------------------------
# Multiplication
# ---------------------------------------------------------------------------

def test_multiply_basis_products(cat):
    a = cat.get("N4_01")
    assert product(a, e(4, 1), e(4, 1)) == e(4, 2)
    a24 = cat.get("N4_24")
    assert product(a24, e(4, 2), e(4, 1)) == \
        tuple(sp.Integer(x) for x in (0, 0, 1, 1))


def test_multiply_is_bilinear(cat):
    a = cat.get("N4_05")
    x = (sp.Integer(2), sp.Integer(-1), sp.Rational(1, 3), sp.Integer(0))
    y = (sp.Integer(1), sp.Integer(4), sp.Integer(0), sp.Integer(7))
    assert product(a, ZERO4, y) == ZERO4
    lhs = product(a, tuple(2 * c for c in x), y)
    rhs = tuple(sp.cancel(2 * c) for c in product(a, x, y))
    assert lhs == rhs


def test_multiply_returns_cancel_form(cat):
    # Products of rational functions come back as expressions already in
    # canonical cancel form, however the inputs were written.
    lam = sp.Symbol("lam")
    a = cat.get("N4_22")
    x = (1 / (lam + 1), lam, (lam ** 2 - 1) / (lam - 1), sp.Integer(0))
    y = (lam, sp.Rational(1, 2) + 1 / lam, sp.Integer(1), sp.Integer(0))
    got = product(a, x, y)
    assert any(c != 0 for c in got)
    for c in got:
        assert isinstance(c, sp.Expr) and c == sp.cancel(c)


# ---------------------------------------------------------------------------
# Identities
# ---------------------------------------------------------------------------

def test_identities_n4_22_generic(cat):
    flags = check_identities(cat.get("N4_22"))
    assert flags.novikov and not flags.two_step


def test_identities_zero_algebra(cat):
    flags = check_identities(cat.get("zero_4"))
    assert flags.right_commutative and flags.left_symmetric
    assert flags.novikov and flags.two_step


def test_identities_anticommutative_row(cat):
    # e2 e3 = e4 = -e3 e2 makes the triple products genuinely asymmetric.
    flags = check_identities(cat.get("N4_12"))
    assert flags.novikov and not flags.two_step


def test_identities_negative_control():
    bad = algebra("assoc_breaker", 2, [(1, 1, 2, 1), (2, 1, 1, 1)])
    flags = check_identities(bad)
    assert not flags.novikov


def _flags(a):
    f = check_identities(a)
    return f.right_commutative, f.left_symmetric, f.novikov, f.two_step


def _frac_table(a):
    return [[[Fraction(str(x)) for x in row] for row in plane] for plane in a.table]


def test_identities_match_oracle_on_catalog(cat):
    # With the cocycle space and the derivations at the same random
    # admissible point of each family.
    rng = random.Random(20260810)
    assert len(cat.entries) == 38
    for entry in cat.entries.values():
        [assign] = _admissible_samples(entry, rng, 1)
        a = substitute(entry.algebra, assign) if assign else entry.algebra
        tbl = _frac_table(a)
        assert _flags(a) == identity_flags(tbl), (entry.name, assign)
        z2, b2 = cocycle_space_dims(tbl)
        assert cocycle_space(a).dims == (z2, b2, h2_rep_count(tbl)), (entry.name, assign)
        assert derivation_dim(a) == derivation_dim_frac(tbl), (entry.name, assign)


def test_identities_match_oracle_on_random_tables():
    rng = random.Random(4)
    seen = set()
    for idx in range(40):
        n = rng.choice((2, 3, 4, 5))
        products = [(i, j, k, rng.choice((-1, 1, 2)))
                    for i in range(1, n + 1) for j in range(1, n + 1)
                    for k in range(1, n + 1) if rng.random() < 0.15]
        a = algebra(f"random_{idx}", n, products)
        flags = _flags(a)
        assert flags == identity_flags(table(n, products)), products
        seen.add(flags)
    assert len(seen) >= 3  # the draws exercise failing identities too


def test_profile_matches_oracle_on_random_tables():
    rng = random.Random(11)
    for idx in range(40):
        n = rng.choice((2, 3, 4, 5))
        products = random_products(rng, n)
        a = algebra(f"random_{idx}", n, [(i, j, k, str(c)) for i, j, k, c in products])
        tbl = table(n, products)
        assert derived_power_dims(a) == derived_dims(tbl), products
        assert derivation_dim(a) == derivation_dim_frac(tbl), products
        assert len(annihilator_basis(a)) == annihilator_dim(tbl), products


# ---------------------------------------------------------------------------
# Annihilator
# ---------------------------------------------------------------------------

def test_annihilator_n4_01(cat):
    a = cat.get("N4_01")
    basis = annihilator_basis(a)
    assert len(basis) == 2 == annihilator_dim(table(4, [(1, 1, 2, 1), (2, 1, 3, 1)]))
    assert [vector_str(v) for v in basis] == ["e3", "e4"]
    for v in basis:
        for j in range(4):
            assert product(a, v, e(4, j + 1)) == ZERO4
            assert product(a, e(4, j + 1), v) == ZERO4


def test_annihilator_n3_02_generic_and_sampled(cat):
    basis = annihilator_basis(cat.get("N3_02"))
    assert [vector_str(v) for v in basis] == ["e3"]
    assert annihilator_dim(table(3, [(1, 1, 2, 1), (1, 2, 3, 1),
                                     (2, 1, 3, Fraction(5))])) == 1


def test_annihilator_zero_algebra(cat):
    assert len(annihilator_basis(cat.get("zero_4"))) == 4


# ---------------------------------------------------------------------------
# Derived powers and nilpotency
# ---------------------------------------------------------------------------

def test_derived_powers_examples(cat):
    assert derived_power_dims(cat.get("zero_4")) == [4, 0]
    assert derived_power_dims(cat.get("N3_02")) == [3, 2, 1, 0]
    assert derived_power_dims(cat.get("N4_22")) == [4, 3, 2, 1, 0]


def test_derived_powers_match_oracle_at_sample(cat):
    lam = Fraction(3)
    tbl = table(4, [(1, 1, 2, 1), (1, 2, 3, 1), (1, 3, 4, 2 - lam),
                    (2, 1, 3, lam), (2, 2, 4, lam), (3, 1, 4, lam)])
    assert derived_dims(tbl) == [4, 3, 2, 1, 0]
    inst = substitute(cat.get("N4_22"), {"lam": 3})
    assert derived_power_dims(inst) == [4, 3, 2, 1, 0]


def test_not_nilpotent_detected():
    a = algebra("idempotent", 1, [(1, 1, 1, 1)])
    dims = derived_power_dims(a)
    assert dims[-1] != 0
    assert invariant_profile(a).nilpotency_index is None


def test_derived_dims_non_increasing(cat):
    for name in ("N4_05", "N4_17", "N4_20", "Ntriv_2"):
        dims = derived_power_dims(cat.get(name))
        assert all(a >= b for a, b in zip(dims, dims[1:]))
        assert dims[-1] == 0


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------

def test_derivation_dims_of_source_families(cat):
    assert derivation_dim(cat.get("N4_20")) == 3
    assert derivation_dim(cat.get("N4_22")) == 3
    assert derivation_dim(cat.get("zero_4")) == 16
    assert derivation_dim(cat.get("N4_20"), {"alpha": 2}) == 3


def test_derivation_dim_matches_oracle(cat):
    for name, prods in [
        ("N4_17", [(1, 2, 3, 1), (1, 3, 4, 1), (2, 1, 4, 1), (2, 2, 4, 1)]),
        ("N4_01", [(1, 1, 2, 1), (2, 1, 3, 1)]),
    ]:
        assert derivation_dim(cat.get(name)) == derivation_dim_frac(table(4, prods))


def test_generic_derivation_dim_bounds_samples(cat):
    a = cat.get("N4_22")
    generic = derivation_dim(a)
    for lam in (sp.Rational(5), sp.Rational(-2, 3), sp.Integer(0), sp.Integer(1)):
        assert generic <= derivation_dim(a, {"lam": lam})


def test_derivation_constraint_violation(cat):
    with pytest.raises(ConstraintViolation):
        derivation_dim(cat.get("N3s_04"), {"lam": 0})


def _parts_table(a):
    """The real and imaginary parts of a table of Q(i) values, as two
    tables of Fractions."""
    parts = [[[sp.sympify(x).as_real_imag() for x in row] for row in plane]
             for plane in a.table]
    return tuple([[[Fraction(str(p[r])) for p in row] for row in plane]
                  for plane in parts] for r in (0, 1))


def test_derivation_dim_at_points_matches_oracle(cat):
    # Every parametrized family at three sampled rational points and at one
    # Gaussian point, against the Fraction oracle on the substituted table.
    rng = random.Random(7)
    families = [entry for entry in cat.entries.values() if entry.algebra.params]
    assert len(families) == 9
    for entry in families:
        a = entry.algebra
        gaussian = {str(p): sp.Rational(2, 3) + k + sp.I / 5
                    for k, p in enumerate(a.params)}
        for at in _admissible_samples(entry, rng, 3) + [gaussian]:
            re, im = _parts_table(substitute(a, at))
            want = (derivation_dim_gaussian(re, im) if at is gaussian
                    else derivation_dim_frac(re))
            assert derivation_dim(a, at) == want, (entry.name, at)


def _raised(fn, a, at):
    with pytest.raises(AlgebraError) as info:
        fn(a, at)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("products, params, constraints, at", [
    ([(1, 1, 2, "lam")], ["lam"], ["lam"], {"lam": 0}),              # constraint zero
    ([(1, 1, 2, "1/(a-1)"), (1, 2, 2, "a")], ["a"], [], {"a": 1}),   # pole
    ([(1, 1, 2, "a^2/(a^2+1)")], ["a"], [], {"a": "i"}),             # Gaussian pole
    ([(1, 1, 2, "a")], ["a"], [], {"b": 1}),                         # undeclared
    ([(1, 1, 2, "a*b")], ["a", "b"], [], {"a": 1}),                  # missing
], ids=["constraint", "pole", "gaussian-pole", "undeclared", "missing"])
def test_derivation_dim_raises_what_substitute_raises(products, params, constraints, at):
    a = algebra("x", 2, products, params=params, constraints=constraints)
    assert _raised(derivation_dim, a, at) == _raised(substitute, a, at)


def test_derivation_dim_pole_names_the_structure_constant():
    a = algebra("x", 2, [(1, 1, 2, "1/(a-1)"), (1, 2, 2, "a")], params=["a"])
    with pytest.raises(AlgebraError) as info:
        derivation_dim(a, {"a": 1})
    assert str(info.value) == "x(a=1): structure constant (a - 1)^-1 has a pole"


@pytest.mark.parametrize("value", ["root(2, 2)", "root(3, 2) + i", "beta", "t"])
def test_derivation_dim_refuses_a_point_outside_q_i(cat, value):
    # substitute would put these into sympy's EX domain, whose zero tests
    # are heuristic
    with pytest.raises(AlgebraError, match=r"^N4_20\(alpha=.*\): value .* of alpha "
                                           r"is not in Q\(i\)$"):
        derivation_dim(cat.get("N4_20"), {"alpha": value})


# ---------------------------------------------------------------------------
# Profiles, substitution, basis changes
# ---------------------------------------------------------------------------

def test_invariant_profile_zero_4(cat):
    p = invariant_profile(cat.get("zero_4"))
    assert p.dim_ann == 4 and p.dims_derived == (4, 0)
    assert p.dim_der == 16 and p.nilpotency_index == 2
    assert p.is_novikov and p.is_two_step
    assert p.to_dict()["nilpotency_index"] == 2


def test_invariant_profile_n4_01(cat):
    p = invariant_profile(cat.get("N4_01"))
    assert p.dim_ann == 2 and not p.is_two_step


def test_invariant_profile_at_assignment(cat):
    p = invariant_profile(cat.get("N4_20"), {"alpha": 2})
    assert p.dim_der == 3


def test_substitute_validates(cat):
    a = cat.get("N4_06")
    with pytest.raises(ConstraintViolation):
        substitute(a, {"alpha": 0})
    inst = substitute(a, {"alpha": sp.Rational(1, 2)})
    assert inst.params == ()
    with pytest.raises(AlgebraError):
        substitute(cat.get("N4_06"), {})
    with pytest.raises(AlgebraError, match="undeclared parameters.*'foo'"):
        substitute(a, {"alpha": 2, "foo": 1})


def test_change_basis_roundtrip(cat):
    a = substitute(cat.get("N4_02"), {"lam": 3})
    rows = [(sp.Integer(1), sp.Integer(1), sp.Integer(0), sp.Integer(0)),
            (sp.Integer(0), sp.Integer(1), sp.Integer(0), sp.Integer(0)),
            (sp.Integer(0), sp.Integer(0), sp.Integer(2), sp.Integer(0)),
            (sp.Integer(0), sp.Integer(0), sp.Integer(1), sp.Integer(1))]
    conj = change_basis_table(a.table, rows)
    field, (elems,) = linalg.to_field(rows)
    inv = linalg.invert(linalg.sparse(elems), field)
    back = change_basis_table(conj, [tuple(linalg.to_expr(field, row.get(c, field.zero))
                                           for c in range(4)) for row in inv])
    # conjugating by M then by M^-1 (expressed in the new coordinates) is the
    # identity on structure constants
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert sp.cancel(back[i][j][k] - a.table[i][j][k]) == 0


def test_change_basis_singular_rejected(cat):
    a = cat.get("zero_2")
    with pytest.raises(AlgebraError):
        change_basis_table(a.table, [(sp.Integer(1), sp.Integer(1)),
                                     (sp.Integer(2), sp.Integer(2))])


def _random_invertible_rows(rng, n):
    while True:
        rows = [[random_rational(rng) for _ in range(n)] for _ in range(n)]
        if linalg.det(rows) != 0:
            return rows


def test_invariants_survive_random_change_of_basis(cat):
    # The invariant profile (derivation dim included) and the Z2/B2/H2 dims
    # are isomorphism invariants: a random invertible rational basis change
    # of every catalog algebra, at an admissible point, must keep them.
    rng = random.Random(20261018)
    for entry in cat.entries.values():
        [assign] = _admissible_samples(entry, rng, 1)
        a = substitute(entry.algebra, assign) if assign else entry.algebra
        rows = _random_invertible_rows(rng, a.dim)
        b = Algebra(a.name + "'", a.dim, (), change_basis_table(a.table, rows))
        assert invariant_profile(b) == invariant_profile(a), (entry.name, rows)
        assert cocycle_space(b).dims == cocycle_space(a).dims, (entry.name, rows)


# ---------------------------------------------------------------------------
# Construction and JSON schema
# ---------------------------------------------------------------------------

def test_algebra_validation():
    with pytest.raises(AlgebraError):
        algebra("bad", 2, [(1, 3, 1, 1)])
    with pytest.raises(AlgebraError):
        algebra("bad", 2, [(1, 1, 2, "mu")])          # undeclared symbol
    with pytest.raises(AlgebraError):
        algebra("bad", 2, [(1, 1, 2, "t")], params=["t"])


@pytest.mark.parametrize("name", ["t", "i"])
def test_grammar_reserved_names_are_not_parameters(name):
    # t is the degeneration variable and i the imaginary unit
    with pytest.raises(AlgebraError, match=f"x: 'params' entry '{name}' is reserved"):
        algebra("x", 1, [], params=[name])


def test_json_roundtrip(cat):
    a = cat.get("N4_22")
    b = algebra_from_json(algebra_to_json(a))
    assert b.dim == a.dim and b.params == a.params
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert sp.cancel(a.table[i][j][k] - b.table[i][j][k]) == 0


def test_parse_vector():
    v = parse_vector("e1 + 2*e3", 3, ())
    assert v == (sp.Integer(1), sp.Integer(0), sp.Integer(2))
    with pytest.raises(AlgebraError):
        parse_vector("e1*e2", 3, ())
    assert vector_str((sp.Integer(0),) * 2) == "0"


@pytest.mark.parametrize("text", ["e3/e4", "(e1 + e2)/e4"])
def test_parse_vector_rejects_basis_symbol_in_coefficient(text):
    # the coefficient of e3 in e3/e4 is 1/e4, which is not a scalar
    with pytest.raises(AlgebraError, match="not a vector in e1..e4"):
        parse_vector(text, 4, ())
    alpha = sp.Symbol("alpha")
    assert parse_vector("alpha*e3 + e4/2", 4, (alpha,)) == (0, 0, alpha,
                                                            sp.Rational(1, 2))


@pytest.mark.parametrize("text, expanded", [
    ("alpha*(e1 + e2)", "alpha*e1 + alpha*e2"),
    ("(e1 + 1)^2 - e1^2 - 1", "2*e1"),
    ("(alpha + 1)*e1/alpha + (2 - alpha)*e3", "e1 + e1/alpha + 2*e3 - alpha*e3"),
    ("e1*(e2 + 1) - e1*e2", "e1"),
])
def test_parse_vector_reads_a_form_as_its_expansion(text, expanded):
    # Coefficients come out in cancel form however the form is written.
    alpha = sp.Symbol("alpha")
    got = parse_vector(text, 3, (alpha,))
    assert got == parse_vector(expanded, 3, (alpha,))
    assert got == tuple(sp.cancel(c) for c in got)


def test_degenerate_dimensions(cat):
    # every operation stays defined at dim 1 and dim 0; the only nilpotent
    # 1-dimensional algebra is the zero product
    one = cat.get("zero_1")
    assert check_identities(one).novikov
    assert derived_power_dims(one) == [1, 0]
    assert len(annihilator_basis(one)) == 1
    assert derivation_dim(one) == 1
    empty = algebra("nothing", 0, [])
    assert derived_power_dims(empty) == [0]
    assert annihilator_basis(empty) == []
    assert derivation_dim(empty) == 0
    assert check_identities(empty).novikov
