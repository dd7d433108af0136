"""Cocycles, cocycle spaces, central extensions, splits, and the
automorphism action, including the published-formula verification."""

import hashlib
import random
from dataclasses import replace
from fractions import Fraction

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from novikov import algebras, linalg, scalars
from novikov.algebras import (AlgebraError, algebra, annihilator_basis, basis_vector,
                              change_basis_table, check_identities, nonzero_constants)
from novikov.cohomology import (Cocycle, CocycleError, SingularMatrixError,
                                _condition_rows, _form_annihilator_rows, central_extension, coboundary_matrices, cocycle,
                                cocycle_from_expr, cocycle_from_json, cocycle_space,
                                cocycle_to_json, has_trivial_intersection,
                                is_automorphism, is_cocycle, split_central_extension,
                                verify_action_formulas)
from novikov.catalog import _admissible_samples, load
from novikov.linalg import subspace_equal
from oracle import (_cocycle_rows, cocycle_space_dims, h2_rep_count, random_products,
                    rank_frac, rref_frac, table)


def vec(*xs):
    return tuple(sp.Integer(x) for x in xs)


def in_span(vectors, v):
    return subspace_equal(vectors, [*vectors, v])


# ---------------------------------------------------------------------------
# Cocycle conditions
# ---------------------------------------------------------------------------

def test_zero_matrix_is_cocycle(cat):
    for name in ("zero_2", "N3s_01", "N4_22"):
        a = cat.get(name)
        assert is_cocycle(a, cocycle(a, []))


def test_d22_on_n2s01_is_not_cocycle(cat):
    # the conditions force theta(e2, e2) = 0 once e1 e1 = e2
    a = cat.get("N2s_01")
    assert not is_cocycle(a, cocycle_from_expr(a, "D22"))
    assert is_cocycle(a, cocycle_from_expr(a, "D11 + 5*D12 - D21"))


def test_published_cocycle_on_n3s01(cat):
    a = cat.get("N3s_01")
    assert is_cocycle(a, cocycle_from_expr(a, "D12 + D31"))


def test_cocycle_expr_with_form_in_coefficient_is_rejected(cat):
    # the coefficient of D12 in D12/D31 is 1/D31, which is not a scalar
    a = cat.get("N3s_01")
    with pytest.raises(CocycleError, match="not a combination of D_ij forms"):
        cocycle_from_expr(a, "D12/D31")


def test_cocycle_json_roundtrip(cat):
    a = cat.get("N3s_01")
    c = cocycle_from_expr(a, "D12 + alpha*D21")
    again = cocycle_from_json(a, cocycle_to_json(c))
    assert again.matrix == c.matrix


# ---------------------------------------------------------------------------
# Cocycle spaces
# ---------------------------------------------------------------------------

def test_cocycle_space_n2s01(cat):
    a = cat.get("N2s_01")
    space = cocycle_space(a)
    assert space.dims == (3, 1, 2)
    assert cocycle_space_dims(table(2, [(1, 1, 2, 1)])) == (3, 1)
    want = [cocycle_from_expr(a, s).as_vector() for s in ("D11", "D12", "D21")]
    assert subspace_equal([c.as_vector() for c in space.z2_basis], want)


def test_cocycle_space_zero_product(cat):
    assert cocycle_space(cat.get("zero_2")).dims == (4, 0, 4)


def test_rank_nullity_on_golden_rows(cat):
    for row in cat.golden_cohomology:
        space = cocycle_space(cat.get(row["name"]))
        z2, b2, h2 = space.dims
        assert z2 - b2 == h2
        # coboundaries really are cocycles
        z2_vecs = [c.as_vector() for c in space.z2_basis]
        for b in space.b2_basis:
            assert in_span(z2_vecs, b.as_vector())


def test_cocycle_space_dims_match_oracle_on_random_tables():
    rng = random.Random(12)
    for idx in range(40):
        n = rng.choice((2, 3, 4, 5))
        products = random_products(rng, n)
        a = algebra(f"random_{idx}", n, [(i, j, k, str(c)) for i, j, k, c in products])
        tbl = table(n, products)
        z2, b2 = cocycle_space_dims(tbl)
        assert cocycle_space(a).dims == (z2, b2, h2_rep_count(tbl)), products



def test_condition_rows_span_the_full_system(cat):
    # Only the rows with j < k (type 0) and i < j (type 1) are formed, at
    # most n^2(n-1); their reduced form is the oracle's for all 2n^3
    # conditions, on random tables and on the constant Novikov tables.
    rng = random.Random(31)
    tables = [(n, random_products(rng, n)) for n in (2, 3, 4, 5) for _ in range(10)]
    tables += [(a.dim, [(i + 1, j + 1, k + 1, Fraction(str(c)))
                        for i, j, k, c in nonzero_constants(a.table)])
               for a in map(cat.get, cat.entries) if not a.params]
    for idx, (n, products) in enumerate(tables):
        a = algebra(f"table_{idx}", n, [(i, j, k, str(c)) for i, j, k, c in products])
        rows = _condition_rows(n, a.constants[1])
        assert len(rows) <= n * n * (n - 1), products
        red, pivots = linalg.rref(rows)
        want, want_pivots = rref_frac(_cocycle_rows(table(n, products)))
        assert pivots == want_pivots, products
        assert [[Fraction(str(row.get(c, 0))) for c in range(n * n)] for row in red] \
            == want[:len(pivots)], products

def test_b2_and_h2_choice_is_greedy_selection(cat):
    # B2: each nonzero coboundary slice not in the span of those kept before
    # it; H2: each Z2 basis vector not in the span of B2 and the
    # representatives kept before it.
    assert len(cat.entries) == 38
    for name in cat.entries:
        a = cat.get(name)
        space = cocycle_space(a)
        b2, reps = [], []
        for c in coboundary_matrices(a):
            v = c.as_vector()
            if any(x != 0 for x in v) and not in_span(b2, v):
                b2.append(v)
        for c in space.z2_basis:
            v = c.as_vector()
            if not in_span(b2 + reps, v):
                reps.append(v)
        assert [c.as_vector() for c in space.b2_basis] == b2, name
        assert [c.as_vector() for c in space.h2_reps] == reps, name


def test_cocycle_space_bases_are_pinned(cat):
    # The printed Z2, B2 and H2 bases of every catalog algebra, generic:
    # the elimination, the clearing of denominators and the choice of
    # representatives all show in them.
    lines = []
    for name in cat.entries:
        space = cocycle_space(cat.get(name))
        for label, basis in (("Z2", space.z2_basis), ("B2", space.b2_basis),
                             ("H2", space.h2_reps)):
            lines.append(f"{name} {label} " + "; ".join(
                ", ".join(scalars.grammar_str(x) for x in c.as_vector()) for c in basis))
    assert len(lines) == 3 * 38
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "0e41164b6f44e38a6e3ae0e8428d775237710b7ff6317f24e3ee55724b3638d5"


def test_every_z2_basis_element_passes_is_cocycle(cat):
    for name in cat.entries:
        a = cat.get(name)
        for c in cocycle_space(a).z2_basis:
            assert is_cocycle(a, c), name


def test_is_cocycle_rejects_a_perturbed_z2_vector(cat):
    # Add 1 at the first entry whose elementary form D_ij lies outside Z2;
    # only an algebra with zero product has none.
    for name in cat.entries:
        a = cat.get(name)
        n = a.dim
        z2 = cocycle_space(a).z2_basis
        vectors = [c.as_vector() for c in z2]
        outside = [(i, j) for i in range(n) for j in range(n)
                   if not in_span(vectors, basis_vector(n * n, i * n + j))]
        if not outside:
            assert len(z2) == n * n, name
            continue
        i, j = outside[0]
        base = z2[0].matrix if z2 else ((sp.Integer(0),) * n,) * n
        bumped = tuple(tuple(x + 1 if (r, s) == (i, j) else x for s, x in enumerate(row))
                       for r, row in enumerate(base))
        assert not is_cocycle(a, Cocycle(a, bumped)), name


# ---------------------------------------------------------------------------
# Cocycle annihilators and the intersection test
# ---------------------------------------------------------------------------

def cocycle_annihilator(thetas):
    """Basis of {x : theta(x, A) = theta(A, x) = 0 for every theta}, from
    the rows that has_trivial_intersection puts into its nullspace."""
    n = thetas[0].algebra.dim
    field, (matrices,) = linalg.to_field([theta.matrix for theta in thetas])
    return [linalg.cleared_vector(field, v, n)
            for v in linalg.nullspace(_form_annihilator_rows(matrices, n), n, field)]


def test_cocycle_annihilator_examples(cat):
    zero2 = cat.get("zero_2")
    assert len(cocycle_annihilator([cocycle(zero2, [])])) == 2

    # D12 forces x1 = 0 (first slot) and x2 = 0 (second slot); D31 forces
    # x3 = 0, so this annihilator is trivial.  Consistency check: the
    # extension by this cocycle (N4_09) has a 1-dimensional annihilator,
    # which equals (Ann(theta) ∩ Ann(A)) ⊕ V only if Ann(theta) misses e2.
    a = cat.get("N3s_01")
    ann = cocycle_annihilator([cocycle_from_expr(a, "D12 + D31")])
    assert ann == []

    b = cat.get("N3s_04_0")
    ann_b = cocycle_annihilator([cocycle_from_expr(b, "D13")])
    assert in_span(ann_b, vec(0, 1, 0))


def test_has_trivial_intersection(cat):
    # D12 forces x1 = 0 (first slot) and x2 = 0 (second slot); D31 forces
    # x3 = 0, so Ann(theta) is trivial.  Consistency check: the extension by
    # this cocycle (N4_09) has a 1-dimensional annihilator, which equals
    # (Ann(theta) ∩ Ann(A)) ⊕ V only if Ann(theta) misses e2.
    a = cat.get("N3s_01")
    assert has_trivial_intersection(a, [cocycle_from_expr(a, "D12 + D31")])
    # Ann(A) = <e3> here: Ann(D13) = <e2> misses it, Ann(D12) = <e3> does not.
    b = cat.get("N3s_04_0")
    assert has_trivial_intersection(b, [cocycle_from_expr(b, "D13")])
    assert not has_trivial_intersection(b, [cocycle_from_expr(b, "D12")])
    # Ann(A) is the whole of zero_2, so the verdict reads Ann(theta) = 0.
    zero2 = cat.get("zero_2")
    th1 = cocycle_from_expr(zero2, "D11")       # annihilates e2
    th2 = cocycle_from_expr(zero2, "D22")       # annihilates e1
    assert not has_trivial_intersection(zero2, [cocycle(zero2, [])])
    assert not has_trivial_intersection(zero2, [th1])
    assert not has_trivial_intersection(zero2, [th2])
    assert has_trivial_intersection(zero2, [th1, th2])


def test_has_trivial_intersection_matches_oracle_on_random_pairs():
    # Ann(theta) ∩ Ann(A) is the nullspace of the annihilator conditions of
    # theta and of A together: trivial iff those rows have rank n.
    rng = random.Random(23)
    verdicts = []
    for idx in range(60):
        n = rng.choice((2, 3, 4))
        products = [p for p in random_products(rng, n) if rng.random() < 0.5]
        a = algebra(f"random_{idx}", n, [(i, j, k, str(c)) for i, j, k, c in products])
        entries = [(i, j, Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2))))
                   for i in range(1, n + 1) for j in range(1, n + 1) if rng.random() < 0.15]
        form = [[Fraction(0)] * n for _ in range(n)]
        for i, j, c in entries:
            form[i - 1][j - 1] = c
        tbl = table(n, products)
        rows = [row for j in range(n) for k in range(n)
                for row in ([tbl[i][j][k] for i in range(n)], [tbl[j][i][k] for i in range(n)])]
        rows += [row for j in range(n) for row in ([form[i][j] for i in range(n)], form[j])]
        want = rank_frac(rows) == n
        theta = cocycle(a, [(i, j, str(c)) for i, j, c in entries])
        assert has_trivial_intersection(a, [theta]) == want, (products, entries)
        verdicts.append(want)
    assert 10 < sum(verdicts) < 50


def test_multi_cocycle_annihilator_intersects(cat):
    a = cat.get("zero_2")
    th1 = cocycle_from_expr(a, "D11")       # annihilates e2
    th2 = cocycle_from_expr(a, "D22")       # annihilates e1
    assert len(cocycle_annihilator([th1])) == 1
    assert cocycle_annihilator([th1, th2]) == []


# ---------------------------------------------------------------------------
# Central extensions
# ---------------------------------------------------------------------------

def test_extension_of_point_gives_n2s01(cat):
    zero1 = cat.get("zero_1")
    ext = central_extension(zero1, [cocycle_from_expr(zero1, "D11")])
    want = cat.get("N2s_01")
    assert ext.result.table == want.table


def test_extension_reproduces_n4_09(cat):
    a = cat.get("N3s_01")
    ext = central_extension(a, [cocycle_from_expr(a, "D12 + D31")])
    assert ext.result.table == cat.get("N4_09").table


def test_extension_by_zero_splits(cat):
    a = cat.get("N3_01")
    ext = central_extension(a, [cocycle(a, [])])
    assert ext.result.dim == 4
    assert in_span(annihilator_basis(ext.result), basis_vector(4, 3))


def test_extension_rejects_non_cocycle(cat):
    a = cat.get("N2s_01")
    with pytest.raises(CocycleError, match="not a cocycle"):
        central_extension(a, [cocycle_from_expr(a, "D22")])


def test_new_vectors_are_central_and_ann_formula_holds(cat):
    for wid in ("X02", "X08", "X16"):
        w = next(x for x in cat.witnesses if x.id == wid)
        base = cat.get(w.base, w.base_params)
        theta = cocycle_from_expr(base, w.cocycle_expr)
        ext = central_extension(base, [theta])
        n = base.dim
        assert in_span(annihilator_basis(ext.result), basis_vector(n + 1, n))
        # Ann(ext) = (Ann(theta) ∩ Ann(A)) ⊕ V, and the intersection is trivial
        assert has_trivial_intersection(base, [theta])
        assert len(annihilator_basis(ext.result)) == 1


@pytest.mark.parametrize("base", ["N2s_01", "N3s_04_0"])
def test_cocycle_iff_extension_is_novikov(cat, base):
    # both directions, on random bilinear forms over the base
    rng = random.Random(99)
    a = cat.get(base)
    n = a.dim
    from novikov.algebras import Algebra
    hits = {True: 0, False: 0}
    for _ in range(30):
        entries = [(i, j, sp.Rational(rng.randint(-3, 3)))
                   for i in range(1, n + 1) for j in range(1, n + 1)]
        theta = cocycle(a, entries)
        grid = [[[sp.Integer(0)] * (n + 1) for _ in range(n + 1)]
                for _ in range(n + 1)]
        for i in range(n):
            for j in range(n):
                grid[i][j][n] = theta.matrix[i][j]
                for k in range(n):
                    grid[i][j][k] = a.table[i][j][k]
        raw = Algebra("raw_ext", n + 1, (), tuple(tuple(tuple(r) for r in p)
                                                  for p in grid), ())
        verdict = is_cocycle(a, theta)
        hits[verdict] += 1
        assert verdict == check_identities(raw).novikov
    assert hits[False] > 0       # random forms really do include non-cocycles


# ---------------------------------------------------------------------------
# Splitting central subspaces
# ---------------------------------------------------------------------------

def test_split_n4_09(cat):
    a = cat.get("N4_09")
    split = split_central_extension(a, [basis_vector(4, 3)])
    assert split.quotient.dim == 3
    assert split.quotient.table == cat.get("N3s_01").table
    assert str(split.cocycles[0]) == "D12 + D31"


def test_split_zero_and_n2s01(cat):
    zero2 = cat.get("zero_2")
    split = split_central_extension(zero2, [basis_vector(2, 1)])
    assert split.quotient.dim == 1
    assert all(x == 0 for row in split.cocycles[0].matrix for x in row)

    n2 = cat.get("N2s_01")
    split = split_central_extension(n2, [basis_vector(2, 1)])
    assert split.quotient.table == cat.get("zero_1").table
    assert str(split.cocycles[0]) == "D11"


def test_split_rejects_non_central(cat):
    a = cat.get("N4_09")
    with pytest.raises(Exception, match="Ann"):
        split_central_extension(a, [basis_vector(4, 0)])


def test_split_checks_containment_before_independence(cat):
    a = cat.get("N4_02")                          # Ann = span{e3, e4}
    lam = a.params[0]
    inside, outside = (0, 0, lam, 1), (1, lam, 0, 0)
    with pytest.raises(AlgebraError, match="W not contained in Ann"):
        split_central_extension(a, [outside, tuple(2 * x for x in outside)])
    with pytest.raises(AlgebraError, match="W vectors are dependent"):
        split_central_extension(a, [inside, tuple(2 * x for x in inside)])
    with pytest.raises(AlgebraError, match="W vectors must have 4 entries"):
        split_central_extension(a, [vec(0, 0, 0, 1, 0)])
    split = split_central_extension(a, [inside])
    assert split.basis_rows[-1] == inside


def test_split_along_skew_annihilator_line(cat):
    # a line not aligned with the coordinate axes still round-trips
    a = cat.get("N4_01")
    w = (sp.Integer(0), sp.Integer(0), sp.Integer(1), sp.Integer(2))
    split = split_central_extension(a, [w])
    rebuilt = central_extension(split.quotient, split.cocycles)
    conj = change_basis_table(a.table, split.basis_rows)
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert sp.cancel(rebuilt.result.table[i][j][k] - conj[i][j][k]) == 0


def test_split_two_dimensional_subspace(cat):
    a = cat.get("N4_01")        # Ann = span{e3, e4}
    split = split_central_extension(a, [basis_vector(4, 2), basis_vector(4, 3)])
    assert split.quotient.dim == 2
    assert len(split.cocycles) == 2
    rebuilt = central_extension(split.quotient, split.cocycles)
    conj = change_basis_table(a.table, split.basis_rows)
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert sp.cancel(rebuilt.result.table[i][j][k] - conj[i][j][k]) == 0


def test_split_basis_makes_every_annihilator_line_central(cat):
    # The W rows and columns of the constants in the split basis are zero:
    # W is central, as W ⊆ Ann(A) promises.
    for entry in cat.list_entries(table="A"):
        a = entry.algebra
        for w in annihilator_basis(a):
            split = split_central_extension(a, [w])
            conj = change_basis_table(a.table, split.basis_rows)
            assert all(x == 0 for j in range(4)
                       for x in (*conj[3][j], *conj[j][3])), (entry.name, w)


def _split_on_expressions(a, w_vectors):
    """split_central_extension as the expression path: containment against
    the cleared annihilator basis, then the Expr change of basis."""
    n = a.dim
    w_rows = [[sp.cancel(sp.sympify(x)) for x in w] for w in w_vectors]
    _, (ann, w_elems) = linalg.to_field(annihilator_basis(a), w_rows)
    ann, w_elems = linalg.sparse(ann), linalg.sparse(w_elems)
    assert linalg.rank(ann + w_elems) == len(ann)
    pivots = linalg.rref(w_elems)[1]
    rows = ([basis_vector(n, j) for j in range(n) if j not in pivots]
            + [tuple(w) for w in w_rows])
    conj = change_basis_table(a.table, rows)
    m = n - len(w_rows)
    quotient = tuple(tuple(tuple(conj[i][j][:m]) for j in range(m)) for i in range(m))
    cocycles = [tuple(tuple(conj[i][j][m + r] for j in range(m)) for i in range(m))
                for r in range(len(w_rows))]
    return quotient, cocycles, tuple(rows)


def test_split_matches_the_expression_path_on_every_annihilator_line(cat):
    # Generically and at one admissible point of each family, as in the gate.
    rng = random.Random(3)
    lines = 0
    for entry in cat.list_entries(table="A"):
        for at in [{}] + (_admissible_samples(entry, rng, 1) if entry.algebra.params else []):
            a = algebras.substitute(entry.algebra, at) if at else entry.algebra
            for w in annihilator_basis(a):
                lines += 1
                split = split_central_extension(a, [w])
                got = (split.quotient.table, [c.matrix for c in split.cocycles],
                       split.basis_rows)
                assert got == _split_on_expressions(a, [w]), (entry.name, at, w)
    assert lines == 33


# ---------------------------------------------------------------------------
# Automorphism action
# ---------------------------------------------------------------------------

def test_identity_is_automorphism(cat):
    a = cat.get("N4_17")
    phi = [[sp.Integer(int(i == j)) for j in range(4)] for i in range(4)]
    assert is_automorphism_helper(a, phi)


@pytest.mark.parametrize("c", ["1/(1 - alpha)", "(1 - alpha)^-3", "1/(i*alpha + 1)"])
def test_identity_is_automorphism_of_a_table_with_a_quotient_constant(c):
    # The converted constant must be in the form the change of basis
    # computes, or the comparison of the two tables fails.
    from novikov.cohomology import is_automorphism
    a = algebra("q", 2, [(1, 1, 2, scalars.parse_scalar(c))], params=["alpha"])
    assert is_automorphism(a, [["1", "0"], ["0", "1"]])


def is_automorphism_helper(a, phi):
    from novikov.cohomology import is_automorphism
    return is_automorphism(a, phi)


def test_published_automorphism_shape(cat):
    from novikov.cohomology import is_automorphism
    a = cat.get("N3s_01")
    good = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "2"]]
    assert is_automorphism(a, good)
    bad = [["1", "1", "0"], ["0", "1", "0"], ["0", "0", "2"]]
    assert not is_automorphism(a, bad)
    generic = [["x", "0", "0"], ["u", "x^2", "w"], ["z", "0", "y"]]
    assert is_automorphism(a, generic)
    with pytest.raises(SingularMatrixError):
        is_automorphism(a, [["0", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])


def test_corrupted_action_template_is_not_automorphism(cat):
    case = next(c for c in cat.action_cases if c.case_id == "act-N3_02")
    assert is_automorphism(case.base, case.template)
    rows = [list(row) for row in case.template]
    assert rows[2][1] == sp.sympify("x*y*(1+lam)")
    rows[2][1] = sp.sympify("x*y*lam")                 # still invertible
    assert not is_automorphism(case.base, rows)


def test_action_preserves_cocycles_and_coboundaries(cat):
    rng = random.Random(4)
    a = cat.get("N3s_01")
    slices = [c.as_vector() for c in coboundary_matrices(a)]
    space = cocycle_space(a)
    z2 = [c.as_vector() for c in space.z2_basis]
    for _ in range(5):
        x, y = (sp.Rational(rng.randint(1, 5)) for _ in range(2))
        u, w, z = (sp.Rational(rng.randint(-3, 3)) for _ in range(3))
        phi = sp.Matrix([[x, 0, 0], [u, x ** 2, w], [z, 0, y]])
        # (phi . theta)(x, y) = theta(phi x, phi y): the matrix phi^T theta phi
        for c in space.z2_basis:
            assert in_span(z2, tuple(phi.T * sp.Matrix(c.matrix) * phi))
        for c in coboundary_matrices(a):
            assert in_span(slices, tuple(phi.T * sp.Matrix(c.matrix) * phi))


def test_verify_action_formulas_all_cases(cat):
    for case in cat.action_cases:
        rep = verify_action_formulas(case, samples=8)
        assert rep.passed, rep.counterexample


def test_verify_action_formulas_detects_corruption(cat):
    case = next(c for c in cat.action_cases if c.case_id == "act-N3s_01")
    corrupted = replace(case, alpha_star=(case.alpha_star[0] + 1,)
                        + case.alpha_star[1:])
    rep = verify_action_formulas(corrupted, samples=4)
    assert not rep.class_formulas_ok
    assert rep.counterexample is not None
    assert rep.counterexample["reading"] == "class"


def _act_n3s_01(cat):
    return next(c for c in cat.action_cases if c.case_id == "act-N3s_01")


# The first admissible draw of the default seed for act-N3s_01.
_FIRST_POINT = {"x": "2", "u": "3", "w": "7", "z": "5", "y": "-9/4", "a1": "-3/2",
                "a2": "-1/7", "a3": "-8/3", "a4": "8/5", "a5": "7/2"}


def test_action_counterexamples_are_pinned(cat):
    case = _act_n3s_01(cat)
    wrong_class = replace(case, alpha_star=(case.alpha_star[0] + 1,)
                          + case.alpha_star[1:])
    rep = verify_action_formulas(wrong_class, samples=4)
    assert (rep.class_formulas_ok, rep.matrix_entries_ok) == (False, True)
    assert list(rep.counterexample) == ["assignment", "formula_index", "expected",
                                        "actual", "reading"]
    assert rep.counterexample == {"assignment": _FIRST_POINT, "formula_index": 0,
                                  "expected": "-11", "actual": "-12",
                                  "reading": "class"}

    (i, j, entry), *rest = case.matrix_reading
    wrong_entry = replace(case, matrix_reading=((i, j, entry + sp.Symbol("x")), *rest))
    rep = verify_action_formulas(wrong_entry, samples=4)
    assert (rep.class_formulas_ok, rep.matrix_entries_ok) == (True, False)
    assert rep.counterexample == {"assignment": _FIRST_POINT, "entry": [1, 2],
                                  "expected": "-10", "actual": "-12",
                                  "reading": "matrix"}


# The x values of the first 4 admissible draws of the default seed for
# act-N3s_01 (_FIRST_POINT is the first).
_FIRST_XS = (2, 1, 2, sp.Rational(1, 3))


def test_action_formulas_are_decided_off_the_sampled_points(cat, monkeypatch):
    # alpha*_0 plus a polynomial that vanishes at the first 4 draws: those
    # points cannot tell the two sides apart, the field decision does, and
    # only a later draw names the counterexample.
    case = _act_n3s_01(cat)
    x = sp.Symbol("x")
    blind = replace(case, alpha_star=(case.alpha_star[0] + sp.Mul(*(x - v for v in _FIRST_XS)),)
                    + case.alpha_star[1:])
    drawn = []
    streams = scalars.admissible_points

    def recording(*args):
        for point in streams(*args):
            drawn.append(point)
            yield point
    monkeypatch.setattr(scalars, "admissible_points", recording)

    rep = verify_action_formulas(blind, samples=4)
    assert (rep.class_formulas_ok, rep.matrix_entries_ok, rep.counterexample) \
        == (False, True, None)
    assert tuple(point[x] for point in drawn) == _FIRST_XS
    rep = verify_action_formulas(blind, samples=20)
    assert not rep.class_formulas_ok
    assert rep.counterexample["assignment"]["x"] == "-5/3"
    assert (rep.counterexample["formula_index"], rep.counterexample["expected"],
            rep.counterexample["actual"]) == (0, "5933/81", "125/81")


def test_passing_action_cases_draw_no_point(cat, monkeypatch):
    # The formulas are decided by one elimination over the field, so a
    # passing case neither advances the stream nor eliminates more for
    # more samples.
    class Undrawable:
        def __iter__(self):
            return self

        def __next__(self):
            raise AssertionError("a passing case drew a sampled point")

    monkeypatch.setattr(scalars, "admissible_points", lambda *args: Undrawable())
    rrefs = []
    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda rows: rrefs.append(1) or rref(rows))
    for case in cat.action_cases:
        counts = []
        for samples in (1, 20):
            rrefs.clear()
            assert verify_action_formulas(case, samples=samples).passed
            counts.append(len(rrefs))
        assert counts[0] == counts[1], case.case_id


def test_verify_action_formulas_rejects_a_non_automorphism_template(cat):
    case = _act_n3s_01(cat)
    rows = [list(row) for row in case.template]
    rows[1][1] = sp.Symbol("x") ** 3          # was x^2; still invertible
    bad = replace(case, template=tuple(tuple(row) for row in rows))
    with pytest.raises(AlgebraError,
                       match="act-N3s_01: template is not an automorphism"):
        verify_action_formulas(bad, samples=1)


def test_action_samples_only_evaluate(cat, monkeypatch):
    # Expression work is done once per case: more samples make no more
    # substitutions, cancels or algebra instances.
    calls = []

    def counting(module, name):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapped)

    counting(sp, "cancel")
    counting(scalars, "substitute")
    counting(algebras, "substitute")
    counts = []
    for samples in (1, 5):
        calls.clear()
        for case in cat.action_cases:
            verify_action_formulas(case, samples=samples)
        counts.append(len(calls))
    assert counts[0] == counts[1]


_THREE_DIM = sorted(e.name for e in load().list_entries() if e.algebra.dim == 3)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(_THREE_DIM), st.data())
def test_random_central_extension_splits_and_re_extends(cat, name, data):
    # Extend by a random cocycle, split along the new line, extend again:
    # the constants, the quotient and the cocycle all come back.
    a = cat.get(name)
    n = a.dim
    z2 = cocycle_space(a).z2_basis
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(z2), max_size=len(z2)))
    theta = Cocycle(a, tuple(tuple(sp.cancel(sum(c * z.matrix[i][j]
                                                 for c, z in zip(coeffs, z2)))
                                   for j in range(n)) for i in range(n)))
    ext = central_extension(a, [theta]).result
    split = split_central_extension(ext, [basis_vector(n + 1, n)])
    rebuilt = central_extension(split.quotient, split.cocycles).result
    assert all(sp.cancel(rebuilt.table[i][j][k] - ext.table[i][j][k]) == 0
               for i in range(n + 1) for j in range(n + 1) for k in range(n + 1))
    assert all(sp.cancel(split.quotient.table[i][j][k] - a.table[i][j][k]) == 0
               for i in range(n) for j in range(n) for k in range(n))
    assert all(sp.cancel(split.cocycles[0].matrix[i][j] - theta.matrix[i][j]) == 0
               for i in range(n) for j in range(n))
