"""Catalog contents, name aliases, instantiation, and whole-catalog checks."""

import random
import time
from dataclasses import replace

import pytest
import sympy as sp

from novikov.algebras import (AlgebraError, ConstraintViolation, _table_differences,
                              algebra, annihilator_basis, check_identities,
                              derived_power_dims, substitute)
from novikov.catalog import (CatalogEntry, _admissible_samples, canonical_name,
                             check_witness, indistinguishable_pairs)
from novikov.cohomology import (CocycleError, central_extension, cocycle_from_expr,
                                has_trivial_intersection)
from novikov.scalars import grammar_str


def test_table_a_has_24_families(cat):
    names = [e.name for e in cat.list_entries(dim=4, table="A")]
    assert len(names) == 24
    assert names[0] == "N4_01" and names[-1] == "N4_24"


def test_dim3_listing_has_6_families(cat):
    names = [e.name for e in cat.list_entries(dim=3)]
    assert names == ["N3s_02", "N3s_03", "N3s_04", "N3s_04_0", "N3_01", "N3_02"]


def test_dim1_listing_is_zero_algebra(cat):
    assert [e.name for e in cat.list_entries(dim=1)] == ["zero_1"]


def test_get_instantiates_with_params(cat):
    a = cat.get("N4_02", {"lam": 3})
    assert a.table[1][0][2] == 3           # e2 e1 = 3 e3
    assert a.table[0][0][1] == 1           # e1 e1 = e2
    assert a.table[0][1][2] == 1           # e1 e2 = e3


def test_get_limit_family(cat):
    a = cat.get("Ntriv_3", {"alpha": 2})
    assert a.table[0][1][3] == 2 and a.table[1][0][3] == -2
    assert a.table[0][0][3] == 1 and a.table[1][1][3] == 1
    assert a.table[2][2][3] == 1


def test_get_errors(cat):
    with pytest.raises(AlgebraError, match="unknown algebra"):
        cat.get("N9_99")
    with pytest.raises(ConstraintViolation):
        cat.get("N4_06", {"alpha": 0})


@pytest.mark.parametrize("alias,canon", [
    ("N4_20", "N4_20"),
    ("𝒩⁴₂₀", "N4_20"),
    ("N3*_04", "N3s_04"),
    ("𝒩³∗₀₄", "N3s_04"),
    ("trivial_4", "zero_4"),
    ("𝔑₄", "zero_4"),
    ("𝔑₂(1/2)", "Ntriv_2"),
    ("N4_20(alpha)", "N4_20"),
    ("N4_6", "N4_06"),
])
def test_canonical_name(alias, canon):
    assert canonical_name(alias) == canon


def test_unicode_alias_resolves(cat):
    assert cat.get("𝒩⁴₂₀").name == "N4_20"


def test_all_entries_pass_generic_invariants(cat):
    assert len(cat.entries) == 38
    for entry in cat.entries.values():
        a = entry.algebra
        flags = check_identities(a)
        assert flags.novikov, entry.name
        assert derived_power_dims(a)[-1] == 0, entry.name
        # pure means not two-step nilpotent
        assert flags.two_step != entry.pure_expected, entry.name
        assert annihilator_basis(a), entry.name


def test_every_extension_witness_reproduces_target(cat):
    for w in cat.witnesses:
        assert check_witness(cat, w) == [], w.id


def test_check_witness_negative_control(cat):
    from dataclasses import replace
    w = next(x for x in cat.witnesses if x.id == "X08")
    corrupted = replace(w, cocycle_expr="D12 + 2*D31")
    assert check_witness(cat, corrupted) == [
        {"witness": "X08", "problem": "structure constants differ",
         "at": [3, 1, 4], "extension": "2", "target": "1"}]
    # a form that is not a cocycle fails with that one problem only
    assert check_witness(cat, replace(w, cocycle_expr="D12 + D31 + D23")) == [
        {"witness": "X08", "problem": "not a cocycle"}]


def _check_witness_on_expressions(cat, w):
    """check_witness as the expression path: the Expr extension table, the
    intersection test and the table comparison, each converting anew."""
    base = cat.get(w.base, w.base_params)
    theta = cocycle_from_expr(base, w.cocycle_expr)
    try:
        ext = central_extension(base, [theta]).result.table
    except CocycleError:
        return [{"witness": w.id, "problem": "not a cocycle"}]
    failures = []
    if not has_trivial_intersection(base, [theta]):
        failures.append({"witness": w.id, "problem": "annihilator intersection nonzero"})
    target = substitute(cat.entry(w.target).algebra, w.target_params).table
    if len(ext) != len(target):
        return failures + [{"witness": w.id, "problem": "dimension mismatch"}]
    return failures + [
        {"witness": w.id, "problem": "structure constants differ", "at": [i + 1, j + 1, k + 1],
         "extension": grammar_str(ext[i][j][k]), "target": grammar_str(target[i][j][k])}
        for i, j, k in _table_differences(ext, target)]


def _corrupted_witnesses(cat):
    w = next(x for x in cat.witnesses if x.id == "X08")     # base N3s_01: e1 e1 = e2
    return {
        "wrong coefficient": replace(w, cocycle_expr="D12 + 2*D31"),
        "not a cocycle": replace(w, cocycle_expr="D12 + D31 + D23"),
        # e3 spans Ann(D12) ∩ Ann(A)
        "intersection": replace(w, cocycle_expr="D12"),
        "wrong dimension": replace(w, target="N3s_01"),
    }


def test_check_witness_matches_the_expression_path(cat):
    corrupted = _corrupted_witnesses(cat)
    for w in (*cat.witnesses, *corrupted.values()):
        assert check_witness(cat, w) == _check_witness_on_expressions(cat, w), w
    problems = {kind: [f["problem"] for f in check_witness(cat, w)]
                for kind, w in corrupted.items()}
    assert problems["wrong coefficient"] == ["structure constants differ"]
    assert problems["not a cocycle"] == ["not a cocycle"]
    assert problems["intersection"][0] == "annihilator intersection nonzero"
    assert problems["wrong dimension"] == ["dimension mismatch"]


def test_indistinguishable_pairs():
    pairs = indistinguishable_pairs(samples=2)
    # the implemented invariants cannot separate these two; recorded, not failed
    assert ("N4_15", "N4_17") in pairs
    assert pairs == sorted(set(pairs)) and all(a < b for a, b in pairs)


@pytest.mark.parametrize("dim, table", [(7, None), (0, None), (4, "dim3"), (3, "A")])
def test_list_entries_refuses_an_empty_selection(cat, dim, table):
    with pytest.raises(AlgebraError):
        cat.list_entries(dim=dim, table=table)


def test_catalog_purity_flags(cat):
    for entry in cat.list_entries(table="A"):
        assert entry.pure_expected
    assert not cat.entry("Ntriv_2").pure_expected
    assert not cat.entry("zero_4").pure_expected


def test_catalog_identity_spotchecks(cat):
    flags = check_identities(cat.get("N4_12"))
    assert flags.novikov
    flags = check_identities(cat.get("N3s_03"))
    assert flags.novikov and flags.two_step


def _one_param_entry(constraints=()):
    # Set on the built algebra: algebra() rejects an identically zero
    # constraint, and the sampler must still give up on one.
    a = replace(algebra("probe", 1, [(1, 1, 1, "alpha")], params=["alpha"]),
                constraints=constraints)
    return CatalogEntry("probe", "aux", False, a)


@pytest.mark.parametrize("entry, count", [
    (_one_param_entry(constraints=(sp.Integer(0),)), 1),  # rejects every draw
    (_one_param_entry(), 500),  # more than the distinct draws
])
def test_admissible_samples_give_up(entry, count):
    start = time.perf_counter()
    with pytest.raises(AlgebraError, match="admissible samples"):
        _admissible_samples(entry, random.Random(0), count)
    assert time.perf_counter() - start < 30


def test_admissible_samples_are_distinct_and_admissible(cat):
    entry = cat.entry("N4_06")
    samples = _admissible_samples(entry, random.Random(3), 20)
    assert len({tuple(sorted(s.items())) for s in samples}) == 20
    assert all(s["alpha"] != 0 for s in samples)
