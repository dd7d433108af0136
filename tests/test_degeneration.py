"""Degeneration witness verification: both tiers, the fallback protocol, the
necessary condition, transitivity, and the reachability report."""

import json
import random
from pathlib import Path

import mpmath
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from novikov.algebras import AlgebraError, change_basis_table, derivation_dim
from novikov.catalog import load
from novikov import degeneration
from novikov.degeneration import (DEFAULT_DIGITS, DEFAULT_SCHEDULE, DegenerationWitness,
                                  TierError, _lu_solve, _num, apply_fallback,
                                  build_reachability,
                                  check_necessary, detect_tier, free_symbols_of,
                                  load_witnesses, verify_all, verify_exact,
                                  verify_numeric, verify_witness,
                                  witness_from_json, witness_to_json)
from novikov.scalars import T, parse_scalar, substitute


@pytest.fixture(scope="module")
def rows(cat):
    return {w.id: w for w in load_witnesses(cat)}


@pytest.fixture(scope="module")
def all_reports(cat):
    return verify_all(cat)


# ---------------------------------------------------------------------------
# Conjugation basics
# ---------------------------------------------------------------------------

def test_identity_basis_is_noop(cat):
    a = cat.get("N4_02")
    rows_m = [tuple(sp.Integer(int(i == j)) for j in range(4)) for i in range(4)]
    conj = change_basis_table(a.table, rows_m)
    assert conj == a.table


def test_uniform_scaling_multiplies_constants(cat):
    a = cat.get("N4_05")
    rows_m = [tuple(T if i == j else sp.Integer(0) for j in range(4))
              for i in range(4)]
    conj = change_basis_table(a.table, rows_m)
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert sp.cancel(conj[i][j][k] - T * a.table[i][j][k]) == 0


def test_published_t_inverse_column(cat):
    # scaling only E4 = t^-1 e4 pushes exactly one power of t into the
    # (1,3,4) entry of the parametrized family
    lam = sp.Symbol("lam")
    a = cat.get("N4_22")
    rows_m = [tuple(sp.Integer(int(i == j)) for j in range(4)) for i in range(3)]
    rows_m.append((sp.Integer(0), sp.Integer(0), sp.Integer(0), 1 / T))
    conj = change_basis_table(a.table, rows_m)
    assert sp.cancel(conj[0][2][3] - (2 - lam) * T) == 0
    for i in range(4):
        for j in range(4):
            for k in range(4):
                if (i, j, k) in ((0, 2, 3), (1, 1, 3), (2, 0, 3)):
                    continue
                assert not sp.fraction(sp.cancel(conj[i][j][k]))[0].has(T)


def test_scaling_equivariance_on_random_2dim():
    rng = random.Random(17)
    s = sp.Symbol("s")
    for _ in range(10):
        tbl = tuple(tuple(tuple(sp.Rational(rng.randint(-3, 3)) for _ in range(2))
                          for _ in range(2)) for _ in range(2))
        base = [(sp.Integer(1), sp.Integer(1)), (sp.Integer(0), sp.Integer(1))]
        scaled = [tuple(s * x for x in row) for row in base]
        c1 = change_basis_table(tbl, base)
        c2 = change_basis_table(tbl, scaled)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    assert sp.cancel(c2[i][j][k] - s * c1[i][j][k]) == 0


# ---------------------------------------------------------------------------
# Exact tier
# ---------------------------------------------------------------------------

def test_tier_detection(rows):
    assert detect_tier(rows["B02"]) == "exact"
    assert detect_tier(rows["B05"]) == "numeric"
    assert detect_tier(rows["B23"]) == "numeric"
    assert detect_tier(rows["B24"]) == "numeric"


def test_exact_tier_rejects_radicals(cat, rows):
    with pytest.raises(TierError, match="verify_numeric"):
        verify_exact(rows["B05"], cat)


def test_exact_rows_pass(cat, rows):
    for wid in ("B02", "B03", "B09", "B17", "B21"):
        rep = verify_exact(rows[wid], cat)
        assert rep.passed, (wid, rep.failures)
        assert rep.tier == "exact" and not rep.heuristic


def test_identity_witness_passes(cat):
    w = witness_from_json({
        "id": "self", "source": "N4_02", "source_params": {"lam": "lam"},
        "target": "N4_02", "target_params": {"lam": "free"},
        "basis": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                   ["0", "0", "1", "0"], ["0", "0", "0", "1"]]})
    assert verify_exact(w, load()).passed


def test_free_target_param_is_the_param_itself():
    free = witness_from_json({**_WITNESS, "target_params": {"lam": "free"}})
    named = witness_from_json({**_WITNESS, "target_params": {"lam": "lam"}})
    assert free == named
    assert free.target_params == {"lam": sp.Symbol("lam")}


def test_vanishing_source_constraint_is_refused(cat):
    # N4_06 requires alpha != 0
    w = witness_from_json({**_WITNESS, "source": "N4_06",
                           "source_params": {"alpha": "0"}})
    with pytest.raises(AlgebraError) as exc:
        verify_exact(w, cat)
    assert str(exc.value) == "W: source constraint alpha vanishes identically"
    rep = check_necessary(w, cat)
    assert not rep.passed and not rep.skipped
    assert rep.rows == [{"problem": "no admissible sample found",
                         "cause": "constraint violated: alpha = 0 for N4_06"}]


def test_exact_tier_detects_wrong_target(cat, rows):
    import dataclasses
    broken = dataclasses.replace(rows["B03"], target="N4_01")
    rep = verify_exact(broken, cat)
    assert not rep.passed
    assert any(f["problem"] == "limit differs from target" for f in rep.failures)


def test_exact_tier_detects_pole(cat):
    # E1 E1 = t^2 e2 = t^-1 E2, so the (1,1,2) entry blows up at t = 0
    w = witness_from_json({
        "id": "pole", "source": "N4_01", "source_params": {},
        "target": "N4_01", "target_params": {},
        "basis": [["t", "0", "0", "0"], ["0", "t^3", "0", "0"],
                   ["0", "0", "1", "0"], ["0", "0", "0", "1"]]})
    rep = verify_exact(w, cat)
    assert not rep.passed
    assert any(f["problem"] == "pole at t = 0" for f in rep.failures)


@pytest.mark.parametrize("target_lam, passed", [("lam + 1", True), ("lam + 2", False)])
def test_exact_tier_limit_of_unreduced_fraction(cat, target_lam, passed):
    # e2 e1 = lam' e3 with lam' = (lam^2 - 1 + t)/(lam - 1 + t), reduced in t
    # and lam; at t = 0 it is (lam^2 - 1)/(lam - 1) = lam + 1, not reduced.
    w = witness_from_json({
        "id": "unreduced", "source": "N4_02",
        "source_params": {"lam": "(lam^2 - 1 + t)/(lam - 1 + t)"},
        "target": "N4_02", "target_params": {"lam": target_lam},
        "basis": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                  ["0", "0", "1", "0"], ["0", "0", "0", "1"]]})
    rep = verify_exact(w, cat)
    assert rep.passed is passed
    if not passed:
        assert rep.failures == [{"at": [2, 1, 3], "problem": "limit differs from target",
                                 "limit": "lam + 1", "target": "lam + 2"}]


def test_singular_basis_rejected(cat):
    w = witness_from_json({
        "id": "sing", "source": "N4_01", "source_params": {},
        "target": "N4_01", "target_params": {},
        "basis": [["t", "0", "0", "0"], ["t", "0", "0", "0"],
                   ["0", "0", "1", "0"], ["0", "0", "0", "1"]]})
    rep = verify_exact(w, cat)
    assert not rep.passed and "singular" in rep.failures[0]["problem"]


# ---------------------------------------------------------------------------
# Numeric tier
# ---------------------------------------------------------------------------

def test_numeric_radical_row_decay(cat, rows):
    rep = verify_numeric(rows["B05"], cat)
    assert rep.passed and rep.heuristic
    assert mpmath.mpf(rep.max_residual) <= mpmath.mpf(10) ** -8
    # dominant correction comes from the cube root of t
    assert 0.25 < rep.decay_exponent < 0.45


def test_numeric_parametrized_row(cat, rows):
    rep = verify_numeric(rows["B23"], cat, samples=2)
    assert rep.passed
    assert len(rep.samples) == 2
    for s in rep.samples:
        assert set(s) == {"alpha"}


def test_numeric_catches_wrong_target(cat, rows):
    import dataclasses
    broken = dataclasses.replace(rows["B23"], target="Ntriv_3")
    rep = verify_numeric(broken, cat, samples=1)
    assert not rep.passed


@pytest.mark.parametrize("check", [
    lambda w, cat, n: verify_numeric(w, cat, samples=n),
    lambda w, cat, n: verify_witness(w, cat, samples=n),
    lambda w, cat, n: verify_all(cat, samples=n),
    lambda w, cat, n: check_necessary(w, cat, samples=n),
], ids=["verify_numeric", "verify_witness", "verify_all", "check_necessary"])
@pytest.mark.parametrize("samples", [0, -1])
def test_sample_count_below_one_is_rejected(cat, rows, check, samples):
    # Zero points would pass B23 on nothing; every entry point refuses.
    with pytest.raises(AlgebraError, match="samples must be at least 1") as exc:
        check(rows["B23"], cat, samples)
    assert "\n" not in str(exc.value)


def test_scaled_identity_residual_at_noise_floor(cat):
    # the grading deg(e_i) = i makes diag(sqrt(t), t, t*sqrt(t), t^2) an
    # automorphism of this family, so every conjugated constant is exact
    w = witness_from_json({
        "id": "scaled", "source": "N4_02", "source_params": {"lam": "2"},
        "target": "N4_02", "target_params": {"lam": "2"},
        "basis": [["root(2,t)", "0", "0", "0"], ["0", "t", "0", "0"],
                   ["0", "0", "t*root(2,t)", "0"], ["0", "0", "0", "t^2"]]})
    rep = verify_numeric(w, cat, digits=60)
    assert rep.passed
    assert mpmath.mpf(rep.max_residual) < mpmath.mpf(10) ** -30


#: verify_numeric(...).to_dict() of the radical-bearing rows at the default
#: schedule, digits, samples and seed; "B24" is its literal row.
NUMERIC_PINS = json.loads(
    (Path(__file__).parent / "numeric_tier_pins.json").read_text())


@pytest.mark.parametrize("key", sorted(NUMERIC_PINS))
def test_numeric_tier_reports_are_pinned(cat, rows, key):
    wid, _, form = key.partition(" ")
    w = apply_fallback(rows[wid]) if form == "fallback" else rows[wid]
    assert verify_numeric(w, cat).to_dict() == NUMERIC_PINS[key]


def test_numeric_values_are_memoised_per_precision(cat, rows):
    # A value evaluated at 15 digits' working precision must not stand in
    # for the same value at the tier's precision.
    degeneration._num_at.cache_clear()
    with mpmath.workdps(15):
        _num(substitute(parse_scalar(rows["B05"].basis[0][0]),
                        {T: DEFAULT_SCHEDULE[-1]}), DEFAULT_DIGITS)
    for key, want in NUMERIC_PINS.items():
        wid, _, form = key.partition(" ")
        w = apply_fallback(rows[wid]) if form == "fallback" else rows[wid]
        assert verify_numeric(w, cat).to_dict() == want, key


@pytest.mark.parametrize("basis", [
    # a zero row: its scale is 0
    [["root(2,t)", "0", "0", "0"], ["0", "0", "0", "0"],
     ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
    # two equal rows: the LU factorisation finds no pivot
    [["root(2,t)", "0", "0", "0"], ["root(2,t)", "0", "0", "0"],
     ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
])
def test_numeric_tier_rejects_singular_basis(cat, basis):
    w = witness_from_json({
        "id": "sing", "source": "N4_01", "source_params": {},
        "target": "N4_01", "target_params": {},
        "basis": basis})
    rep = verify_numeric(w, cat)
    assert not rep.passed
    assert [f["problem"] for f in rep.failures] == \
        ["basis numerically singular"] * 5
    assert [f["t"] for f in rep.failures] == \
        [str(t) for t in DEFAULT_SCHEDULE]


def test_numeric_tier_reports_pivotless_basis_as_singular(cat):
    # Rows 1 and 2 are equal, so after one elimination step the transposed
    # basis has an all-zero column below the diagonal: no pivot candidate.
    w = witness_from_json({
        "id": "nopivot", "source": "N4_01", "source_params": {},
        "target": "N4_01", "target_params": {},
        "basis": [["t", "t", "0", "0"], ["t", "t", "0", "0"],
                  ["0", "t", "t", "0"], ["0", "0", "0", "t"]]})
    rep = verify_numeric(w, cat)
    assert not rep.passed
    assert [f["problem"] for f in rep.failures] == \
        ["basis numerically singular"] * 5


#: verify_numeric factors at 120 + 20 digits and 10 extra bits.
_LU_DPS = 140


def _assert_lu_solve_as_mpmath(a, b):
    """``_lu_solve`` on ``LU_decomp``'s factors of the rows ``a`` gives bit for
    bit what ``L_solve`` then ``U_solve`` give for the right-hand side ``b``.
    Returns the pivots, or None when ``a`` is singular."""
    n = len(a)
    ctx = mpmath.mp
    with ctx.extraprec(10):
        try:
            lu, perm = ctx.LU_decomp(ctx.matrix(a))
        except (ZeroDivisionError, TypeError):
            # TypeError: a column has no pivot candidate left
            return None
        want_x = ctx.U_solve(lu, ctx.L_solve(lu, ctx.matrix(b), perm))
        # _lu_solve runs on raw values at the working precision
        x = _lu_solve([[ctx.mpc(lu[i, j])._mpc_ for j in range(n)] for i in range(n)],
                      perm, [ctx.mpc(v)._mpc_ for v in b], ctx.prec)
    assert all(ctx.make_mpc(x[i]) == want_x[i] for i in range(n))
    return perm


_GAUSSIAN = st.tuples(st.integers(-99, 99), st.integers(-99, 99),
                      st.integers(1, 97))
#: small Gaussian integers: ties in the pivot search, exact cancellations
_SMALL = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.just(1))


def _gaussian_over(re, im, den):
    # (re + i im) / den, rounded at the working precision
    return mpmath.mpc(re, im) / den


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.one_of(st.just((0, 0, 1)), _SMALL, _GAUSSIAN),
                         min_size=4, max_size=4), min_size=4, max_size=4),
       st.lists(_GAUSSIAN, min_size=4, max_size=4))
def test_lu_matches_mpmath_bit_for_bit(entries, rhs):
    with mpmath.workdps(_LU_DPS):
        a = [[_gaussian_over(*e) for e in row] for row in entries]
        b = [_gaussian_over(*e) for e in rhs]
        _assert_lu_solve_as_mpmath(a, b)


def test_lu_matches_mpmath_with_row_swaps():
    rng = random.Random(7)
    with mpmath.workdps(_LU_DPS):
        def rand():
            return mpmath.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) / 3
        for _ in range(20):
            a = [[rand() for _ in range(4)] for _ in range(4)]
            a[0][0] = mpmath.mpc(0)          # the first step must swap
            b = [rand() for _ in range(4)]
            perm = _assert_lu_solve_as_mpmath(a, b)
            assert perm[0] != 0


# ---------------------------------------------------------------------------
# Fallback protocol and the full table
# ---------------------------------------------------------------------------

def test_all_24_rows_verify(all_reports):
    assert len(all_reports) == 24
    assert all(r.passed for r in all_reports), \
        [(r.id, r.failures) for r in all_reports if not r.passed]


def test_fallback_rows_record_literal_failure(all_reports):
    by_id = {r.id: r for r in all_reports}
    for wid in ("B11", "B22", "B24"):
        rep = by_id[wid]
        assert rep.used_fallback
        assert rep.literal_outcome is not None
        assert rep.literal_outcome["passed"] is False
    assert by_id["B24"].literal_outcome["source"] == "N4_07"
    assert by_id["B24"].source == "N4_04"
    for wid in set(by_id) - {"B11", "B22", "B24"}:
        assert not by_id[wid].used_fallback


def test_literal_rows_run_before_fallback(cat, rows):
    # the literal defective row must actually fail on its own
    literal = witness_from_json({**witness_to_json(rows["B22"]),
                                 "fallback": None})
    rep = verify_exact(literal, cat)
    assert not rep.passed
    patched = apply_fallback(rows["B22"])
    assert verify_exact(patched, cat).passed


def test_exact_rows_also_pass_numeric_tier(cat, rows):
    # cross-validation of the two tiers on every Laurent-rational row
    # (corrected fallback form for the two defective literal rows)
    for w in rows.values():
        if detect_tier(w) != "exact":
            continue
        if w.fallback:
            w = apply_fallback(w)
        # Laurent bases span ~10^240 in the squared products at the final
        # t, so the cross-check needs precision past that dynamic range.
        rep = verify_numeric(w, cat, samples=1, digits=400)
        assert rep.passed, (w.id, rep.failures)


def test_transitivity_by_basis_composition(cat, rows):
    # composing the verified chain through N4_15 into N4_14
    w_a, w_b = rows["B15"], rows["B14"]     # N4_20(1/t) -> N4_15 -> N4_14
    rows_a = [[parse_scalar(x) for x in row] for row in w_a.basis]
    rows_b = [[parse_scalar(x) for x in row] for row in w_b.basis]
    composed = [[sp.cancel(sum(rows_b[i][k] * rows_a[k][j] for k in range(4)))
                 for j in range(4)] for i in range(4)]
    w = DegenerationWitness(
        id="B15*B14", source=w_a.source, source_params=w_a.source_params,
        target=w_b.target, target_params=w_b.target_params,
        basis=tuple(map(tuple, composed)))
    rep = verify_exact(w, cat)
    assert rep.passed, rep.failures


def test_witness_json_roundtrip(rows):
    for w in rows.values():
        assert witness_from_json(witness_to_json(w)) == w


_WITNESS = {"id": "W", "source": "N4_09", "target": "zero_4",
            "basis": [["t", "0", "0", "0"], ["0", "t", "0", "0"],
                      ["0", "0", "t", "0"], ["0", "0", "0", "t"]]}


@pytest.mark.parametrize("key", ["id", "source", "target", "basis"])
def test_witness_json_missing_key_is_named(key):
    obj = {k: v for k, v in _WITNESS.items() if k != key}
    with pytest.raises(AlgebraError, match=f"missing key '{key}'") as info:
        witness_from_json(obj)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("basis", ["t", [["t"], "0"], {"row": ["t"]}])
def test_witness_json_basis_must_be_a_list_of_rows(basis):
    with pytest.raises(AlgebraError, match="witness 'W': 'basis' must be a list of rows"):
        witness_from_json({**_WITNESS, "basis": basis})


@pytest.mark.parametrize("key, value, what", [
    ("source_params", "x", "an object"),
    ("target_params", [1], "an object"),
    ("avoid", 5, "a list"),
    ("fallback", 5, "an object or null"),
    ("fallback", "x", "an object or null"),
])
def test_witness_json_optional_key_of_wrong_type_is_named(key, value, what):
    with pytest.raises(AlgebraError, match=f"witness 'W': '{key}' must be {what}"):
        witness_from_json({**_WITNESS, key: value})


def test_witness_fields_are_parsed_once(rows):
    # The reader leaves no grammar text behind, in the fallback too.
    b24, b05 = rows["B24"], rows["B05"]
    u = sp.Symbol("u")
    assert b24.symbols == (u,) and b24.avoid == (u + 1,)
    assert b24.target_params == {"alpha": sp.I * (u - 1) / (u + 1)}
    assert b24.fallback["source"] == "N4_04"
    assert all(isinstance(v, sp.Expr) for v in b24.fallback["source_params"].values())
    assert b05.necessary_t == (4, sp.Rational(1, 2), sp.Rational(4, 27))
    assert all(isinstance(x, sp.Expr) for w in rows.values()
               for basis in (w.basis, (w.fallback or {}).get("basis", ()))
               for row in basis for x in row)


@pytest.mark.parametrize("verify", [verify_exact, verify_numeric])
@pytest.mark.parametrize("change, message", [
    ({"basis": [["t", "0"], ["0", "t"]]}, "W: 'basis' has 2 rows, but N4_09 has dimension 4"),
    ({"target": "zero_3"}, "W: 'basis' has 4 rows, but zero_3 has dimension 3"),
], ids=["source", "target"])
def test_basis_of_another_dimension_is_refused(cat, verify, change, message):
    w = witness_from_json({**_WITNESS, **change})
    with pytest.raises(AlgebraError) as exc:
        verify(w, cat)
    assert str(exc.value) == message


def test_free_symbols(rows):
    assert [str(s) for s in free_symbols_of(rows["B04"])] == ["alpha"]
    assert [str(s) for s in free_symbols_of(rows["B24"])] == ["u"]
    assert free_symbols_of(rows["B01"]) == ()


# ---------------------------------------------------------------------------
# Necessary condition
# ---------------------------------------------------------------------------

def test_necessary_strict_for_fixed_index(cat, rows):
    rep = check_necessary(rows["B02"], cat, samples=2)
    assert rep.passed and rep.mode == "strict"
    for row in rep.rows:
        assert row["dim_der_source"] == 3 and row["dim_der_target"] == 6
        assert row["strict_increase"]


def test_necessary_weak_for_family_index(cat, rows):
    rep = check_necessary(rows["B15"], cat, samples=2)
    assert rep.passed and rep.mode == "weak-family-index"
    assert all(r["dim_der_source"] == 3 == r["dim_der_target"]
               for r in rep.rows)


def test_necessary_radical_index_uses_recorded_t_samples(cat, rows):
    rep = check_necessary(rows["B05"], cat, samples=3)
    assert rep.passed
    assert {r["source_params"]["alpha"] for r in rep.rows} == \
        {"-3/4", "-1/2", "-5/12"}


def test_necessary_keeps_exact_rational_source_param(cat):
    # nsimplify rewrites this rational with radicals; it must stay as given
    w = witness_from_json({**_WITNESS, "source": "N4_06",
                           "source_params": {"alpha": "-133038/508481"}})
    rep = check_necessary(w, cat)
    assert rep.passed
    assert [r["source_params"] for r in rep.rows] == [{"alpha": "-133038/508481"}]


def test_necessary_stops_at_a_repeating_failure(cat, monkeypatch):
    # No free symbol and no t: every attempt would repeat the first.
    calls = []

    def counting(*args):
        calls.append(args)
        return derivation_dim(*args)

    monkeypatch.setattr(degeneration, "derivation_dim", counting)
    w = witness_from_json({**_WITNESS, "source": "N4_06",
                           "source_params": {"alpha": "0"}})
    assert not check_necessary(w, cat).passed
    assert len(calls) == 1


def test_necessary_forms_a_point_free_side_once(cat, rows, monkeypatch):
    # B23: the source N4_17 has no parameter, the target's alpha is free, so
    # the three sampled points need one source and three target dimensions.
    calls = []

    def counting(a, at):
        calls.append(a.name)
        return derivation_dim(a, at)

    monkeypatch.setattr(degeneration, "derivation_dim", counting)
    rep = check_necessary(rows["B23"], cat, samples=3)
    assert rep.passed and len(rep.rows) == 3
    assert sorted(calls) == ["N4_17", "Ntriv_2", "Ntriv_2", "Ntriv_2"]


def test_necessary_skips_self(cat):
    w = witness_from_json({
        "id": "self", "source": "N4_01", "source_params": {},
        "target": "N4_01", "target_params": {},
        "basis": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                   ["0", "0", "1", "0"], ["0", "0", "0", "1"]]})
    assert check_necessary(w, cat).skipped


def test_necessary_negative_control(cat):
    # the zero algebra has the maximal derivation algebra, so it cannot
    # properly degenerate anywhere
    w = witness_from_json({
        "id": "neg", "source": "zero_4", "source_params": {},
        "target": "N4_01", "target_params": {},
        "basis": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                   ["0", "0", "1", "0"], ["0", "0", "0", "1"]]})
    rep = check_necessary(w, cat)
    assert not rep.passed and rep.mode == "strict"


def test_all_rows_pass_necessary(cat, rows):
    for w in rows.values():
        rep = check_necessary(w, cat, samples=2)
        assert rep.passed, rep.to_dict()


# ---------------------------------------------------------------------------
# Reachability
# ---------------------------------------------------------------------------

def test_reachability_full(cat, all_reports):
    reach = build_reachability(all_reports, cat)
    assert reach.passed
    expected = {e.name for e in cat.entries.values()
                if e.listing in ("dim4", "limit")}
    assert {k for k, v in reach.reachable.items() if v} >= expected
    assert reach.sources_never_targets


def test_reachability_empty_reports(cat):
    reach = build_reachability([], cat)
    reached = {k for k, v in reach.reachable.items() if v}
    assert reached == {"N4_20", "N4_22"}
    assert not reach.all_expected_reachable


def test_reachability_chain_to_n4_12(cat, all_reports):
    reach = build_reachability(all_reports, cat)
    edges = set(reach.edges)
    assert ("N4_20", "N4_15") in edges
    assert ("N4_15", "N4_13") in edges
    assert ("N4_13", "N4_12") in edges
    assert reach.reachable["N4_12"]


def test_dot_output(cat, all_reports):
    dot = build_reachability(all_reports, cat).to_dot()
    assert dot.startswith("digraph degenerations {") and dot.endswith("}")
    assert '"N4_20" [shape=doubleoctagon' in dot
    assert '"N4_22" -> "N4_02";' in dot
