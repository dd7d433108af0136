"""Acceptance gate: the eight criteria, each at its stated tolerance.

Exact criteria run at zero tolerance; the numeric degeneration tier uses the
fixed schedule down to t = 10^-30 at 120 digits with a 1e-8 residual bound.
One pass/fail line per criterion is printed as the suite runs.
"""

import hashlib
import subprocess
import sys

import pytest

from novikov import acceptance
from novikov.algebras import AlgebraError, basis_vector
from novikov.catalog import load
from novikov.cohomology import cocycle_space, verify_action_formulas


@pytest.fixture(scope="module")
def cat():
    return load()


@pytest.fixture(scope="module")
def table_b(cat):
    return acceptance.criterion_table_b(cat)


def _report(result):
    print(result.line())
    assert result.passed, result.details.get("failures", result.details)


def test_criterion_1_identities_nilpotency_purity(cat):
    result = acceptance.criterion_identities(cat)
    _report(result)
    # 24 + 6 + 2 families; parametrized ones checked generically and at
    # 5 admissible samples each
    assert result.details["entries"] == 32
    assert result.seconds < 10


def test_criterion_2_cohomology_golden(cat):
    result = acceptance.criterion_cohomology_golden(cat)
    _report(result)
    assert result.details["rows"] == 7


def test_golden_failures_negative_control(cat):
    row = next(r for r in cat.golden_cohomology if r["name"] == "N3s_02")
    a = cat.get("N3s_02")
    space = cocycle_space(a)
    assert acceptance.golden_failures(a, space, row) == []
    # D33 is no cocycle of N3s_02: the dimensions agree, the Z2 span does not
    perturbed = dict(row, z2=row["z2"][:-1] + ["D22+D33"])
    assert acceptance.golden_failures(a, space, perturbed) == [
        {"algebra": "N3s_02", "problem": "Z2 span differs"}]


def test_criterion_3_extension_witnesses(cat):
    result = acceptance.criterion_extension_witnesses(cat)
    _report(result)
    assert result.details["witnesses"] == 23
    cases = {c["case"]: c for c in result.details["action_cases"]}
    # the published matrix entries and the summarized class formulas are
    # both verified on the case where they visibly differ by a coboundary
    assert cases["act-N3_02"]["class_formulas_ok"]
    assert cases["act-N3_02"]["matrix_entries_ok"]


def test_criterion_4_split_roundtrip(cat):
    result = acceptance.criterion_split_roundtrip(cat)
    _report(result)
    assert result.details["lines_checked"] >= 24


def test_split_roundtrip_negative_control(cat):
    a = cat.get("N4_09")
    split, exact = acceptance.split_roundtrip(a, [basis_vector(4, 3)])
    assert exact and split.quotient.dim == 3
    # e1 is not in the annihilator of N4_09
    with pytest.raises(AlgebraError, match="not contained in Ann"):
        acceptance.split_roundtrip(a, [basis_vector(4, 0)])


def test_criterion_5_derivation_dims(cat):
    result = acceptance.criterion_derivation_dims(cat)
    _report(result)
    assert result.details["results"]["N4_20_generic"] == 3
    assert result.details["results"]["N4_22_generic"] == 3
    assert result.details["results"]["zero_4"] == 16


def test_criterion_6_table_b(table_b):
    result, reports = table_b
    _report(result)
    assert len(result.details["rows"]) == 24
    assert result.seconds < 120
    by_id = {r["id"]: r for r in result.details["rows"]}
    assert by_id["B24"]["used_fallback"]
    assert by_id["B24"]["literal_outcome"]["source"] == "N4_07"
    assert by_id["B24"]["literal_outcome"]["passed"] is False
    exact = sum(1 for r in result.details["rows"] if r["tier"] == "exact")
    assert exact == 21 and len(result.details["rows"]) - exact == 3


def test_criterion_7_necessary_condition(cat):
    result = acceptance.criterion_necessary(cat)
    _report(result)
    modes = {r["id"]: r["mode"] for r in result.details["rows"]}
    assert modes["B02"] == "strict"
    assert modes["B15"] == "weak-family-index"
    strict_rows = [r for r in result.details["rows"] if r["mode"] == "strict"]
    assert strict_rows and all(
        all(a < b for a, b in r["dims"]) for r in strict_rows)


def test_criterion_8_reachability(table_b, cat):
    _, reports = table_b
    result = acceptance.criterion_reachability(reports, cat)
    _report(result)
    assert result.details["unreached"] == []
    assert result.details["sources_never_targets"]


def test_criterion_reports_are_deterministic(cat):
    import json
    first = [acceptance.criterion_cohomology_golden(cat).to_dict(),
             acceptance.criterion_extension_witnesses(cat).to_dict()]
    second = [acceptance.criterion_cohomology_golden(cat).to_dict(),
              acceptance.criterion_extension_witnesses(cat).to_dict()]
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_cli_report_full_exits_zero():
    proc = subprocess.run(
        [sys.executable, "-m", "novikov.cli", "report", "full"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("[PASS]") == 8
    assert "overall: PASS" in proc.stdout


def test_seed_reaches_the_action_formula_check(monkeypatch):
    seeds = []

    def recording(case, samples=20, seed=None):
        seeds.append(seed)
        return verify_action_formulas(case, samples, seed)

    monkeypatch.setattr(acceptance, "verify_action_formulas", recording)
    cat = load()
    assert acceptance.criterion_extension_witnesses(cat, seed=5).passed
    assert seeds == [5] * len(cat.action_cases)


#: Count and sha256 of the newline-joined names of the library calls that
#: the acceptance suites make in one run at the default seed.  The
#: benchmark's gate workload times each of these calls as one operation, so
#: its per-operation latencies compare across changes only while this list
#: stays the same.
GATE_CALLS = (525, "ec788d5b03679d31e0d2f43041f760786839047fd07b04a7d8cc4431218f295c")


def test_gate_operation_list_is_pinned(monkeypatch):
    # Wrapped as perfbench/worker.py's record_calls does: every public
    # function of another novikov module bound in acceptance's namespace.
    names = []
    for attr, fn in list(vars(acceptance).items()):
        owner = getattr(fn, "__module__", None) or ""
        if attr.startswith("_") or isinstance(fn, type) or not callable(fn) \
                or not owner.startswith("novikov.") or owner == acceptance.__name__:
            continue

        def recorded(*args, _fn=fn, _name=f"{owner[8:]}.{attr}", **kwargs):
            try:
                return _fn(*args, **kwargs)
            finally:
                names.append(_name)

        monkeypatch.setattr(acceptance, attr, recorded)
    acceptance.run_all()
    digest = hashlib.sha256("\n".join(names).encode()).hexdigest()
    assert (len(names), digest) == GATE_CALLS
