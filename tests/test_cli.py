"""CLI surface: subcommands, exit codes, report determinism."""

import hashlib
import json

import pytest

from novikov.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_usage_error(code, out, err, *words):
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    for word in words:
        assert word in err


def test_derivations_published_value(capsys):
    code, out, _ = run(capsys, "derivations", "N4_20", "--param", "alpha=2")
    assert code == 0 and out.strip() == "3"


def test_cohomology_golden(capsys):
    code, out, _ = run(capsys, "cohomology", "N3s_01", "--golden")
    assert code == 0
    assert "Z2=6 B2=1 H2=5" in out and "golden: match" in out


def test_cohomology_parametrized_golden(capsys):
    code, out, _ = run(capsys, "cohomology", "N3_02", "--golden")
    assert code == 0 and "Z2=4 B2=2 H2=2" in out


def test_check_zero_algebra(capsys):
    code, out, _ = run(capsys, "check", "zero_4")
    assert code == 0
    assert "novikov=True" in out and "two_step=True" in out


def test_check_json_output(capsys):
    code, out, _ = run(capsys, "--format", "json", "check", "N4_22")
    assert code == 0
    payload = json.loads(out)
    assert payload["identities"]["novikov"] is True
    assert payload["profile"]["dim_der"] == 3


def test_catalog_list_table_a(capsys):
    code, out, _ = run(capsys, "--format", "json", "catalog", "list",
                       "--dim", "4", "--table", "A")
    assert code == 0
    assert len(json.loads(out)["entries"]) == 24


def test_catalog_list_unknown_table_is_usage_error(capsys):
    code, out, err = run(capsys, "catalog", "list", "--table", "X")
    assert_usage_error(code, out, err, "unknown table 'X'", "A, a",
                       "aux, dim1, dim2, dim3, dim4, limit")
    code, out, _ = run(capsys, "catalog", "list", "--table", "limit")
    assert code == 0 and "Ntriv_2" in out


def test_catalog_list_empty_selection_is_usage_error(capsys):
    code, out, err = run(capsys, "catalog", "list", "--dim", "7")
    assert_usage_error(code, out, err, "no listing of dimension 7", "1, 2, 3, 4")
    code, out, err = run(capsys, "catalog", "list", "--dim", "4", "--table", "dim3")
    assert_usage_error(code, out, err, "table 'dim3' holds no algebra of dimension 4")
    code, out, _ = run(capsys, "catalog", "list", "--table", "limit", "--dim", "4")
    assert code == 0 and "Ntriv_2" in out and "Ntriv_3" in out


def test_catalog_show_unicode_alias(capsys):
    code, out, _ = run(capsys, "catalog", "show", "𝒩⁴₂₀")
    assert code == 0 and "N4_20" in out


def test_extend_to_named_family(capsys):
    code, out, _ = run(capsys, "extend", "N3s_01", "--cocycle", "D12+D31")
    assert code == 0 and "dim 4" in out


def test_extend_rejects_non_cocycle(capsys):
    code, _, err = run(capsys, "extend", "N2s_01", "--cocycle", "D22")
    assert code == 1 and "not a cocycle" in err


def test_extend_s_mismatch(capsys):
    assert_usage_error(*run(capsys, "extend", "N3s_01", "--cocycle", "D12+D31",
                            "--s", "2"), "--s 2 but 1 cocycles given")


def test_split_roundtrip(capsys):
    code, out, _ = run(capsys, "split", "N4_09", "--subspace", "e4")
    assert code == 0 and "roundtrip exact: True" in out


def test_degenerate_single_row(capsys):
    code, out, _ = run(capsys, "degenerate", "verify", "--row", "B02")
    assert code == 0 and "B02" in out and "pass" in out


def test_degenerate_unknown_row(capsys):
    assert_usage_error(*run(capsys, "degenerate", "verify", "--row", "B99"),
                       "unknown row 'B99'")


def test_degenerate_without_row_or_all(capsys):
    assert_usage_error(*run(capsys, "degenerate", "verify"),
                       "need --row ID or --all")


def test_degenerate_with_row_and_all(capsys):
    assert_usage_error(*run(capsys, "degenerate", "verify", "--row", "B01", "--all"),
                       "give --row ID or --all, not both")


def test_cohomology_golden_without_golden_row(capsys):
    assert_usage_error(*run(capsys, "cohomology", "N4_01", "--golden"),
                       "no golden data for N4_01")


def test_degenerate_reports_fallback(capsys):
    code, out, _ = run(capsys, "degenerate", "verify", "--row", "B24")
    assert code == 0
    assert "corrected fallback verified" in out


def test_unknown_algebra_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "N9_99")
    assert code == 2 and "unknown algebra" in err


def test_undeclared_param_is_usage_error(capsys):
    code, out, err = run(capsys, "cohomology", "N3s_01", "--param", "foo=1")
    assert_usage_error(code, out, err, "foo")


@pytest.mark.parametrize("obj, word", [
    ({"dim": 2, "products": []}, "'name'"),
    ({"name": "x", "products": []}, "'dim'"),
    ({"name": "x", "dim": 0}, "positive integer"),
    ({"name": "x", "dim": "2"}, "positive integer"),
    ({"name": "x", "dim": 2, "products": [{"i": 1, "j": 1, "k": 2}]}, "'c'"),
    ({"name": "x", "dim": 2,
      "products": [{"i": "1", "j": 1, "k": 2, "c": "1"}]}, "1..2"),
    ({"name": "x", "dim": 2, "products": 5}, "'products' must be a list"),
    ({"name": "x", "dim": 2, "params": 5}, "'params' must be a list"),
    ({"name": "x", "dim": 2, "params": "pq"}, "'params' must be a list"),
    ({"name": "x", "dim": 2, "params": ["p", "q"], "constraints_nonzero": "pq"},
     "'constraints_nonzero' must be a list"),
    ({"name": "x", "dim": 2, "params": [5]}, "'params' entry 5 is not"),
    ({"name": "x", "dim": 2, "params": ["p p"]}, "'params' entry 'p p' is not"),
    ({"name": "x", "dim": 2, "params": [{"a": 1}]}, "'params' entry {'a': 1} is not"),
    ({"name": "x", "dim": 2,
      "products": [{"i": True, "j": 1, "k": 2, "c": "1"}]}, "(True,1,2) is not an integer"),
    ({"name": "x", "dim": 2, "params": ["a", "a"]}, "'params' ['a', 'a'] repeats"),
    ({"name": "x", "dim": 2, "params": ["a"], "constraints_nonzero": ["a-a"]},
     "'constraints_nonzero' entry 'a-a' is identically zero"),
    ({"name": "x", "dim": 1000000}, "at most 16, got 1000000"),
    ({"name": 5, "dim": 2}, "algebra JSON: 'name' must be a string, got 5"),
    ({"name": "x", "dim": 2, "meta": 5}, "algebra 'x': 'meta' must be an object, got 5"),
    *[({"name": "x", "dim": 2, "products": [{"i": 1, "j": 1, "k": 2, "c": c}]},
       f"algebra 'x': product: 'c' entry {c!r} is not an expression")
      for c in (None, True, 0.5)],
])
def test_algebra_file_schema_error_is_usage_error(capsys, tmp_path, obj, word):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "check", str(path))
    assert_usage_error(code, out, err, word)


_WITNESS = {"id": "W", "source": "N4_09", "target": "zero_4",
            "basis": [["t", "0", "0", "0"], ["0", "t", "0", "0"],
                      ["0", "0", "t", "0"], ["0", "0", "0", "t"]]}


def test_degenerate_verify_accepts_witness_file(capsys, tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({**_WITNESS, "fallback": None}))
    code, out, _ = run(capsys, "degenerate", "verify", "--row", str(path))
    assert code == 0 and out.startswith("W: N4_09 -> zero_4  [exact] pass")


def test_degenerate_verify_fails_a_wrong_witness_file_without_fallback(capsys, tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({**_WITNESS, "basis": [["1", "0", "0", "0"],
                                                      *_WITNESS["basis"][1:]]}))
    code, out, err = run(capsys, "degenerate", "verify", "--row", str(path))
    assert (code, out, err) == (1, "W: N4_09 -> zero_4  [exact] FAIL\n", "")


def test_root_in_a_structure_constant_is_usage_error(capsys, tmp_path):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"name": "x", "dim": 2,
                                "products": [{"i": 1, "j": 1, "k": 2, "c": "root(2, 3)"}]}))
    code, out, err = run(capsys, "check", str(path))
    assert_usage_error(code, out, err)
    assert err == "error: scalar sqrt(3) is not a rational function over Q(i)\n"


def test_witness_file_with_vanishing_source_constraint_is_usage_error(capsys, tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({**_WITNESS, "source": "N4_06",
                                "source_params": {"alpha": "0"}}))
    code, out, err = run(capsys, "degenerate", "verify", "--row", str(path))
    assert_usage_error(code, out, err)
    assert err == "error: W: source constraint alpha vanishes identically\n"


def test_witness_file_with_undeclared_source_param_is_usage_error(capsys, tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({**_WITNESS, "source_params": {"beta": "1"}}))
    code, out, err = run(capsys, "degenerate", "verify", "--row", str(path))
    assert_usage_error(code, out, err)
    assert err == "error: N4_09: undeclared parameters ['beta']\n"


@pytest.mark.parametrize("fallback", [5, "x"])
def test_witness_file_fallback_of_wrong_type_is_usage_error(capsys, tmp_path, fallback):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({**_WITNESS, "fallback": fallback}))
    code, out, err = run(capsys, "degenerate", "verify", "--row", str(path))
    assert_usage_error(code, out, err, "'fallback' must be an object or null")


_T_ROW = {"source": "N4_06", "source_params": {"alpha": "t"}}
_RAGGED = [["t", "0", "0", "0"], ["0", "t", "0"], ["0", "0", "t", "0"], ["0", "0", "0", "t"]]


@pytest.mark.parametrize("change, message", [
    ({"tier": "auto"}, "unknown key 'tier'"),
    ({"fallback": {"basis": _WITNESS["basis"], "tier": "exact"}},
     "'fallback': unknown key 'tier'"),
    ({"basis": _WITNESS["basis"][:3]}, "'basis' must be square, got rows of lengths [4, 4, 4]"),
    ({"basis": _RAGGED}, "'basis' must be square, got rows of lengths [4, 3, 4, 4]"),
    ({"fallback": {"basis": _RAGGED}}, "'fallback': 'basis' must be square"),
    ({"basis": [["t", "0"], ["0", "t"]]}, "'basis' has 2 rows, but N4_09 has dimension 4"),
    ({"target": "zero_3"}, "'basis' has 4 rows, but zero_3 has dimension 3"),
    ({"symbols": [5]}, "'symbols' entry 5 is not an identifier"),
    ({"symbols": ["t"]}, "'symbols' entry 't' is reserved"),
    ({"symbols": ["i"]}, "'symbols' entry 'i' is reserved"),
    ({**_T_ROW, "necessary_t": ["x"]}, "'necessary_t' entry 'x' is not a positive rational"),
    ({**_T_ROW, "necessary_t": ["root(2,2)"]}, "'necessary_t' entry 'root(2,2)' is not"),
    ({**_T_ROW, "necessary_t": ["0"]}, "'necessary_t' entry '0' is not a positive rational"),
    ({**_T_ROW, "necessary_t": ["0.5"]}, "'necessary_t': unexpected character '.'"),
    ({"necessary_t": ["1/2"]}, "'necessary_t' is given, but no 'source_params' value holds t"),
    ({"basis": [[None, "0", "0", "0"], *_WITNESS["basis"][1:]]},
     "'basis' entry None is not an expression"),
    ({"basis": [[True, "0", "0", "0"], *_WITNESS["basis"][1:]]},
     "'basis' entry True is not an expression"),
    ({"source_params": {"alpha": 0.5}, "source": "N4_06"},
     "'source_params' entry 0.5 is not an expression"),
    ({"avoid": [None]}, "'avoid' entry None is not an expression"),
    ({"note": 5, "target": "N4_01", "fallback": {"reason": "r", "basis": _WITNESS["basis"]}},
     "'note' must be a string, got 5"),
    ({"target": "N4_06", "target_params": {"alpha": "root(2,2)"}, "symbols": ["x"]},
     "'target_params' value 'root(2,2)' of alpha holds a root"),
], ids=["tier", "fallback-tier", "short-basis", "ragged-basis", "ragged-fallback",
        "source-dim", "target-dim", "symbol-int", "symbol-t", "symbol-i", "necessary-symbol",
        "necessary-root", "necessary-zero", "necessary-decimal", "necessary-without-t",
        "null-entry", "bool-entry", "float-param", "null-avoid", "note-int", "target-root"])
def test_witness_file_outside_the_schema_is_usage_error(capsys, tmp_path, change, message):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({**_WITNESS, **change}))
    code, out, err = run(capsys, "degenerate", "verify", "--row", str(path))
    assert_usage_error(code, out, err, message)
    assert err.startswith(("error: witness 'W': ", "error: W: "))


def test_witness_file_whose_id_is_not_a_string_is_usage_error(capsys, tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({**_WITNESS, "id": [1]}))
    code, out, err = run(capsys, "degenerate", "verify", "--row", str(path))
    assert_usage_error(code, out, err)
    assert err == "error: witness JSON: 'id' must be a string, got [1]\n"


@pytest.mark.parametrize("obj, message", [
    ({"name": "a1", "dim": 1, "params": ["a"], "constraint_nonzero": ["a"],
      "products": [{"i": 1, "j": 1, "k": 1, "c": "1/a"}]},
     "algebra 'a1': unknown key 'constraint_nonzero'"),
    ({"name": "x", "dim": 2, "products": [{"i": 1, "j": 1, "k": 2, "c": "1", "l": 1}]},
     "algebra 'x': product: unknown key 'l'"),
    ({"name": "x", "dim": 2, "params": ["t"]}, "'params' entry 't' is reserved"),
    ({"name": "x", "dim": 2, "params": ["i"]}, "'params' entry 'i' is reserved"),
], ids=["misspelt-constraints", "product-key", "param-t", "param-i"])
def test_algebra_file_outside_the_schema_is_usage_error(capsys, tmp_path, obj, message):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "check", str(path))
    assert_usage_error(code, out, err, message)


@pytest.mark.parametrize("obj, message", [
    ({"algebra": "N3s_01", "entries": [{"i": 1, "j": 2, "c": "1"}], "entrys": []},
     "cocycle JSON: unknown key 'entrys'"),
    ({"entries": [{"i": 1, "j": 2, "c": "1", "k": 3}]},
     "cocycle JSON: entry: unknown key 'k'"),
], ids=["top-level", "entry"])
def test_cocycle_file_outside_the_schema_is_usage_error(capsys, tmp_path, obj, message):
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "extend", "N3s_01", "--cocycle", str(path))
    assert_usage_error(code, out, err, message)


@pytest.mark.parametrize("command", [
    ("degenerate", "verify", "--row", "B23"),
    ("graph", "components"),
], ids=["degenerate", "graph"])
@pytest.mark.parametrize("samples", ["0", "-1"])
def test_samples_below_one_is_usage_error(capsys, command, samples):
    code, out, err = run(capsys, *command, "--samples", samples)
    assert_usage_error(code, out, err, "--samples must be at least 1")


def test_graph_dot_into_missing_directory_is_usage_error(capsys, tmp_path):
    path = tmp_path / "missing" / "graph.dot"
    code, out, err = run(capsys, "graph", "components", "--dot", str(path))
    assert_usage_error(code, out, err, "No such file or directory")


def test_json_reports_are_deterministic(capsys):
    args = ("--format", "json", "degenerate", "verify", "--row", "B23")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_check_accepts_algebra_file(capsys, tmp_path):
    from novikov.algebras import algebra_to_json
    from novikov.catalog import load
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(algebra_to_json(load().get("N4_13"))))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0 and "novikov=True" in out


def test_extend_accepts_cocycle_file(capsys, tmp_path):
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps({
        "algebra": "N3s_01",
        "entries": [{"i": 1, "j": 2, "c": "1"}, {"i": 3, "j": 1, "c": "1"}]}))
    code, out, _ = run(capsys, "extend", "N3s_01", "--cocycle", str(path))
    assert code == 0 and "e3*e1 = e4" in out


@pytest.mark.parametrize("as_file", [False, True], ids=["expr", "file"])
def test_degeneration_variable_in_cocycle_is_usage_error(capsys, tmp_path, as_file):
    spec = "D12 + t*D31"
    if as_file:
        spec = str(tmp_path / "cocycle.json")
        (tmp_path / "cocycle.json").write_text(json.dumps({
            "entries": [{"i": 1, "j": 2, "c": "1"}, {"i": 3, "j": 1, "c": "t"}]}))
    code, out, err = run(capsys, "extend", "N3s_01", "--cocycle", spec)
    assert_usage_error(code, out, err, spec, "t is reserved")


def test_new_symbol_in_cocycle_is_a_parameter(capsys):
    code, out, _ = run(capsys, "extend", "N3s_01", "--cocycle", "D12 + x*D31")
    assert code == 0 and "e3*e1 = (x)*e4" in out


@pytest.mark.parametrize("obj, word", [
    ([{"i": 1, "j": 2, "c": "1"}], "'entries'"),
    ({"entries": 5}, "must be a list"),
    ({"entries": [{"i": 1, "j": 2}]}, "'c'"),
    ({"entries": [{"i": "1", "j": 2, "c": "1"}]}, "not an integer"),
    ({"entries": [{"i": True, "j": 2, "c": "1"}]}, "True,2"),
    ({"entries": [{"i": 1, "j": 2, "c": True}]}, "'c' entry True is not an expression"),
    ({"entries": [{"i": 1, "j": 2, "c": None}]}, "'c' entry None is not an expression"),
    ({"entries": [{"i": 1, "j": 2, "c": 0.5}]}, "'c' entry 0.5 is not an expression"),
], ids=["list", "entries-not-list", "entry-without-c", "string-index", "bool-index",
        "bool-c", "null-c", "float-c"])
def test_malformed_cocycle_file_is_usage_error(capsys, tmp_path, obj, word):
    from novikov.catalog import load
    from novikov.cohomology import CocycleError, cocycle_from_json
    with pytest.raises(CocycleError, match=word):
        cocycle_from_json(load().get("N3s_01"), obj)
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "extend", "N3s_01", "--cocycle", str(path))
    assert_usage_error(code, out, err, word)


@pytest.mark.parametrize("command", [
    ("check", "{}"),
    ("derivations", "{}"),
    ("extend", "N3s_01", "--cocycle", "{}"),
    ("degenerate", "verify", "--row", "{}"),
], ids=["check", "derivations", "extend", "degenerate"])
def test_missing_json_file_is_usage_error(capsys, tmp_path, command):
    # An argument ending in .json is a file, never a name or an expression.
    path = str(tmp_path / "missing.json")
    code, out, err = run(capsys, *(path if arg == "{}" else arg for arg in command))
    assert_usage_error(code, out, err, "No such file or directory", path)


@pytest.mark.parametrize("command", [
    ("check", "{}"),
    ("extend", "N3s_01", "--cocycle", "{}"),
    ("degenerate", "verify", "--row", "{}"),
], ids=["check", "extend", "degenerate"])
def test_malformed_json_file_names_the_file(capsys, tmp_path, command):
    path = tmp_path / "bad.json"
    path.write_text("{bad")
    code, out, err = run(capsys, *(str(path) if arg == "{}" else arg for arg in command))
    assert_usage_error(code, out, err, "Expecting property name")
    assert err.startswith(f"error: {path}: ")


@pytest.mark.parametrize("value, symbol", [("x", "x"), ("t", "t"), ("2*y+1", "y")])
def test_param_with_free_symbol_is_usage_error(capsys, value, symbol):
    code, out, err = run(capsys, "check", "N4_20", "--param", f"alpha={value}")
    assert_usage_error(code, out, err, "--param alpha", f"free symbol {symbol}")


@pytest.mark.parametrize("value", ["0^-1", "(1-1)^-1", "(alpha-alpha)^-1"])
def test_param_with_negative_power_of_zero_is_usage_error(capsys, value):
    code, out, err = run(capsys, "check", "N4_20", "--param", f"alpha={value}")
    assert_usage_error(code, out, err, "zero denominator")


@pytest.mark.parametrize("value", ["2^10000000000", "(2^1000)^1000"])
def test_param_with_huge_power_is_usage_error(capsys, value):
    code, out, err = run(capsys, "check", "N4_20", "--param", f"alpha={value}")
    assert_usage_error(code, out, err, "bits exceeds the limit 65536")


@pytest.mark.parametrize("value, limit", [("a^20000", "degree"),
                                          ("(a^1000)^1000", "degree"),
                                          ("3^100000*a", "bits")])
def test_algebra_file_with_huge_power_is_usage_error(capsys, tmp_path, value, limit):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"name": "x", "dim": 2, "params": ["a"],
                                "products": [{"i": 1, "j": 1, "k": 2, "c": value}]}))
    code, out, err = run(capsys, "check", str(path))
    assert_usage_error(code, out, err, limit, "exceeds the limit")


@pytest.mark.parametrize("value, message", [
    ("2^20000", "number of more than 4300 digits in '2^20000'"),
    ("10^2200*10^2200", "number of more than 4300 digits in '10^2200*10^2200'"),
    ("7" * 5000, "integer of 5000 digits exceeds the limit 4300 in '7777"),
], ids=["power", "product", "literal"])
def test_param_past_the_string_digit_limit_is_usage_error(capsys, value, message):
    code, out, err = run(capsys, "check", "N4_20", "--param", f"alpha={value}")
    assert_usage_error(code, out, err, message)


@pytest.mark.parametrize("value, message", [
    ("2^20000*a", "number of more than 4300 digits in '2^20000*a'"),
    ("7" * 5000, "integer of 5000 digits exceeds the limit 4300 in '7777"),
], ids=["power", "literal"])
def test_algebra_file_past_the_string_digit_limit_is_usage_error(capsys, tmp_path,
                                                                 value, message):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"name": "x", "dim": 2, "params": ["a"],
                                "products": [{"i": 1, "j": 1, "k": 2, "c": value}]}))
    code, out, err = run(capsys, "check", str(path))
    assert_usage_error(code, out, err, message)


def test_param_at_the_string_digit_limit_is_accepted(capsys):
    code, out, err = run(capsys, "check", "N4_20", "--param", "alpha=10^4299")
    assert code == 0 and err == ""


@pytest.mark.parametrize("value", ["0^-1", "(1-1)^-1", "(a-a)^-1"])
def test_algebra_file_with_negative_power_of_zero_is_usage_error(capsys, tmp_path,
                                                                 value):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"name": "x", "dim": 2, "params": ["a"],
                                "products": [{"i": 1, "j": 1, "k": 2, "c": value}]}))
    code, out, err = run(capsys, "check", str(path))
    assert_usage_error(code, out, err, "zero denominator")


def test_param_at_a_pole_of_an_algebra_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps({"name": "x", "dim": 2, "params": ["alpha"],
                                "products": [{"i": 1, "j": 1, "k": 2,
                                              "c": "1/alpha"}]}))
    code, out, err = run(capsys, "check", str(path), "--param", "alpha=0")
    assert_usage_error(code, out, err)
    assert err == "error: x(alpha=0): structure constant alpha^-1 has a pole\n"
    code, out, _ = run(capsys, "check", str(path), "--param", "alpha=2")
    assert code == 0 and out.startswith("x(alpha=2): novikov=True")


def test_repeated_param_is_usage_error(capsys):
    code, out, err = run(capsys, "check", "N4_20", "--param", "alpha=2",
                         "--param", "alpha=3")
    assert_usage_error(code, out, err)
    assert err == "error: --param alpha given twice\n"


@pytest.mark.parametrize("command", [
    ("split", "N4_01", "--subspace", "e3/e4"),
    ("extend", "N3s_01", "--cocycle", "D12/D31"),
], ids=["split", "extend"])
def test_basis_symbol_in_coefficient_is_usage_error(capsys, command):
    code, out, err = run(capsys, *command)
    assert_usage_error(code, out, err, repr(command[-1]))


@pytest.mark.parametrize("subspace", ["t*e3", "x*e3", "e1 + (alpha + x)*e3"])
def test_undeclared_symbol_in_subspace_is_usage_error(capsys, subspace):
    code, out, err = run(capsys, "split", "N4_20", "--subspace", subspace)
    assert_usage_error(code, out, err, "not a vector in e1..e4", repr(subspace))


def test_declared_parameter_in_subspace_is_accepted(capsys):
    code, out, _ = run(capsys, "split", "N4_20", "--subspace", "alpha*e4")
    assert code == 0 and "roundtrip exact: True" in out
    code, out, err = run(capsys, "split", "N4_20", "--param", "alpha=2",
                         "--subspace", "alpha*e4")
    assert_usage_error(code, out, err, repr("alpha*e4"))


def test_cocycle_file_for_another_algebra_is_usage_error(capsys, tmp_path):
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps({"algebra": "zero_2",
                                "entries": [{"i": 1, "j": 2, "c": "1"}]}))
    code, out, err = run(capsys, "extend", "N3s_01", "--cocycle", str(path))
    assert_usage_error(code, out, err, "zero_2", "N3s_01")


@pytest.mark.parametrize("named", ["N3*_01", None])
def test_cocycle_file_algebra_matches_up_to_alias_or_is_absent(capsys, tmp_path, named):
    obj = {"entries": [{"i": 1, "j": 2, "c": "1"}, {"i": 3, "j": 1, "c": "1"}]}
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps(obj if named is None else {"algebra": named, **obj}))
    code, out, _ = run(capsys, "extend", "N3s_01", "--cocycle", str(path))
    assert code == 0 and "e3*e1 = e4" in out


def test_graph_components(capsys, tmp_path):
    dot_path = tmp_path / "graph.dot"
    code, out, _ = run(capsys, "graph", "components", "--dot", str(dot_path))
    assert code == 0
    assert "sources are never targets: True" in out
    dot = dot_path.read_text()
    assert dot.startswith("digraph degenerations {")
    assert '"N4_20" -> "N4_04";' in dot


#: sha256 of ``novikov --format json report full`` per seed: any change to a
#: verdict, a sampled point or the report layout shows here.
REPORT_SHA256 = {
    None: "067bf27c7c244869b61e049e97d84748414609f26546452376ef49fa88c5b8ae",
    "20260811": "27054bef1d69dd6346c58be6a3b9941d57b01c0750f3945b4a34c343f83e2280",
}


@pytest.mark.parametrize("seed", sorted(REPORT_SHA256, key=str))
def test_report_full_json_is_pinned(capsys, seed):
    argv = ["--format", "json", "report", "full"] + (["--seed", seed] if seed else [])
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_SHA256[seed]
