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


@pytest.mark.parametrize("fallback", [5, "x"])
def test_witness_file_fallback_of_wrong_type_is_usage_error(capsys, tmp_path, fallback):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({**_WITNESS, "fallback": fallback}))
    code, out, err = run(capsys, "degenerate", "verify", "--row", str(path))
    assert_usage_error(code, out, err, "'fallback' must be an object or null")


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


@pytest.mark.parametrize("obj, word", [
    ([{"i": 1, "j": 2, "c": "1"}], "'entries'"),
    ({"entries": 5}, "must be a list"),
    ({"entries": [{"i": 1, "j": 2}]}, "'c'"),
    ({"entries": [{"i": "1", "j": 2, "c": "1"}]}, "not an integer"),
    ({"entries": [{"i": True, "j": 2, "c": "1"}]}, "True,2"),
], ids=["list", "entries-not-list", "entry-without-c", "string-index", "bool-index"])
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
