"""Batch command-line front end.

Exit codes: 0 when every requested check passes, 1 on a verification
failure, 2 on input or usage errors.  Reports are deterministic for a fixed
seed; ``--format json`` emits sorted-key JSON suitable for diffing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import acceptance
from .algebras import (AlgebraError, algebra_from_json, check_identities,
                       derivation_dim, invariant_profile, parse_vector,
                       vector_str)
from .catalog import canonical_name, load as load_catalog
from .cohomology import (CocycleError, central_extension, cocycle_from_expr,
                         cocycle_from_json, cocycle_space, cocycle_to_json)
from .degeneration import (DEFAULT_DIGITS, DEFAULT_SCHEDULE, build_reachability,
                           check_necessary, load_witnesses, verify_all,
                           verify_witness, witness_from_json)
from .scalars import grammar_str, parse_scalar

PASS, FAIL, USAGE = 0, 1, 2


def _parse_params(pairs) -> dict:
    """``--param key=value`` pairs as a map from key to value.  A value must
    be a number: one with a free symbol (``t`` included) is refused."""
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise AlgebraError(f"--param expects key=expr, got {pair!r}")
        key, _, value = pair.partition("=")
        key, value = key.strip(), parse_scalar(value.strip())
        if value.free_symbols:
            free = sorted(map(str, value.free_symbols))
            raise AlgebraError(f"--param {key} must be a number, got {value} with "
                               f"free symbol{'s' * (len(free) > 1)} {', '.join(free)}")
        out[key] = value
    return out


def _emit(args, payload: dict, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    else:
        for line in text_lines:
            print(line)


def _is_file(text: str) -> bool:
    """Whether a NAME, EXPR or ID argument names a JSON file: it does when it
    ends in ``.json`` or is an existing path, so a missing file is reported
    as one and never read as a name or an expression."""
    return text.endswith(".json") or os.path.exists(text)


def _read_json(path: str):
    """The JSON value in the file at ``path``.  A file that cannot be read or
    is not JSON raises ValueError with a message that starts with the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None


def _resolve(args):
    """Catalog name or JSON file path -> instantiated algebra."""
    cat = load_catalog()
    params = _parse_params(getattr(args, "param", None))
    name = args.name
    if _is_file(name):
        a = algebra_from_json(_read_json(name))
        if params:
            from .algebras import substitute
            a = substitute(a, params)
        return a
    return cat.get(name, params or None)


def _profile_payload(a) -> dict:
    profile = invariant_profile(a)
    return {"algebra": a.name, "dim": a.dim,
            "params": [str(p) for p in a.params],
            "profile": profile.to_dict()}


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def cmd_catalog(args) -> int:
    cat = load_catalog()
    if args.action == "list":
        entries = cat.list_entries(dim=args.dim, table=args.table)
        payload = {"entries": [
            {"name": e.name, "dim": e.algebra.dim, "params": list(e.family_params),
             "listing": e.listing, "pure": e.pure_expected} for e in entries]}
        _emit(args, payload, [
            f"{e.name:<12} dim {e.algebra.dim}  "
            f"params ({', '.join(e.family_params) or '-'})  [{e.listing}]"
            for e in entries])
        return PASS
    # show
    a = cat.get(args.name, _parse_params(args.param) or None)
    entry = cat.entry(args.name)
    lines = [f"{a.name}  (dim {a.dim}, listing {entry.listing})"]
    products = []
    for i in range(a.dim):
        for j in range(a.dim):
            v = a.table[i][j]
            if any(x != 0 for x in v):
                products.append(f"  e{i+1}*e{j+1} = {vector_str(v)}")
    lines += products or ["  zero product"]
    payload = {"name": a.name, "dim": a.dim,
               "products": [p.strip() for p in products],
               "constraints_nonzero": [grammar_str(c) for c in a.constraints]}
    _emit(args, payload, lines)
    return PASS


def cmd_check(args) -> int:
    from .algebras import annihilator_basis
    a = _resolve(args)
    payload = _profile_payload(a)
    flags = check_identities(a)
    ann = annihilator_basis(a)
    payload["identities"] = flags.to_dict()
    payload["annihilator_basis"] = [vector_str(v) for v in ann]
    lines = [f"{a.name}: novikov={flags.novikov} two_step={flags.two_step}",
             f"  annihilator: {', '.join(vector_str(v) for v in ann) or '0'}",
             f"  profile: {payload['profile']}"]
    _emit(args, payload, lines)
    return PASS if flags.novikov else FAIL


def cmd_cohomology(args) -> int:
    cat = load_catalog()
    a = cat.get(args.name, _parse_params(args.param) or None)
    space = cocycle_space(a)
    z2, b2, h2 = space.dims
    payload = {"algebra": a.name, "dim_z2": z2, "dim_b2": b2, "dim_h2": h2,
               "z2_basis": [str(c) for c in space.z2_basis],
               "b2_basis": [str(c) for c in space.b2_basis],
               "h2_reps": [str(c) for c in space.h2_reps]}
    lines = [f"{a.name}: Z2={z2} B2={b2} H2={h2}",
             "  Z2 basis: " + "; ".join(str(c) for c in space.z2_basis),
             "  B2 basis: " + ("; ".join(str(c) for c in space.b2_basis) or "0"),
             "  H2 reps:  " + "; ".join(str(c) for c in space.h2_reps)]
    code = PASS
    if args.golden:
        row = next((r for r in cat.golden_cohomology
                    if r["name"] == canonical_name(args.name)), None)
        if row is None:
            raise AlgebraError(f"no golden data for {args.name}")
        ok = not acceptance.golden_failures(a, space, row)
        payload["golden_match"] = ok
        lines.append(f"  golden: {'match' if ok else 'MISMATCH'}")
        code = PASS if ok else FAIL
    _emit(args, payload, lines)
    return code


def cmd_extend(args) -> int:
    cat = load_catalog()
    a = cat.get(args.name, _parse_params(args.param) or None)
    thetas = []
    for spec_text in args.cocycle:
        if _is_file(spec_text):
            obj = _read_json(spec_text)
            named = obj.get("algebra") if isinstance(obj, dict) else None
            if named is not None and canonical_name(named) != canonical_name(args.name):
                raise CocycleError(f"{spec_text}: cocycle is for {named}, "
                                   f"not {args.name}")
            thetas.append(cocycle_from_json(a, obj))
        else:
            thetas.append(cocycle_from_expr(a, spec_text))
    if args.s is not None and args.s != len(thetas):
        raise ValueError(f"--s {args.s} but {len(thetas)} cocycles given")
    try:
        ext = central_extension(a, thetas)
    except CocycleError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return FAIL
    payload = _profile_payload(ext.result)
    payload["base"] = a.name
    payload["cocycles"] = [cocycle_to_json(th) for th in thetas]
    lines = [f"extension of {a.name} by {len(thetas)} cocycle(s): dim {ext.result.dim}"]
    for i in range(ext.result.dim):
        for j in range(ext.result.dim):
            v = ext.result.table[i][j]
            if any(x != 0 for x in v):
                lines.append(f"  e{i+1}*e{j+1} = {vector_str(v)}")
    lines.append(f"  profile: {payload['profile']}")
    _emit(args, payload, lines)
    return PASS


def cmd_split(args) -> int:
    cat = load_catalog()
    a = cat.get(args.name, _parse_params(args.param) or None)
    vectors = [parse_vector(text.strip(), a.dim)
               for text in args.subspace.split(",") if text.strip()]
    split, ok = acceptance.split_roundtrip(a, vectors)
    payload = {"algebra": a.name,
               "subspace": [vector_str(v) for v in vectors],
               "quotient": {"name": split.quotient.name, "dim": split.quotient.dim},
               "cocycles": [str(c) for c in split.cocycles],
               "roundtrip_exact": ok}
    lines = [f"split {a.name} along {payload['subspace']}",
             f"  quotient dim {split.quotient.dim}; "
             f"cocycles: {', '.join(str(c) for c in split.cocycles)}",
             f"  roundtrip exact: {ok}"]
    _emit(args, payload, lines)
    return PASS if ok else FAIL


def cmd_derivations(args) -> int:
    a = _resolve(args)
    dim = derivation_dim(a)
    _emit(args, {"algebra": a.name, "dim_der": dim}, [str(dim)])
    return PASS


def cmd_degenerate(args) -> int:
    cat = load_catalog()
    if args.row and _is_file(args.row):
        witnesses = [witness_from_json(_read_json(args.row))]
    elif args.row:
        witnesses = [w for w in load_witnesses(cat) if w.id == args.row]
        if not witnesses:
            raise ValueError(f"unknown row {args.row!r}")
    elif args.all:
        witnesses = load_witnesses(cat)
    else:
        raise ValueError("need --row ID or --all")
    reports = [verify_witness(w, cat, args.samples, args.seed) for w in witnesses]
    necessary = [check_necessary(w, cat, args.samples, args.seed)
                 for w in witnesses]
    payload = {"config": {"digits": DEFAULT_DIGITS, "samples": args.samples,
                          "seed": args.seed,
                          "schedule": [str(t) for t in DEFAULT_SCHEDULE]},
               "rows": [r.to_dict() for r in sorted(reports, key=lambda r: r.id)],
               "necessary": [n.to_dict() for n in
                             sorted(necessary, key=lambda n: n.id)]}
    lines = []
    for r in sorted(reports, key=lambda r: r.id):
        status = "pass" if r.passed else "FAIL"
        extra = ""
        if r.tier == "numeric":
            extra = f"  max_residual={r.max_residual} (heuristic)"
        if r.used_fallback:
            extra += "  [literal row failed; corrected fallback verified]"
        lines.append(f"{r.id}: {r.source} -> {r.target}  [{r.tier}] {status}{extra}")
    for n in sorted(necessary, key=lambda n: n.id):
        if not n.passed:
            lines.append(f"{n.id}: necessary condition FAILED ({n.mode})")
    _emit(args, payload, lines)
    ok = all(r.passed for r in reports) and all(n.passed for n in necessary)
    return PASS if ok else FAIL


def cmd_graph(args) -> int:
    cat = load_catalog()
    reports = verify_all(cat, samples=args.samples, seed=args.seed)
    reach = build_reachability(reports, cat)
    dot = reach.to_dot()
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dot + "\n")
    payload = reach.to_dict()
    lines = [f"verified edges: {len(set(reach.edges))}",
             "reachable from {N4_20, N4_22}: " +
             ", ".join(sorted(k for k, v in reach.reachable.items() if v))]
    unreached = sorted(k for k, v in reach.reachable.items() if not v)
    if unreached:
        lines.append("UNREACHED: " + ", ".join(unreached))
    lines.append(f"sources are never targets: {reach.sources_never_targets}")
    if not args.dot and args.format == "text":
        lines.append(dot)
    _emit(args, payload, lines)
    return PASS if reach.passed else FAIL


def cmd_report(args) -> int:
    results = acceptance.run_all(seed=args.seed,
                                 echo=None if args.format == "json" else print)
    payload = {"config": {"digits": DEFAULT_DIGITS, "seed": args.seed},
               "criteria": [r.to_dict() for r in results],
               "passed": all(r.passed for r in results)}
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    else:
        print("overall:", "PASS" if payload["passed"] else "FAIL")
    return PASS if payload["passed"] else FAIL


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="novikov",
        description="Cohomology, central extensions and degeneration "
                    "verification for nilpotent Novikov algebras.")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=20260810,
                        help="seed for all sampled checks (reports are "
                             "byte-identical for a fixed seed)")
    sub = parser.add_subparsers(dest="command", required=True)

    def seeded(p):
        # accept --seed after the subcommand as well
        p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
        return p

    p_cat = sub.add_parser("catalog", help="list or show catalog algebras")
    cat_sub = p_cat.add_subparsers(dest="action", required=True)
    p_list = cat_sub.add_parser("list")
    p_list.add_argument("--dim", type=int)
    p_list.add_argument("--table")
    p_show = cat_sub.add_parser("show")
    p_show.add_argument("name")
    p_show.add_argument("--param", action="append", metavar="k=v")
    p_cat.set_defaults(func=cmd_catalog)

    p_check = sub.add_parser("check", help="identities, nilpotency, invariants")
    p_check.add_argument("name", help="catalog name or algebra JSON file")
    p_check.add_argument("--param", action="append", metavar="k=v")
    p_check.set_defaults(func=cmd_check)

    p_coh = sub.add_parser("cohomology", help="Z2/B2/H2 basis and dims")
    p_coh.add_argument("name")
    p_coh.add_argument("--param", action="append", metavar="k=v")
    p_coh.add_argument("--golden", action="store_true",
                       help="compare against the recorded golden table")
    p_coh.set_defaults(func=cmd_cohomology)

    p_ext = sub.add_parser("extend", help="build a central extension")
    p_ext.add_argument("name")
    p_ext.add_argument("--cocycle", action="append", required=True,
                       metavar="EXPR_OR_FILE",
                       help="D-expression like 'D12+alpha*D21' or cocycle JSON")
    p_ext.add_argument("--param", action="append", metavar="k=v")
    p_ext.add_argument("--s", type=int, help="expected number of cocycles")
    p_ext.set_defaults(func=cmd_extend)

    p_split = sub.add_parser("split", help="peel off a central subspace")
    p_split.add_argument("name")
    p_split.add_argument("--subspace", required=True,
                         help="comma list of vectors, e.g. 'e4' or 'e3,e4'")
    p_split.add_argument("--param", action="append", metavar="k=v")
    p_split.set_defaults(func=cmd_split)

    p_der = sub.add_parser("derivations", help="derivation algebra dimension")
    p_der.add_argument("name")
    p_der.add_argument("--param", action="append", metavar="k=v")
    p_der.set_defaults(func=cmd_derivations)

    p_deg = sub.add_parser("degenerate", help="verify degeneration witnesses")
    deg_sub = p_deg.add_subparsers(dest="action", required=True)
    p_ver = seeded(deg_sub.add_parser("verify"))
    p_ver.add_argument("--row", help="witness id, e.g. B05, or witness JSON file")
    p_ver.add_argument("--all", action="store_true")
    p_ver.add_argument("--samples", type=int, default=3)
    p_deg.set_defaults(func=cmd_degenerate)

    p_graph = sub.add_parser("graph", help="reachability report and DOT graph")
    graph_sub = p_graph.add_subparsers(dest="action", required=True)
    p_comp = seeded(graph_sub.add_parser("components"))
    p_comp.add_argument("--dot", metavar="PATH", help="write DOT to a file")
    p_comp.add_argument("--samples", type=int, default=3)
    p_graph.set_defaults(func=cmd_graph)

    p_rep = sub.add_parser("report", help="run acceptance suites")
    rep_sub = p_rep.add_subparsers(dest="action", required=True)
    seeded(rep_sub.add_parser("full"))
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "samples", 1) < 1:
            raise ValueError(f"--samples must be at least 1, got {args.samples}")
        return args.func(args)
    except (AlgebraError, CocycleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
