"""The novikov benchmark: one command, three workloads, checked answers.

    python3 perfbench/run.py --workload gate|generic|sampled --seed N \\
        --seconds S --trace 0|1 [--size full|tiny]

Load comes from one process in a closed loop: one operation at a time, and
every repetition in a fresh interpreter (``worker.py``), so sympy's global
cache and ``catalog.load``'s ``lru_cache`` never carry over.  Repetitions
start while the next one is expected to end within ``--seconds``; at least
one always runs.

Workloads (why each exists):

* ``gate`` -- ``novikov --format json report full --seed 20260810+N``, the
  acceptance gate users run; the only workload that runs the action-formula
  check (criterion 3) and the ``acceptance``/``cli`` layers.  One operation
  is one call the acceptance suites make into the library (about 525 per
  report); the eight criteria are the unit of correctness.
* ``generic`` -- every decision over parameter fields, no sampling: the
  five-operation profile of all 38 catalog algebras, split plus re-extend
  on each annihilator line of the Table-A families, ``verify_witness`` and
  ``check_necessary`` on all 24 Table-B rows (at their default seed).
  Loads ``cancel`` with multivariate fractions and runs the numeric tier.
  The benchmark seed reaches it only as the hash seed.
* ``sampled`` -- the profile at 8 seeded admissible rational points per
  parametrized family plus every constant algebra: many small systems over
  Q and no degeneration work, so per-call overhead shows here.

``BENCHMARK.json`` gates ``gate`` and ``sampled`` only: on a host whose
speed swings within minutes, two workloads leave room for longer runs, and
``gate`` already reaches every layer ``generic`` does.

End-to-end timings are scaled to a reference host speed.  The host this
benchmark was tuned on is shared, and its speed swings by half for minutes
at a time, which moved plain medians past the bounds between two sets of
runs.  So every interpreter times a fixed integer loop (``worker.probe``)
after set-up and after each operation, outside the operation's latency,
and each of its timings is divided by its slowdown: the median probe time
over ``PROBE_REF_S``, the probe's time on that host when it is quiet.  The
probe runs no program code, so a slower program still reads slower.  Each
operation's latency is its median over the repetitions; ``op_p50_ms`` and
``op_p90_ms`` are quantiles of those and ``wall_s`` is their sum.  The
unscaled median wall time and slowdown are printed beside them.

With ``--trace 0`` the result carries the end-to-end metrics, with
``--trace 1`` the per-layer metrics of an outside-in traced run (see
``tracer.py``) plus the tracing overhead against untraced repetitions
interleaved in the same run.  The last line of stdout is the JSON result;
the lines before it give every metric with its unit, the checks and the
environment stamp.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import reference
from tracer import CRITERIA, LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "novikov" / "data"
EXPECTED = HERE / "expected.json"

WORKLOADS = ("gate", "generic", "sampled")
CLI_SEED = 20260810          # the CLI's default --seed; benchmark seed 0
SEED_DIGEST = "067bf27c7c244869b61e049e97d84748414609f26546452376ef49fa88c5b8ae"
POINTS_PER_FAMILY = 8
PROBE_REF_S = 100e-6         # worker.probe's time on a quiet host (Xeon, 2 vCPU)
SETUP_SAMPLES = 5            # set-ups per untraced run, topped up by
                             # interpreters that only set up
DEADLINE_S = 170             # a run never outlives this; a repetition takes ~12 s
_START = time.monotonic()

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "peak_rss_mb": "MB"}

# Span names each workload must record calls on (a rebinding in the program
# must not silently zero a layer), and those it must never reach.
_ALL = ["scalars.cancel", "scalars.parse_scalar", "catalog.load",
        "linalg.rref", "algebras.check_identities", "algebras.multiply_table",
        "algebras.derivation_dim", "cohomology.cocycle_space"]
_DEGEN = ["degeneration.verify_exact", "degeneration.verify_numeric",
          "degeneration.check_necessary"]
MUST_CALL = {
    "gate": _ALL + _DEGEN + ["linalg.det", "algebras.change_basis_table",
                             "algebras.substitute",
                             "cohomology.verify_action_formulas", "cli.main"]
    + [f"acceptance.{c}" for c in CRITERIA],
    "generic": _ALL + _DEGEN + ["linalg.det", "algebras.change_basis_table"],
    "sampled": _ALL + ["algebras.substitute"],
}
MUST_NOT_CALL = {
    "gate": [],
    "generic": ["cohomology.verify_action_formulas", "cli.main"],
    "sampled": _DEGEN + ["cohomology.verify_action_formulas", "cli.main"],
}


# Per-layer metrics: "<span>.<suffix>", by the aggregate each suffix reads.
SPAN_METRICS = (
    ("scalars.cancel", "calls"), ("scalars.cancel", "self_s"),
    ("scalars.parse_scalar", "self_s"), ("catalog.load", "s"),
    ("linalg.rref", "calls"), ("linalg.rref", "cells"), ("linalg.rref", "self_s"),
    ("linalg.det", "self_s"),
    ("algebras.check_identities", "self_s"), ("algebras.multiply_table", "calls"),
    ("algebras.change_basis_table", "self_s"), ("algebras.substitute", "self_s"),
    ("algebras.derivation_dim", "total_s"), ("cohomology.cocycle_space", "total_s"),
    ("cohomology.verify_action_formulas", "calls"),
    ("cohomology.verify_action_formulas", "self_s"),
    ("degeneration.verify_exact", "calls"), ("degeneration.verify_exact", "total_s"),
    ("degeneration.verify_numeric", "calls"),
    ("degeneration.verify_numeric", "self_s"),
    ("degeneration.check_necessary", "calls"),
    ("degeneration.check_necessary", "total_s"),
    ("cli.main", "self_s"),
)
SUFFIXES = {"calls": ("calls", "count"), "cells": ("work", "count"),
            "self_s": ("self_s", "s"), "total_s": ("total_s", "s"),
            "s": ("total_s", "s")}


def per_layer_metrics(stats: dict) -> list[tuple[str, float, str]]:
    """(name, value, unit) of every per-layer metric from span aggregates."""
    def get(span, key):
        return stats.get(span, {}).get(key, 0)

    out = []
    for span, suffix in SPAN_METRICS:
        key, unit = SUFFIXES[suffix]
        out.append((f"{span}.{suffix}", get(span, key), unit))
    for number, fn in enumerate(CRITERIA, 1):
        out.append((f"acceptance.criterion_{number}.s",
                    get(f"acceptance.{fn}", "total_s"), "s"))
    # Rows verified over verify runs attempted: literal-first reruns waste runs.
    runs = get("degeneration.verify_exact", "calls") + \
        get("degeneration.verify_numeric", "calls")
    out.append(("degeneration.fallback_ratio",
                get("degeneration.verify_witness", "calls") / runs if runs else 0.0,
                "ratio"))
    for layer in LAYERS:
        out.append((f"{layer}.self_s",
                    sum(v["self_s"] for k, v in stats.items()
                        if k.split(".")[0] == layer), "s"))
    return out


# ---------------------------------------------------------------------------
# Inputs, made from the seed only
# ---------------------------------------------------------------------------

def catalog_entries() -> list[dict]:
    with open(DATA / "algebras.json", encoding="utf-8") as fh:
        return json.load(fh)


def witness_ids() -> list[str]:
    with open(DATA / "degenerations.json", encoding="utf-8") as fh:
        return [row["id"] for row in json.load(fh)]


def sample_points(entry: dict, rng: random.Random, count: int) -> list[dict]:
    """Distinct admissible rational points, drawn like the program's own
    samplers: numerator in [-9, 9] minus 0, denominator in [1, 7]."""
    points, seen = [], set()
    while len(points) < count:
        at = {p: Fraction(rng.choice([n for n in range(-9, 10) if n]),
                          rng.randint(1, 7)) for p in entry["params"]}
        key = tuple(sorted(at.items()))
        if key not in seen and reference.admissible(entry, at):
            seen.add(key)
            points.append(at)
    return points


def make_inputs(workload: str, seed: int, size: str) -> dict:
    entries = catalog_entries()
    tiny = size == "tiny"
    spec = {"workload": workload, "seed": CLI_SEED + seed,
            "src": str(SRC / "novikov")}
    if workload == "generic":
        names = [e["name"] for e in entries]
        ids = witness_ids()
        if tiny:   # dims 3 and 4, a family; an exact, a numeric, a fallback row
            names = ["N3s_01", "N4_09", "N4_20"]
            ids = ["B01", "B05", "B11"]
        spec["algebras"] = names
        spec["table_a"] = [e["name"] for e in entries
                           if e["meta"].get("listing") == "dim4"]
        spec["rows"] = ids
    else:
        rng = random.Random(seed)
        instances = []
        for e in entries:
            if not e["params"]:
                if not tiny:
                    instances.append({"label": e["name"], "name": e["name"],
                                      "at": {}})
                continue
            points = sample_points(e, rng, 1 if tiny else POINTS_PER_FAMILY)
            for k, at in enumerate(points):
                instances.append({"label": f"{e['name']}@{k}", "name": e["name"],
                                  "at": {p: str(v) for p, v in at.items()}})
        spec["instances"] = instances
    return spec


# ---------------------------------------------------------------------------
# Repetitions
# ---------------------------------------------------------------------------

def child_env(seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Hash order is part of the input: fixed by the seed, varied across seeds.
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    return env


def repetition(spec: dict, trace: bool, env: dict) -> dict:
    """One fresh interpreter: returns its result with ``setup_s`` added."""
    payload = json.dumps(dict(spec, trace=trace))
    t_spawn = time.time()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                          input=payload, capture_output=True, text=True,
                          env=env, cwd=ROOT,
                          timeout=max(1.0, DEADLINE_S - (time.monotonic() - _START)))
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready_time"] - t_spawn
    out["slowdown"] = statistics.median(out["probe_s"]) / PROBE_REF_S
    out["traced"] = trace
    return out


def repetitions(spec: dict, seconds: float, trace: bool, env: dict) -> list[dict]:
    """Run while the next repetition, at the mean duration so far, is
    expected to end within ``seconds``.  A traced run alternates traced and
    untraced repetitions, at least one of each."""
    reps = []
    t0 = time.monotonic()
    while True:
        reps.append(repetition(spec, trace and len(reps) % 2 == 0, env))
        elapsed = time.monotonic() - t0
        if len(reps) >= (2 if trace else 1) and \
                elapsed * (len(reps) + 1) / len(reps) > seconds:
            return reps


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def gate_projection(report: dict) -> list:
    """The part of the gate report that no seed changes."""
    out = []
    for c in report["criteria"]:
        d = c["details"]
        keep = {"number": c["number"], "title": c["title"], "passed": c["passed"],
                "failures": d.get("failures")}
        if c["number"] in (2, 3, 8):
            keep["details"] = d
        elif c["number"] == 1:
            keep["checked"] = [d["entries"], d["instances_checked"]]
        elif c["number"] == 6:
            keep["rows"] = [[r["id"], r["tier"], r["passed"], r["source"],
                             r["target"], r.get("used_fallback", False)]
                            for r in d["rows"]]
        elif c["number"] == 7:
            keep["rows"] = [[r["id"], r["mode"], r["passed"]] for r in d["rows"]]
        out.append(keep)
    return out


def check_gate(reps: list[dict], spec: dict, expected: dict) -> tuple[int, int, list]:
    attempted = failed = 0
    problems = []
    digests = {r["report_sha256"] for r in reps}
    if len(digests) != 1:
        problems.append("report not byte-identical across repetitions")
    if len({tuple(r["op_names"]) for r in reps}) != 1:
        problems.append("the report's operations differ across repetitions")
    for r in reps:
        attempted += len(CRITERIA)
        try:
            report = json.loads(r["report"])
            got = gate_projection(report)
            rows = report["criteria"][5]["details"]["rows"]
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            failed += len(CRITERIA)
            problems.append(f"unreadable report: {exc}")
            continue
        want = expected["gate_projection"]
        for g, w in zip(got, want):
            if not (g["passed"] and g == w):
                failed += 1
                problems.append(f"criterion {w['number']} differs or fails")
        failed += max(0, len(CRITERIA) - len(got))
        if r["exit_code"] != 0 or not report["passed"] or len(rows) != 24 \
                or not all(row["passed"] for row in rows):
            problems.append("gate verdict is not PASS with 24/24 rows")
    if spec["seed"] == CLI_SEED and digests != {SEED_DIGEST}:
        problems.append("report sha256 differs from the seed digest")
    return attempted, failed, problems


def check_generic(reps: list[dict], spec: dict, expected: dict) -> tuple[int, int, list]:
    attempted = failed = 0
    problems = []
    want = expected["generic"]
    lines = sum(len(want[f"{n}|annihilator_basis"]) for n in spec["algebras"]
                if n in spec["table_a"])
    count = 5 * len(spec["algebras"]) + 2 * lines + 2 * len(spec["rows"])
    for r in reps:
        if len(r["answers"]) != count:
            problems.append(f"{len(r['answers'])} answers, expected {count}")
        for label, kind, ans in r["answers"]:
            attempted += 1
            if want.get(f"{label}|{kind}") != ans:
                failed += 1
                problems.append(f"{label} {kind}: {ans!r}")
    return attempted, failed, problems


def _frac_vectors(vectors):
    return [[Fraction(x) for x in v] for v in vectors]


def check_sampled(reps: list[dict], spec: dict) -> tuple[int, int, list]:
    entries = {e["name"]: e for e in catalog_entries()}
    tables = {}
    for inst in spec["instances"]:
        at = {p: Fraction(v) for p, v in inst["at"].items()}
        tables[inst["label"]] = reference.table_at(entries[inst["name"]], at)
    truth = {}     # label -> reference profile and kernel rows, built once
    verdicts = {}  # repetitions repeat their answers: check each once
    attempted = failed = 0
    problems = []
    count = sum(6 if inst["at"] else 5 for inst in spec["instances"])
    for r in reps:
        if len(r["answers"]) != count:
            problems.append(f"{len(r['answers'])} answers, expected {count}")
        for label, kind, ans in r["answers"]:
            attempted += 1
            key = (label, kind, json.dumps(ans, sort_keys=True))
            if key not in verdicts:
                if label not in truth:
                    tbl = tables[label]
                    truth[label] = (tbl, reference.profile(tbl),
                                    reference.annihilator_rows(tbl),
                                    reference.cocycle_rows(tbl))
                try:
                    verdicts[key] = _check_one(kind, ans, *truth[label])
                except (ValueError, ZeroDivisionError, TypeError, KeyError):
                    verdicts[key] = False
            if not verdicts[key]:
                failed += 1
                problems.append(f"{label} {kind}: {str(ans)[:200]}")
    return attempted, failed, problems


def _check_one(kind, ans, tbl, ref, ann_rows, cocycle_rows) -> bool:
    n = len(tbl)
    if kind == "substitute":
        return [[[Fraction(x) for x in v] for v in plane] for plane in ans] == tbl
    if kind == "check_identities":
        return ans == ref["identities"]
    if kind == "derived_power_dims":
        return ans == ref["derived_dims"]
    if kind == "derivation_dim":
        return ans == ref["der_dim"]
    if kind == "annihilator_basis":
        return reference.is_basis_of_kernel(
            _frac_vectors(ans), ann_rows, ref["ann_dim"])
    if kind == "cocycle_space":
        z2 = ref["cohomology_dims"][0]
        return ans["dims"] == ref["cohomology_dims"] and \
            all(len(v) == n * n for v in ans["z2"]) and \
            reference.is_basis_of_kernel(_frac_vectors(ans["z2"]),
                                         cocycle_rows, z2)
    return False


def check_layers(workload: str, stats: dict) -> list[str]:
    problems = []
    for name in MUST_CALL[workload]:
        if stats.get(name, {}).get("calls", 0) == 0:
            problems.append(f"layer span {name} recorded no calls")
    for name in MUST_NOT_CALL[workload]:
        if stats.get(name, {}).get("calls", 0) != 0:
            problems.append(f"layer span {name} recorded calls")
    for layer in LAYERS:
        needed = any(n.startswith(layer + ".") for n in MUST_CALL[workload])
        seen = sum(v["calls"] for k, v in stats.items()
                   if k.startswith(layer + "."))
        if needed and seen == 0:
            problems.append(f"layer {layer} recorded no calls")
    return problems


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(reps: list[dict], setups: list[float]) -> dict:
    """Medians over repetitions, timings scaled by each interpreter's
    slowdown (``setups`` already are).  Each operation's latency is its
    median over the repetitions; wall_s is their sum, p50 and p90 are taken
    over them."""
    ops = [statistics.median(t / r["slowdown"] for t, r in zip(ts, reps))
           for ts in zip(*(r["op_s"] for r in reps))]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(ops),
        "op_p50_ms": 1000 * statistics.median(ops),
        "op_p90_ms": 1000 * statistics.quantiles(ops, n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


def layer_metrics(traced: list[dict], plain: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics from the medians of the traced repetitions' span
    aggregates, and those medians.  The tracing overhead compares wall
    times scaled by slowdown, as the end-to-end timings are."""
    stats_runs = [r["trace"] for r in traced]
    names = sorted({n for s in stats_runs for n in s})
    med = {n: {k: median(s.get(n, {}).get(k, 0) for s in stats_runs)
               for k, median in (("calls", statistics.median_low),
                                 ("total_s", statistics.median),
                                 ("self_s", statistics.median),
                                 ("work", statistics.median_low))}
           for n in names}
    out = {name: (value, unit) for name, value, unit in per_layer_metrics(med)}
    t_wall = statistics.median(r["wall_s"] / r["slowdown"] for r in traced)
    p_wall = statistics.median(r["wall_s"] / r["slowdown"] for r in plain)
    out["trace.overhead_ratio"] = (t_wall / p_wall - 1, "ratio")
    out["trace.wall_s"] = (t_wall, "s")
    return out, med


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a few inputs per workload, for the self-test")
    args = ap.parse_args(argv)
    # On SIGTERM unwind through subprocess.run, which kills and reaps the
    # running repetition.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "novikov" / "__init__.py").is_file():
        print(f"error: no novikov sources under {SRC}", file=sys.stderr)
        return 2
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)

    spec = make_inputs(args.workload, args.seed, args.size)
    env = child_env(args.seed)
    trace = bool(args.trace)
    reps = repetitions(spec, args.seconds, trace, env)
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    setups = [r["setup_s"] / r["slowdown"] for r in plain]
    while not trace and len(setups) < SETUP_SAMPLES:
        r = repetition(dict(spec, workload="setup"), False, env)
        setups.append(r["setup_s"] / r["slowdown"])

    if args.workload == "gate":
        attempted, failed, problems = check_gate(reps, spec, expected)
    elif args.workload == "generic":
        attempted, failed, problems = check_generic(reps, spec, expected)
    else:
        attempted, failed, problems = check_sampled(reps, spec)

    if trace:
        metrics, med = layer_metrics(traced, plain)
        problems += check_layers(args.workload, med)
    else:
        metrics = end_to_end(reps, setups)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)

    ratio = failed / attempted if attempted else 1.0
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>14.6g} {unit}")
    if not trace:
        print(f"{'(unscaled median wall time)':<44} "
              f"{statistics.median(r['wall_s'] for r in reps):>14.6g} s")
        print(f"{'(median slowdown)':<44} "
              f"{statistics.median(r['slowdown'] for r in reps):>14.6g} x")
    print(f"{'ops_failed_ratio':<44} {ratio:>14.6g} ratio"
          f"  ({failed}/{attempted})")
    detail = {"workload": args.workload, "seed": args.seed,
              "repetitions": {"untraced": len(plain), "traced": len(traced)},
              "setup_samples": len(setups),
              "median_slowdown": statistics.median(r["slowdown"] for r in reps),
              "operations_per_repetition": len(reps[0]["op_s"]),
              "ops_failed_ratio": ratio, "problems": len(problems),
              "env": reps[0]["env"]}
    if args.workload == "gate":
        detail["report_sha256"] = reps[0]["report_sha256"]
        detail["report_matches_seed"] = reps[0]["report_sha256"] == SEED_DIGEST \
            if spec["seed"] == CLI_SEED else None
    print(json.dumps(detail, sort_keys=True))
    result = {"correct": not problems and failed == 0,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
