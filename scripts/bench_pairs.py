"""Compare two checkouts on the benchmark in alternating pairs.

    python3 scripts/bench_pairs.py PARENT_CHECKOUT CHANGE_CHECKOUT \\
        --out BENCH_<n>.json [--first-seed 1]

The workloads and the run length are the ones the change checkout's
``BENCHMARK.json`` declares (``workloads`` and ``run_seconds``).  Each of
the ten pairs per workload runs ``perfbench/run.py --trace 0`` of both
checkouts, each with its own ``perfbench/`` and ``src/``, at one seed;
which side runs first alternates from pair to pair, so a slow spell of the
host does not fall on one side only.  Pair k uses seed ``first_seed + k``
on both sides.  A run that exits non-zero or does not print
``correct: true`` stops the script.

After the pairs, each side runs its own tier-1 test suite once, parent
first, with a fixed hypothesis seed (so both sides draw the same examples)
and ``--durations=10``.  The output records each side's wall time, the
counts of the summary line (passed, failed, ...) and the ten slowest tests
with their phase and seconds.  A failing test is recorded, not fatal.

The output JSON holds, per workload and end-to-end metric, each side's
values, median and quartiles, the change's wins (pairs where it reads
better; ties count for neither side), the seeds, and the environment stamp
``run.py`` prints for each side.  Lower is better for every end-to-end
metric the benchmark prints.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors",
         "--hypothesis-seed=0", "--durations=10"]
DURATION = re.compile(r"^([\d.]+)s (setup|call|teardown) +(\S+)$")
COUNT = re.compile(r"(\d+) (passed|failed|error|skipped|xfailed|xpassed)")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; returns its environment stamp and result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{checkout}: {' '.join(cmd[1:])} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    stamp, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{checkout}: {workload} seed {seed} is not correct")
    return {"env": stamp["env"], "failed": result["failed"],
            "attempted": result["attempted"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def run_tier1(checkout: Path) -> dict:
    """One tier-1 run of the checkout's tests against its own ``src/``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(checkout / "src"), os.environ.get("PYTHONPATH")) if p))
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, *TIER1], cwd=checkout, env=env,
                          capture_output=True, text=True)
    wall = time.perf_counter() - started
    lines = proc.stdout.splitlines()
    slowest = [{"s": float(m[1]), "phase": m[2], "test": m[3]}
               for m in map(DURATION.match, lines) if m]
    counts = {kind: int(k) for k, kind in COUNT.findall(lines[-1] if lines else "")}
    return {"wall_s": round(wall, 2), "returncode": proc.returncode,
            "counts": counts, "slowest": slowest}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare(runs: dict) -> dict:
    """Per-metric summaries of both sides and the change's wins."""
    out = {}
    for name in runs["parent"][0]["metrics"]:
        parent = [r["metrics"][name] for r in runs["parent"]]
        change = [r["metrics"][name] for r in runs["change"]]
        out[name] = {"parent": summary(parent), "change": summary(change),
                     "change_wins": sum(c < p for p, c in zip(parent, change)),
                     "parent_wins": sum(p < c for p, c in zip(parent, change))}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    seeds = [args.first_seed + k for k in range(PAIRS)]
    report = {"pairs": PAIRS, "seeds": seeds, "seconds": seconds, "workloads": {}}
    started = time.time()
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {side: [] for side in SIDES}
        for k, seed in enumerate(seeds):
            for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                runs[side].append(run_once(checkouts[side], workload, seed, seconds))
            print(f"{workload} pair {k + 1}/{PAIRS} (seed {seed}): " + ", ".join(
                f"{side} wall_s {runs[side][-1]['metrics']['wall_s']:.3f}"
                for side in SIDES), file=sys.stderr)
        report["workloads"][workload] = {
            "metrics": compare(runs),
            "first": [SIDES[k % 2] for k in range(PAIRS)],
            "env": {side: runs[side][0]["env"] for side in SIDES},
            "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
            "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        }
    report["tier1"] = {"command": ["python", *TIER1],
                       **{side: run_tier1(checkouts[side]) for side in SIDES}}
    report["elapsed_s"] = round(time.time() - started, 1)
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    for workload, w in report["workloads"].items():
        for name, m in w["metrics"].items():
            p, c = m["parent"], m["change"]
            print(f"{workload:8s} {name:12s} parent {p['median']:.4g} "
                  f"[{p['q1']:.4g}, {p['q3']:.4g}]  change {c['median']:.4g} "
                  f"[{c['q1']:.4g}, {c['q3']:.4g}]  change wins "
                  f"{m['change_wins']}/{PAIRS}")
    for side in SIDES:
        t = report["tier1"][side]
        print(f"tier-1   {side:6s} {t['wall_s']:.1f} s  {t['counts']}  slowest "
              + ", ".join(f"{d['test'].rsplit('::', 1)[-1]} {d['s']:.2f} s"
                          for d in t["slowest"][:3]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
