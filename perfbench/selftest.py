"""Self-test of the benchmark: a tiny run of every workload, both modes,
``generic`` included although ``BENCHMARK.json`` does not gate it.

    python3 perfbench/selftest.py

Checks that each run's last line is the result object, that it carries
exactly the metrics ``BENCHMARK.json`` names, each with its unit, and that
at seed 0 every answer is correct (``ops_failed_ratio`` is 0).  Takes about
a minute: ``gate`` has no smaller size than one full report.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run

KEYS = {"correct", "attempted", "failed", "metrics"}


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    errors = []
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                 "--seed", "0", "--seconds", "1", "--trace", str(trace),
                 "--size", "tiny"],
                capture_output=True, text=True, cwd=run.ROOT, timeout=180)
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != KEYS:
                errors.append(f"{tag}: result keys {sorted(result)}")
            if got != wanted[trace]:
                errors.append(f"{tag}: metrics/units differ from BENCHMARK.json: "
                              f"{sorted(set(got.items()) ^ set(wanted[trace].items()))}")
            if not (result["correct"] and result["failed"] == 0
                    and result["attempted"] >= 1):
                errors.append(f"{tag}: not correct: {proc.stderr[-500:]}")
            print(f"{tag}: {result['attempted']} ops, {result['failed']} failed")
    for e in errors:
        print("FAIL", e)
    print("selftest", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
