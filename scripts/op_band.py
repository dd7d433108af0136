"""Which operations of the benchmark's gate workload lie at or above its p90.

    PYTHONPATH=src python3 scripts/op_band.py [--seed 20260810]

Runs one in-process ``novikov report full --format json`` and times, as one
operation each, the calls the acceptance suites make into the library, with
``record_calls`` from ``perfbench/worker.py``: the operations whose
latencies give the ``gate`` workload's ``op_p50_ms`` and ``op_p90_ms``.
The times are one cold run's, not scaled by the host-speed probe and not
medians over repetitions as ``perfbench/run.py`` takes them, so compare
two checkouts by running each a few times, alternating.

Prints the report's exit code and the first 16 hex digits of its sha256,
the operations' count, sum, p50 and p90 (the quantiles ``run.py`` takes),
then one line per operation kind: its count, total and median in ms and
how many of its operations lie at or above p90, the kinds with the most
such operations first.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import statistics
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from worker import record_calls  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=20260810)
    args = ap.parse_args(argv)

    from novikov import acceptance, cli
    calls: list[tuple[str, float]] = []
    record_calls(acceptance, calls)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--format", "json", "report", "full", "--seed", str(args.seed)])
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]

    times = [dt for _, dt in calls]
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8]
    kinds = defaultdict(list)
    for name, dt in calls:
        kinds[name].append(dt)
    print(f"report exit {code}, sha256 {digest}")
    print(f"{len(times)} operations, {1000 * sum(times):.1f} ms in total, "
          f"p50 {1000 * statistics.median(times):.3f} ms, p90 {1000 * p90:.3f} ms")
    print(f"{'kind':40} {'count':>5} {'total_ms':>9} {'median_ms':>9} {'>=p90':>5}")
    rows = sorted(kinds.items(), key=lambda kv: (-sum(dt >= p90 for dt in kv[1]),
                                                 -sum(kv[1]), kv[0]))
    for name, dts in rows:
        print(f"{name:40} {len(dts):5d} {1000 * sum(dts):9.2f} "
              f"{1000 * statistics.median(dts):9.3f} {sum(dt >= p90 for dt in dts):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
