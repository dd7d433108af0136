"""One cold repetition of a workload, in a fresh interpreter.

Reads the generated inputs as one JSON object on stdin and writes one JSON
object as the last line of stdout: the wall-clock time at which set-up
(``import novikov`` plus ``catalog.load()``) returned, the timed section's
wall time, per-operation latencies, the host-speed probe times, the answers
(serialized after the timed section), peak RSS and, when traced, the
per-function span aggregates.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time

from tracer import Tracer


def digest(obj) -> str:
    return hashlib.sha256(str(obj).encode()).hexdigest()[:16]


def vec(v) -> list[str]:
    return [str(x) for x in v]


# Host-speed probes: a fixed integer loop timed after set-up and after every
# operation (outside its latency).  The host's speed swings by half for
# minutes at a time; run.py scales this interpreter's timings by the
# median probe time.
PROBES: list[float] = []
SETUP_PROBES = 200


def probe() -> None:
    """Time the fixed loop once and record it in ``PROBES``."""
    t0 = time.perf_counter()
    x = 0
    for k in range(1500):
        x = (x * 31 + k) % 1000003
    PROBES.append(time.perf_counter() - t0)


class Failed:
    """An operation that raised; counted as failed, never as an answer."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"


def timed_ops(ops):
    """Run (key, thunk) pairs one at a time, in a closed loop; returns raw
    results in order, per-op seconds and the wall time of the section."""
    results, lat = [], []
    clock = time.perf_counter
    t_start = clock()
    for key, thunk in ops:
        t0 = clock()
        try:
            r = thunk()
        except Exception as exc:  # an operation failure, reported per op
            r = Failed(exc)
        lat.append(clock() - t0)
        probe()
        results.append((key, r))
    return results, lat, clock() - t_start


PROFILE = ("check_identities", "derived_power_dims", "annihilator_basis",
           "derivation_dim", "cocycle_space")


def profile_ops(novikov, label, get):
    """The five profile operations on the algebra ``get()`` returns."""
    return [((label, kind), lambda fn=getattr(novikov, kind): fn(get()))
            for kind in PROFILE]


def answer(kind, r):
    """A small, comparable rendering of one operation's result."""
    if isinstance(r, Failed):
        return {"error": r.text}
    if kind == "check_identities":
        return [r.right_commutative, r.left_symmetric, r.novikov, r.two_step]
    if kind in ("derived_power_dims", "derivation_dim"):
        return r
    if kind == "annihilator_basis":
        return [vec(v) for v in r]
    if kind == "cocycle_space":
        return {"dims": list(r.dims),
                "z2": [vec(c.as_vector()) for c in r.z2_basis]}
    if kind == "substitute":
        return [[vec(v) for v in plane] for plane in r.table]
    if kind == "split_central_extension":
        return digest((r.quotient.table,
                       [c.matrix for c in r.cocycles], r.basis_rows))
    if kind == "central_extension":
        return digest(r.result.table)
    if kind == "verify_witness":
        return [r.passed, r.tier, r.used_fallback]
    if kind == "check_necessary":
        return [r.passed, r.mode, r.skipped]
    raise ValueError(kind)


def record_calls(module, log):
    """Time, as one operation each, the calls ``module``'s own code makes
    to public functions of other novikov modules: wrap every such function
    bound in ``module``'s namespace.  Appends (name, seconds) to ``log``."""
    clock = time.perf_counter
    for attr, fn in list(vars(module).items()):
        owner = getattr(fn, "__module__", None) or ""
        if attr.startswith("_") or isinstance(fn, type) or not callable(fn) \
                or not owner.startswith("novikov.") or owner == module.__name__:
            continue

        def timed(*args, _fn=fn, _name=f"{owner[8:]}.{attr}", **kwargs):
            t0 = clock()
            try:
                return _fn(*args, **kwargs)
            finally:
                log.append((_name, clock() - t0))
                probe()

        setattr(module, attr, timed)


def run_gate(novikov, spec):
    """One ``report full``.  An operation is one call the acceptance suites
    make into the library (a criterion is too coarse: eight per report)."""
    from novikov import acceptance, cli
    calls = []
    record_calls(acceptance, calls)
    out = io.StringIO()
    argv = ["--format", "json", "report", "full", "--seed", str(spec["seed"])]
    clock = time.perf_counter
    t0 = clock()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    wall = clock() - t0
    report = out.getvalue()
    return {"wall_s": wall, "op_s": [dt for _, dt in calls],
            "op_names": [name for name, _ in calls], "exit_code": code,
            "report": report,
            "report_sha256": hashlib.sha256(report.encode()).hexdigest()}


def run_generic(novikov, spec):
    from novikov import catalog, degeneration
    cat = catalog.load()
    witnesses = [w for w in degeneration.load_witnesses(cat)
                 if w.id in spec["rows"]]
    table_a = set(spec["table_a"])
    ops = []
    for name in spec["algebras"]:
        ops += profile_ops(novikov, name, lambda a=cat.get(name): a)
    results, lat, wall = timed_ops(ops)
    # Split/extend along each annihilator line found by the timed
    # annihilator_basis operations above.
    lines = []
    for (name, kind), r in results:
        if kind == "annihilator_basis" and name in table_a:
            a = cat.get(name)
            for idx, w in enumerate([] if isinstance(r, Failed) else r):
                label = f"{name}#{idx}"
                box = {}

                def split(a=a, w=w, box=box):
                    box["s"] = novikov.split_central_extension(a, [w])
                    return box["s"]

                def extend(box=box):
                    s = box["s"]
                    return novikov.central_extension(s.quotient, s.cocycles)

                lines += [((label, "split_central_extension"), split),
                          ((label, "central_extension"), extend)]
    # The rows' own samplers keep the program's default seed: this workload
    # varies with the benchmark seed only through the hash seed.
    rows = []
    for w in witnesses:
        rows.append(((w.id, "verify_witness"),
                     lambda w=w: novikov.verify_witness(w, cat)))
    for w in witnesses:
        rows.append(((w.id, "check_necessary"),
                     lambda w=w: novikov.check_necessary(w, cat)))
    more, lat2, wall2 = timed_ops(lines + rows)
    return results + more, lat + lat2, wall + wall2


def run_sampled(novikov, spec):
    from novikov import catalog
    cat = catalog.load()
    ops = []
    for inst in spec["instances"]:
        label, name, at = inst["label"], inst["name"], inst["at"]
        box = {"a": cat.get(name)}
        if at:
            def sub(box=box, at=at):
                box["a"] = novikov.substitute(box["a"], at)
                return box["a"]
            ops.append(((label, "substitute"), sub))
        ops += profile_ops(novikov, label, lambda box=box: box["a"])
    return timed_ops(ops)


def environment() -> dict:
    """The arithmetic stack: numbers from different stacks do not compare.

    Imports here, not at the top, run after set-up has been timed."""
    import importlib.util
    import os
    import platform

    import mpmath
    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    return {"python": platform.python_version(), "sympy": sympy.__version__,
            "mpmath": mpmath.__version__,
            "gmpy2": importlib.util.find_spec("gmpy2") is not None,
            "python_flint": importlib.util.find_spec("flint") is not None,
            "SYMPY_GROUND_TYPES": os.environ.get("SYMPY_GROUND_TYPES"),
            "ground_types": GROUND_TYPES,
            "nproc": len(os.sched_getaffinity(0)),
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED")}


def main() -> int:
    spec = json.load(sys.stdin)
    tracer = Tracer() if spec["trace"] else None
    import novikov
    if tracer is not None:
        tracer.install()
    from novikov import catalog
    catalog.load()
    ready = time.time()
    for _ in range(SETUP_PROBES):
        probe()
    if not novikov.__file__.startswith(spec["src"]):
        raise RuntimeError(f"imported {novikov.__file__}, not the checkout")

    out = {"ready_time": ready, "env": environment()}
    if spec["workload"] == "setup":
        pass
    elif spec["workload"] == "gate":
        out.update(run_gate(novikov, spec))
    else:
        runner = run_generic if spec["workload"] == "generic" else run_sampled
        results, lat, wall = runner(novikov, spec)
        out.update(wall_s=wall, op_s=lat)
    if tracer is not None:
        out["trace"] = tracer.snapshot()
    if "op_s" in out and spec["workload"] != "gate":
        out["answers"] = [[key[0], key[1], answer(key[1], r)]
                          for key, r in results]
    out["probe_s"] = PROBES
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
