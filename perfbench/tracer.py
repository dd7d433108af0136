"""Outside-in tracer: wraps the public functions of novikov's modules.

Each public function of a layer module is replaced by one timing wrapper in
every ``novikov`` namespace that binds it.  ``acceptance``, ``cli`` and
``degeneration`` import their callees with ``from ... import``, so patching
only the defining module would miss their calls.  ``sympy.cancel`` is
wrapped as the ``scalars.cancel`` kernel; the package reaches it only as
``sp.cancel``, so sympy's own internal calls stay uncounted.

Spans are aggregated in memory as they close (calls, total seconds, self
seconds = duration minus the child spans it contains) and read out once at
the end, so tracing does no I/O while the workload runs.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

LAYERS = ("scalars", "linalg", "algebras", "cohomology", "catalog",
          "degeneration", "acceptance", "cli")
# The acceptance suites in report order: span acceptance.<name> is criterion n.
CRITERIA = ("criterion_identities", "criterion_cohomology_golden",
            "criterion_extension_witnesses", "criterion_split_roundtrip",
            "criterion_derivation_dims", "criterion_table_b",
            "criterion_necessary", "criterion_reachability")


def _rref_cells(args, kwargs):
    rows = args[0] if args else kwargs.get("rows", ())
    rows = list(rows)
    return len(rows) * (len(rows[0]) if rows else 0)


# Extra exact work counters, by span name.
WORK = {"linalg.rref": _rref_cells}


class Tracer:
    """Per-function call counts, total and self time, and exact work."""

    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, total, self, work]
        self._stack: list[float] = []      # child time of each open span

    def wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
                if stack:
                    stack[-1] += dt
                if work is not None:
                    stat[3] += work(args, kwargs)

        traced.__traced__ = fn
        return traced

    def install(self):
        """Wrap every public function of the layer modules in every novikov
        namespace binding it, and ``sympy.cancel``.  Returns the number of
        bindings replaced."""
        import sympy

        modules = [importlib.import_module(f"novikov.{layer}") for layer in LAYERS]
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if (n == "novikov" or n.startswith("novikov."))
                      and m is not None]
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) \
                        or not callable(obj) or hasattr(obj, "__traced__") \
                        or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        replaced = 0
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(ns, attr, hit[1])
                    replaced += 1
        sympy.cancel = self.wrap("scalars.cancel", sympy.cancel)
        return replaced + 1

    def snapshot(self) -> dict:
        return {name: {"calls": s[0], "total_s": s[1], "self_s": s[2],
                       "work": s[3]}
                for name, s in self.stats.items()}
