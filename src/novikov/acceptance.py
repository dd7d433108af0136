"""The eight acceptance suites, runnable as a batch with one verdict each.

Each criterion function returns a :class:`CriterionResult`; ``run_all``
executes them in order, sharing the Table-B verification reports between the
witness, necessary-condition and reachability suites.  Exact tiers are
zero-tolerance.  The numeric tier's settings are fixed in
:mod:`novikov.degeneration` and cannot be overridden: ``DEFAULT_SCHEDULE``
down to t = 10^-30, ``DEFAULT_DIGITS`` (120) and ``RESIDUAL_TOLERANCE``
(1e-8) on the final residual.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

import sympy as sp

from . import catalog as catalog_mod, scalars
from .algebras import (Algebra, _table_differences, annihilator_basis,
                       change_basis_table, check_identities, derivation_dim,
                       derived_power_dims, substitute)
from .catalog import Catalog, check_witness, load as load_catalog
from .cohomology import (CocycleSpace, SplitExtension, central_extension,
                         cocycle_from_expr, cocycle_space,
                         split_central_extension, verify_action_formulas)
from .degeneration import (DEFAULT_DIGITS, DEFAULT_SCHEDULE, WitnessReport,
                           build_reachability, check_necessary, load_witnesses,
                           verify_all)
from .linalg import subspace_equal

__all__ = ["CriterionResult", "run_all", "golden_failures", "split_roundtrip"]


@dataclass
class CriterionResult:
    number: int
    title: str
    passed: bool
    details: dict = field(default_factory=dict)
    seconds: float = 0.0

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"[{verdict}] criterion {self.number}: {self.title} ({self.seconds:.1f}s)"

    def to_dict(self) -> dict:
        # wall time is deliberately excluded: JSON reports are byte-identical
        # for a fixed seed
        return {"number": self.number, "title": self.title, "passed": self.passed,
                "details": self.details}


def golden_failures(a: Algebra, space: CocycleSpace, row: dict) -> list[dict]:
    """Differences between the computed cohomology ``space`` of ``a`` and its
    golden ``row``: the dimensions, then Z2, B2 and B2+H2 as subspaces."""
    want = (len(row["z2"]), len(row["b2"]), len(row["z2"]) - len(row["b2"]))
    if space.dims != want:
        return [{"algebra": row["name"], "problem": "dimension mismatch",
                 "got": list(space.dims), "want": list(want)}]
    gz, gb, gh = ([cocycle_from_expr(a, s).as_vector() for s in row[key]]
                  for key in ("z2", "b2", "h2"))
    cz, cb, ch = ([c.as_vector() for c in basis] for basis in
                  (space.z2_basis, space.b2_basis, space.h2_reps))
    failures = []
    if not subspace_equal(cz, gz):
        failures.append({"algebra": row["name"], "problem": "Z2 span differs"})
    if not subspace_equal(cb, gb):
        failures.append({"algebra": row["name"], "problem": "B2 span differs"})
    if not subspace_equal(cb + ch, gb + gh):
        failures.append({"algebra": row["name"],
                         "problem": "H2 reps differ modulo B2"})
    return failures


def split_roundtrip(a: Algebra, vectors) -> tuple[SplitExtension, bool]:
    """Split ``a`` along the central ``vectors`` and re-extend the quotient by
    the recovered cocycles; the verdict is whether the result equals ``a`` in
    the split basis, constant by constant."""
    split = split_central_extension(a, vectors)
    rebuilt = central_extension(split.quotient, split.cocycles).result.table
    conj = change_basis_table(a.table, split.basis_rows)
    return split, not _table_differences(rebuilt, conj)


def criterion_identities(cat: Catalog,
                         seed: int = scalars.DEFAULT_SEED) -> CriterionResult:
    """1: every classified family is Novikov and nilpotent; the 4-dimensional
    table is pure, generically and at 5 random admissible samples."""
    t0 = time.time()
    rng = random.Random(seed)
    failures = []
    checked = 0
    scope = (cat.list_entries(table="A") + cat.list_entries(dim=3)
             + cat.list_entries(table="limit"))
    for entry in scope:
        plans = [{}]
        if entry.algebra.params:
            plans += catalog_mod._admissible_samples(entry, rng, 5)
        for assign in plans:
            checked += 1
            a = substitute(entry.algebra, assign) if assign else entry.algebra
            flags = check_identities(a)
            dims = derived_power_dims(a)
            label = f"{entry.name}@{assign}" if assign else entry.name
            if not flags.novikov:
                failures.append({"entry": label, "problem": "identities fail"})
            if dims[-1] != 0:
                failures.append({"entry": label, "problem": "not nilpotent"})
            if entry.listing == "dim4" and flags.two_step:
                failures.append({"entry": label, "problem": "not pure"})
    return CriterionResult(
        1, "identity/nilpotency/purity suite", not failures,
        {"entries": len(scope), "instances_checked": checked, "failures": failures},
        time.time() - t0)


def criterion_cohomology_golden(cat: Catalog) -> CriterionResult:
    """2: cocycle/coboundary/quotient dimensions and subspace equality against
    the recorded table for all seven 3-dimensional rows (exact)."""
    t0 = time.time()
    failures = []
    for row in cat.golden_cohomology:
        a = cat.get(row["name"])
        failures.extend(golden_failures(a, cocycle_space(a), row))
    return CriterionResult(
        2, "cohomology golden table (7 rows, exact)", not failures,
        {"rows": len(cat.golden_cohomology), "failures": failures},
        time.time() - t0)


def criterion_extension_witnesses(cat: Catalog,
                                  seed: int = scalars.DEFAULT_SEED) -> CriterionResult:
    """3: every recorded representative is a cocycle with trivial annihilator
    intersection whose extension equals its named target exactly; each
    action template is an automorphism generically, and the published
    action formulas (both readings) equal the conjugated cocycle's
    coordinates over the parameter field.  The seed only picks the
    counterexample point of a failing formula."""
    t0 = time.time()
    failures = []
    for w in cat.witnesses:
        failures.extend(check_witness(cat, w))
    action_reports = []
    for case in cat.action_cases:
        rep = verify_action_formulas(case, seed=seed)
        action_reports.append(rep.to_dict())
        if not rep.passed:
            failures.append({"action_case": case.case_id,
                             "counterexample": rep.counterexample})
    return CriterionResult(
        3, "extension witnesses and action formulas", not failures,
        {"witnesses": len(cat.witnesses), "action_cases": action_reports,
         "failures": failures},
        time.time() - t0)


def criterion_split_roundtrip(cat: Catalog,
                              seed: int = scalars.DEFAULT_SEED) -> CriterionResult:
    """4: splitting every 4-dimensional family, at 3 admissible samples,
    along each coordinate line of its annihilator and re-extending
    reproduces the constants exactly."""
    t0 = time.time()
    rng = random.Random(seed)
    failures = []
    lines_checked = 0
    for entry in cat.list_entries(table="A"):
        for assign in catalog_mod._admissible_samples(entry, rng, 3):
            a = substitute(entry.algebra, assign) if assign else entry.algebra
            label = f"{entry.name}@{assign}" if assign else entry.name
            for w in annihilator_basis(a):
                lines_checked += 1
                try:
                    if not split_roundtrip(a, [w])[1]:
                        failures.append({"entry": label,
                                         "problem": "roundtrip constants differ"})
                except Exception as exc:  # surfaced in the report, not swallowed
                    failures.append({"entry": label, "problem": str(exc)})
    return CriterionResult(
        4, "annihilator split/re-extend roundtrip", not failures,
        {"lines_checked": lines_checked, "failures": failures},
        time.time() - t0)


def criterion_derivation_dims(cat: Catalog,
                              seed: int = scalars.DEFAULT_SEED) -> CriterionResult:
    """5: the two source families have 3-dimensional derivation algebras,
    generically and at 5 admissible samples; the zero algebra has 16."""
    t0 = time.time()
    rng = random.Random(seed)
    failures = []
    results = {}
    n420 = cat.get("N4_20")
    n422 = cat.get("N4_22")
    results["N4_20_generic"] = derivation_dim(n420)
    results["N4_22_generic"] = derivation_dim(n422)
    if results["N4_20_generic"] != 3:
        failures.append({"algebra": "N4_20", "problem": "generic dim != 3"})
    if results["N4_22_generic"] != 3:
        failures.append({"algebra": "N4_22", "problem": "generic dim != 3"})
    for _ in range(5):
        val = scalars.random_rational(rng)
        d = derivation_dim(n420, {"alpha": val})
        results.setdefault("N4_20_samples", []).append([str(val), d])
        if d != 3:
            failures.append({"algebra": f"N4_20(alpha={val})", "dim": d})
        while val in (0, 1):
            val = sp.Rational(rng.randint(2, 30), rng.randint(1, 7))
        d = derivation_dim(n422, {"lam": val})
        results.setdefault("N4_22_samples", []).append([str(val), d])
        if d != 3:
            failures.append({"algebra": f"N4_22(lam={val})", "dim": d})
    results["zero_4"] = derivation_dim(cat.get("zero_4"))
    if results["zero_4"] != 16:
        failures.append({"algebra": "zero_4", "problem": "dim != 16"})
    return CriterionResult(
        5, "derivation dimensions of the source families", not failures,
        {"results": results, "failures": failures},
        time.time() - t0)


def criterion_table_b(cat: Catalog, seed: int = scalars.DEFAULT_SEED
                      ) -> tuple[CriterionResult, list[WitnessReport]]:
    """6: all 24 degeneration rows verify (exact tier zero-tolerance, numeric
    tier at the fixed schedule/precision), with defective literal rows
    verified through their recorded corrections."""
    t0 = time.time()
    reports = verify_all(cat, samples=3, seed=seed)
    failures = [{"id": r.id, "failures": r.failures[:3]} for r in reports
                if not r.passed]
    detail_rows = []
    for r in reports:
        row = {"id": r.id, "tier": r.tier, "passed": r.passed,
               "source": r.source, "target": r.target}
        if r.tier == "numeric":
            row["max_residual"] = r.max_residual
            row["decay_exponent"] = r.decay_exponent
            row["heuristic"] = True
        if r.used_fallback:
            row["used_fallback"] = True
            row["literal_outcome"] = r.literal_outcome
        detail_rows.append(row)
    result = CriterionResult(
        6, "degeneration witness table (24 rows)", not failures,
        {"rows": detail_rows, "failures": failures,
         "digits": DEFAULT_DIGITS, "final_t": str(DEFAULT_SCHEDULE[-1]),
         "tolerance": "1e-8"},
        time.time() - t0)
    return result, reports


def criterion_necessary(cat: Catalog,
                        seed: int = scalars.DEFAULT_SEED) -> CriterionResult:
    """7: the derivation-dimension necessary condition holds on every row:
    strict increase for fixed-index rows, the weak family bound otherwise."""
    t0 = time.time()
    failures = []
    rows = []
    for w in load_witnesses(cat):
        rep = check_necessary(w, cat, samples=3, seed=seed)
        dims = [(r.get("dim_der_source"), r.get("dim_der_target"))
                for r in rep.rows if "dim_der_source" in r]
        rows.append({"id": rep.id, "mode": rep.mode, "passed": rep.passed,
                     "dims": dims})
        if not rep.passed:
            failures.append(rep.to_dict())
    return CriterionResult(
        7, "derivation-dimension necessary condition", not failures,
        {"rows": rows, "failures": failures},
        time.time() - t0)


def criterion_reachability(reports: list[WitnessReport],
                           cat: Catalog) -> CriterionResult:
    """8: every 4-dimensional family plus both limit families is reachable
    from the two source families through verified rows, and no verified row
    reaches the sources themselves.  ``reports`` are the Table-B reports
    of criterion 6."""
    t0 = time.time()
    reach = build_reachability(reports, cat)
    unreached = sorted(k for k, v in reach.reachable.items() if not v)
    return CriterionResult(
        8, "two-component reachability", reach.passed,
        {"unreached": unreached,
         "sources_never_targets": reach.sources_never_targets,
         "edge_count": len(set(reach.edges))},
        time.time() - t0)


def run_all(seed: int = scalars.DEFAULT_SEED, echo=None) -> list[CriterionResult]:
    """Run the eight suites in order; prints one line per criterion via
    ``echo`` when given (e.g. ``print``)."""
    cat = load_catalog()
    results = []

    def emit(res):
        results.append(res)
        if echo:
            echo(res.line())

    emit(criterion_identities(cat, seed=seed))
    emit(criterion_cohomology_golden(cat))
    emit(criterion_extension_witnesses(cat, seed=seed))
    emit(criterion_split_roundtrip(cat, seed=seed))
    emit(criterion_derivation_dims(cat, seed=seed))
    table_b, reports = criterion_table_b(cat, seed=seed)
    emit(table_b)
    emit(criterion_necessary(cat, seed=seed))
    emit(criterion_reachability(reports, cat))
    return results
