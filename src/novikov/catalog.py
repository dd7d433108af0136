"""The shipped catalog: every classified algebra plus its witness data.

Algebras, extension witnesses, automorphism-action cases, the golden
cohomology table and the degeneration rows are all JSON files under
``novikov/data`` in the public schemas, so user-supplied files can extend
them.  Names are ASCII (``N4_20``, ``N3s_04`` for the starred families,
``Ntriv_2/3`` for the two limit families, ``zero_n`` for zero products);
common unicode spellings are accepted as aliases and canonicalized.
"""

from __future__ import annotations

import itertools
import json
import random
import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Mapping

import sympy as sp

from . import scalars
from .algebras import (Algebra, AlgebraError, _table_differences, algebra_from_json,
                       instantiate_table, invariant_profile, substitute)
from .cohomology import (ActionCase, CocycleError, central_extension,
                         cocycle_from_expr, has_trivial_intersection)
from .scalars import grammar_str, parse_scalar

__all__ = [
    "CatalogEntry",
    "ExtensionWitness",
    "Catalog",
    "load",
    "get",
    "list_entries",
    "canonical_name",
    "indistinguishable_pairs",
]


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    listing: str           # dim1 | dim2 | dim3 | dim4 | limit | aux
    pure_expected: bool
    algebra: Algebra

    @property
    def family_params(self) -> tuple[str, ...]:
        return tuple(str(p) for p in self.algebra.params)


@dataclass(frozen=True)
class ExtensionWitness:
    """A representative cocycle and the algebra its extension must equal."""

    id: str
    base: str
    base_params: dict
    cocycle_expr: str
    target: str
    target_params: dict


@dataclass(frozen=True)
class Catalog:
    entries: dict[str, CatalogEntry]
    witnesses: tuple[ExtensionWitness, ...]
    action_cases: tuple[ActionCase, ...]
    golden_cohomology: tuple[dict, ...]
    degeneration_rows: tuple[dict, ...]

    # -- access ------------------------------------------------------------

    def entry(self, name: str) -> CatalogEntry:
        key = canonical_name(name)
        if key not in self.entries:
            raise AlgebraError(f"unknown algebra {name!r}")
        return self.entries[key]

    def get(self, name: str, params: Mapping | None = None) -> Algebra:
        """Instantiated algebra; generic (symbolic) when params is None."""
        entry = self.entry(name)
        a = entry.algebra
        if params:
            return substitute(a, params)
        return a

    def list_entries(self, dim: int | None = None,
                     table: str | None = None) -> list[CatalogEntry]:
        """Entries of the classification listings, deterministic order.

        ``dim`` selects the published listing for that dimension (auxiliary
        presentations and the limit families are excluded unless asked for
        via ``table``); ``table`` filters on the listing key directly
        ('A' is an alias for the 4-dimensional table).  Raises
        :class:`AlgebraError` for any other ``table``, for a ``dim`` with no
        listing, and for a ``table`` that holds no algebra of dimension
        ``dim``, so that a typo does not read as an empty listing.
        """
        listings = sorted({entry.listing for entry in self.entries.values()})
        if table is not None:
            if table not in ("A", "a", *listings):
                raise AlgebraError(f"unknown table {table!r}; expected A, a or "
                                   f"one of {', '.join(listings)}")
            key = "dim4" if table in ("A", "a") else table
        elif dim is not None:
            key = f"dim{dim}"
            if key not in listings:
                dims = ", ".join(x[3:] for x in listings if x.startswith("dim"))
                raise AlgebraError(f"no listing of dimension {dim}; "
                                   f"expected one of {dims}")
        else:
            key = None
        out = [entry for entry in self.entries.values()
               if (key is None or entry.listing == key)
               and (dim is None or entry.algebra.dim == dim)]
        if not out:
            raise AlgebraError(f"table {table!r} holds no algebra of dimension {dim}")
        return out


_SUPERS = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")
_SUBS = str.maketrans("₀₁₂₃₄₅₆₇₈₉", "0123456789")


def canonical_name(name: str) -> str:
    """Canonicalize unicode/typographic aliases to the ASCII catalog keys."""
    s = str(name).strip()
    had_params = bool(re.search(r"\(.*\)$", s))
    s = re.sub(r"\(.*\)$", "", s).strip()
    s = s.replace("𝒩", "N").replace("𝑁", "N").replace("ℕ", "N")
    s = s.translate(_SUPERS).translate(_SUBS)
    s = s.replace("∗", "*").replace("꙳", "*")
    if s.startswith("𝔑"):
        rest = s[1:]
        if rest.isdigit():
            # The fraktur label is overloaded: bare means a zero algebra,
            # with parameters it means one of the two limit families.
            return f"Ntriv_{rest}" if had_params else f"zero_{rest}"
        s = "Ntriv" + rest
    if s.startswith("trivial_"):
        return "zero_" + s[len("trivial_"):]
    m = re.fullmatch(r"N(\d)(\*?)_?(\d+)", s)
    if m:
        d, star, idx = m.groups()
        star = "s" if star else ""
        suffix = idx if len(idx) > 1 else f"0{int(idx)}"
        return f"N{d}{star}_{suffix}"
    return s


@lru_cache(maxsize=1)
def load() -> Catalog:
    data = resources.files("novikov") / "data"

    def read(fname):
        with (data / fname).open("r", encoding="utf-8") as fh:
            return json.load(fh)

    entries: dict[str, CatalogEntry] = {}
    for obj in read("algebras.json"):
        meta = obj.get("meta", {})
        a = algebra_from_json(obj)
        entries[a.name] = CatalogEntry(
            name=a.name,
            listing=meta.get("listing", "aux"),
            pure_expected=bool(meta.get("pure", False)),
            algebra=a,
        )

    witnesses = tuple(
        ExtensionWitness(
            id=w["id"], base=w["base"], base_params=w.get("base_params", {}),
            cocycle_expr=w["cocycle"], target=w["target"],
            target_params=w.get("target_params", {}),
        )
        for w in read("extension_witnesses.json"))

    cases = []
    for c in read("action_cases.json"):
        base = entries[c["base"]].algebra
        cases.append(ActionCase(
            case_id=c["id"],
            base=base,
            template=tuple(tuple(parse_scalar(x) for x in row)
                           for row in c["template"]),
            template_vars=tuple(sp.Symbol(v) for v in c["template_vars"]),
            invertibility=tuple(parse_scalar(x) for x in c.get("invertibility", ())),
            nablas=tuple(cocycle_from_expr(base, s) for s in c["nablas"]),
            coeff_vars=tuple(sp.Symbol(v) for v in c["coeff_vars"]),
            alpha_star=tuple(parse_scalar(x) for x in c["alpha_star"]),
            matrix_reading=tuple((i, j, parse_scalar(x))
                                 for i, j, x in c.get("matrix_reading", ())),
            note=c.get("note", ""),
        ))

    return Catalog(
        entries=entries,
        witnesses=witnesses,
        action_cases=tuple(cases),
        golden_cohomology=tuple(read("cohomology_golden.json")),
        degeneration_rows=tuple(read("degenerations.json")),
    )


def get(name: str, params: Mapping | None = None) -> Algebra:
    return load().get(name, params)


def list_entries(dim: int | None = None, table: str | None = None) -> list[CatalogEntry]:
    return load().list_entries(dim=dim, table=table)


# ---------------------------------------------------------------------------
# Catalog checks
# ---------------------------------------------------------------------------

#: Draws :func:`_admissible_samples` makes before giving up.
MAX_SAMPLE_ATTEMPTS = 1000


def _admissible_samples(entry: CatalogEntry, rng, count: int) -> list[dict]:
    """``count`` distinct random rational points where no constraint vanishes.

    Raises :class:`AlgebraError` after :data:`MAX_SAMPLE_ATTEMPTS` draws, e.g.
    when the constraints reject every draw or ``count`` exceeds the number
    of distinct draws.
    """
    if not entry.algebra.params:
        return [{}]
    points = scalars.admissible_points(rng, entry.algebra.params,
                                       entry.algebra.constraints, MAX_SAMPLE_ATTEMPTS)
    out = []
    seen = set()
    while len(out) < count:
        point = next(points, None)
        if point is None:
            raise AlgebraError(f"{entry.name}: found {len(out)} of {count} admissible "
                               f"samples in {MAX_SAMPLE_ATTEMPTS} draws")
        assign = {str(p): v for p, v in point.items()}
        key = tuple(sorted((k, str(v)) for k, v in assign.items()))
        if key not in seen:
            seen.add(key)
            out.append(assign)
    return out


def check_witness(cat: Catalog, w: ExtensionWitness) -> list[dict]:
    """A witness must be a cocycle with trivial annihilator intersection whose
    extension has exactly the target's structure constants."""
    failures = []
    base = cat.get(w.base, w.base_params)
    theta = cocycle_from_expr(base, w.cocycle_expr)
    try:
        ext = central_extension(base, [theta]).result.table
    except CocycleError:
        failures.append({"witness": w.id, "problem": "not a cocycle"})
        return failures
    if not has_trivial_intersection(base, [theta]):
        failures.append({"witness": w.id,
                         "problem": "annihilator intersection nonzero"})
    target = instantiate_table(cat.entry(w.target).algebra, w.target_params)
    if len(ext) != len(target):
        failures.append({"witness": w.id, "problem": "dimension mismatch"})
        return failures
    for i, j, k in _table_differences(ext, target):
        failures.append({
            "witness": w.id,
            "problem": "structure constants differ",
            "at": [i + 1, j + 1, k + 1],
            "extension": grammar_str(ext[i][j][k]),
            "target": grammar_str(target[i][j][k]),
        })
    return failures


def indistinguishable_pairs(samples: int = 3,
                            seed: int = 20260810) -> list[tuple[str, str]]:
    """Pairs of 4-dimensional or limit families that the implemented
    invariants cannot tell apart: their invariant profiles agree at the
    generic point (constant families) or at ``samples`` admissible points."""
    rng = random.Random(seed)
    profiles = {}
    for entry in load().entries.values():
        if entry.listing in ("dim4", "limit"):
            profiles[entry.name] = sorted(
                str(invariant_profile(entry.algebra, assign or None).as_tuple())
                for assign in _admissible_samples(entry, rng, samples))
    return [(a, b) for a, b in itertools.combinations(sorted(profiles), 2)
            if profiles[a] == profiles[b]]
