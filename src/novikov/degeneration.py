"""Degeneration-witness verification and the component reachability graph.

A witness asserts that one family, evaluated along a parametrized index
f(t), acquires the target's structure constants in the limit t -> 0 of the
stated basis E_i^t.  Verification has two tiers:

* exact: every expression is a rational function (integer powers of t); the
  conjugated constants are rational functions of t over Q(i)(params), and
  the check is "no pole at t = 0 and value at 0 equals the target", with
  zero tolerance;
* numeric: radical-bearing rows are evaluated on the fixed shrinking
  t-schedule :data:`DEFAULT_SCHEDULE` at :data:`DEFAULT_DIGITS` digits; each
  conjugated constant must approach its target monotonically and land
  within tolerance at the final t.

The tier is chosen automatically by expression inspection and can be forced
through the witness's ``tier`` field.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache
from typing import Mapping, Sequence

import mpmath
import sympy as sp
from mpmath.libmp import (mpc_abs, mpc_add, mpc_div, mpc_div_mpf, mpc_mul,
                          mpc_mul_mpf, mpc_sub, mpc_zero, round_nearest)

from . import linalg, scalars
from .algebras import (AlgebraError, _change_basis, _json_field,
                       _json_optional, derivation_dim, instantiate_table)
from .catalog import Catalog
from .scalars import (T, NumericDivisionError, grammar_str, is_root_free,
                      parse_scalar)

__all__ = [
    "DegenerationWitness",
    "WitnessReport",
    "NecessaryReport",
    "ReachabilityReport",
    "TierError",
    "DEFAULT_SCHEDULE",
    "DEFAULT_DIGITS",
    "RESIDUAL_TOLERANCE",
    "witness_from_json",
    "witness_to_json",
    "load_witnesses",
    "free_symbols_of",
    "detect_tier",
    "verify_exact",
    "verify_numeric",
    "verify_witness",
    "verify_all",
    "check_necessary",
    "build_reachability",
]


class TierError(AlgebraError):
    """Raised when verify_exact is asked to handle a radical-bearing row."""


#: Schedule t_k = 10^(-6k); the final point 10^(-30) leaves the slowest
#: radical decay (exponent 1/3) two orders below the acceptance tolerance.
DEFAULT_SCHEDULE = tuple(sp.Rational(1, 10) ** (6 * k) for k in range(1, 6))
DEFAULT_DIGITS = 120
RESIDUAL_TOLERANCE = mpmath.mpf(10) ** -8


@dataclass(frozen=True)
class DegenerationWitness:
    id: str
    source: str
    source_params: dict
    target: str
    target_params: dict
    basis: tuple[tuple[str, ...], ...]
    tier: str = "auto"
    avoid: tuple[str, ...] = ()
    symbols: tuple[str, ...] = ()
    necessary_t: tuple[str, ...] = ()
    fallback: dict | None = None
    note: str = ""


def witness_from_json(obj: Mapping) -> DegenerationWitness:
    """Witness from its JSON object.  A missing ``id``, ``source``,
    ``target`` or ``basis``, a ``basis`` that is not a list of rows, a
    ``source_params`` or ``target_params`` that is not an object, an
    ``avoid``, ``symbols`` or ``necessary_t`` that is not a list, or a
    ``fallback`` that is neither an object nor null, raises
    :class:`AlgebraError` naming it.  A null ``fallback`` means none.  A
    ``"free"`` target parameter is read as the parameter's own name."""
    wid = _json_field(obj, "id", "witness JSON")
    where = f"witness {wid!r}"
    source, target, basis = (_json_field(obj, key, where)
                             for key in ("source", "target", "basis"))
    if not isinstance(basis, list) or not all(isinstance(row, list) for row in basis):
        raise AlgebraError(f"{where}: 'basis' must be a list of rows, got {basis!r}")
    fallback = obj.get("fallback")
    if fallback is not None and not isinstance(fallback, dict):
        raise AlgebraError(f"{where}: 'fallback' must be an object or null, got {fallback!r}")
    return DegenerationWitness(
        id=wid,
        source=source,
        source_params=dict(_json_optional(obj, "source_params", where, dict)),
        target=target,
        target_params={p: p if v == "free" else v for p, v in
                       _json_optional(obj, "target_params", where, dict).items()},
        basis=tuple(tuple(row) for row in basis),
        tier=obj.get("tier", "auto"),
        avoid=tuple(_json_optional(obj, "avoid", where)),
        symbols=tuple(_json_optional(obj, "symbols", where)),
        necessary_t=tuple(_json_optional(obj, "necessary_t", where)),
        fallback=fallback,
        note=obj.get("note", ""),
    )


def witness_to_json(w: DegenerationWitness) -> dict:
    out = {"id": w.id, "source": w.source, "source_params": w.source_params,
           "target": w.target, "target_params": w.target_params,
           "basis": [list(row) for row in w.basis], "tier": w.tier}
    if w.avoid:
        out["avoid"] = list(w.avoid)
    if w.symbols:
        out["symbols"] = list(w.symbols)
    if w.necessary_t:
        out["necessary_t"] = list(w.necessary_t)
    if w.fallback:
        out["fallback"] = w.fallback
    if w.note:
        out["note"] = w.note
    return out


def load_witnesses(cat: Catalog) -> list[DegenerationWitness]:
    return [witness_from_json(obj) for obj in cat.degeneration_rows]


def _all_exprs(w: DegenerationWitness) -> list[sp.Expr]:
    exprs = [parse_scalar(x) for row in w.basis for x in row]
    exprs += [parse_scalar(v) for v in w.source_params.values()]
    exprs += [parse_scalar(v) for v in w.target_params.values()]
    return exprs


def free_symbols_of(w: DegenerationWitness) -> tuple[sp.Symbol, ...]:
    syms: set[sp.Symbol] = set(sp.Symbol(s) for s in w.symbols)
    for e in _all_exprs(w):
        syms |= (e.free_symbols - {T})
    return tuple(sorted(syms, key=str))


def detect_tier(w: DegenerationWitness) -> str:
    if w.tier in ("exact", "numeric"):
        return w.tier
    return "exact" if all(is_root_free(e) for e in _all_exprs(w)) else "numeric"


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class WitnessReport:
    id: str
    source: str
    target: str
    tier: str
    passed: bool
    failures: list[dict] = field(default_factory=list)
    max_residual: str | None = None
    decay_exponent: float | None = None
    samples: list[dict] = field(default_factory=list)
    heuristic: bool = False
    used_fallback: bool = False
    literal_outcome: dict | None = None
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# Source and target structure constants
# ---------------------------------------------------------------------------

def _source_table(cat: Catalog, w: DegenerationWitness):
    name, param_map = w.source, w.source_params
    entry = cat.entry(name)
    source = entry.algebra
    subs = scalars.subs_map(param_map)
    for cons in source.constraints:
        if scalars.vanishes(cons, subs):
            raise AlgebraError(
                f"{w.id}: source constraint {grammar_str(cons)} vanishes identically")
    return instantiate_table(source, subs), name


def _target_table(cat: Catalog, w: DegenerationWitness):
    return instantiate_table(cat.entry(w.target).algebra, w.target_params)


# ---------------------------------------------------------------------------
# Exact tier
# ---------------------------------------------------------------------------

def verify_exact(w: DegenerationWitness, cat: Catalog) -> WitnessReport:
    """Zero-tolerance verification over the rational-function field in t.

    Each conjugated constant N/D, a reduced fraction of polynomials in t and
    the parameters, is decided on ring elements: N(0) and D(0) keep the
    monomials of N and D free of t.  It has no pole at t = 0 iff D(0) is
    nonzero, and its limit there is the target p/q iff N(0) q = p D(0).  The
    limit itself is built only for a failure's message."""
    if detect_tier(w) != "exact":
        raise TierError(f"{w.id}: radical-bearing witness; use verify_numeric")
    table, source_name = _source_table(cat, w)
    n = len(table)
    rows = [[parse_scalar(x) for x in row] for row in w.basis]
    report = WitnessReport(w.id, source_name, w.target, "exact", True, note=w.note)
    target = _target_table(cat, w)
    K, new_table, (target_k,) = _change_basis(table, rows, target)
    if new_table is None:
        report.passed = False
        report.failures.append({"problem": "basis matrix singular as an expression"})
        return report
    t_pos = K.symbols.index(T) if K.is_FractionField and T in K.symbols else None
    for i in range(n):
        for j in range(n):
            for k in range(n):
                r, want = new_table[i][j][k], target_k[i][j][k]
                if t_pos is None:
                    if not r - want:
                        continue
                    limit = r
                else:
                    num0 = _at_t_zero(r.numer, t_pos)
                    den0 = _at_t_zero(r.denom, t_pos)
                    if not den0:
                        report.passed = False
                        report.failures.append({
                            "at": [i + 1, j + 1, k + 1],
                            "problem": "pole at t = 0",
                            "value": grammar_str(linalg.to_expr(K, r))})
                        continue
                    if num0 * want.denom == want.numer * den0:
                        continue
                    limit = K.field.new(num0, den0)
                report.passed = False
                report.failures.append({
                    "at": [i + 1, j + 1, k + 1],
                    "problem": "limit differs from target",
                    "limit": grammar_str(linalg.to_expr(K, limit)),
                    "target": grammar_str(target[i][j][k])})
    return report


def _at_t_zero(poly, t_pos: int):
    """The polynomial ``poly`` at t = 0: its monomials free of t, the
    generator at ``t_pos``."""
    return poly.new({m: c for m, c in poly.items() if not m[t_pos]})


# ---------------------------------------------------------------------------
# Numeric tier
# ---------------------------------------------------------------------------

#: Draws for one admissible parameter point before giving up.
SAMPLE_ATTEMPTS = 500


def _check_samples(samples: int) -> None:
    """Reject a sample count below 1: no sampled point would be checked."""
    if samples < 1:
        raise AlgebraError(f"samples must be at least 1, got {samples}")


def _sample_conditions(w: DegenerationWitness, cat: Catalog) -> list[sp.Expr]:
    """What a sampled parameter point must keep nonzero: the row's ``avoid``
    list and the target's constraints at the row's target parameters."""
    target_vals = scalars.subs_map(w.target_params)
    return [parse_scalar(x) for x in w.avoid] + [
        scalars.substitute(cons, target_vals)
        for cons in cat.entry(w.target).algebra.constraints]


def _num(e: sp.Expr, digits: int) -> mpmath.mpc:
    """The constant expression ``e`` evaluated at ``digits`` digits, as an
    mpmath number rounded to the working precision.

    Memoised on ``e``, ``digits`` and the working precision
    (``mpmath.mp.prec``), which rounds the value: within one precision each
    distinct value is evaluated once, and a row's fallback run, which has the
    literal run's basis, target and samples, reuses the literal run's values.
    Division by zero raises :class:`NumericDivisionError`."""
    return _num_at(e, digits, mpmath.mp.prec)


@lru_cache(maxsize=4096)
def _num_at(e: sp.Expr, digits: int, prec: int) -> mpmath.mpc:
    v = sp.N(e, digits)
    if v.has(sp.zoo) or v.has(sp.nan):
        raise NumericDivisionError("division by zero while evaluating witness")
    re_part, im_part = v.as_real_imag()

    def to_mpf(x):
        # The parts of a value sp.N gave are mostly Floats already at digits.
        if not x.is_Float:
            x = sp.N(x, digits)
        if x.is_Float:
            return mpmath.mpf(x._mpf_)
        if x.is_Rational:
            return mpmath.mpf(x.p) / mpmath.mpf(x.q)
        return mpmath.mpf(float(x))

    return mpmath.mpc(to_mpf(re_part), to_mpf(im_part))


def _num_all(nested: Sequence, subs: Mapping, digits: int) -> list:
    """Nested lists of expressions at ``subs`` as raw mpmath complex values
    (``_mpc_`` tuples), same nesting.  Entries that are numbers already are
    not substituted into."""
    def convert(x):
        if isinstance(x, (list, tuple)):
            return [convert(y) for y in x]
        return _num(x if x.is_Number else scalars.substitute(x, subs), digits)._mpc_

    return convert(nested)


def _lu_solve(lu: Sequence[Sequence], perm: Sequence[int], b: Sequence,
              prec: int) -> list:
    """The solution x of A x = b from ``mpmath.mp.LU_decomp(A)``'s factors and
    pivots, on raw mpmath values: the entries of ``lu`` and ``b`` are
    ``_mpc_`` tuples, and so are those of x.  It is ``mpmath.mp.L_solve``
    then ``U_solve`` step for step at ``prec`` bits, rounding to nearest as
    mpmath's operators do, so x is bit for bit what they give at that
    working precision.  A product with an exact zero factor is not
    subtracted: it would leave the entry as it is."""
    x = list(b)
    n = len(x)
    for k, p in enumerate(perm):
        x[k], x[p] = x[p], x[k]
    for i in range(1, n):
        for j in range(i):
            if lu[i][j] != mpc_zero and x[j] != mpc_zero:
                x[i] = mpc_sub(x[i], mpc_mul(lu[i][j], x[j], prec, round_nearest),
                               prec, round_nearest)
    for i in range(n - 1, -1, -1):
        for j in range(i + 1, n):
            if lu[i][j] != mpc_zero and x[j] != mpc_zero:
                x[i] = mpc_sub(x[i], mpc_mul(lu[i][j], x[j], prec, round_nearest),
                               prec, round_nearest)
        x[i] = mpc_div(x[i], lu[i][i], prec, round_nearest)
    return x


def verify_numeric(w: DegenerationWitness, cat: Catalog,
                   digits: int = DEFAULT_DIGITS, samples: int = 3,
                   seed: int = 20260810) -> WitnessReport:
    """High-precision verification of radical-bearing witnesses on
    :data:`DEFAULT_SCHEDULE`.

    Residuals must be non-increasing along the schedule (up to the numeric
    noise floor) and at most 1e-8 at the final t.  Verdicts from this tier
    are flagged heuristic in the report.  Raises :class:`AlgebraError` when
    ``samples`` is below 1.
    """
    _check_samples(samples)
    rng = random.Random(seed)
    table, source_name = _source_table(cat, w)
    target = _target_table(cat, w)
    n = len(table)
    basis_rows = [[parse_scalar(x) for x in row] for row in w.basis]
    report = WitnessReport(w.id, source_name, w.target, "numeric", True,
                           heuristic=True, note=w.note)
    syms = free_symbols_of(w)
    sample_count = samples if syms else 1
    nonzero = _sample_conditions(w, cat)
    floor = mpmath.mpf(10) ** (-sp.Rational(digits, 2))
    max_residual = mpmath.mpf(0)
    decay = None

    with mpmath.workdps(digits + 20):
        ctx, prec = mpmath.mp, mpmath.mp.prec
        slack = 1 + mpmath.mpf(10) ** -6      # rounded at this precision
        for _ in range(sample_count):
            assign = next(scalars.admissible_points(
                rng, syms, nonzero, SAMPLE_ATTEMPTS), None) if syms else {}
            if assign is None:
                raise AlgebraError(f"{w.id}: failed to sample admissible parameters")
            report.samples.append({str(k): grammar_str(v)
                                   for k, v in sorted(assign.items(), key=str)})
            target_num = _num_all(target, assign, digits)
            residuals: dict[tuple, list] = {}
            for t_val in DEFAULT_SCHEDULE:
                subs = dict(assign)
                subs[T] = t_val
                raw = _num_all(basis_rows, subs, digits)
                # Row-scale the basis: Laurent rows span hundreds of orders
                # of magnitude at the final t, which would otherwise wreck
                # the LU solve.  E_i = s_i * Ehat_i rescales the conjugated
                # constants by the exact factor s_i s_j / s_k.
                scales = [max((ctx.make_mpf(mpc_abs(x, prec, round_nearest)) for x in row),
                              default=0) for row in raw]
                lu = None
                if all(s != 0 for s in scales):
                    s_raw = [s._mpf_ for s in scales]
                    b_num = [[mpc_div_mpf(x, s, prec, round_nearest) for x in row]
                             for row, s in zip(raw, s_raw)]
                    # Adding an exact zero changes no sum: skip the zero
                    # constants.
                    c_support = [[[(k, c) for k, c in enumerate(row) if c != mpc_zero]
                                  for row in plane]
                                 for plane in _num_all(table, subs, digits)]
                    # One factorisation serves all n^2 right-hand sides, at
                    # the 10 extra bits mpmath.lu_solve factors and solves at.
                    with mpmath.mp.extraprec(10):
                        try:
                            lu, perm = ctx.LU_decomp(ctx.matrix(
                                [[ctx.make_mpc(x) for x in col] for col in zip(*b_num)]))
                        except (ZeroDivisionError, TypeError):
                            # TypeError: a column has no pivot candidate left
                            pass
                if lu is None:
                    report.passed = False
                    report.failures.append({
                        "problem": "basis numerically singular",
                        "t": str(t_val)})
                    continue
                # A matrix stores its zero entries as mpf.
                lu = [[ctx.mpc(lu[i, j])._mpc_ for j in range(n)] for i in range(n)]
                support = [[(p, x) for p, x in enumerate(row) if x != mpc_zero]
                           for row in b_num]
                # The products, the solve and the rescaling on raw values,
                # each operation at the precision and rounding of the mpmath
                # operator it stands for.
                for i in range(n):
                    for j in range(n):
                        prod = [mpc_zero] * n
                        for p, bip in support[i]:
                            for q, bjq in support[j]:
                                f = mpc_mul(bip, bjq, prec, round_nearest)
                                for k, c in c_support[p][q]:
                                    prod[k] = mpc_add(
                                        prod[k], mpc_mul(f, c, prec, round_nearest),
                                        prec, round_nearest)
                        x = _lu_solve(lu, perm, prod, prec + 10)
                        for k in range(n):
                            value = mpc_mul_mpf(x[k], s_raw[i], prec, round_nearest)
                            value = mpc_mul_mpf(value, s_raw[j], prec, round_nearest)
                            value = mpc_div_mpf(value, s_raw[k], prec, round_nearest)
                            res = mpc_abs(mpc_sub(value, target_num[i][j][k],
                                                  prec, round_nearest), prec, round_nearest)
                            residuals.setdefault((i, j, k), []).append(ctx.make_mpf(res))
            for key, series in sorted(residuals.items()):
                if len(series) != len(DEFAULT_SCHEDULE):
                    continue
                eff = [max(r, floor) for r in series]
                if any(eff[m + 1] > eff[m] * slack for m in range(len(eff) - 1)):
                    report.passed = False
                    report.failures.append({
                        "at": [key[0] + 1, key[1] + 1, key[2] + 1],
                        "problem": "residual not non-increasing",
                        "residuals": [mpmath.nstr(r, 8) for r in series]})
                final = series[-1]
                if final > RESIDUAL_TOLERANCE:
                    report.passed = False
                    report.failures.append({
                        "at": [key[0] + 1, key[1] + 1, key[2] + 1],
                        "problem": "final residual above tolerance",
                        "residual": mpmath.nstr(final, 8)})
                if final > max_residual:
                    max_residual = final
                    if series[-2] > floor and final > floor:
                        ratio_r = mpmath.log(final / series[-2])
                        ratio_t = mpmath.log(DEFAULT_SCHEDULE[-1] / DEFAULT_SCHEDULE[-2])
                        decay = float(ratio_r / ratio_t)
    report.max_residual = mpmath.nstr(max_residual, 8)
    report.decay_exponent = decay
    return report


# ---------------------------------------------------------------------------
# Dispatch, fallback protocol, batch runner
# ---------------------------------------------------------------------------

def apply_fallback(w: DegenerationWitness) -> DegenerationWitness:
    """The corrected variant recorded alongside a defective literal row."""
    if not w.fallback:
        raise AlgebraError(f"{w.id}: no fallback recorded")
    return replace(
        w,
        source=w.fallback.get("source", w.source),
        source_params=dict(w.fallback.get("source_params", w.source_params)),
        basis=tuple(tuple(row) for row in w.fallback.get("basis", w.basis)),
        fallback=None,
    )


def verify_witness(w: DegenerationWitness, cat: Catalog,
                   samples: int = 3, seed: int = 20260810) -> WitnessReport:
    """Verify one witness, honoring the tier hint and the fallback protocol.

    A witness with a recorded fallback is always run literally first; only
    if the literal run fails is the fallback patch applied, and both
    outcomes are kept in the report.  Nothing is substituted silently.
    Raises :class:`AlgebraError` when ``samples`` is below 1.
    """
    _check_samples(samples)

    def run(witness):
        tier = detect_tier(witness)
        if tier == "exact":
            return verify_exact(witness, cat)
        return verify_numeric(witness, cat, samples=samples, seed=seed)

    report = run(w)
    if not report.passed and w.fallback:
        literal = report.to_dict()
        patched = apply_fallback(w)
        report = run(patched)
        report.id = w.id
        report.used_fallback = True
        report.literal_outcome = {
            "source": literal["source"],
            "passed": literal["passed"],
            "failures": literal["failures"][:4],
        }
        changed = sorted(set(w.fallback) - {"reason"})
        reason = w.fallback.get("reason", "")
        report.note = (report.note + " | " if report.note else "") + \
            f"literal row failed; verified with corrected {'/'.join(changed)}" + \
            (f" ({reason})" if reason else "")
    return report


def verify_all(cat: Catalog, samples: int = 3,
               seed: int = 20260810) -> list[WitnessReport]:
    return sorted((verify_witness(w, cat, samples, seed)
                   for w in load_witnesses(cat)), key=lambda r: r.id)


# ---------------------------------------------------------------------------
# Necessary condition: strict derivation-dimension increase
# ---------------------------------------------------------------------------

@dataclass
class NecessaryReport:
    id: str
    source: str
    target: str
    skipped: bool
    passed: bool
    mode: str = "strict"
    rows: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


_DEFAULT_T_POOL = ("1/2", "1/3", "2/7", "3/5", "5/2")


def check_necessary(w: DegenerationWitness, cat: Catalog,
                    samples: int = 3, seed: int = 20260810) -> NecessaryReport:
    """Derivation-dimension necessary condition at sampled parameters.

    A row whose index is constant in t asserts a proper degeneration between
    fixed algebras, where dim Der must strictly increase.  A row with a
    genuinely parametrized index f(t) asserts only that the target lies in
    the closure of the one-parameter family sweep, which costs one orbit
    dimension: there the necessary condition is the weak inequality
    dim Der(source) <= dim Der(target) (equality occurs, e.g. when the
    target also realizes the minimal derivation dimension).  Identical
    source and target are skipped.  Raises :class:`AlgebraError` when
    ``samples`` is below 1.
    """
    _check_samples(samples)
    if w.source == w.target and not w.source_params:
        return NecessaryReport(w.id, w.source, w.target, True, True)
    rng = random.Random(seed)
    source = cat.entry(w.source).algebra
    target = cat.entry(w.target).algebra
    syms = free_symbols_of(w)
    uses_t = any(parse_scalar(v).has(T) for v in w.source_params.values())
    t_pool = [sp.Rational(x) for x in (w.necessary_t or _DEFAULT_T_POOL)]
    mode = "weak-family-index" if uses_t else "strict"
    report = NecessaryReport(w.id, w.source, w.target, False, True, mode)
    nonzero = _sample_conditions(w, cat)

    made = 0
    attempt = 0
    cause = None
    while made < samples and attempt < 200:
        attempt += 1
        assign = next(scalars.admissible_points(
            rng, syms, nonzero, SAMPLE_ATTEMPTS), None) if syms else {}
        if assign is None:
            raise AlgebraError(f"{w.id}: failed to sample admissible parameters")
        t_val = t_pool[made % len(t_pool)] if uses_t else None

        src_vals = {}
        ok = True
        for p, v in w.source_params.items():
            value = scalars.substitute(parse_scalar(v), assign)
            if t_val is not None:
                value = scalars.substitute(value, {T: t_val})
            if not value.is_Rational:
                # nsimplify may rewrite an exact rational with radicals.
                value = sp.nsimplify(value, rational=False)
                if not is_root_free(value):
                    ok = False
                    break
                value = sp.cancel(value)
            src_vals[p] = value
        if ok:
            try:
                d_src = derivation_dim(source, src_vals)
                tgt_vals = {p: scalars.substitute(parse_scalar(v), assign)
                            for p, v in w.target_params.items()}
                d_tgt = derivation_dim(target, tgt_vals)
            except AlgebraError as exc:
                ok, cause = False, str(exc)
        if not ok:
            if not syms:
                break       # the next attempt would repeat this one
            continue
        made += 1
        required_ok = d_src < d_tgt if mode == "strict" else d_src <= d_tgt
        row = {"assignment": {str(k): grammar_str(v) for k, v in
                              sorted(assign.items(), key=str)},
               "t": grammar_str(t_val) if t_val is not None else None,
               "source_params": {k: grammar_str(v) for k, v in sorted(src_vals.items())},
               "dim_der_source": d_src, "dim_der_target": d_tgt,
               "strict_increase": d_src < d_tgt,
               "required_ok": required_ok}
        report.rows.append(row)
        if not required_ok:
            report.passed = False
        if not syms and not uses_t:
            break
    if made == 0:
        report.passed = False
        report.rows.append({"problem": "no admissible sample found"}
                           | ({"cause": cause} if cause else {}))
    return report


# ---------------------------------------------------------------------------
# Reachability of the two-component statement
# ---------------------------------------------------------------------------

SOURCES = ("N4_20", "N4_22")


@dataclass
class ReachabilityReport:
    edges: list[tuple[str, str]]
    reachable: dict[str, bool]
    all_expected_reachable: bool
    sources_never_targets: bool

    @property
    def passed(self) -> bool:
        return self.all_expected_reachable and self.sources_never_targets

    def to_dict(self) -> dict:
        return {
            "edges": [list(e) for e in self.edges],
            "reachable": self.reachable,
            "all_expected_reachable": self.all_expected_reachable,
            "sources_never_targets": self.sources_never_targets,
            "passed": self.passed,
        }

    def to_dot(self) -> str:
        lines = ["digraph degenerations {"]
        for name, ok in sorted(self.reachable.items()):
            shape = "doubleoctagon" if name in SOURCES else "box"
            color = "black" if ok else "red"
            lines.append(f'    "{name}" [shape={shape}, color={color}];')
        for src, dst in sorted(set(self.edges)):
            lines.append(f'    "{src}" -> "{dst}";')
        lines.append("}")
        return "\n".join(lines)


def build_reachability(reports: Sequence[WitnessReport],
                       cat: Catalog) -> ReachabilityReport:
    """Family-level reachability of every classified family from the two
    source families, using only witnesses that verified."""
    edges = []
    for r in reports:
        if not r.passed:
            continue
        edges.append((r.source, r.target))

    expected = sorted(e.name for e in cat.entries.values()
                      if e.listing in ("dim4", "limit"))
    nodes = set(expected) | {s for s, _ in edges} | {d for _, d in edges}
    reached = set(SOURCES)
    changed = True
    while changed:
        changed = False
        for src, dst in edges:
            if src in reached and dst not in reached:
                reached.add(dst)
                changed = True
    reachable = {name: name in reached for name in sorted(nodes)}
    all_expected = all(reachable.get(name, False) for name in expected)
    no_incoming = all(dst not in SOURCES for _, dst in edges)
    return ReachabilityReport(edges, reachable, all_expected, no_incoming)
