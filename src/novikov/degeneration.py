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

The tier is decided from the expressions (:func:`detect_tier`), never set by
the row.  :func:`witness_from_json` parses a witness's text once.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import asdict, dataclass, field, fields, replace
from functools import lru_cache
from typing import Mapping, Sequence

import mpmath
import sympy as sp
from mpmath.libmp import (mpc_abs, mpc_add, mpc_div, mpc_div_mpf, mpc_mul,
                          mpc_mul_mpf, mpc_sub, mpc_zero, round_nearest)

from . import linalg, scalars
from .algebras import (AlgebraError, ConstraintViolation, _change_basis,
                       _is_expression, _json_field, _json_keys, _json_optional,
                       _symbols_of, derivation_dim, substitute)
from .catalog import Catalog
from .scalars import (DEFAULT_SEED, T, NumericDivisionError, ScalarError,
                      grammar_str, is_root_free, parse_scalar)

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
    """A degeneration row as :func:`witness_from_json` parses it: its
    expressions are scalars (in ``fallback`` too) and ``symbols`` symbols."""

    id: str
    source: str
    source_params: dict
    target: str
    target_params: dict
    basis: tuple[tuple[sp.Expr, ...], ...]
    avoid: tuple[sp.Expr, ...] = ()
    symbols: tuple[sp.Symbol, ...] = ()
    necessary_t: tuple[sp.Rational, ...] = ()
    fallback: dict | None = None
    note: str = ""


_WITNESS_KEYS = tuple(f.name for f in fields(DegenerationWitness))
_FALLBACK_KEYS = ("source", "source_params", "basis", "reason")


def witness_from_json(obj: Mapping) -> DegenerationWitness:
    """Witness from its JSON object, the one place that parses a witness's
    grammar text.  An expression is a grammar string or an integer (not a
    bool); a ``"free"`` target parameter is the parameter's own symbol, and
    a null ``fallback`` means none.  A missing ``id``, ``source``, ``target``
    or ``basis``, a key outside the schema, or a value of another shape
    raises :class:`AlgebraError` naming the witness and the key: among
    others an ``id`` that is not a string, a ``basis`` that is not square,
    a ``symbols`` entry that is ``t`` or ``i``, and a ``necessary_t`` entry
    that is not a positive rational or on a row whose source parameters
    hold no t, and a ``target_params`` value that holds a root (only the
    ``basis`` and ``source_params`` may)."""
    wid = _json_field(obj, "id", "witness JSON")
    if not isinstance(wid, str):
        raise AlgebraError(f"witness JSON: 'id' must be a string, got {wid!r}")
    where = f"witness {wid!r}"
    _json_keys(obj, _WITNESS_KEYS, where)
    source, target = (_json_field(obj, key, where) for key in ("source", "target"))
    source_params = _params(obj, "source_params", where)
    necessary_t = _exprs(obj, "necessary_t", where)
    for x, value in zip(obj.get("necessary_t", ()), necessary_t):
        if not (value.is_Rational and value > 0):
            raise AlgebraError(f"{where}: 'necessary_t' entry {x!r} is not "
                               f"a positive rational")
    if necessary_t and not any(v.has(T) for v in source_params.values()):
        raise AlgebraError(f"{where}: 'necessary_t' is given, but no "
                           f"'source_params' value holds t")
    target_params = {}
    for p, v in _json_optional(obj, "target_params", where, dict).items():
        target_params[p] = sp.Symbol(p) if v == "free" else _expr(v, where, "target_params")
        if not is_root_free(target_params[p]):
            raise AlgebraError(f"{where}: 'target_params' value {v!r} of {p} holds a root")
    note = obj.get("note", "")
    if not isinstance(note, str):
        raise AlgebraError(f"{where}: 'note' must be a string, got {note!r}")
    fallback = obj.get("fallback")
    if fallback is not None and not isinstance(fallback, dict):
        raise AlgebraError(f"{where}: 'fallback' must be an object or null, got {fallback!r}")
    if fallback:
        inner = f"{where}: 'fallback'"
        _json_keys(fallback, _FALLBACK_KEYS, inner)
        fallback = dict(fallback)
        if "basis" in fallback:
            fallback["basis"] = _basis(fallback, inner)
        if "source_params" in fallback:
            fallback["source_params"] = _params(fallback, "source_params", inner)
    return DegenerationWitness(
        id=wid, source=source, source_params=source_params, target=target,
        target_params=target_params,
        basis=_basis(obj, where), avoid=_exprs(obj, "avoid", where),
        symbols=_symbols_of(_json_optional(obj, "symbols", where), where, "symbols"),
        necessary_t=necessary_t, fallback=fallback or None, note=note)


def _expr(x, where: str, key: str) -> sp.Expr:
    """The scalar of the expression ``x`` under ``key``."""
    if not _is_expression(x):
        raise AlgebraError(f"{where}: {key!r} entry {x!r} is not an expression")
    try:
        return parse_scalar(x)
    except ScalarError as exc:
        raise AlgebraError(f"{where}: {key!r}: {exc}") from None


def _exprs(obj: Mapping, key: str, where: str) -> tuple[sp.Expr, ...]:
    return tuple(_expr(x, where, key) for x in _json_optional(obj, key, where))


def _params(obj: Mapping, key: str, where: str) -> dict:
    return {p: _expr(v, where, key) for p, v in _json_optional(obj, key, where, dict).items()}


def _basis(obj: Mapping, where: str) -> tuple[tuple[sp.Expr, ...], ...]:
    basis = _json_field(obj, "basis", where)
    if not isinstance(basis, list) or not all(isinstance(row, list) for row in basis):
        raise AlgebraError(f"{where}: 'basis' must be a list of rows, got {basis!r}")
    if any(len(row) != len(basis) for row in basis):
        raise AlgebraError(f"{where}: 'basis' must be square, got rows of lengths "
                           f"{[len(row) for row in basis]}")
    return tuple(tuple(_expr(x, where, "basis") for x in row) for row in basis)


def _printed(x):
    # A witness field as JSON: scalars in the grammar, tuples as lists.
    if isinstance(x, dict):
        return {k: _printed(v) for k, v in x.items()}
    if isinstance(x, (tuple, list)):
        return [_printed(v) for v in x]
    return grammar_str(x) if isinstance(x, sp.Basic) else x


def witness_to_json(w: DegenerationWitness) -> dict:
    """The JSON object :func:`witness_from_json` reads back as ``w``."""
    return {k: _printed(v) for k, v in vars(w).items()
            if v or k in ("id", "source", "target", "basis")}


def load_witnesses(cat: Catalog) -> list[DegenerationWitness]:
    return [witness_from_json(obj) for obj in cat.degeneration_rows]


def _all_exprs(w: DegenerationWitness) -> list[sp.Expr]:
    return [x for row in w.basis for x in row] + [
        *w.source_params.values(), *w.target_params.values()]


def free_symbols_of(w: DegenerationWitness) -> tuple[sp.Symbol, ...]:
    syms = set(w.symbols).union(*(e.free_symbols for e in _all_exprs(w))) - {T}
    return tuple(sorted(syms, key=str))


def detect_tier(w: DegenerationWitness) -> str:
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

def _tables(cat: Catalog, w: DegenerationWitness) -> tuple:
    """The source and target tables at the row's parameters.  A source
    constraint that vanishes, or a family whose dimension is not the
    basis's, raises :class:`AlgebraError`."""
    try:
        source = substitute(cat.entry(w.source).algebra, w.source_params).table
    except ConstraintViolation as exc:
        raise AlgebraError(f"{w.id}: source constraint "
                           f"{grammar_str(exc.constraint)} vanishes identically") from None
    target = substitute(cat.entry(w.target).algebra, w.target_params).table
    for name, table in ((w.source, source), (w.target, target)):
        if len(table) != len(w.basis):
            raise AlgebraError(f"{w.id}: 'basis' has {len(w.basis)} rows, but "
                               f"{name} has dimension {len(table)}")
    return source, target


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
    table, target = _tables(cat, w)
    n = len(table)
    report = WitnessReport(w.id, w.source, w.target, "exact", True, note=w.note)
    K, new_table, (target_k,) = _change_basis(table, w.basis, target)
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

def _check_samples(samples: int) -> None:
    """Reject a sample count below 1: no sampled point would be checked."""
    if samples < 1:
        raise AlgebraError(f"samples must be at least 1, got {samples}")


def _sample_conditions(w: DegenerationWitness, cat: Catalog) -> list[sp.Expr]:
    """What a sampled parameter point must keep nonzero: the row's ``avoid``
    list and the target's constraints at the row's target parameters."""
    target_vals = scalars.subs_map(w.target_params)
    return [*w.avoid, *(scalars.substitute(cons, target_vals)
                        for cons in cat.entry(w.target).algebra.constraints)]


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
                   seed: int = DEFAULT_SEED) -> WitnessReport:
    """High-precision verification of radical-bearing witnesses on
    :data:`DEFAULT_SCHEDULE`.

    Residuals must be non-increasing along the schedule (up to the numeric
    noise floor) and at most 1e-8 at the final t.  Verdicts from this tier
    are flagged heuristic in the report.  Raises :class:`AlgebraError` when
    ``samples`` is below 1.
    """
    _check_samples(samples)
    table, target = _tables(cat, w)
    n = len(table)
    report = WitnessReport(w.id, w.source, w.target, "numeric", True,
                           heuristic=True, note=w.note)
    syms = free_symbols_of(w)
    points = itertools.repeat({}) if not syms else scalars.admissible_points(
        random.Random(seed), syms, _sample_conditions(w, cat))
    floor = mpmath.mpf(10) ** (-sp.Rational(digits, 2))
    max_residual = mpmath.mpf(0)
    decay = None

    with mpmath.workdps(digits + 20):
        ctx, prec = mpmath.mp, mpmath.mp.prec
        slack = 1 + mpmath.mpf(10) ** -6      # rounded at this precision
        for _ in range(samples if syms else 1):
            assign = next(points, None)
            if assign is None:
                raise AlgebraError(f"{w.id}: failed to sample admissible parameters")
            report.samples.append({str(k): grammar_str(v)
                                   for k, v in sorted(assign.items(), key=str)})
            target_num = _num_all(target, assign, digits)
            residuals: dict[tuple, list] = {}
            for t_val in DEFAULT_SCHEDULE:
                subs = {**assign, T: t_val}
                raw = _num_all(w.basis, subs, digits)
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
    return replace(w, **{k: v for k, v in w.fallback.items() if k != "reason"},
                   fallback=None)


def verify_witness(w: DegenerationWitness, cat: Catalog,
                   samples: int = 3, seed: int = DEFAULT_SEED) -> WitnessReport:
    """Verify one witness in the tier :func:`detect_tier` decides, under the
    fallback protocol.

    A witness with a recorded fallback is always run literally first; only
    if the literal run fails is the fallback patch applied, and both
    outcomes are kept in the report.  Nothing is substituted silently.
    Raises :class:`AlgebraError` when ``samples`` is below 1.
    """
    _check_samples(samples)

    def run(witness):
        if detect_tier(witness) == "exact":
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
               seed: int = DEFAULT_SEED) -> list[WitnessReport]:
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


_DEFAULT_T_POOL = tuple(map(parse_scalar, ("1/2", "1/3", "2/7", "3/5", "5/2")))


def check_necessary(w: DegenerationWitness, cat: Catalog,
                    samples: int = 3, seed: int = DEFAULT_SEED) -> NecessaryReport:
    """Derivation-dimension necessary condition at sampled parameters.

    A row whose index is constant in t asserts a proper degeneration between
    fixed algebras, where dim Der must strictly increase.  A row with a
    genuinely parametrized index f(t) asserts only that the target lies in
    the closure of the one-parameter family sweep, which costs one orbit
    dimension: there the necessary condition is the weak inequality
    dim Der(source) <= dim Der(target) (equality occurs, e.g. when the
    target also realizes the minimal derivation dimension).  Identical
    source and target are skipped.

    The points come from one stream of admissible points.  A side whose
    parameter values hold no free symbol and no t has its derivation
    dimension formed once per call, not once per point.  A point at which
    a derivation dimension cannot be formed is skipped; if no point gives a
    row, the report names the last such error as the cause.  A row without
    free symbols stops at the first such point, which every later point
    would repeat.  Raises :class:`AlgebraError` when ``samples`` is below 1,
    or when the stream runs dry and no point was skipped.
    """
    _check_samples(samples)
    if w.source == w.target and not w.source_params:
        return NecessaryReport(w.id, w.source, w.target, True, True)
    source = cat.entry(w.source).algebra
    target = cat.entry(w.target).algebra
    syms = free_symbols_of(w)
    uses_t = any(v.has(T) for v in w.source_params.values())
    t_pool = w.necessary_t or _DEFAULT_T_POOL
    mode = "weak-family-index" if uses_t else "strict"
    report = NecessaryReport(w.id, w.source, w.target, False, True, mode)
    points = itertools.repeat({}) if not syms else scalars.admissible_points(
        random.Random(seed), syms, _sample_conditions(w, cat))
    point_free = {side: not any(v.free_symbols for v in params.values())
                  for side, params in (("source", w.source_params),
                                       ("target", w.target_params))}
    fixed: dict = {}    # side -> the dimension or AlgebraError of a point-free side

    def dim_der(side: str, a, values: dict) -> int:
        # derivation_dim, formed once per call for a side no point moves
        if side in fixed:
            result = fixed[side]
        else:
            try:
                result = derivation_dim(a, values)
            except AlgebraError as exc:
                result = exc
            if point_free[side]:
                fixed[side] = result
        if isinstance(result, AlgebraError):
            raise result
        return result

    made = 0
    cause = None
    for assign in points:
        t_val = t_pool[made % len(t_pool)] if uses_t else None
        at = assign if t_val is None else {**assign, T: t_val}
        src_vals = {p: scalars.substitute(v, at) for p, v in w.source_params.items()}
        try:
            d_src = dim_der("source", source, src_vals)
            d_tgt = dim_der("target", target, {p: scalars.substitute(v, assign)
                                               for p, v in w.target_params.items()})
        except AlgebraError as exc:
            cause = str(exc)
            if not syms:
                break       # the next point would repeat this one
            continue
        made += 1
        required_ok = d_src < d_tgt if mode == "strict" else d_src <= d_tgt
        report.rows.append({
            "assignment": {str(k): grammar_str(v) for k, v in
                           sorted(assign.items(), key=str)},
            "t": grammar_str(t_val) if t_val is not None else None,
            "source_params": {k: grammar_str(v) for k, v in sorted(src_vals.items())},
            "dim_der_source": d_src, "dim_der_target": d_tgt,
            "strict_increase": d_src < d_tgt,
            "required_ok": required_ok})
        if not required_ok:
            report.passed = False
        if made == samples or not (syms or uses_t):
            break
    else:
        if cause is None:
            raise AlgebraError(f"{w.id}: failed to sample admissible parameters")
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
    edges = [(r.source, r.target) for r in reports if r.passed]

    expected = sorted(e.name for e in cat.entries.values()
                      if e.listing in ("dim4", "limit"))
    nodes = set(expected) | {s for s, _ in edges} | {d for _, d in edges}
    reached = set(SOURCES)
    while new := {dst for src, dst in edges if src in reached} - reached:
        reached |= new
    reachable = {name: name in reached for name in sorted(nodes)}
    all_expected = all(reachable.get(name, False) for name in expected)
    no_incoming = all(dst not in SOURCES for _, dst in edges)
    return ReachabilityReport(edges, reachable, all_expected, no_incoming)
