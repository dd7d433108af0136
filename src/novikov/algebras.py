"""Structure-constant algebras and their isomorphism invariants.

An :class:`Algebra` is a finite-dimensional algebra over Q(i) given by
structure constants c_ij^k (exact scalars, possibly involving declared
parameters): e_i * e_j = sum_k c_ij^k e_k.  All decisions about parametrized
algebras are made generically, i.e. over the rational-function field in the
declared parameters; special parameter values are reached only through
explicit assignments.

Each algebra converts its structure constants once, into elements of one
field (:func:`novikov.linalg.to_field`), and keeps the nonzero ones as
``(i, j, k, c)`` tuples (:attr:`Algebra.constants`).  Every operation works
from those: identities accumulate the coefficients of (e_i e_j) e_k and
e_i (e_j e_k) over pairs of nonzero constants, and the derivation and
annihilator systems are sparse ``{column: element}`` rows that
:func:`novikov.linalg.sparse_rows` builds from them and the rest of
:mod:`novikov.linalg` takes as they are.  :func:`multiply_table` is
the one product kernel; it runs over the nonzero constants.  Only the
entries an operation returns are converted back, with one ``cancel`` each
(none over ``QQ``, where the converted ``Rational`` already is canonical).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import sympy as sp

from . import linalg, scalars
from .scalars import grammar_str, parse_scalar

Vector = tuple[sp.Expr, ...]
Table = tuple[tuple[Vector, ...], ...]

__all__ = [
    "Algebra",
    "AlgebraError",
    "ConstraintViolation",
    "IdentityFlags",
    "InvariantProfile",
    "algebra",
    "algebra_from_json",
    "algebra_to_json",
    "MAX_DIM",
    "basis_vector",
    "vector_str",
    "parse_vector",
    "multiply_table",
    "nonzero_constants",
    "change_basis_table",
    "check_identities",
    "annihilator_basis",
    "derived_power_dims",
    "derivation_dim",
    "substitute",
    "invariant_profile",
]


class AlgebraError(ValueError):
    pass


class ConstraintViolation(AlgebraError):
    """A parameter assignment hit a declared-nonzero ``constraint``."""

    def __init__(self, message: str, constraint: sp.Expr):
        super().__init__(message)
        self.constraint = constraint


@dataclass(frozen=True)
class Algebra:
    """Immutable structure-constant algebra."""

    name: str
    dim: int
    params: tuple[sp.Symbol, ...]
    table: Table
    constraints: tuple[sp.Expr, ...] = ()

    @cached_property
    def constants(self) -> tuple:
        """``(field, nonzero)``: the field of the structure constants and the
        nonzero ones as ``(i, j, k, c)`` with ``c`` its element, in index
        order.  Converted once per instance; ``table`` is left as it is."""
        field, (table,) = linalg.to_field(self.table)
        return field, nonzero_constants(table)

    def __repr__(self) -> str:  # params shown for instantiated families
        ps = f"({', '.join(map(str, self.params))})" if self.params else ""
        return f"Algebra({self.name}{ps}, dim={self.dim})"


@dataclass(frozen=True)
class IdentityFlags:
    right_commutative: bool
    left_symmetric: bool
    novikov: bool
    two_step: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class InvariantProfile:
    """Degeneration/isomorphism invariants of one algebra instance."""

    dim: int
    dim_ann: int
    dims_derived: tuple[int, ...]
    dim_der: int
    is_right_commutative: bool
    is_left_symmetric: bool
    is_novikov: bool
    is_two_step: bool
    nilpotency_index: int | None

    def as_tuple(self) -> tuple:
        return (self.dim, self.dim_ann, self.dims_derived, self.dim_der,
                self.is_right_commutative, self.is_left_symmetric,
                self.is_two_step, self.nilpotency_index)

    def to_dict(self) -> dict:
        d = {
            "dim": self.dim,
            "dim_ann": self.dim_ann,
            "dims_derived": list(self.dims_derived),
            "dim_der": self.dim_der,
            "is_right_commutative": self.is_right_commutative,
            "is_left_symmetric": self.is_left_symmetric,
            "is_novikov": self.is_novikov,
            "is_two_step": self.is_two_step,
            "nilpotency_index": self.nilpotency_index
            if self.nilpotency_index is not None else "not nilpotent",
        }
        return d


def basis_vector(n: int, i: int) -> Vector:
    return tuple(sp.Integer(1) if j == i else sp.Integer(0) for j in range(n))


def vector_str(v: Sequence[sp.Expr]) -> str:
    parts = []
    for idx, c in enumerate(v):
        c = sp.cancel(sp.sympify(c))
        if c == 0:
            continue
        if c == 1:
            parts.append(f"e{idx + 1}")
        else:
            parts.append(f"({grammar_str(c)})*e{idx + 1}")
    return " + ".join(parts) if parts else "0"


def _linear_coordinates(text: str, names: Sequence[str],
                        params: Iterable[sp.Symbol] | None = None) -> list[sp.Expr] | None:
    """The coefficients, in ``cancel`` form, of the symbols ``names`` in the
    expression ``text``, or ``None`` when it is not a linear form in them:
    when a term holds a product, power or quotient of them (``e3/e4``), the
    terms free of them do not cancel to zero, or, when ``params`` is given,
    a coefficient holds another symbol than ``params`` (``t`` included).

    A form written term by term, each term a coefficient times one of
    ``names`` (``'D12 + alpha*D21 - (alpha-1)*D31/2'``), is read term by
    term (:func:`_term_coordinates`).  Any other text is parsed whole and
    expanded (:func:`_expanded_coordinates`); so is a form whose term reader
    declines, which keeps every refusal and every error message of the
    whole parse.  A Rational or a Symbol is already in ``cancel`` form, and
    most coefficients are one of them."""
    coords = _term_coordinates(text, names, params)
    if coords is None:
        return _expanded_coordinates(text, names, params)
    return _cancelled(coords)


def _cancelled(coords: Sequence[sp.Expr]) -> list[sp.Expr]:
    return [c if c.is_Rational or c.is_Symbol else sp.cancel(c) for c in coords]


#: Tokens after which a ``+`` or ``-`` is a unary sign, not a binary one.
_OPERATORS = frozenset("(+-*/^,")


def _term_coordinates(text: str, names: Sequence[str],
                      params: Iterable[sp.Symbol] | None) -> list[sp.Expr] | None:
    """The coefficients of ``names`` in ``text``, not yet cancelled, read
    term by term; ``None`` when the text is not written that way.

    The text is tokenized once and split at its top-level binary signs,
    each sign kept with the term after it.  A term must hold exactly one of
    ``names``, outside parentheses, as a factor multiplied in (after ``*``
    or first, before ``*``, ``/`` or the end, with only unary signs
    between).  Each term is parsed on its own with the cached
    :func:`~novikov.scalars.parse_scalar`, the terms of one symbol are
    added, and the symbol is replaced by 1 in their sum.  A coefficient may
    not hold one of ``names`` nor, when ``params`` is given, another symbol
    than ``params`` (``t`` and ``root`` included).  A term whose parse
    raises, or a sum of repeated terms holding a number the whole parse
    would refuse, gives ``None`` too: each term is parsed with its symbol,
    as the whole parse builds it, so their numbers are the whole parse's."""
    try:
        tokens = scalars._tokenize(text)
    except scalars.ParseError:
        return None
    index = {s: k for k, s in enumerate(names)}
    declared = None if params is None else set(params)
    terms, start, depth = [], 0, 0
    for pos, tok in enumerate(tokens):
        if tok == "(":
            depth += 1
        elif tok == ")":
            depth -= 1
        elif (tok in ("+", "-") and not depth and pos > start
              and tokens[pos - 1] not in _OPERATORS):
            terms.append(tokens[start:pos])
            start = pos
        elif (declared is not None and (tok[0].isalpha() or tok[0] == "_")
              and tok not in index and tok != "i" and sp.Symbol(tok) not in declared):
            return None
        if depth < 0:
            return None
    terms.append(tokens[start:])
    sums: dict[str, list] = {}
    for term in terms:
        at = _basis_factor(term, index)
        if at is None:
            return None
        try:
            value = parse_scalar(" ".join(term))
        except ValueError:
            return None
        sums.setdefault(term[at], []).append(value)
    coords = [sp.Integer(0)] * len(names)
    limit = scalars._digit_limit()
    for name, values in sums.items():
        total = sp.Add(*values)
        if len(values) > 1 and any(scalars._too_long(n, limit)
                                   for r in total.atoms(sp.Rational) for n in (r.p, r.q)):
            return None
        coords[index[name]] = total.xreplace({sp.Symbol(name): sp.Integer(1)})
    return coords


def _basis_factor(term: Sequence[str], index: Mapping[str, int]) -> int | None:
    """The position in the tokens ``term`` of its one symbol of ``index``
    when that symbol is a factor multiplied into the term at the top level,
    else ``None``."""
    found = [pos for pos, tok in enumerate(term) if tok in index]
    if len(found) != 1:
        return None
    at = found[0]
    if term[:at].count("(") != term[:at].count(")"):
        return None
    before = at
    while before and term[before - 1] in ("+", "-"):
        before -= 1
    if before and term[before - 1] != "*":
        return None
    return at if at + 1 == len(term) or term[at + 1] in ("*", "/") else None


def _expanded_coordinates(text: str, names: Sequence[str],
                          params: Iterable[sp.Symbol] | None) -> list[sp.Expr] | None:
    """The coefficients, in ``cancel`` form, of ``names`` in the expanded
    whole parse of ``text``, or ``None`` when it is not a linear form in
    them."""
    syms = [sp.Symbol(s) for s in names]
    terms = sp.expand(parse_scalar(text)).as_coefficients_dict(*syms)
    leftover = terms.pop(sp.S.One, None)
    if not set(terms) <= set(syms) or leftover is not None and sp.cancel(leftover) != 0:
        return None
    coords = _cancelled([terms.get(s, sp.Integer(0)) for s in syms])
    if params is not None:
        declared = set(params)
        if any(not c.is_Rational and not c.free_symbols <= declared for c in coords):
            return None
    return coords


def parse_vector(text: str, dim: int, params: Iterable[sp.Symbol]) -> Vector:
    """Parse 'e1 + 2*e3'-style text into coordinates; a coefficient may hold
    the symbols ``params`` and no other."""
    coords = _linear_coordinates(text, [f"e{k + 1}" for k in range(dim)], params)
    if coords is None:
        raise AlgebraError(f"not a vector in e1..e{dim}: {text!r}")
    return tuple(coords)


def algebra(name: str, dim: int, products: Iterable[tuple], params: Sequence = (),
            constraints: Sequence = ()) -> Algebra:
    """Build an algebra from 1-based sparse products (i, j, k, coefficient).

    Each parameter is a symbol or an identifier string other than ``t`` and
    ``i`` (:func:`_symbols_of`), declared once, and each index an integer
    (not a bool) in range; no structure constant or nonzero constraint may
    hold a root, and no nonzero constraint may be identically zero.
    Anything else raises :class:`AlgebraError` naming it."""
    param_syms = _symbols_of(params, name, "params")
    if len(set(param_syms)) < len(param_syms):
        raise AlgebraError(f"{name}: 'params' {list(map(str, param_syms))} "
                           f"repeats an entry")
    grid = [[[sp.Integer(0) for _ in range(dim)] for _ in range(dim)]
            for _ in range(dim)]
    for i, j, k, c in products:
        if not all(isinstance(x, int) and not isinstance(x, bool) and 1 <= x <= dim
                   for x in (i, j, k)):
            raise AlgebraError(f"{name}: product index ({i!r},{j!r},{k!r}) "
                               f"is not an integer in 1..{dim}")
        x = parse_scalar(c)
        if not scalars.is_root_free(x):
            raise AlgebraError(f"{name}: product ({i},{j},{k}) 'c' entry {c!r} "
                               f"holds a root")
        grid[i - 1][j - 1][k - 1] += x
    table = tuple(tuple(tuple(sp.sympify(x) for x in row) for row in plane)
                  for plane in grid)
    allowed = set(param_syms)
    for plane in table:
        for row in plane:
            for x in row:
                extra = x.free_symbols - allowed
                if extra:
                    raise AlgebraError(
                        f"{name}: undeclared symbols {sorted(map(str, extra))}")
    cons = tuple(parse_scalar(c) for c in constraints)
    for text, c in zip(constraints, cons):
        if not scalars.is_root_free(c):
            raise AlgebraError(f"{name}: 'constraints_nonzero' entry {text!r} "
                               f"holds a root")
        if scalars.vanishes(c, {}):
            raise AlgebraError(f"{name}: 'constraints_nonzero' entry {text!r} "
                               f"is identically zero")
    return Algebra(name, dim, param_syms, table, cons)


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------

#: Largest ``dim`` an algebra JSON object may declare.  The table is dense,
#: n^3 constants, and the derivation system has n^2 unknowns, so an
#: unchecked ``dim`` can hang the program before any product is read.
MAX_DIM = 16


def algebra_to_json(a: Algebra) -> dict:
    products = []
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                c = a.table[i][j][k]
                if c != 0:
                    products.append({"i": i + 1, "j": j + 1, "k": k + 1,
                                     "c": grammar_str(c)})
    return {
        "name": a.name,
        "dim": a.dim,
        "params": [str(p) for p in a.params],
        "constraints_nonzero": [grammar_str(c) for c in a.constraints],
        "products": products,
    }


def _symbols_of(names: Sequence, where: str, key: str) -> tuple[sp.Symbol, ...]:
    """The symbols of ``names``, each a symbol or an identifier string.  The
    grammar reserves ``t`` (the degeneration variable) and ``i`` (the
    imaginary unit), so neither name is a symbol; an entry that is not an
    identifier or is reserved raises :class:`AlgebraError` naming it."""
    for p in names:
        if not (isinstance(p, sp.Symbol) or isinstance(p, str) and p.isidentifier()):
            raise AlgebraError(f"{where}: {key!r} entry {p!r} is not an identifier")
        if str(p) in ("t", "i"):
            raise AlgebraError(f"{where}: {key!r} entry {str(p)!r} is reserved "
                               f"by the expression grammar")
    return tuple(p if isinstance(p, sp.Symbol) else sp.Symbol(p) for p in names)


def _json_keys(obj: Mapping, keys: Sequence[str], where: str) -> None:
    """Refuse a key of the JSON object ``obj`` that is not one of ``keys``
    with :class:`AlgebraError` naming it: a misspelt optional key would
    otherwise be ignored without a word."""
    unknown = [key for key in obj if key not in keys]
    if unknown:
        raise AlgebraError(f"{where}: unknown key {unknown[0]!r}; "
                           f"expected one of {', '.join(keys)}")


def _json_field(obj, key: str, where: str):
    if not isinstance(obj, Mapping) or key not in obj:
        raise AlgebraError(f"{where}: missing key {key!r}")
    return obj[key]


def _json_optional(obj: Mapping, key: str, where: str, kind: type = list):
    """The value of an optional list key (an object key with ``kind=dict``),
    empty when absent.  A value of another type raises :class:`AlgebraError`
    naming the key."""
    value = obj.get(key, kind())
    if not isinstance(value, kind):
        what = "an object" if kind is dict else "a list"
        raise AlgebraError(f"{where}: {key!r} must be {what}, got {value!r}")
    return value


def _json_product(obj, keys: str, where: str) -> tuple:
    """The values of the one-letter ``keys`` of a product or cocycle entry,
    in order; a missing or unknown key, or a coefficient ``c`` that is not
    an expression (:func:`_is_expression`), raises :class:`AlgebraError`."""
    values = tuple(_json_field(obj, key, where) for key in keys)
    _json_keys(obj, tuple(keys), where)
    if not _is_expression(values[-1]):
        raise AlgebraError(f"{where}: 'c' entry {values[-1]!r} is not an expression")
    return values


def _is_expression(x) -> bool:
    """Whether the JSON value ``x`` can hold an expression: grammar text or
    an integer, but not a bool, a float or null."""
    return isinstance(x, (str, int)) and not isinstance(x, bool)


_ALGEBRA_KEYS = ("name", "dim", "params", "constraints_nonzero", "products", "meta")


def algebra_from_json(obj: Mapping) -> Algebra:
    """Algebra from its JSON object.  A missing ``name``, ``dim`` or product
    key, a key outside the schema (``name``, ``dim``, ``params``,
    ``constraints_nonzero``, ``products`` and ``meta``; ``i``, ``j``, ``k``
    and ``c`` in a product), a ``name`` that is not a string, a ``dim`` that
    is not an integer in 1..:data:`MAX_DIM`, a ``products``, ``params`` or
    ``constraints_nonzero`` that is not a list, a ``meta`` that is not an
    object, a ``c`` that is not an expression, or a ``params`` entry that
    is not an identifier string or is ``t`` or ``i``, raises
    :class:`AlgebraError` naming it."""
    name = _json_field(obj, "name", "algebra JSON")
    if not isinstance(name, str):
        raise AlgebraError(f"algebra JSON: 'name' must be a string, got {name!r}")
    where = f"algebra {name!r}"
    _json_keys(obj, _ALGEBRA_KEYS, where)
    _json_optional(obj, "meta", where, dict)
    dim = _json_field(obj, "dim", where)
    if isinstance(dim, bool) or not isinstance(dim, int) or not 1 <= dim <= MAX_DIM:
        raise AlgebraError(f"{where}: dim must be a positive integer at most "
                           f"{MAX_DIM}, got {dim!r}")
    products = [_json_product(p, "ijkc", f"{where}: product")
                for p in _json_optional(obj, "products", where)]
    return algebra(name, dim, products, params=_json_optional(obj, "params", where),
                   constraints=_json_optional(obj, "constraints_nonzero", where))


# ---------------------------------------------------------------------------
# Multiplication
# ---------------------------------------------------------------------------

def nonzero_constants(table: Sequence) -> tuple:
    """The nonzero entries of a table of field elements as ``(i, j, k, c)``
    tuples, in index order."""
    return tuple((i, j, k, c) for i, plane in enumerate(table)
                 for j, row in enumerate(plane) for k, c in enumerate(row) if c)


def multiply_table(constants: Sequence, x: Sequence, y: Sequence, field) -> list:
    """x * y for dense vectors of elements of ``field``: the one product
    kernel, a single pass over the nonzero constants ``(i, j, k, c)``.

    The constants are an algebra's :attr:`Algebra.constants`, converted once
    per algebra, or :func:`nonzero_constants` of a converted table.  The
    result is a list of field elements; nothing is converted here.  The
    systems built from the same constants are sparse ``{column: element}``
    rows, and results go back to expressions through
    :func:`novikov.linalg.to_expr`, which skips ``cancel`` over ``QQ``.
    """
    out = [field.zero] * len(x)
    for i, j, k, c in constants:
        xi = x[i]
        if xi:
            yj = y[j]
            if yj:
                out[k] += xi * yj * c
    return out


def change_basis_table(table: Sequence, rows: Sequence[Sequence]) -> Table:
    """Structure constants in the basis E_i = sum_j rows[i][j] e_j.

    Requires ``rows`` invertible over the scalar field.
    """
    field, new, _ = _change_basis(table, rows)
    if new is None:
        raise AlgebraError("singular basis matrix")
    return tuple(tuple(tuple(linalg.to_expr(field, x) for x in row) for row in plane)
                 for plane in new)


def _change_basis(table: Sequence, rows: Sequence[Sequence], *groups):
    """:func:`change_basis_table` on field elements.

    Converts ``table``, ``rows`` and any further ``groups`` of scalars into
    one field and returns it, the new constants as its elements from
    :func:`_rebased` (``None`` when ``rows`` is singular) and the groups
    converted.
    """
    field, (tbl, rows, *groups) = linalg.to_field(table, rows, *groups)
    return field, _rebased(field, nonzero_constants(tbl), rows), groups


def _rebased(field, constants: Sequence, rows: Sequence[Sequence]) -> list | None:
    """The dense table of the nonzero ``constants`` ``(i, j, k, c)`` in the
    basis E_i = sum_j rows[i][j] e_j, all elements of ``field``; ``None``
    when ``rows`` is singular.  The element kernel of a change of basis:
    callers that hold converted constants call it without converting."""
    n = len(rows)
    inv = linalg.invert(linalg.sparse(rows), field)
    if inv is None:
        return None
    new = []
    for i in range(n):
        plane = []
        for j in range(n):
            v = multiply_table(constants, rows[i], rows[j], field)
            w = [field.zero] * n
            for l, x in enumerate(v):
                if x:
                    for k, y in inv[l].items():
                        w[k] += x * y
            plane.append(w)
        new.append(plane)
    return new


def _table_differences(table: Sequence, other: Sequence) -> list[tuple[int, int, int]]:
    """The places ``(i, j, k)``, in index order, where two tables of one
    dimension differ, compared as elements (:func:`_differences`) after one
    conversion."""
    _, (x, y) = linalg.to_field(table, other)
    return _differences(x, y)


def _differences(x: Sequence, y: Sequence) -> list[tuple[int, int, int]]:
    """The places ``(i, j, k)``, in index order, where two dense tables of
    elements of one field and one dimension differ."""
    n = len(x)
    return [(i, j, k) for i in range(n) for j in range(n) for k in range(n)
            if x[i][j][k] - y[i][j][k]]


# ---------------------------------------------------------------------------
# Identities
# ---------------------------------------------------------------------------

def check_identities(a: Algebra) -> IdentityFlags:
    """Decide the defining identities exactly, generically in the parameters.

    The coefficients of (e_i e_j) e_k and e_i (e_j e_k) on e_m are
    accumulated, keyed (i, j, k, m), over the pairs of nonzero constants
    c_ij^l c_lk^m and c_jk^l c_il^m; every identity is then decided from
    those by exact zero tests.
    """
    field, constants = a.constants
    zero = field.zero
    by_first: dict[int, list] = {}
    by_second: dict[int, list] = {}
    for i, j, k, c in constants:
        by_first.setdefault(i, []).append((j, k, c))
        by_second.setdefault(j, []).append((i, k, c))
    left = defaultdict(lambda: zero)    # (e_i e_j) e_k = sum_l c_ij^l e_l e_k
    right = defaultdict(lambda: zero)   # e_h (e_i e_j) = sum_l c_ij^l e_h e_l
    for i, j, l, c in constants:
        for k, m, d in by_first.get(l, ()):
            left[i, j, k, m] += c * d
        for h, m, d in by_second.get(l, ()):
            right[h, i, j, m] += c * d
    right_comm = not any(v - left.get((i, k, j, m), zero)
                         for (i, j, k, m), v in left.items())
    assoc = defaultdict(lambda: zero, left)   # (e_i, e_j, e_k) = (e_i e_j) e_k - e_i (e_j e_k)
    for key, v in right.items():
        assoc[key] -= v
    left_sym = not any(v - assoc.get((j, i, k, m), zero)
                       for (i, j, k, m), v in assoc.items())
    two_step = not any(left.values()) and not any(right.values())
    return IdentityFlags(right_comm, left_sym, right_comm and left_sym, two_step)


# ---------------------------------------------------------------------------
# Annihilator, derived powers, derivations
# ---------------------------------------------------------------------------

def _annihilator_rows(constants: Sequence) -> list[dict]:
    """The sparse rows of the system xA = Ax = 0 from nonzero constants
    ``(i, j, k, c)``: its null vectors span Ann(A)."""
    return linalg.sparse_rows(t for i, j, k, c in constants
                              for t in (((0, j, k), i, c),     # (x e_j)_k
                                        ((1, i, k), j, c)))    # (e_i x)_k


def annihilator_basis(a: Algebra) -> list[Vector]:
    """Basis of Ann(A) = {x : xA = Ax = 0}, exact and deterministic."""
    field, constants = a.constants
    return [linalg.cleared_vector(field, v, a.dim)
            for v in linalg.nullspace(_annihilator_rows(constants), a.dim, field)]


def derived_power_dims(a: Algebra) -> list[int]:
    """Dims of A^1 ⊇ A^2 ⊇ ... with A^(k+1) = sum_{p+q=k+1} A^p A^q.

    Stops at the first zero power or when the dims stabilize above zero.
    """
    n = a.dim
    field, constants = a.constants
    zero = field.zero
    powers: list[list[list]] = [[[field.one if j == i else zero for j in range(n)]
                                 for i in range(n)]]
    dims = [n]
    while dims[-1] > 0:
        k = len(powers) + 1
        if k == 2:
            # A^2 is spanned by the products e_i e_j: the (i, j) slices
            candidates = linalg.sparse_rows(((i, j), c_k, c) for i, j, c_k, c in constants)
        else:
            candidates = [w for w in linalg.sparse(
                multiply_table(constants, u, v, field) for p in range(1, k)
                for u in powers[p - 1] for v in powers[k - p - 1]) if w]
        red, pivots = linalg.rref(candidates)
        powers.append([[row.get(c, zero) for c in range(n)] for row in red])
        dims.append(len(pivots))
        if dims[-1] == dims[-2] and dims[-1] > 0:
            break
    return dims


def derivation_dim(a: Algebra, at: Mapping | None = None) -> int:
    """dim of {D : D(xy) = D(x)y + xD(y)}.

    Generic over the parameter field when ``at`` is None or empty.
    Otherwise ``at`` is a point of Q(i): every declared parameter has a
    rational or Gaussian rational value.  The converted constants
    (:attr:`Algebra.constants`) are evaluated there
    (:func:`novikov.linalg.evaluate`) and the system is ranked over Q or
    Q(i); no table is substituted or converted.  An undeclared or missing
    parameter, a violated constraint and a pole raise what
    :func:`substitute` raises, and a value outside Q(i) raises
    :class:`AlgebraError` naming it.
    """
    field, constants = a.constants
    if at:
        subs = _checked_assignment(a, at)
        try:
            _, (values,) = linalg.evaluate(field, subs, [c for *_, c in constants])
        except ValueError as exc:
            raise AlgebraError(f"{_instance_label(a, subs)}: {exc}") from None
        except ZeroDivisionError:
            for i, j, k, c in constants:
                try:
                    linalg.evaluate(field, subs, [c])
                except ZeroDivisionError:
                    raise _pole(a, subs, a.table[i][j][k]) from None
            raise
        constants = [(i, j, k, v) for (i, j, k, _), v in zip(constants, values) if v]
    n = a.dim
    # Row (i, j, m) is the e_m coefficient of D(e_i e_j) - D(e_i) e_j - e_i D(e_j),
    # over the unknowns d_pq (D e_p = sum_q d_pq e_q) at column p*n + q.
    terms = []
    for i, j, k, c in constants:
        for m in range(n):        # D(e_i e_j) = sum_k c_ij^k D(e_k)
            terms.append(((i, j, m), k * n + m, c))
    for p, j, m, c in constants:
        for i in range(n):        # D(e_i) e_j = sum_p d_ip e_p e_j
            terms.append(((i, j, m), i * n + p, -c))
    for i, q, m, c in constants:
        for j in range(n):        # e_i D(e_j) = sum_q d_jq e_i e_q
            terms.append(((i, j, m), j * n + q, -c))
    return n * n - linalg.rank(linalg.sparse_rows(terms))


def _checked_assignment(a: Algebra, at: Mapping) -> dict:
    """The :func:`~novikov.scalars.subs_map` of ``at``, after the checks
    :func:`substitute` and :func:`derivation_dim` share: it names every
    declared parameter of ``a`` and no other, and no declared-nonzero
    constraint vanishes at it."""
    subs = scalars.subs_map(at)
    undeclared = sorted(str(s) for s in subs if s not in a.params)
    if undeclared:
        raise AlgebraError(f"{a.name}: undeclared parameters {undeclared}")
    missing = [str(p) for p in a.params if p not in subs]
    if missing:
        raise AlgebraError(f"missing assignment for {missing}")
    for cons in a.constraints:
        if scalars.vanishes(cons, subs):
            raise ConstraintViolation(
                f"constraint violated: {grammar_str(cons)} = 0 for {a.name}", cons)
    return subs


def _instance_label(a: Algebra, subs: Mapping) -> str:
    """The name of ``a`` at a checked assignment, e.g. ``N4_20(alpha=2)``."""
    return a.name + "(" + ", ".join(
        f"{p}={grammar_str(subs[p])}" for p in a.params) + ")" if a.params else a.name


def _pole(a: Algebra, subs: Mapping, x: sp.Expr) -> AlgebraError:
    return AlgebraError(f"{_instance_label(a, subs)}: structure constant "
                        f"{grammar_str(x)} has a pole")


def substitute(a: Algebra, at: Mapping) -> Algebra:
    """Instantiate every declared parameter of ``a`` at the values of ``at``:
    numbers, or expressions that may hold ``t``, other symbols and roots (a
    degeneration's source and target).  Each entry free of symbols is in
    ``cancel`` form; the others are left as substituted.

    Raises :class:`AlgebraError` if the assignment names an undeclared
    parameter, leaves one out or puts a pole in an entry, and
    :class:`ConstraintViolation` if a declared-nonzero expression vanishes at
    the assignment (as a rational function, when the values hold symbols).
    """
    subs = _checked_assignment(a, at)

    def entry(x: sp.Expr) -> sp.Expr:
        value = scalars.substitute(x, subs)
        if value.is_Rational:
            return value
        if value.has(sp.zoo, sp.nan):
            raise _pole(a, subs, x)
        # Callers convert a symbolic table to field elements or to numbers.
        return value if value.free_symbols else sp.cancel(value)

    return Algebra(_instance_label(a, subs), a.dim, (),
                   tuple(tuple(tuple(map(entry, row)) for row in plane)
                         for plane in a.table), ())


def invariant_profile(a: Algebra, at: Mapping | None = None) -> InvariantProfile:
    if at:
        a = substitute(a, at)
    flags = check_identities(a)
    dims = derived_power_dims(a)
    idx = len(dims) if dims[-1] == 0 else None
    return InvariantProfile(
        dim=a.dim,
        dim_ann=len(annihilator_basis(a)),
        dims_derived=tuple(dims),
        dim_der=derivation_dim(a),
        is_right_commutative=flags.right_commutative,
        is_left_symmetric=flags.left_symmetric,
        is_novikov=flags.novikov,
        is_two_step=flags.two_step,
        nilpotency_index=idx,
    )
