"""Deterministic exact linear algebra over rational-function scalars.

Scalars are sympy expressions from the root-free fragment of
:mod:`novikov.scalars` (the field Q(i)(params, t)).  :func:`to_field`
converts any number of nested groups of them with one
``construct_domain(..., field=True)`` call into elements of the smallest
field that holds every entry: ``QQ``, ``QQ_I`` or a fraction field such as
``ZZ_I(alpha, lam)``.  Sums, products and zero tests of those elements are
exact without any simplification step, and :func:`to_expr` brings one back
in canonical ``cancel`` form, so equal rational functions come out
syntactically identical.  Over ``QQ`` the converted value already is the
canonical ``Rational``, and :func:`to_expr` skips ``cancel``.
:func:`evaluate` gives the values of elements at a rational point, in the
constant field ``QQ`` or ``QQ_I``, with no expression work.

:func:`rref`, :func:`rank`, :func:`nullspace`, :func:`independent_indices`
and :func:`invert` take an optional ``field``.  Given one, every row they
take and every row or vector they hand back is a sparse ``{column:
element}`` dict of that field holding no zero entries, and nothing is
converted.  :func:`sparse_rows` builds such rows by summing
``(row, column, element)`` terms, and :func:`sparse` turns dense rows of
field elements into them.  The algebra layer builds its systems with
:func:`sparse_rows` straight from an algebra's nonzero structure constants
(converted once per algebra), so nothing dense is built.  Without a field,
the entries are
dense rows of expressions, converted once per call, and the entries handed
back are expressions in ``cancel`` form.  Every row reduction runs through
:func:`rref` on a sparse ``DomainMatrix``.  Pivots are the lowest-index
nonzero columns and reduction is full, so the RREF, and every basis derived
from it, is unique and reproducible bit-for-bit.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import sympy as sp
from sympy.polys.constructor import construct_domain
from sympy.polys.matrices import DomainMatrix

Vector = tuple[sp.Expr, ...]

__all__ = [
    "to_field",
    "to_expr",
    "evaluate",
    "cleared_vector",
    "entry_is_zero",
    "sparse_rows",
    "sparse",
    "rref",
    "rank",
    "nullspace",
    "independent_indices",
    "invert",
    "det",
    "span_rank",
    "in_span",
    "subspace_equal",
    "subspace_intersection",
]


def _simp(e) -> sp.Expr:
    return sp.cancel(sp.sympify(e))


def entry_is_zero(e) -> bool:
    return _simp(e) == 0


def to_field(*groups) -> tuple[object, list]:
    """Convert nested lists/tuples of scalars into elements of one field.

    One ``construct_domain(..., field=True)`` call covers every distinct
    entry of every group.  Returns the field and the groups, same nesting,
    as lists of field elements.
    """
    index: dict = {}

    def collect(x):
        if isinstance(x, (list, tuple)):
            for y in x:
                collect(y)
        else:
            index.setdefault(x, len(index))

    for g in groups:
        collect(g)
    field, elems = construct_domain(list(index), field=True)

    def rebuild(x):
        return ([rebuild(y) for y in x] if isinstance(x, (list, tuple))
                else elems[index[x]])

    return field, [rebuild(g) for g in groups]


def _nested(f, x):
    # f applied to every scalar of nested lists/tuples, same nesting, as lists.
    return [_nested(f, y) for y in x] if isinstance(x, (list, tuple)) else f(x)


def evaluate(field, point, *groups) -> tuple[object, list]:
    """The elements of ``field`` in nested ``groups`` at ``point``, a map
    ``{symbol: rational}`` that gives every generator of ``field`` a value.

    Returns the constant field (``QQ`` or ``QQ_I``) and the values, in the
    groups' nesting.  Each numerator and denominator is summed term by term,
    its ground coefficients (``ZZ`` or ``ZZ_I``) times values of the
    constant field: ``PolyElement.evaluate`` wants values in the ground
    domain, so it fails for ``ZZ(x)`` at 1/2.  A pole at ``point`` raises
    ``ZeroDivisionError``.
    """
    if not field.is_FractionField:
        return field, [_nested(lambda x: x, g) for g in groups]
    const = field.domain.get_field()
    missing = [s for s in field.symbols if s not in point]
    if missing:
        raise ValueError(f"no value for {', '.join(map(str, missing))}")
    values = [const.from_sympy(point[s]) for s in field.symbols]

    def at(poly):
        total = const.zero
        for monom, term in poly.items():
            for v, e in zip(values, monom):
                if e:
                    term *= v if e == 1 else v ** e
            total += term
        return total

    return const, [_nested(lambda x: at(x.numer) / at(x.denom) if x else const.zero, g)
                   for g in groups]


def to_expr(field, x) -> sp.Expr:
    """A field element as an expression in ``cancel`` form (over ``QQ`` the
    converted ``Rational`` already is)."""
    e = field.to_sympy(x)
    return e if field.is_QQ else sp.cancel(e)


def cleared_vector(field, vec: dict, n: int) -> Vector:
    """A sparse vector of field elements as ``n`` expressions scaled by the
    lcm of their denominators.

    Keeps generic nullspace bases polynomial in the parameters instead of
    carrying spurious 1/param factors from pivot normalization.  The scale
    is computed on the elements and each entry is converted once.
    """
    ring = field.get_ring()
    scale = ring.one
    for x in vec.values():
        scale = ring.lcm(scale, _written_denominator(field, x))
    if scale != ring.one:
        factor = field.convert_from(scale, ring)
        vec = {c: x * factor for c, x in vec.items()}
    zero = to_expr(field, field.zero)
    return tuple(to_expr(field, vec[c]) if c in vec else zero for c in range(n))


def _written_denominator(field, x):
    # The denominator sympy.fraction reads off the cancel form of x: a
    # constant denominator under a sum is spread over the sum's
    # coefficients, and then reads as 1.
    den = field.denom(x)
    constant = not field.is_FractionField or den.is_ground
    if constant and den != 1 and field.get_ring().to_sympy(field.numer(x)).is_Add:
        return field.get_ring().one
    return den


def sparse_rows(terms: Iterable[tuple]) -> list[dict]:
    """The sparse rows of a system given as ``(row, column, element)`` terms.

    Row labels are any hashable keys.  Terms at one place are summed; the
    entries that sum to zero and the rows left empty are dropped.
    """
    entries: dict = {}
    for r, c, x in terms:
        prev = entries.get((r, c))
        entries[(r, c)] = x if prev is None else prev + x
    rows: dict = {}
    for (r, c), x in entries.items():
        if x:
            rows.setdefault(r, {})[c] = x
    return list(rows.values())


def sparse(rows: Iterable[Sequence]) -> list[dict]:
    """Dense rows of field elements as sparse rows, one each, in order (an
    all-zero row becomes ``{}``)."""
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def _width(rows: Sequence[Sequence], ncols: int | None) -> int:
    """The number of columns of dense rows; a given ``ncols`` must agree."""
    if not rows:
        return ncols or 0
    if ncols is not None and ncols != len(rows[0]):
        raise ValueError(f"ncols={ncols} given for rows of {len(rows[0])} columns")
    return len(rows[0])


def rref(rows: Sequence, ncols: int | None = None, field=None) -> tuple[list, list[int]]:
    """Reduced row echelon form with lowest-index pivots.

    Returns the reduced rows and the list of pivot column indices.  With
    ``field``, ``rows`` are sparse rows of ``ncols`` columns and the result
    is the nonzero reduced rows, one per pivot, sparse.  Without, ``rows``
    are dense rows of expressions and the result is the whole reduced
    matrix, dense, in ``cancel`` form.
    """
    if field is None:
        ncols = _width(rows, ncols)
        field, (rows,) = to_field(rows)
        red, pivots = _rref(sparse(rows), ncols, field)
        zero = to_expr(field, field.zero)
        red = [[to_expr(field, row[c]) if c in row else zero for c in range(ncols)]
               for row in red]
        return red + [[zero] * ncols for _ in rows[len(red):]], pivots
    if ncols is None:
        raise ValueError("ncols required for sparse rows")
    return _rref(rows, ncols, field)


def _rref(rows: Sequence[dict], ncols: int, field) -> tuple[list[dict], list[int]]:
    # The elimination behind rref, reached once per reduction from either
    # path; DomainMatrix reduces sparse rows in sparse form.
    nonzero = {i: row for i, row in enumerate(rows) if row}
    red, pivots = DomainMatrix(nonzero, (len(rows), ncols), field).rref()
    red = red.to_dod()
    return [red[r] for r in range(len(pivots))], list(pivots)


def rank(rows: Sequence, ncols: int | None = None, field=None) -> int:
    """Rank of dense expression rows, or, with ``field``, of sparse rows of
    ``ncols`` columns."""
    if field is None:
        ncols = _width(rows, ncols)
        field, (rows,) = to_field(rows)
        rows = sparse(rows)
    return len(rref(rows, ncols, field)[1]) if rows else 0


def nullspace(rows: Sequence, ncols: int | None = None, field=None) -> list:
    """Basis of the right nullspace {x : rows @ x = 0}, deterministic order.

    One basis vector per free column, with a 1 there.  With ``field``,
    ``rows`` are sparse rows of ``ncols`` columns and the vectors are sparse
    too.  Without, ``rows`` are dense expression rows and the vectors are
    expression tuples put through :func:`cleared_vector`.
    """
    if not rows and ncols is None:
        raise ValueError("ncols required for an empty system")
    if field is None:
        ncols = _width(rows, ncols)
        field, (rows,) = to_field(rows)
        return [cleared_vector(field, v, ncols)
                for v in nullspace(sparse(rows), ncols, field)]
    red, pivots = rref(rows, ncols, field) if rows else ([], [])
    bound = set(pivots)
    basis = []
    for fc in (c for c in range(ncols) if c not in bound):
        vec = {fc: field.one}
        for row, pc in zip(red, pivots):
            x = row.get(fc)
            if x is not None:
                vec[pc] = -x
        basis.append(vec)
    return basis


def independent_indices(vectors: Sequence, field=None) -> list[int]:
    """Indices of the vectors not in the span of the vectors before them.

    These are the pivot columns of the matrix whose columns are the
    vectors, so zero vectors are never chosen.  With ``field`` the vectors
    are sparse, without they are dense vectors of expressions.
    """
    if not vectors:
        return []
    if field is None:
        field, (vectors,) = to_field(vectors)
        vectors = sparse(vectors)
    columns = sparse_rows((r, i, x) for i, v in enumerate(vectors) for r, x in v.items())
    return rref(columns, len(vectors), field)[1] if columns else []


def invert(m_rows: Sequence, field=None) -> list | None:
    """Inverse matrix, or None if singular.

    With ``field``, ``m_rows`` are the n sparse rows of an n x n matrix, in
    order (``{}`` for a zero row), and so are the rows returned.  Without,
    rows are dense and the entries are expressions in ``cancel`` form.
    """
    if field is None:
        n = len(m_rows)
        field, (m_rows,) = to_field(m_rows)
        inv = invert(sparse(m_rows), field)
        zero = to_expr(field, field.zero)
        return None if inv is None else [
            [to_expr(field, row[c]) if c in row else zero for c in range(n)] for row in inv]
    n = len(m_rows)
    aug = [{**row, n + i: field.one} for i, row in enumerate(m_rows)]
    red, pivots = rref(aug, 2 * n, field)
    if pivots != list(range(n)):
        return None
    return [{c - n: x for c, x in row.items() if c >= n} for row in red]


def det(m_rows: Sequence[Sequence]) -> sp.Expr:
    field, (rows,) = to_field(m_rows)
    n = len(rows)
    return to_expr(field, DomainMatrix(rows, (n, n), field).det())


def span_rank(vectors: Sequence[Sequence]) -> int:
    return rank(list(vectors)) if vectors else 0


def in_span(vectors: Sequence[Sequence], v: Sequence) -> bool:
    if not vectors:
        return all(entry_is_zero(x) for x in v)
    ncols = len(v)
    field, (vectors, v) = to_field(vectors, v)
    vectors = sparse(vectors)
    return rank(vectors + sparse([v]), ncols, field) == rank(vectors, ncols, field)


def subspace_equal(u_vectors: Sequence[Sequence], v_vectors: Sequence[Sequence]) -> bool:
    ru, rv = span_rank(u_vectors), span_rank(v_vectors)
    if ru != rv:
        return False
    return span_rank(list(u_vectors) + list(v_vectors)) == ru


def subspace_intersection(u_vectors: Sequence[Sequence],
                          v_vectors: Sequence[Sequence]) -> list[Vector]:
    """Basis of span(U) ∩ span(V)."""
    if not u_vectors or not v_vectors:
        return []
    n = len(u_vectors[0])
    # Columns of the combined system are (coeffs on U | coeffs on V); a null
    # vector (a | b) encodes sum a_i U_i = -sum b_j V_j, a point of the
    # intersection.
    rows = [[u_vectors[i][c] for i in range(len(u_vectors))] +
            [-sp.sympify(v_vectors[j][c]) for j in range(len(v_vectors))]
            for c in range(n)]
    combos = nullspace(rows, len(u_vectors) + len(v_vectors))
    points = []
    for combo in combos:
        vec = [sp.Integer(0)] * n
        for i in range(len(u_vectors)):
            if combo[i] != 0:
                vec = [_simp(x + combo[i] * u) for x, u in zip(vec, u_vectors[i])]
        points.append(tuple(vec))
    # The combination vectors are independent but their U-parts may not be.
    return [points[i] for i in independent_indices(points)]
