"""Deterministic exact linear algebra over rational-function scalars.

Scalars are sympy expressions from the root-free fragment of
:mod:`novikov.scalars` (the field Q(i)(params, t)); they are only the input
and output form.  :func:`rref`, :func:`rank`, :func:`nullspace`,
:func:`independent_indices` and :func:`invert` have one path each: every
row they take and every row or vector they hand back is a sparse
``{column: element}`` dict of a given ``field`` holding no zero entries,
and nothing is converted.  :func:`sparse_rows` builds such rows by summing
``(row, column, element)`` terms, and :func:`sparse` turns dense rows of
field elements into them.  Every row reduction runs through :func:`rref`,
which hands the rows straight to sympy's sparse Gauss--Jordan kernel
``sdm_irref``.  Pivots are the lowest-index nonzero columns and reduction
is full, so the RREF, and every basis derived from it, is unique and
reproducible bit-for-bit.

Expressions cross at the boundary helpers.  :func:`to_field` converts
nested groups of them into elements of the smallest field holding every
entry (``QQ``, ``QQ_I`` or a fraction field such as ``ZZ_I(alpha, lam)``):
groups of ``Rational`` entries alone go straight to ``QQ``, any others
through one ``construct_domain(..., field=True)`` call.  Their sums, products
and zero tests are exact with no simplification step.  :func:`to_expr`
brings an element back in canonical ``cancel`` form, so equal rational
functions come out syntactically identical (over ``QQ`` the converted
``Rational`` already is), and :func:`cleared_vector` brings a sparse vector
back as expressions scaled by the lcm of their denominators.
:func:`subspace_equal` compares the spans of two lists of expression
vectors with one conversion and three ranks, and :func:`det` gives the
determinant of a dense expression matrix.  :func:`evaluate` gives the
values of elements at a rational point, in the constant field ``QQ`` or
``QQ_I``, with no expression work.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import sympy as sp
from sympy.polys.constructor import construct_domain
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.sdm import sdm_irref

Vector = tuple[sp.Expr, ...]

__all__ = [
    "to_field",
    "to_expr",
    "evaluate",
    "cleared_vector",
    "sparse_rows",
    "sparse",
    "rref",
    "rank",
    "nullspace",
    "independent_indices",
    "invert",
    "det",
    "subspace_equal",
]


def to_field(*groups) -> tuple[object, list]:
    """Convert nested lists/tuples of scalars into elements of one field.

    When every distinct entry is a sympy ``Rational`` the field is ``QQ``
    and each entry converts as ``QQ(p, q)``, which is what
    ``construct_domain`` gives for such entries; otherwise one
    ``construct_domain(..., field=True)`` call covers every distinct entry
    of every group.  Returns the field and the groups, same nesting, as
    lists of field elements.
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
    if all(isinstance(x, sp.Rational) for x in index):
        field, elems = sp.QQ, [sp.QQ(x.p, x.q) for x in index]
    else:
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


def rref(rows: Sequence[dict], ncols: int, field) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form with lowest-index pivots.

    ``rows`` are sparse rows of ``ncols`` columns over ``field``.  Returns
    the nonzero reduced rows, one per pivot, sparse, and the list of pivot
    column indices.  sympy's ``sdm_irref`` reduces copies of the rows, so
    ``rows`` are left unchanged.  It needs neither ``ncols`` nor ``field``;
    they keep the calling convention of the other entry points.
    """
    red, pivots, _ = sdm_irref({i: row for i, row in enumerate(rows) if row})
    return list(red.values()), pivots


def rank(rows: Sequence[dict], ncols: int, field) -> int:
    """Rank of sparse rows of ``ncols`` columns."""
    return len(rref(rows, ncols, field)[1]) if rows else 0


def nullspace(rows: Sequence[dict], ncols: int, field) -> list[dict]:
    """Basis of the right nullspace {x : rows @ x = 0} of sparse rows of
    ``ncols`` columns, as sparse vectors in deterministic order.

    One basis vector per free column, with a 1 there.
    """
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


def independent_indices(vectors: Sequence[dict], field) -> list[int]:
    """Indices of the sparse vectors not in the span of the vectors before
    them.

    These are the pivot columns of the matrix whose columns are the
    vectors, so zero vectors are never chosen.
    """
    columns = sparse_rows((r, i, x) for i, v in enumerate(vectors) for r, x in v.items())
    return rref(columns, len(vectors), field)[1] if columns else []


def invert(m_rows: Sequence[dict], field) -> list[dict] | None:
    """Inverse matrix, or None if singular.

    ``m_rows`` are the n sparse rows of an n x n matrix, in order (``{}``
    for a zero row), and so are the rows returned.
    """
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


def subspace_equal(u_vectors: Sequence[Sequence], v_vectors: Sequence[Sequence]) -> bool:
    """Whether two lists of expression vectors span the same subspace.

    Both lists are converted in one :func:`to_field` call; the spans are
    equal iff U, V and U + V all have the same rank.
    """
    ncols = next((len(x) for x in (*u_vectors, *v_vectors)), 0)
    field, (u, v) = to_field(u_vectors, v_vectors)
    u, v = sparse(u), sparse(v)
    ru = rank(u, ncols, field)
    return rank(v, ncols, field) == ru and rank(u + v, ncols, field) == ru
