"""Deterministic exact linear algebra over rational-function scalars.

Scalars are sympy expressions from the root-free fragment of
:mod:`novikov.scalars` (the field Q(i)(params, t)).  :func:`to_field`
converts any number of nested groups of them with one
``construct_domain(..., field=True)`` call into elements of the smallest
field that holds every entry: ``QQ``, ``QQ_I`` or a fraction field such as
``ZZ_I(alpha, lam)``.  Sums, products and zero tests of those elements are
exact without any simplification step, and :func:`to_expr` brings one back
in canonical ``cancel`` form, so equal rational functions come out
syntactically identical.

:func:`rref`, :func:`rank`, :func:`nullspace`, :func:`invert` and
:func:`independent_indices` take an optional ``field``.  Given one, the rows
are already its elements and so is everything returned: callers that
convert an algebra once pass its field and skip any further conversion.
Without one, the entries are expressions, converted once per call, and the
entries handed back are expressions in ``cancel`` form.  Every row
reduction runs through :func:`rref` on a ``DomainMatrix``.  Pivots are the
lowest-index nonzero columns and reduction is full, so the RREF, and every
basis derived from it, is unique and reproducible bit-for-bit.
"""

from __future__ import annotations

from typing import Sequence

import sympy as sp
from sympy.polys.constructor import construct_domain
from sympy.polys.matrices import DomainMatrix

Vector = tuple[sp.Expr, ...]

__all__ = [
    "to_field",
    "to_expr",
    "cleared_vector",
    "entry_is_zero",
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


def to_expr(field, x) -> sp.Expr:
    """A field element as an expression in ``cancel`` form."""
    return sp.cancel(field.to_sympy(x))


def cleared_vector(field, vec: Sequence) -> Vector:
    """A vector of field elements as expressions scaled by the lcm of their
    denominators.

    Keeps generic nullspace bases polynomial in the parameters instead of
    carrying spurious 1/param factors from pivot normalization.  The scale
    is computed on the elements and each entry is converted once.
    """
    ring = field.get_ring()
    scale = ring.one
    for x in vec:
        if x:
            scale = ring.lcm(scale, _written_denominator(field, x))
    if scale != ring.one:
        factor = field.convert_from(scale, ring)
        vec = [x * factor for x in vec]
    return tuple(to_expr(field, x) for x in vec)


def _written_denominator(field, x):
    # The denominator sympy.fraction reads off the cancel form of x: a
    # constant denominator under a sum is spread over the sum's
    # coefficients, and then reads as 1.
    den = field.denom(x)
    constant = not field.is_FractionField or den.is_ground
    if constant and den != 1 and field.get_ring().to_sympy(field.numer(x)).is_Add:
        return field.get_ring().one
    return den


def rref(rows: Sequence[Sequence], field=None) -> tuple[list[list], list[int]]:
    """Reduced row echelon form with lowest-index pivots.

    Returns the reduced matrix and the list of pivot column indices.  The
    entries are elements of ``field`` when it is given (``rows`` must be
    too), expressions in ``cancel`` form otherwise.
    """
    if field is None:
        field, (rows,) = to_field(rows)
        red, pivots = _rref(rows, field)
        return [[to_expr(field, x) for x in row] for row in red], pivots
    return _rref(rows, field)


def _rref(rows: Sequence[Sequence], field) -> tuple[list[list], list[int]]:
    # Built sparse: DomainMatrix reduces in sparse form whatever the input,
    # and the systems here are mostly zeros.
    ncols = len(rows[0]) if rows else 0
    nonzero = {i: r for i, row in enumerate(rows)
               if (r := {j: x for j, x in enumerate(row) if x})}
    red, pivots = DomainMatrix(nonzero, (len(rows), ncols), field).rref()
    return red.to_list(), list(pivots)


def rank(rows: Sequence[Sequence], field=None) -> int:
    if field is None:
        field, (rows,) = to_field(rows)
    return len(rref(rows, field)[1])


def nullspace(rows: Sequence[Sequence], ncols: int | None = None,
              field=None) -> list:
    """Basis of the right nullspace {x : rows @ x = 0}, deterministic order.

    With ``field``, the basis vectors are lists of its elements, one per
    free column with a 1 there.  Without, they are expression tuples put
    through :func:`cleared_vector`.
    """
    if field is None:
        field, (rows,) = to_field(rows)
        return [cleared_vector(field, v) for v in nullspace(rows, ncols, field)]
    if not rows and ncols is None:
        raise ValueError("ncols required for an empty system")
    ncols = ncols if ncols is not None else len(rows[0])
    red, pivots = rref(rows, field) if rows else ([], [])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [field.zero] * ncols
        vec[fc] = field.one
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis


def independent_indices(vectors: Sequence[Sequence], field=None) -> list[int]:
    """Indices of the vectors not in the span of the vectors before them.

    These are the pivot columns of the matrix whose columns are the
    vectors, so zero vectors are never chosen.
    """
    if not vectors:
        return []
    if field is None:
        field, (vectors,) = to_field(vectors)
    columns = [[v[r] for v in vectors] for r in range(len(vectors[0]))]
    return rref(columns, field)[1]


def invert(m_rows: Sequence[Sequence], field=None) -> list | None:
    """Inverse matrix, or None if singular.  Entries are elements of
    ``field`` when it is given, expressions in ``cancel`` form otherwise."""
    if field is None:
        field, (m_rows,) = to_field(m_rows)
        inv = invert(m_rows, field)
        return None if inv is None else [[to_expr(field, x) for x in row]
                                         for row in inv]
    n = len(m_rows)
    aug = [list(row) + [field.one if j == i else field.zero for j in range(n)]
           for i, row in enumerate(m_rows)]
    red, pivots = rref(aug, field)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red]


def det(m_rows: Sequence[Sequence]) -> sp.Expr:
    field, (rows,) = to_field(m_rows)
    n = len(rows)
    return to_expr(field, DomainMatrix(rows, (n, n), field).det())


def span_rank(vectors: Sequence[Sequence]) -> int:
    return rank(list(vectors)) if vectors else 0


def in_span(vectors: Sequence[Sequence], v: Sequence) -> bool:
    if not vectors:
        return all(entry_is_zero(x) for x in v)
    field, (vectors, v) = to_field(vectors, v)
    return rank(vectors + [v], field) == rank(vectors, field)


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
