"""Deterministic exact linear algebra over rational-function scalars.

Matrices are plain lists/tuples of sympy expressions drawn from the
root-free fragment of :mod:`novikov.scalars` (the field Q(i)(params, t)).
Each call converts its input once to a ``DomainMatrix`` over the smallest
field that holds every entry (``QQ``, ``QQ_I`` or a fraction field such as
``ZZ_I(alpha, lam)``), where elimination and determinants are exact without
any per-step simplification.  Every entry handed back is put once into the
canonical ``cancel`` form, so equal rational functions come out
syntactically identical.  Pivots are the lowest-index nonzero columns and
reduction is full, so the RREF, and every basis derived from it, is unique
and reproducible bit-for-bit.
"""

from __future__ import annotations

from typing import Sequence

import sympy as sp
from sympy.polys.matrices import DomainMatrix

Vector = tuple[sp.Expr, ...]
Matrix = list[list[sp.Expr]]

__all__ = [
    "entry_is_zero",
    "rref",
    "rank",
    "nullspace",
    "solve_right",
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


def _field_matrix(rows: Sequence[Sequence]) -> DomainMatrix:
    rows = [list(row) for row in rows]
    ncols = len(rows[0]) if rows else 0
    return DomainMatrix.from_list_sympy(len(rows), ncols, rows).to_field()


def _reduce(rows: Sequence[Sequence]) -> tuple[list[list], list[int], object]:
    """RREF entries as field elements, pivot columns, and the field."""
    red, pivots = _field_matrix(rows).rref()
    return red.to_list(), list(pivots), red.domain


def _expr(field, x) -> sp.Expr:
    return sp.cancel(field.to_sympy(x))


def rref(rows: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form with lowest-index pivots.

    Returns the reduced matrix and the list of pivot column indices.
    """
    red, pivots, field = _reduce(rows)
    return [[_expr(field, x) for x in row] for row in red], pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(_reduce(rows)[1])


def _cleared(vec: list) -> Vector:
    """Scale a vector by the lcm of its coefficient denominators.

    Keeps generic nullspace bases polynomial in the parameters instead of
    carrying spurious 1/param factors from pivot normalization.
    """
    denominators = [sp.fraction(_simp(x))[1] for x in vec if x != 0]
    if not denominators:
        return tuple(vec)
    scale = sp.lcm(denominators)
    if scale == 1:
        return tuple(vec)
    return tuple(_simp(x * scale) for x in vec)


def nullspace(rows: Sequence[Sequence], ncols: int | None = None) -> list[Vector]:
    """Basis of the right nullspace {x : rows @ x = 0}, deterministic order."""
    rows = [list(r) for r in rows]
    if not rows:
        if ncols is None:
            raise ValueError("ncols required for an empty system")
        return [tuple(sp.Integer(1) if j == k else sp.Integer(0) for j in range(ncols))
                for k in range(ncols)]
    ncols = ncols if ncols is not None else len(rows[0])
    red, pivots, field = _reduce(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [sp.Integer(0)] * ncols
        vec[fc] = sp.Integer(1)
        for r, pc in enumerate(pivots):
            vec[pc] = _expr(field, -red[r][fc])
        basis.append(_cleared(vec))
    return basis


def solve_right(a_rows: Sequence[Sequence], b: Sequence) -> Vector | None:
    """One solution x of A x = b, or None if inconsistent."""
    nrows = len(a_rows)
    ncols = len(a_rows[0]) if nrows else 0
    aug = [list(row) + [bv] for row, bv in zip(a_rows, b)]
    red, pivots, field = _reduce(aug)
    if ncols in pivots:
        return None
    x = [sp.Integer(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = _expr(field, red[r][ncols])
    return tuple(x)


def invert(m_rows: Sequence[Sequence]) -> Matrix | None:
    """Inverse matrix, or None if singular."""
    n = len(m_rows)
    aug = [list(row) + [sp.Integer(1) if j == i else sp.Integer(0) for j in range(n)]
           for i, row in enumerate(m_rows)]
    red, pivots, field = _reduce(aug)
    if pivots != list(range(n)):
        return None
    return [[_expr(field, x) for x in row[n:]] for row in red]


def det(m_rows: Sequence[Sequence]) -> sp.Expr:
    m = _field_matrix(m_rows)
    return _expr(m.domain, m.det())


def span_rank(vectors: Sequence[Sequence]) -> int:
    return rank(list(vectors)) if vectors else 0


def in_span(vectors: Sequence[Sequence], v: Sequence) -> bool:
    if not vectors:
        return all(entry_is_zero(x) for x in v)
    base = span_rank(vectors)
    return span_rank(list(vectors) + [list(v)]) == base


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
    independent: list[Vector] = []
    for p in points:
        if not all(entry_is_zero(x) for x in p) and not in_span(independent, p):
            independent.append(p)
    return independent
