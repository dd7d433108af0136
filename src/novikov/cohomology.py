"""Second cohomology of structure-constant algebras and central extensions.

A 2-cocycle on an algebra A is a bilinear form theta satisfying the same two
identities that define the variety, with the outermost product replaced by
theta.  Cocycles are stored as n x n coefficient matrices against the basis
of elementary bilinear forms D_ij (D_ij(e_l, e_m) = delta_il delta_jm), so
the (i, j) entry of the matrix is theta(e_i, e_j).

Coboundaries are the forms (x, y) -> f(xy) for linear functionals f; their
matrices are exactly the spans of the structure-constant slices
C^(k)_ij = c_ij^k.  The quotient basis (representatives of Z^2 modulo B^2)
is chosen by deterministic completion, not by any hand-picked labels.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from typing import Mapping, Sequence

import sympy as sp

from . import linalg, scalars
from .algebras import (Algebra, AlgebraError, Vector, _annihilator_rows,
                       _change_basis, _json_field, _json_keys, _json_product,
                       _linear_coordinates, _rebased,
                       basis_vector, nonzero_constants)
from .scalars import DEFAULT_SEED, T, grammar_str, parse_scalar

__all__ = [
    "Cocycle",
    "CocycleSpace",
    "Extension",
    "SplitExtension",
    "CocycleError",
    "SingularMatrixError",
    "cocycle",
    "cocycle_from_expr",
    "cocycle_to_json",
    "cocycle_from_json",
    "is_cocycle",
    "coboundary_matrices",
    "cocycle_space",
    "has_trivial_intersection",
    "central_extension",
    "split_central_extension",
    "is_automorphism",
    "ActionCase",
    "ActionCaseReport",
    "verify_action_formulas",
]


class CocycleError(AlgebraError):
    pass


class SingularMatrixError(AlgebraError):
    pass


@dataclass(frozen=True)
class Cocycle:
    """Coefficient matrix of a bilinear form against the D_ij basis.

    The raw constructor performs no validation; inputs read from files are
    checked through :func:`is_cocycle`.
    """

    algebra: Algebra
    matrix: tuple[tuple[sp.Expr, ...], ...]

    def as_vector(self) -> Vector:
        n = self.algebra.dim
        return tuple(self.matrix[i][j] for i in range(n) for j in range(n))

    def __str__(self) -> str:
        n = self.algebra.dim
        parts = []
        for i in range(n):
            for j in range(n):
                c = self.matrix[i][j]
                if c == 0:
                    continue
                term = f"D{i + 1}{j + 1}"
                parts.append(term if c == 1 else f"({grammar_str(c)})*{term}")
        return " + ".join(parts) if parts else "0"


def cocycle(a: Algebra, entries: Sequence[tuple]) -> Cocycle:
    """Cocycle matrix from sparse 1-based entries (i, j, coefficient); an
    index that is not an integer (a bool is not) in range raises
    :class:`CocycleError`."""
    n = a.dim
    grid = [[sp.Integer(0)] * n for _ in range(n)]
    for i, j, c in entries:
        if not all(isinstance(x, int) and not isinstance(x, bool) and 1 <= x <= n
                   for x in (i, j)):
            raise CocycleError(f"entry index ({i!r},{j!r}) is not an integer "
                               f"in 1..{n}")
        grid[i - 1][j - 1] += parse_scalar(c)
    return Cocycle(a, tuple(tuple(row) for row in grid))


def _vector_cocycle(a: Algebra, vec: Sequence[sp.Expr]) -> Cocycle:
    n = a.dim
    return Cocycle(a, tuple(tuple(vec[i * n:(i + 1) * n]) for i in range(n)))


def cocycle_from_expr(a: Algebra, text: str) -> Cocycle:
    """Parse 'D12 + alpha*D21'-style text (indices are single digits)."""
    n = a.dim
    coeffs = _linear_coordinates(text, [f"D{i + 1}{j + 1}" for i in range(n)
                                        for j in range(n)])
    if coeffs is None:
        raise CocycleError(f"not a combination of D_ij forms: {text!r}")
    return _vector_cocycle(a, coeffs)


def cocycle_to_json(c: Cocycle) -> dict:
    n = c.algebra.dim
    entries = [{"i": i + 1, "j": j + 1, "c": grammar_str(c.matrix[i][j])}
               for i in range(n) for j in range(n) if c.matrix[i][j] != 0]
    return {"algebra": c.algebra.name, "entries": entries}


def cocycle_from_json(a: Algebra, obj: Mapping) -> Cocycle:
    """Cocycle from its JSON object.  An object without an ``entries`` list,
    an entry without ``i``, ``j`` or ``c``, a key outside the schema
    (``algebra`` and ``entries``; ``i``, ``j`` and ``c`` in an entry), a
    ``c`` that is not grammar text or an integer, or an index that is not an
    integer in range raises :class:`CocycleError`."""
    try:
        entries = _json_field(obj, "entries", "cocycle JSON")
        _json_keys(obj, ("algebra", "entries"), "cocycle JSON")
        if not isinstance(entries, list):
            raise CocycleError(f"cocycle JSON: 'entries' must be a list, got {entries!r}")
        entries = [_json_product(e, "ijc", "cocycle JSON: entry") for e in entries]
    except AlgebraError as exc:
        raise CocycleError(str(exc)) from None
    return cocycle(a, entries)


# ---------------------------------------------------------------------------
# Cocycle conditions and spaces
# ---------------------------------------------------------------------------

def _condition_rows(n: int, constants: Sequence) -> list[dict]:
    """The cocycle conditions of an n-dimensional algebra with the given
    nonzero constants ``(i, j, k, c)``, as sparse ``{column: element}`` rows
    over vec(theta) (index (i, j) -> i*n+j); all-zero rows are left out.

    Condition (0, i, j, k) is theta(e_i e_j, e_k) - theta(e_i e_k, e_j) and
    (1, i, j, k) is theta(e_i e_j - e_j e_i, e_k) - theta(e_i, e_j e_k)
    + theta(e_j, e_i e_k).  For every table the first is antisymmetric in
    (j, k) and the second in (i, j): swapping the pair negates the row, and
    an equal pair gives the zero row.  So only the rows with j < k (type 0)
    and i < j (type 1) are kept, n^2(n-1) of the 2n^3, with the same row
    space; each constant adds to the kept rows it appears in, and its terms
    in the other rows are not formed.
    """
    terms = []
    for a, b, l, c in constants:           # e_a e_b has c on e_l
        for m in range(n):
            left, right = l * n + m, m * n + l     # theta(e_l, e_m), theta(e_m, e_l)
            if b < m:      # theta(e_i e_j, e_k) in (0, i, j, k)
                terms.append(((0, a, b, m), left, c))
            elif m < b:    # -theta(e_i e_k, e_j) in (0, i, j, k)
                terms.append(((0, a, m, b), left, -c))
            if a < b:      # theta(e_i e_j, e_k) in (1, i, j, k)
                terms.append(((1, a, b, m), left, c))
            elif b < a:    # -theta(e_j e_i, e_k) in (1, i, j, k)
                terms.append(((1, b, a, m), left, -c))
            if m < a:      # -theta(e_i, e_j e_k) in (1, i, j, k)
                terms.append(((1, m, a, b), right, -c))
            elif a < m:    # theta(e_j, e_i e_k) in (1, i, j, k)
                terms.append(((1, a, m, b), right, c))
    return linalg.sparse_rows(terms)


def is_cocycle(a: Algebra, theta: Cocycle) -> bool:
    """Whether theta satisfies every cocycle condition, decided over the
    field of the table and theta's entries.  It checks the rows
    :func:`_condition_rows` keeps; the others are their negatives or zero."""
    if theta.algebra.dim != a.dim:
        raise CocycleError("dimension mismatch")
    field, (table, matrix) = linalg.to_field(a.table, theta.matrix)
    return _satisfies_conditions(field, nonzero_constants(table), matrix)


def _satisfies_conditions(field, constants: Sequence, matrix: Sequence) -> bool:
    """:func:`is_cocycle` on elements of ``field``: the nonzero constants
    ``(i, j, k, c)`` and the n x n matrix of a form."""
    vec = [x for row in matrix for x in row]
    return not any(sum((x * vec[col] for col, x in row.items()), field.zero)
                   for row in _condition_rows(len(matrix), constants))


def coboundary_matrices(a: Algebra) -> list[Cocycle]:
    """The structure-constant slices C^(k); their span is B^2."""
    return [_coboundary(a, k) for k in range(a.dim)]


def _coboundary(a: Algebra, k: int) -> Cocycle:
    n = a.dim
    return Cocycle(a, tuple(tuple(a.table[i][j][k] for j in range(n)) for i in range(n)))


@dataclass(frozen=True)
class CocycleSpace:
    algebra: Algebra
    z2_basis: tuple[Cocycle, ...]
    b2_basis: tuple[Cocycle, ...]
    h2_reps: tuple[Cocycle, ...]

    @property
    def dims(self) -> tuple[int, int, int]:
        return (len(self.z2_basis), len(self.b2_basis), len(self.h2_reps))


def cocycle_space(a: Algebra) -> CocycleSpace:
    """Z^2, B^2 and deterministic H^2 representatives, exact and generic.

    B^2 is spanned by the independent coboundary slices, and the H^2
    representatives are the Z^2 basis vectors outside the span of the
    slices and of the Z^2 vectors before them: both are the pivot columns
    of one elimination on (slices | Z^2 basis).  Each Z^2 vector is cleared
    and wrapped once, and the H^2 representatives are those same
    :class:`Cocycle` objects; only the chosen slices become cocycles.
    """
    n = a.dim
    field, constants = a.constants
    z2 = linalg.nullspace(_condition_rows(n, constants), n * n, field)
    slices: list[dict] = [{} for _ in range(n)]   # C^(k) as a sparse vector
    for i, j, k, c in constants:
        slices[k][i * n + j] = c
    chosen = linalg.independent_indices(slices + z2)
    z2_basis = tuple(_vector_cocycle(a, linalg.cleared_vector(field, v, n * n)) for v in z2)
    return CocycleSpace(
        a,
        z2_basis,
        tuple(_coboundary(a, c) for c in chosen if c < n),
        tuple(z2_basis[c - n] for c in chosen if c >= n),
    )


def _form_annihilator_rows(matrices: Sequence, n: int) -> list[dict]:
    """The sparse rows of theta(x, e_j) = theta(e_j, x) = 0 for every matrix
    of field elements and every j."""
    return linalg.sparse(row for m in matrices for j in range(n)
                         for row in ([m[i][j] for i in range(n)],   # theta(x, e_j)
                                     m[j]))                         # theta(e_j, x)


def has_trivial_intersection(a: Algebra, thetas: Sequence[Cocycle]) -> bool:
    """Whether Ann(theta) ∩ Ann(A) = 0.  Both null bases are independent, so
    the intersection is trivial iff their union has full rank.  The table and
    the cocycles are converted into one field, and the null vectors are
    ranked as they come."""
    n = a.dim
    if any(theta.algebra.dim != n for theta in thetas):
        raise CocycleError("dimension mismatch")
    field, (table, matrices) = linalg.to_field(a.table, [theta.matrix for theta in thetas])
    return _intersection_trivial(field, n, nonzero_constants(table), matrices)


def _intersection_trivial(field, n: int, constants: Sequence, matrices: Sequence) -> bool:
    """:func:`has_trivial_intersection` on elements of ``field``: the
    nonzero constants ``(i, j, k, c)`` of an n-dimensional algebra and the
    matrices of the forms."""
    vectors = (linalg.nullspace(_form_annihilator_rows(matrices, n), n, field)
               + linalg.nullspace(_annihilator_rows(constants), n, field))
    return linalg.rank(vectors) == len(vectors)


# ---------------------------------------------------------------------------
# Central extensions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Extension:
    base: Algebra
    cocycles: tuple[Cocycle, ...]
    result: Algebra


def central_extension(a: Algebra, thetas: Sequence[Cocycle]) -> Extension:
    """The (n+s)-dimensional algebra with products xy + sum_r theta_r(x,y) v_r.

    The new basis vectors v_r land in the annihilator of the result.
    """
    for theta in thetas:
        if not is_cocycle(a, theta):
            raise CocycleError("not a cocycle")
    n, s = a.dim, len(thetas)
    m = n + s
    grid = [[[sp.Integer(0)] * m for _ in range(m)] for _ in range(m)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                grid[i][j][k] = a.table[i][j][k]
            for r, theta in enumerate(thetas):
                grid[i][j][n + r] = theta.matrix[i][j]
    table = tuple(tuple(tuple(row) for row in plane) for plane in grid)
    syms = set(a.params)
    for theta in thetas:
        for row in theta.matrix:
            for x in row:
                syms |= (sp.sympify(x).free_symbols - {T})
    params = tuple(sorted(syms, key=str))
    result = Algebra(f"{a.name}_ext{s}", m, params, table, a.constraints)
    return Extension(a, tuple(thetas), result)


@dataclass(frozen=True)
class SplitExtension:
    quotient: Algebra
    cocycles: tuple[Cocycle, ...]
    basis_rows: tuple[Vector, ...]


def split_central_extension(a: Algebra, w_vectors: Sequence[Sequence]) -> SplitExtension:
    """Peel a central subspace W ⊆ Ann(A) off of A.

    Returns the quotient A/W presented on the complementary coordinates, the
    recovered cocycles, and the full change-of-basis rows (complement vectors
    first, then the W vectors).  Rebuilding with
    :func:`central_extension` reproduces A's constants in that basis.
    The table and W are converted into one field once.  W ⊆ Ann(A) is
    decided exactly on the annihilator's null vectors over that field, so
    every product with a W vector is zero in the new basis; the change of
    basis (:func:`novikov.algebras._rebased`) runs on the same elements, and
    only the quotient and cocycle entries are converted back.
    """
    n = a.dim
    w_rows = [[sp.cancel(sp.sympify(x)) for x in w] for w in w_vectors]
    s = len(w_rows)
    if s < 1:
        raise AlgebraError("W must have dimension >= 1")
    if any(len(w) != n for w in w_rows):
        raise AlgebraError(f"W vectors must have {n} entries")
    field, (table, w_elems) = linalg.to_field(a.table, w_rows)
    constants = nonzero_constants(table)
    ann = linalg.nullspace(_annihilator_rows(constants), n, field)
    w_sparse = linalg.sparse(w_elems)
    if linalg.rank(ann + w_sparse) > len(ann):
        raise AlgebraError("W not contained in Ann")
    pivots = linalg.rref(w_sparse)[1]
    if len(pivots) != s:
        raise AlgebraError("W vectors are dependent")
    complement = [j for j in range(n) if j not in pivots]
    units = [[field.one if k == j else field.zero for k in range(n)] for j in complement]
    new = _rebased(field, constants, units + w_elems)
    m = n - s
    new_table = [[[linalg.to_expr(field, x) for x in new[i][j]] for j in range(m)]
                 for i in range(m)]
    quot_table = tuple(tuple(tuple(new_table[i][j][k] for k in range(m))
                             for j in range(m)) for i in range(m))
    quotient = Algebra(f"{a.name}/W", m, a.params, quot_table, a.constraints)
    thetas = tuple(
        Cocycle(quotient, tuple(tuple(new_table[i][j][m + r] for j in range(m))
                                for i in range(m)))
        for r in range(s))
    rows = [basis_vector(n, j) for j in complement] + [tuple(w) for w in w_rows]
    return SplitExtension(quotient, thetas, tuple(rows))


# ---------------------------------------------------------------------------
# Automorphisms
# ---------------------------------------------------------------------------

def is_automorphism(a: Algebra, phi: Sequence[Sequence]) -> bool:
    """Check phi(e_i) phi(e_j) = phi(e_i e_j); columns of phi are the images.

    That holds exactly when the constants in the basis E_i = phi(e_i) are
    the constants themselves, so the check is one change of basis
    (:func:`novikov.algebras._change_basis`) compared on field elements.
    Symbols in phi (and remaining algebra parameters) are treated
    generically.  Raises :class:`SingularMatrixError` if phi is singular.
    """
    images = [[parse_scalar(x) for x in col] for col in zip(*phi)]
    _, new, (table,) = _change_basis(a.table, images, a.table)
    if new is None:
        raise SingularMatrixError("singular matrix")
    return new == table


# ---------------------------------------------------------------------------
# Verification of published coefficient-action formulas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ActionCase:
    """One base algebra with its automorphism template and action formulas.

    ``nablas`` are the tracked quotient-class representatives; ``alpha_star``
    gives the claimed transformed coefficients in terms of the coefficient
    variables and template entries.  ``matrix_reading`` optionally records
    raw conjugated-matrix entries published alongside, which may differ from
    the class coefficients by a coboundary.
    """

    case_id: str
    base: Algebra
    template: tuple[tuple[sp.Expr, ...], ...]
    template_vars: tuple[sp.Symbol, ...]
    invertibility: tuple[sp.Expr, ...]
    nablas: tuple[Cocycle, ...]
    coeff_vars: tuple[sp.Symbol, ...]
    alpha_star: tuple[sp.Expr, ...]
    matrix_reading: tuple[tuple[int, int, sp.Expr], ...] = ()
    note: str = ""


@dataclass
class ActionCaseReport:
    case_id: str
    samples: int
    class_formulas_ok: bool
    matrix_entries_ok: bool | None
    counterexample: dict | None
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.class_formulas_ok and (self.matrix_entries_ok is not False)

    def to_dict(self) -> dict:
        return {
            "case": self.case_id,
            "samples": self.samples,
            "class_formulas_ok": self.class_formulas_ok,
            "matrix_entries_ok": self.matrix_entries_ok,
            "counterexample": self.counterexample,
            "note": self.note,
            "passed": self.passed,
        }


def verify_action_formulas(case: ActionCase, samples: int = 20,
                           seed: int = DEFAULT_SEED) -> ActionCaseReport:
    """Check the published alpha -> alpha* formulas against direct conjugation.

    The template must be an automorphism of the base, generically.  The
    template, the nablas, alpha*, the recorded matrix entries and the
    base's coboundary slices are converted to one field, and theta = sum
    a^c nabla^c and its conjugate phi^T theta phi are formed on its
    elements.  One elimination of (coboundary slices | nablas | conj) over
    that field decomposes conj in the basis (B^2 | nablas): the nabla
    coordinates must equal the published class formulas and any recorded
    raw matrix entries the conjugated matrix, as field elements, so both
    verdicts are generic.  Only a failure draws sampled points (template
    kept invertible); the counterexample is the first of at most
    ``samples`` where a failing comparison's sides differ, poles skipped.
    """
    a = case.base
    n = a.dim
    if not is_automorphism(a, case.template):
        raise AlgebraError(f"{case.case_id}: template is not an automorphism")
    free_syms = list(case.template_vars) + list(case.coeff_vars) + list(a.params)
    # The template is polynomial, so its determinant at a point is the
    # generic determinant evaluated there.
    points = scalars.admissible_points(random.Random(seed), free_syms, [
        *case.invertibility, *a.constraints, linalg.det(case.template)])
    field, (phi, nablas, coeffs, alpha, reading, slices) = linalg.to_field(
        case.template, [nab.matrix for nab in case.nablas], case.coeff_vars,
        case.alpha_star, [entry for _, _, entry in case.matrix_reading],
        [c.matrix for c in coboundary_matrices(a)])
    theta = [[sum((c * nab[i][j] for c, nab in zip(coeffs, nablas)), field.zero)
              for j in range(n)] for i in range(n)]
    conj = [[sum((phi[p][l] * theta[p][q] * phi[q][m]
                  for p in range(n) for q in range(n) if theta[p][q]), field.zero)
             for m in range(n)] for l in range(n)]

    # The pivot slices span B^2, every nabla must be a pivot and conj must
    # not be, and conj's reduced column holds the coordinates.
    cols = [[x for row in m for x in row] for m in (*slices, *nablas, conj)]
    last = len(cols) - 1
    red, pivots = linalg.rref(linalg.sparse(zip(*cols)))
    nabla_cols = range(n, last)
    if last in pivots or any(c not in pivots for c in nabla_cols):
        raise AlgebraError(f"{case.case_id}: conjugated form left span(B2 | nablas)")
    got = [red[pivots.index(c)].get(last, field.zero) for c in nabla_cols]
    wrong_class = [({"formula_index": idx}, want, have, "class")
                   for idx, (want, have) in enumerate(zip(alpha, got)) if want != have]
    wrong_entries = [({"entry": [i, j]}, want, conj[i - 1][j - 1], "matrix")
                     for (i, j, _), want in zip(case.matrix_reading, reading)
                     if want != conj[i - 1][j - 1]]
    wrong = wrong_class + wrong_entries
    counterexample = None
    for assign in islice(points, samples) if wrong else ():
        try:
            const, (values,) = linalg.evaluate(
                field, assign, [(want, have) for _, want, have, _ in wrong])
        except ZeroDivisionError:       # a compared value has a pole here
            continue
        differ = [(w, want, have) for w, (want, have) in zip(wrong, values) if want != have]
        if differ:
            (where, _, _, reading_kind), want, have = differ[0]
            counterexample = {
                "assignment": {str(k): grammar_str(v) for k, v in assign.items()},
                **where,
                "expected": grammar_str(linalg.to_expr(const, want)),
                "actual": grammar_str(linalg.to_expr(const, have)),
                "reading": reading_kind,
            }
            break
    return ActionCaseReport(case.case_id, samples, not wrong_class,
                            not wrong_entries if case.matrix_reading else None,
                            counterexample, case.note)
