"""Independent brute-force oracles for freezing expected values.

Everything here is deliberately written from scratch over
``fractions.Fraction`` with naive elimination, so the main package (sympy
scalars, its own row reduction) is never in the loop when a test's expected
value is produced.  Algebras are dense 0-based tables ``tbl[i][j][k]``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


def rref_frac(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((rr for rr in range(r, len(m)) if m[rr][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for rr in range(len(m)):
            if rr != r and m[rr][c] != 0:
                f = m[rr][c]
                m[rr] = [a - f * b for a, b in zip(m[rr], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def rank_frac(rows):
    return len(rref_frac(rows)[1])


def nullspace_frac(rows, ncols):
    red, pivots = rref_frac(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def table(dim, products):
    """Dense table from 1-based sparse (i, j, k, coeff)."""
    tbl = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, k, c in products:
        tbl[i - 1][j - 1][k - 1] += Fraction(c)
    return tbl


def random_products(rng, n):
    """Seeded sparse 1-based products (i, j, k, coeff) of an n-dim table
    with small rational coefficients, about a fifth of them nonzero."""
    return [(i, j, k, Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2))))
            for i in range(1, n + 1) for j in range(1, n + 1)
            for k in range(1, n + 1) if rng.random() < 0.2]


def mult(tbl, x, y):
    n = len(tbl)
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n):
            if x[i] and y[j]:
                for k in range(n):
                    out[k] += x[i] * y[j] * tbl[i][j][k]
    return out


def basis_vec(n, i):
    return [Fraction(int(j == i)) for j in range(n)]


def annihilator_dim(tbl):
    n = len(tbl)
    rows = []
    for j in range(n):
        for k in range(n):
            rows.append([tbl[i][j][k] for i in range(n)])
            rows.append([tbl[j][i][k] for i in range(n)])
    return len(nullspace_frac(rows, n))


def derived_dims(tbl):
    n = len(tbl)
    powers = [[basis_vec(n, i) for i in range(n)]]
    dims = [n]
    while dims[-1] > 0:
        k = len(powers) + 1
        cands = []
        for p in range(1, k):
            for u in powers[p - 1]:
                for v in powers[k - p - 1]:
                    w = mult(tbl, u, v)
                    if any(w):
                        cands.append(w)
        red, piv = rref_frac(cands) if cands else ([], [])
        powers.append([red[r] for r in range(len(piv))])
        dims.append(len(piv))
        if dims[-1] == dims[-2] and dims[-1] > 0:
            break
    return dims


def _cocycle_rows(tbl):
    """The two defining conditions on every basis triple, as rows over
    vec(theta)."""
    n = len(tbl)
    rows = []
    for i, j, k in product(range(n), repeat=3):
        row1 = [Fraction(0)] * (n * n)
        row2 = [Fraction(0)] * (n * n)
        for l in range(n):
            row1[l * n + k] += tbl[i][j][l]
            row1[l * n + j] -= tbl[i][k][l]
            row2[l * n + k] += tbl[i][j][l] - tbl[j][i][l]
            row2[i * n + l] -= tbl[j][k][l]
            row2[j * n + l] += tbl[i][k][l]
        rows.extend([row1, row2])
    return rows


def _slices(tbl):
    n = len(tbl)
    return [[tbl[i][j][k] for i in range(n) for j in range(n)] for k in range(n)]


def cocycle_space_dims(tbl):
    """(dim Z2, dim B2) by literally expanding the two defining conditions
    on every basis triple and row-reducing."""
    z2 = len(nullspace_frac(_cocycle_rows(tbl), len(tbl) ** 2))
    b2 = rank_frac([s for s in _slices(tbl) if any(s)])
    return z2, b2


def h2_rep_count(tbl):
    """Number of Z2 basis vectors outside B2: dim(Z2 + B2) - dim B2.  It is
    dim Z2 - dim B2 when B2 lies in Z2, as it does for Novikov tables."""
    z2 = nullspace_frac(_cocycle_rows(tbl), len(tbl) ** 2)
    slices = [s for s in _slices(tbl) if any(s)]
    return rank_frac(z2 + slices) - rank_frac(slices)


def _derivation_rows(tbl):
    """Row (i, j, m) of D(e_i e_j) = D(e_i) e_j + e_i D(e_j) over the
    unknowns d_pq at column p*n + q; linear in the table's entries."""
    n = len(tbl)
    rows = []
    for i, j, m in product(range(n), repeat=3):
        row = [Fraction(0)] * (n * n)
        for k in range(n):
            row[k * n + m] += tbl[i][j][k]
        for p in range(n):
            row[i * n + p] -= tbl[p][j][m]
        for q in range(n):
            row[j * n + q] -= tbl[i][q][m]
        rows.append(row)
    return rows


def derivation_dim_frac(tbl):
    n = len(tbl)
    return n * n - rank_frac([row for row in _derivation_rows(tbl) if any(row)])


def derivation_dim_gaussian(re, im):
    """The derivation dimension over Q(i) of the table ``re + i*im`` (two
    tables of rationals).  The system is A + iB with A and B the systems
    of ``re`` and ``im``, and a complex matrix A + iB has half the rank of
    the rational matrix [[A, -B], [B, A]]."""
    n = len(re)
    a, b = _derivation_rows(re), _derivation_rows(im)
    rows = ([ra + [-x for x in rb] for ra, rb in zip(a, b)]
            + [rb + ra for ra, rb in zip(a, b)])
    return n * n - rank_frac(rows) // 2


def identity_flags(tbl):
    """(right-commutative, left-symmetric, Novikov, two-step) by expanding
    (e_i e_j) e_k and e_i (e_j e_k) for every basis triple."""
    n = len(tbl)
    e = [basis_vec(n, i) for i in range(n)]

    def left(i, j, k):
        return mult(tbl, mult(tbl, e[i], e[j]), e[k])

    def right(i, j, k):
        return mult(tbl, e[i], mult(tbl, e[j], e[k]))

    triples = list(product(range(n), repeat=3))
    right_comm = all(left(i, j, k) == left(i, k, j) for i, j, k in triples)
    # (x, y, z) = (xy)z - x(yz) is symmetric in x and y.
    left_sym = all(
        [a - b for a, b in zip(left(i, j, k), right(i, j, k))] ==
        [a - b for a, b in zip(left(j, i, k), right(j, i, k))]
        for i, j, k in triples)
    two_step = all(not any(left(*t)) and not any(right(*t)) for t in triples)
    return right_comm, left_sym, right_comm and left_sym, two_step


def is_cocycle_frac(tbl, theta):
    """Whether the bilinear form with matrix ``theta`` satisfies both
    defining conditions on every basis triple."""
    n = len(tbl)
    vec = [Fraction(theta[i][j]) for i in range(n) for j in range(n)]
    return all(sum(r * v for r, v in zip(row, vec)) == 0 for row in _cocycle_rows(tbl))
