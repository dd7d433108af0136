"""Independent Fraction reference for the ``sampled`` workload.

Written over ``fractions.Fraction`` with naive elimination, as in
``tests/oracle.py`` from which the elimination helpers are copied, so
neither sympy nor novikov is in the loop when an answer is checked.  Tables
are dense 0-based ``tbl[i][j][k]``; catalog constants are read straight from
``algebras.json`` and evaluated at the sampled point by a small evaluator
for the part of the expression grammar the catalog's constants use.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([()+\-*/^]))")


def evaluate(text: str, at: dict[str, Fraction]) -> Fraction:
    """Value of a rational expression over integers and assigned names."""
    toks = []
    pos = 0
    text = str(text).strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot evaluate {text!r}")
        toks.append(m.group(m.lastindex))
        pos = m.end()
    toks.append(None)
    i = 0

    def peek():
        return toks[i]

    def take():
        nonlocal i
        i += 1
        return toks[i - 1]

    def expr():
        v = term()
        while peek() in ("+", "-"):
            v = v + term() if take() == "+" else v - term()
        return v

    def term():
        v = factor()
        while peek() in ("*", "/"):
            v = v * factor() if take() == "*" else v / factor()
        return v

    def factor():
        if peek() == "-":
            take()
            return -factor()
        v = base()
        if peek() == "^":
            take()
            v = v ** int(factor())
        return v

    def base():
        tok = take()
        if tok == "(":
            v = expr()
            if take() != ")":
                raise ValueError(f"unbalanced {text!r}")
            return v
        if tok is not None and tok.isdigit():
            return Fraction(int(tok))
        if tok in at:
            return Fraction(at[tok])
        raise ValueError(f"unexpected {tok!r} in {text!r}")

    v = expr()
    if peek() is not None:
        raise ValueError(f"trailing input in {text!r}")
    return v


def table_at(entry: dict, at: dict[str, Fraction]):
    """Dense table of an ``algebras.json`` entry at a parameter point."""
    n = entry["dim"]
    tbl = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for p in entry["products"]:
        tbl[p["i"] - 1][p["j"] - 1][p["k"] - 1] += evaluate(p["c"], at)
    return tbl


def admissible(entry: dict, at: dict[str, Fraction]) -> bool:
    return all(evaluate(c, at) != 0 for c in entry["constraints_nonzero"])


# -- elimination (copied from tests/oracle.py) ------------------------------

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


def annihilator_rows(tbl):
    n = len(tbl)
    rows = []
    for j in range(n):
        for k in range(n):
            rows.append([tbl[i][j][k] for i in range(n)])
            rows.append([tbl[j][i][k] for i in range(n)])
    return rows


def cocycle_rows(tbl):
    """The two defining conditions on every basis triple, over vec(theta)."""
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


def coboundary_dim(tbl):
    n = len(tbl)
    slices = [[tbl[i][j][k] for i in range(n) for j in range(n)]
              for k in range(n)]
    return rank_frac([s for s in slices if any(s)])


def derivation_dim(tbl):
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
        if any(row):
            rows.append(row)
    return n * n - rank_frac(rows)


def identity_flags(tbl):
    """[right commutative, left symmetric, Novikov, two-step nilpotent]."""
    n = len(tbl)
    e = [basis_vec(n, i) for i in range(n)]
    rc = ls = two = True
    for i, j, k in product(range(n), repeat=3):
        ij_k = mult(tbl, tbl[i][j], e[k])
        i_jk = mult(tbl, e[i], tbl[j][k])
        rc = rc and ij_k == mult(tbl, tbl[i][k], e[j])
        ls = ls and [a - b for a, b in zip(ij_k, i_jk)] == \
            [a - b for a, b in zip(mult(tbl, tbl[j][i], e[k]),
                                   mult(tbl, e[j], tbl[i][k]))]
        two = two and not any(ij_k) and not any(i_jk)
    return [rc, ls, rc and ls, two]


def profile(tbl) -> dict:
    """Everything an instance of the ``sampled`` workload is checked against."""
    n = len(tbl)
    z2 = n * n - rank_frac(cocycle_rows(tbl))
    b2 = coboundary_dim(tbl)
    return {"identities": identity_flags(tbl),
            "derived_dims": derived_dims(tbl),
            "ann_dim": n - rank_frac(annihilator_rows(tbl)),
            "der_dim": derivation_dim(tbl),
            "cohomology_dims": [z2, b2, z2 - b2]}


def is_basis_of_kernel(vectors, rows, dim) -> bool:
    """True when ``vectors`` are independent, solve ``rows`` and number
    ``dim`` -- i.e. they are a basis of the kernel of ``rows``."""
    if len(vectors) != dim:
        return False
    for v in vectors:
        if any(sum(a * x for a, x in zip(row, v)) != 0 for row in rows):
            return False
    return rank_frac(vectors) == dim if vectors else True

