"""Independent oracles for the test suite.

Everything here is deliberately implemented with different algorithms than
the library paths under test: plain Gaussian elimination instead of
fraction-free elimination, subset enumeration instead of double
description, and Caratheodory-style enumeration instead of simplex.
"""

from __future__ import annotations

from fractions import Fraction as QQ
from itertools import combinations


def gauss_solve(rows, rhs):
    """Solve a square rational system; None when singular."""
    n = len(rows)
    m = [list(map(QQ, row)) + [QQ(r)] for row, r in zip(rows, rhs)]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return None
        m[c], m[piv] = m[piv], m[c]
        pv = m[c][c]
        m[c] = [x / pv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [m[i][n] for i in range(n)]


def brute_force_vertices(a_rows, b):
    """All vertices of {x : Ax <= b} by enumerating d-row subsystems."""
    d = len(a_rows[0])
    verts = set()
    for subset in combinations(range(len(a_rows)), d):
        sol = gauss_solve([a_rows[i] for i in subset], [b[i] for i in subset])
        if sol is None:
            continue
        if all(sum(a * x for a, x in zip(row, sol)) <= rb for row, rb in zip(a_rows, b)):
            verts.add(tuple(sol))
    return verts


def row_reduce_rank(rows):
    """Plain fraction Gaussian-elimination rank."""
    m = [list(map(QQ, row)) for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rank = 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][c]
        m[rank] = [x / pv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def affine_rank_oracle(points):
    if not points:
        return -1
    base = points[0]
    return row_reduce_rank([[x - y for x, y in zip(p, base)] for p in points[1:]])


def _nonneg_combo_subset(vectors, subset, target, dim):
    """Unique solution of the subsystem on a linearly independent subset,
    if it is nonnegative and consistent."""
    cols = [vectors[i] for i in subset]
    # Solve sum(mu_j * cols[j]) == target by elimination on [cols^T | target].
    m = [[QQ(cols[j][i]) for j in range(len(cols))] + [QQ(target[i])] for i in range(dim)]
    k = len(cols)
    pivots = []
    row = 0
    for c in range(k):
        piv = next((i for i in range(row, dim) if m[i][c] != 0), None)
        if piv is None:
            return None
        m[row], m[piv] = m[piv], m[row]
        pv = m[row][c]
        m[row] = [x / pv for x in m[row]]
        for i in range(dim):
            if i != row and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[row])]
        pivots.append(c)
        row += 1
    for i in range(row, dim):
        if m[i][k] != 0:
            return None
    mu = [m[i][k] for i in range(k)]
    if any(x < 0 for x in mu):
        return None
    return mu


def in_cone(vectors, target, dim):
    """Is target a nonnegative combination of the vectors?

    Caratheodory: it suffices to search linearly independent subsets of
    size at most dim.
    """
    if all(x == 0 for x in target):
        return True
    for size in range(1, dim + 1):
        for subset in combinations(range(len(vectors)), size):
            if _nonneg_combo_subset(vectors, subset, target, dim) is not None:
                return True
    return False


def positively_spans_oracle(vectors, dim):
    """Condition (i) on the +-unit vectors: every one of them must be a
    nonnegative combination."""
    for j in range(dim):
        for sign in (1, -1):
            target = [QQ(sign) if i == j else QQ(0) for i in range(dim)]
            if not in_cone(vectors, target, dim):
                return False
    return True


def is_irredundant(h, vertices):
    """Every row must be tight at d affinely independent vertices."""
    d = h.dim
    for row, b in zip(h.A.entries, h.b):
        tight = [v for v in vertices if sum(a * x for a, x in zip(row, v)) == b]
        if affine_rank_oracle(tight) != d - 1:
            return False
    return True


def is_closed_under_intersection(lattice):
    """Pairwise closure check; quadratic, intended for small instances."""
    masks = [mask for mask, _ in lattice.faces]
    return all(a & b in lattice for a in masks for b in masks)


def poly_power_coeffs(n, r):
    """Coefficients of (1 + n t + n t^2)^r as a list of length 2r+1."""
    coeffs = [1]
    base = [1, n, n]
    for _ in range(r):
        out = [0] * (len(coeffs) + 2)
        for i, c in enumerate(coeffs):
            for j, bcoef in enumerate(base):
                out[i + j] += c * bcoef
        coeffs = out
    return coeffs
