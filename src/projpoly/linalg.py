"""Exact rational linear algebra and positive-span certificates.

Ranks run fraction-free (Bareiss) on denominator-cleared
integer rows, so no intermediate value is ever rounded.  Positive-dependence
certificates come from an exact phase-1 simplex with Bland's rule and a
closed feasible region (coefficients are required to be >= 1, so any feasible
point is a strictly positive certificate).  The simplex is fraction-free as
well (integer pivoting in the manner of Edmonds 1967 and Bareiss 1968): each
equation is scaled to integers once, each pivot is an integer
cross-multiplication followed by division by the row's gcd, and a
``Fraction`` is built only for the coefficients it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .rational import QQ

Vector = tuple[Fraction, ...]


@dataclass(frozen=True)
class QMatrix:
    """Dense exact-rational matrix; entries are immutable row tuples."""

    entries: tuple[Vector, ...]

    def __post_init__(self) -> None:
        widths = {len(row) for row in self.entries}
        if len(widths) > 1:
            raise ValueError("matrix rows have unequal lengths")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def row(self, i: int) -> Vector:
        return self.entries[i]


def _scaled_row(entries: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer row and its positive scale: the entries times the lcm of
    their denominators."""
    scale = math.lcm(*(x.denominator for x in entries))
    return [x.numerator * (scale // x.denominator) for x in entries], scale


def clear_denominators(row: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational row by the lcm of its denominators (positive scale)."""
    return tuple(_scaled_row(row)[0])


def _bareiss(rows: list[list[int]]) -> list[int]:
    """Fraction-free (Bareiss) forward elimination of integer rows, in place.

    Returns the pivot columns in order, which are the lexicographically
    first column basis.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    prev = 1
    for c in range(ncols):
        if r == nrows:
            break
        piv = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
        pivval = rows[r][c]
        for i in range(r + 1, nrows):
            ric = rows[i][c]
            if ric == 0 and pivval == prev:
                continue
            rowi = rows[i]
            rowr = rows[r]
            for j in range(c + 1, ncols):
                rowi[j] = (pivval * rowi[j] - ric * rowr[j]) // prev
            rowi[c] = 0
        prev = pivval
        pivots.append(c)
        r += 1
    return pivots


def rank_int_rows(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank of integer rows (fraction-free elimination)."""
    return len(_bareiss([list(row) for row in rows]))


def rank_rows(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank of rational rows; per-row scaling clears denominators."""
    if not rows:
        return 0
    return rank_int_rows([clear_denominators(row) for row in rows])


def null_vector(rows: Sequence[Sequence[int]]) -> list[int]:
    """A nonzero integer vector z with row . z == 0 for every row, given k
    integer rows of length k + 1 and rank k.

    Eliminating the transposed rows next to an identity block leaves one
    row whose leading part vanishes; its identity part is z.
    """
    k = len(rows)
    aug = [[row[i] for row in rows] + [int(i == j) for j in range(k + 1)] for i in range(k + 1)]
    _bareiss(aug)
    return aug[k][k:]


def independent_rows(rows: Sequence[Sequence[int]]) -> list[int]:
    """Indices of the greedy row basis: each row that is independent of
    the rows before it."""
    return _bareiss([list(col) for col in zip(*rows)])


def primitive(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries (the row itself when that
    gcd is 0 or 1)."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


# --- exact phase-1 simplex -------------------------------------------------


def nonneg_solution(
    vectors: Sequence[Sequence[Fraction]], target: Sequence[Fraction]
) -> tuple[Fraction, ...] | None:
    """Exact coefficients mu >= 0 with sum(mu_j * vectors[j]) == target.

    Phase-1 simplex with Bland's rule (lowest index on both entering and
    leaving choices), hence deterministic and cycle-free.  Returns None when
    the system is infeasible.

    The tableau is fraction-free.  Equation i is scaled by the lcm s_i of
    its denominators and its artificial column gets the entry s_i, so the
    artificial variables, the phase-1 objective and every rational tableau
    B^-1 A are those of the plain rational simplex.  Each integer row stands
    for its rational row divided by the row's (positive) entry in its basic
    column.  A pivot on column e of row l replaces every other row by
    ``p * row - row[e] * row_l`` with ``p = row_l[e] > 0`` and divides out
    the gcd; the objective row, whose scale never matters because only the
    signs of its entries are read, is updated the same way.  Ratio tests
    and their ties compare integers by cross-multiplication, and mu is read
    as ``rhs / basic entry`` at the end.
    """
    k = len(vectors)
    d = len(target)
    for v in vectors:
        if len(v) != d:
            raise ValueError("vector length does not match target length")
    if d == 0:
        return tuple(QQ(0) for _ in range(k))

    # Rows: structural columns, artificial column scale * e_i, rhs; rhs made
    # nonnegative.
    tableau: list[list[int]] = []
    scales: list[int] = []
    for i in range(d):
        row, scale = _scaled_row([v[i] for v in vectors] + [target[i]])
        if row[-1] < 0:
            row = [-x for x in row]
        row[k:k] = [scale if a == i else 0 for a in range(d)]
        tableau.append(row)
        scales.append(scale)
    basis = [k + i for i in range(d)]
    ncols = k + d

    # Objective: minimize the sum of artificials.  obj[j] is a positive
    # multiple of the reduced cost of column j; obj[-1] is the same multiple
    # of minus the current objective value.  The artificial columns start at
    # reduced cost 1 - 1 = 0.
    common = math.lcm(*scales)
    obj = [0] * (ncols + 1)
    for row, scale in zip(tableau, scales):
        w = common // scale
        for j in (*range(k), ncols):
            obj[j] -= w * row[j]
    obj = primitive(obj)

    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            break
        leave = -1
        best_rhs = best_coeff = 0
        for i, row in enumerate(tableau):
            coeff = row[enter]
            if coeff > 0:
                if leave < 0:
                    leave, best_rhs, best_coeff = i, row[ncols], coeff
                    continue
                # row[ncols] / coeff against best_rhs / best_coeff.
                lhs, rhs = row[ncols] * best_coeff, best_rhs * coeff
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, best_rhs, best_coeff = i, row[ncols], coeff
        if leave < 0:
            raise RuntimeError("phase-1 simplex cannot be unbounded")
        prow = tableau[leave]
        pivot = prow[enter]
        for i, row in enumerate(tableau):
            f = row[enter]
            if i != leave and f != 0:
                tableau[i] = primitive([pivot * x - f * y for x, y in zip(row, prow)])
        f = obj[enter]
        obj = primitive([pivot * x - f * y for x, y in zip(obj, prow)])
        basis[leave] = enter

    if obj[ncols] != 0:
        return None
    mu = [QQ(0)] * k
    for row, var in zip(tableau, basis):
        if var < k:
            mu[var] = QQ(row[ncols], row[var])
    return tuple(mu)


# --- positive span / dependence certificates --------------------------------


@dataclass(frozen=True)
class PositiveCertificate:
    """Certificate for positive spanning.

    ``spanning``: full rank of the vector set, and strictly positive
    coefficients whose weighted row sum is the zero vector.  ``none``
    carries no coefficients.
    """

    kind: str
    coefficients: tuple[Fraction, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("spanning", "none"):
            raise ValueError(f"unknown certificate kind {self.kind!r}")


def _equations(vectors: Sequence[Sequence[Fraction]], dim: int) -> list[tuple[list[int], int]]:
    """Equation i of sum(c_j * vectors[j]) == 0: coordinate i of every
    vector as an integer row, with the positive scale that cleared it."""
    for v in vectors:
        if len(v) != dim:
            raise ValueError("vector length does not match dim")
    return [_scaled_row([v[i] for v in vectors]) for i in range(dim)]


def _dependence(
    vectors: Sequence[Sequence[Fraction]], equations: list[tuple[list[int], int]]
) -> tuple[Fraction, ...] | None:
    """Strictly positive coefficients with zero weighted sum of nonempty
    vectors, given their equations; None if there are none.

    Solved as an exact phase-1 problem on lambda >= 1 (substituting
    mu = lambda - 1 keeps the region closed); any feasible point certifies
    strict positivity.
    """
    # The target -sum(vectors) has, in equation i, a denominator dividing
    # the equation's scale, so the simplex scales each equation as here.
    target = [QQ(-sum(row), scale) for row, scale in equations]
    mu = nonneg_solution(vectors, target)
    if mu is None:
        return None
    lam = tuple(m + 1 for m in mu)
    # Exact self-check on the integer equations, with lam cleared too.
    weights, _ = _scaled_row(lam)
    for row, _ in equations:
        if sum(map(mul, weights, row)) != 0:
            raise RuntimeError("simplex returned an invalid dependence certificate")
    return lam


def positively_spans(vectors: Sequence[Sequence[Fraction]], dim: int) -> PositiveCertificate:
    """Spanning certificate: full rank plus positive dependence.

    A set positively spans iff it spans the space and is positively
    dependent; the certificate carries the dependence coefficients.  The
    rank is that of the integer equations, the transpose of the vectors.
    """
    equations = _equations(vectors, dim)
    if not vectors or rank_int_rows([row for row, _ in equations]) != dim:
        return PositiveCertificate("none")
    lam = _dependence(vectors, equations)
    if lam is None:
        return PositiveCertificate("none")
    return PositiveCertificate("spanning", lam)
