"""Exact rational linear algebra and positive-span certificates.

Rank and determinant run fraction-free (Bareiss) on denominator-cleared
integer rows, so no intermediate value is ever rounded.  Positive-dependence
certificates come from an exact phase-1 simplex with Bland's rule and a
closed feasible region (coefficients are required to be >= 1, so any feasible
point is a strictly positive certificate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

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

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int | str | Fraction]]) -> "QMatrix":
        return cls(tuple(tuple(Fraction(x) for x in row) for row in rows))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def __str__(self) -> str:
        return "\n".join("  ".join(str(x) for x in row) for row in self.entries)


def clear_denominators(row: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational row by the lcm of its denominators (positive scale)."""
    scale = math.lcm(*(x.denominator for x in row))
    return tuple(x.numerator * (scale // x.denominator) for x in row)


def _bareiss(rows: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) forward elimination of integer rows, in place.

    Returns the pivot columns in order, which are the lexicographically
    first column basis, and the last pivot signed by the row swaps; for a
    nonsingular square input that is its determinant.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    sign = 1
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
            sign = -sign
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
    return pivots, sign * prev


def rank_int_rows(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank of integer rows (fraction-free elimination)."""
    return len(_bareiss([list(row) for row in rows])[0])


def rank_rows(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank of rational rows; per-row scaling clears denominators."""
    if not rows:
        return 0
    return rank_int_rows([clear_denominators(row) for row in rows])


def rank(m: QMatrix) -> int:
    """Exact rank via fraction-free elimination."""
    return rank_rows(m.entries)


def determinant(m: QMatrix) -> Fraction:
    """Exact determinant of a square matrix."""
    if not m.is_square:
        raise ValueError(f"determinant needs a square matrix, got {m.rows}x{m.cols}")
    scale = math.prod(math.lcm(*(x.denominator for x in row)) for row in m.entries)
    pivots, det = _bareiss([list(clear_denominators(row)) for row in m.entries])
    return QQ(det, scale) if len(pivots) == m.rows else QQ(0)


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
    return _bareiss([list(col) for col in zip(*rows)])[0]


def affine_rank(points: Sequence[Sequence[Fraction]]) -> int:
    """Dimension of the affine hull of a point set (-1 for the empty set)."""
    return affine_rank_int([clear_denominators((1, *p)) for p in points])


def affine_rank_int(hpoints: Sequence[Sequence[int]]) -> int:
    """Affine dimension of points given as integer rows (1, x), each up to
    a positive scale."""
    return len(_bareiss([list(p) for p in hpoints])[0]) - 1


# --- exact phase-1 simplex -------------------------------------------------


def nonneg_solution(
    vectors: Sequence[Sequence[Fraction]], target: Sequence[Fraction]
) -> tuple[Fraction, ...] | None:
    """Exact coefficients mu >= 0 with sum(mu_j * vectors[j]) == target.

    Phase-1 simplex over the rationals with Bland's rule (lowest index on
    both entering and leaving choices), hence deterministic and cycle-free.
    Returns None when the system is infeasible.
    """
    k = len(vectors)
    d = len(target)
    for v in vectors:
        if len(v) != d:
            raise ValueError("vector length does not match target length")
    if d == 0:
        return tuple(QQ(0) for _ in range(k))

    # Rows: structural columns, artificial identity, rhs; rhs made nonnegative.
    tableau: list[list[Fraction]] = []
    for i in range(d):
        row = [QQ(vectors[j][i]) for j in range(k)]
        rhs = QQ(target[i])
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
        for a in range(d):
            row.append(QQ(1) if a == i else QQ(0))
        row.append(rhs)
        tableau.append(row)
    basis = [k + i for i in range(d)]
    ncols = k + d

    # Objective: minimize the sum of artificials.  obj[j] holds the reduced
    # cost of column j; obj[-1] holds minus the current objective value.
    obj = [QQ(0)] * (ncols + 1)
    for j in range(ncols):
        obj[j] = (QQ(1) if j >= k else QQ(0)) - sum(tableau[i][j] for i in range(d))
    obj[ncols] = -sum(tableau[i][ncols] for i in range(d))

    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(d):
            coeff = tableau[i][enter]
            if coeff > 0:
                ratio = tableau[i][ncols] / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise RuntimeError("phase-1 simplex cannot be unbounded")
        pivot = tableau[leave][enter]
        tableau[leave] = [x / pivot for x in tableau[leave]]
        prow = tableau[leave]
        for i in range(d):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [x - f * y for x, y in zip(tableau[i], prow)]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [x - f * y for x, y in zip(obj, prow)]
        basis[leave] = enter

    if obj[ncols] != 0:
        return None
    mu = [QQ(0)] * k
    for i, var in enumerate(basis):
        if var < k:
            mu[var] = tableau[i][ncols]
    return tuple(mu)


# --- positive span / dependence certificates --------------------------------


@dataclass(frozen=True)
class PositiveCertificate:
    """Certificate for positive dependence or positive spanning.

    ``dependence``: all coefficients strictly positive, weighted row sum is
    the zero vector.  ``spanning``: the same plus full rank of the vector
    set.  ``none`` carries no coefficients.
    """

    kind: str
    coefficients: tuple[Fraction, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("spanning", "dependence", "none"):
            raise ValueError(f"unknown certificate kind {self.kind!r}")


def positive_dependence(vectors: Sequence[Sequence[Fraction]], dim: int) -> PositiveCertificate:
    """Strictly positive coefficients with zero weighted sum, if any exist.

    Solved as an exact phase-1 problem on lambda >= 1 (substituting
    mu = lambda - 1 keeps the region closed); any feasible point certifies
    strict positivity.
    """
    vecs = [tuple(QQ(x) for x in v) for v in vectors]
    for v in vecs:
        if len(v) != dim:
            raise ValueError("vector length does not match dim")
    if not vecs:
        return PositiveCertificate("none")
    target = tuple(-sum(v[i] for v in vecs) for i in range(dim))
    mu = nonneg_solution(vecs, target)
    if mu is None:
        return PositiveCertificate("none")
    lam = tuple(m + 1 for m in mu)
    for i in range(dim):
        total = sum(c * v[i] for c, v in zip(lam, vecs))
        if total != 0:
            raise RuntimeError("simplex returned an invalid dependence certificate")
    return PositiveCertificate("dependence", lam)


def positively_spans(vectors: Sequence[Sequence[Fraction]], dim: int) -> PositiveCertificate:
    """Spanning certificate: full rank plus positive dependence.

    A set positively spans iff it spans the space and is positively
    dependent; the certificate carries the dependence coefficients.
    """
    vecs = [tuple(QQ(x) for x in v) for v in vectors]
    if rank_rows(vecs) != dim:
        return PositiveCertificate("none")
    dep = positive_dependence(vecs, dim)
    if dep.kind == "none":
        return PositiveCertificate("none")
    return PositiveCertificate("spanning", dep.coefficients)
