"""Exact rational linear algebra and positive-span certificates.

Ranks run fraction-free (Bareiss) on denominator-cleared
integer rows, so no intermediate value is ever rounded.  Positive spanning
of d + 2 vectors in R^d (corank 2: every polygon input of the Projection
Lemma) is decided on their Gale dual by one elimination and a planar scan,
and either verdict carries an exactly checked witness (Davis 1954;
Ziegler, *Lectures on Polytopes*, ch. 6).  Other inputs get their positive dependence from an exact phase-1 simplex
with Bland's rule and a closed feasible region (coefficients are required
to be >= 1, so any feasible point is a strictly positive certificate).  The
simplex is fraction-free as well (integer pivoting in the manner of
Edmonds 1967 and Bareiss 1968): each equation is scaled to integers once,
each pivot is an integer cross-multiplication followed by division by the
row's gcd, and a ``Fraction`` is built only for the coefficients it returns.
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
    """A nonzero integer vector z with row . z == 0 for every row, given
    integer rows whose rank is below their length.

    Eliminating the transposed rows next to an identity block leaves the
    last row's leading part zero; its identity part is z.
    """
    k, length = len(rows), len(rows[0])
    aug = [[row[i] for row in rows] + [int(i == j) for j in range(length)] for i in range(length)]
    _bareiss(aug)
    return aug[-1][k:]


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
    carries no coefficients; from ``_gale`` it carries a ``normal`` y != 0
    with y . v >= 0 for every vector v, so no cone of them holds -y.
    """

    kind: str
    coefficients: tuple[Fraction, ...] | None = None
    normal: tuple[Fraction, ...] | None = None

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


def _open_half_plane(points: list[tuple[int, int]]) -> tuple[tuple[int, int] | None, dict[int, int]]:
    """Either z with z . p > 0 for every point p, and no weights; or no z,
    and weights mu >= 0, not all 0, on at most three points with
    sum(mu_i p_i) == 0 (Gordan's alternative).

    One pass keeps the extreme directions lo and hi of the points seen,
    0 <= angle(lo, hi) < pi, by integer cross products, and stops at a
    point in the opposite cone.
    """
    lo = hi = 0
    for i, (p0, p1) in enumerate(points):
        if not (p0 or p1):
            return None, {i: 1}
        (l0, l1), (h0, h1) = points[lo], points[hi]
        x, y = l0 * p1 - l1 * p0, p0 * h1 - p1 * h0  # p left of lo, right of hi
        if x > 0 > y:
            hi = i
        elif y > 0 > x:
            lo = i
        elif x < 0 or y < 0:
            # p = (y lo + x hi) / cross(lo, hi), with x, y <= 0.
            return None, {i: l0 * h1 - l1 * h0, lo: -y, hi: -x}
        elif not (x or y) and l0 * p0 + l1 * p1 < 0:
            return None, {i: -(l0 * p0 + l1 * p1), lo: p0 * p0 + p1 * p1}
    (l0, l1), (h0, h1) = points[lo], points[hi]
    # z . p = cross(lo, p) + cross(p, hi) when the cone is not a ray.
    return ((h1 - l1, l0 - h0) if l0 * h1 - l1 * h0 else (l0, l1)), {}


def _gale(vectors: Sequence[Sequence[Fraction]], equations: list[tuple[list[int], int]]) -> PositiveCertificate:
    """``positively_spans`` of k = d + 2 vectors in R^d, on the Gale dual.

    w_i is vector i in the equations' scaled coordinates, which keeps every
    dependence and sign.  Eliminating the rows [w_i | e_i] gives the rank;
    at rank d the identity parts g1, g2 of its last two rows span the
    dependences, and the z of ``_open_half_plane`` on the points
    (g1_i, g2_i) gives lambda = z1 g1 + z2 g2 > 0.  Else its weights mu are
    orthogonal to g1 and g2, so mu = W y with y . w_i = mu_i >= 0; under
    rank deficiency y is a null vector of W.  Both witnesses are checked.
    """
    k, d = len(vectors), len(equations)
    w = [[eq[i] for eq, _ in equations] for i in range(k)]
    rows = [wi + [int(i == j) for j in range(k)] for i, wi in enumerate(w)]
    if _bareiss(rows)[:d] != list(range(d)):
        y = null_vector(w)
    else:
        points = list(zip(rows[d][d:], rows[d + 1][d:]))
        z, mu = _open_half_plane(points)
        if z is not None:
            lam = [z[0] * a + z[1] * b for a, b in points]
            if min(lam) <= 0 or any(sum(map(mul, lam, eq)) for eq, _ in equations):
                raise RuntimeError("Gale dual returned an invalid dependence certificate")
            return PositiveCertificate("spanning", tuple(map(QQ, lam)))
        # Row t < d of the elimination is T_t [W | I], upper triangular in
        # W's part: back-substitute U y = T mu.
        y = [QQ(0)] * d
        for t in reversed(range(d)):
            row = rows[t]
            rhs = sum(row[d + i] * m for i, m in mu.items()) - sum(map(mul, row[t + 1 : d], y[t + 1 :]))
            y[t] = QQ(rhs, row[t])
        y = clear_denominators(y)
    if not any(y) or min(sum(map(mul, y, wi)) for wi in w) < 0:
        raise RuntimeError("Gale dual returned an invalid normal certificate")
    return PositiveCertificate("none", normal=tuple(QQ(x * scale) for x, (_, scale) in zip(y, equations)))


def positively_spans(vectors: Sequence[Sequence[Fraction]], dim: int) -> PositiveCertificate:
    """Spanning certificate: full rank plus positive dependence.

    A set positively spans iff it spans the space and is positively
    dependent; the certificate carries the dependence coefficients.  Sets
    of dim + 2 vectors go to ``_gale``; others take the rank of the integer
    equations, the transpose of the vectors, and the simplex.
    """
    equations = _equations(vectors, dim)
    if len(vectors) == dim + 2:
        return _gale(vectors, equations)
    if not vectors or rank_int_rows([row for row, _ in equations]) != dim:
        return PositiveCertificate("none")
    lam = _dependence(vectors, equations)
    if lam is None:
        return PositiveCertificate("none")
    return PositiveCertificate("spanning", lam)
