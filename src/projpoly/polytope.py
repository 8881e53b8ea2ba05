"""Exact conversions between inequality and vertex descriptions.

``h_to_v`` runs the double description method on the homogenization cone
{(x, t) : Ax - tb <= 0, t >= 0} with integer-scaled rows, primitive integer
rays, and the rank-based adjacency test.  ``v_to_h`` polarizes about the
vertex barycenter and reuses ``h_to_v``; both directions are exact.

Inequalities are inserted in cdd's "lexmin" order, lexicographic on the
integer rows (b, -a), after a greedy full-rank initial basis chosen in
the same order.  The order is a function of the input alone, so identical
inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .linalg import (
    QMatrix,
    affine_rank,
    clear_denominators,
    independent_rows,
    nonneg_solution,
    null_vector,
    rank,
    rank_int_rows,
    rank_rows,
)
from .rational import QQ

Point = tuple[Fraction, ...]


class PolytopeError(Exception):
    """Base class for representation-conversion failures."""


class EmptyPolytopeError(PolytopeError):
    pass


class UnboundedPolytopeError(PolytopeError):
    pass


class DegeneratePolytopeError(PolytopeError):
    pass


@dataclass(frozen=True)
class HPolytope:
    """Inequality description A x <= b with optional (block, index) row labels."""

    A: QMatrix
    b: tuple[Fraction, ...]
    labels: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self) -> None:
        if len(self.b) != self.A.rows:
            raise ValueError("right-hand side length does not match row count")
        if self.labels is not None and len(self.labels) != self.A.rows:
            raise ValueError("label count does not match row count")

    @property
    def dim(self) -> int:
        return self.A.cols

    @property
    def nrows(self) -> int:
        return self.A.rows


@dataclass(frozen=True)
class VPolytope:
    """Vertex list with per-vertex sets of tight row indices of the source system."""

    vertices: tuple[Point, ...]
    incidence: tuple[frozenset[int], ...]
    dim: int

    def __post_init__(self) -> None:
        if len(self.vertices) != len(self.incidence):
            raise ValueError("incidence count does not match vertex count")

    @property
    def nvertices(self) -> int:
        return len(self.vertices)


def _primitive(vec: Sequence[int]) -> tuple[int, ...]:
    g = 0
    for x in vec:
        g = math.gcd(g, x)
    if g <= 1:
        return tuple(vec)
    return tuple(x // g for x in vec)


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _dd_extreme_rays(rows: list[tuple[int, ...]]) -> tuple[list[tuple[int, ...]], list[int]]:
    """Extreme rays of the pointed cone {z : M z <= 0} over integer rows.

    Requires full column rank (the cone is pointed).  Returns primitive
    integer rays and, per ray, the bitmask of rows it satisfies with
    equality.
    """
    dim = len(rows[0])
    nrows = len(rows)

    # Rows are taken in cdd's "lexmin" order, which keeps the intermediate
    # ray sets small: lexicographic on (b, -a), cdd's layout of the row
    # (a, -b) here, so by right-hand side first.  First a greedy initial
    # basis, then the remaining rows one at a time.  Tight sets stay
    # indexed by original row.  Initial ray j is tight on every basis row
    # but the j-th, and strictly inside that one.
    keys = [tuple(-x for x in row[-1:] + row[:-1]) for row in rows]
    order = sorted(range(nrows), key=keys.__getitem__)
    basis_idx = [order[i] for i in independent_rows([rows[h] for h in order])]
    if len(basis_idx) < dim:
        raise ValueError("cone is not pointed (rows do not have full column rank)")
    rays: list[tuple[int, ...]] = []
    tights: list[int] = []
    for rj in basis_idx:
        others = [i for i in basis_idx if i != rj]
        ray = null_vector([rows[i] for i in others])
        if _dot(rows[rj], ray) > 0:
            ray = [-x for x in ray]
        rays.append(_primitive(ray))
        tights.append(sum(1 << i for i in others))

    in_basis = set(basis_idx)
    adjacency_rank = dim - 2
    for h in order:
        if h in in_basis:
            continue
        if not rays:
            break
        row = rows[h]
        vals = [_dot(row, r) for r in rays]
        plus = [i for i, v in enumerate(vals) if v > 0]
        if not plus:
            hbit = 1 << h
            for i, v in enumerate(vals):
                if v == 0:
                    tights[i] |= hbit
            continue
        minus = [i for i, v in enumerate(vals) if v < 0]
        new_rays: list[tuple[int, ...]] = []
        new_tights: list[int] = []
        hbit = 1 << h
        for p in plus:
            tp = tights[p]
            vp = vals[p]
            rp = rays[p]
            for q in minus:
                common = tp & tights[q]
                if common.bit_count() < adjacency_rank:
                    continue
                if rank_int_rows([rows[i] for i in _bits(common)]) != adjacency_rank:
                    continue
                vq = vals[q]
                rq = rays[q]
                combo = [vp * y - vq * x for x, y in zip(rp, rq)]
                new_rays.append(_primitive(combo))
                new_tights.append(common | hbit)
        kept_rays: list[tuple[int, ...]] = []
        kept_tights: list[int] = []
        for i, v in enumerate(vals):
            if v < 0:
                kept_rays.append(rays[i])
                kept_tights.append(tights[i])
            elif v == 0:
                kept_rays.append(rays[i])
                kept_tights.append(tights[i] | hbit)
        rays = kept_rays + new_rays
        tights = kept_tights + new_tights
    return rays, tights


def _column(m: QMatrix, j: int) -> list[Fraction]:
    return [row[j] for row in m.entries]


def _is_feasible(A: QMatrix, b: Sequence[Fraction]) -> bool:
    """Exact feasibility of {x : Ax <= b} via phase-1 on Ax + s = b, x free."""
    cols: list[list[Fraction]] = []
    for j in range(A.cols):
        col = _column(A, j)
        cols.append(col)
        cols.append([-x for x in col])
    for i in range(A.rows):
        cols.append([QQ(1) if k == i else QQ(0) for k in range(A.rows)])
    return nonneg_solution(cols, list(b)) is not None


def h_to_v(p: HPolytope) -> VPolytope:
    """Exact vertex enumeration of a bounded full-dimensional {x : Ax <= b}.

    Raises ``EmptyPolytopeError`` / ``UnboundedPolytopeError`` /
    ``DegeneratePolytopeError`` when the system is not such a polytope.
    """
    d = p.dim
    m = p.nrows
    if d == 0 or m == 0:
        raise DegeneratePolytopeError("degenerate")
    if rank(p.A) < d:
        if _is_feasible(p.A, p.b):
            raise UnboundedPolytopeError("unbounded")
        raise EmptyPolytopeError("empty")

    rows: list[tuple[int, ...]] = []
    for arow, bval in zip(p.A.entries, p.b):
        rows.append(clear_denominators(tuple(arow) + (-bval,)))
    rows.append(tuple([0] * d + [-1]))

    rays, tights = _dd_extreme_rays(rows)

    vertices: list[Point] = []
    incidence: list[frozenset[int]] = []
    saw_recession = False
    for ray, tight in zip(rays, tights):
        t = ray[d]
        if t == 0:
            saw_recession = True
            continue
        vertices.append(tuple(QQ(ray[i], t) for i in range(d)))
        incidence.append(frozenset(i for i in _bits(tight) if i < m))
    if not vertices:
        raise EmptyPolytopeError("empty")
    if saw_recession:
        raise UnboundedPolytopeError("unbounded")
    if affine_rank(vertices) < d:
        raise DegeneratePolytopeError("degenerate")
    return VPolytope(tuple(vertices), tuple(incidence), d)


@dataclass(frozen=True)
class HullResult:
    """Convex hull of a point set: irredundant facets plus extreme points.

    ``point_vertex[i]`` maps each deduplicated input point to its vertex
    index in ``v`` (None for non-extreme points); ``dedup_index[i]`` maps
    each original input point to its deduplicated index.
    """

    h: HPolytope
    v: VPolytope
    point_vertex: tuple[int | None, ...]
    dedup_index: tuple[int, ...]


def convex_hull(points: Sequence[Sequence[Fraction]]) -> HullResult:
    """Irredundant facet description and vertex set of conv(points).

    Translates the point barycenter to the origin (always interior for a
    full-dimensional set, exact in rational arithmetic) and enumerates the
    vertices of the polar, which are exactly the facets of the hull.
    """
    pts = [tuple(QQ(x) for x in p) for p in points]
    if not pts:
        raise DegeneratePolytopeError("degenerate")
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise ValueError("points have unequal lengths")

    seen: dict[Point, int] = {}
    unique: list[Point] = []
    dedup_index: list[int] = []
    for p in pts:
        if p not in seen:
            seen[p] = len(unique)
            unique.append(p)
        dedup_index.append(seen[p])

    if len(unique) < d + 1 or affine_rank(unique) < d:
        raise DegeneratePolytopeError("degenerate")

    center = tuple(sum(p[j] for p in unique) / len(unique) for j in range(d))
    shifted = [tuple(x - c for x, c in zip(p, center)) for p in unique]
    polar = HPolytope(QMatrix(tuple(shifted)), tuple(QQ(1) for _ in shifted))
    polar_v = h_to_v(polar)

    normals = polar_v.vertices
    rhs = tuple(QQ(1) + sum(a * c for a, c in zip(normal, center)) for normal in normals)
    hull_h = HPolytope(QMatrix(tuple(normals)), rhs)

    point_tight: list[set[int]] = [set() for _ in unique]
    for facet_idx, tight in enumerate(polar_v.incidence):
        for point_idx in tight:
            point_tight[point_idx].add(facet_idx)

    vertices: list[Point] = []
    incidence: list[frozenset[int]] = []
    point_vertex: list[int | None] = []
    for i, p in enumerate(unique):
        tight = point_tight[i]
        if tight and rank_rows([normals[j] for j in sorted(tight)]) == d:
            point_vertex.append(len(vertices))
            vertices.append(p)
            incidence.append(frozenset(tight))
        else:
            point_vertex.append(None)
    hull_v = VPolytope(tuple(vertices), tuple(incidence), d)
    return HullResult(hull_h, hull_v, tuple(point_vertex), tuple(dedup_index))


def v_to_h(points: Sequence[Sequence[Fraction]]) -> HPolytope:
    """Irredundant facet description of the convex hull of the given points."""
    return convex_hull(points).h


# --- canonical product structure --------------------------------------------


def product_labeling(
    v: VPolytope, labels: Sequence[tuple[int, int]] | None, n: int, r: int
) -> list[tuple[int, ...]] | None:
    """Vertex -> (t_1..t_r) tuple map of the canonical polygon-product model.

    In the canonical model the facet (k, i) contains vertex t iff
    t_k is i or i+1 (mod n); a simple vertex is tight on exactly two
    cyclically adjacent rows per block and nothing else.  Returns None when
    the incidence structure is not that of a product of r n-gons.
    """
    if labels is None:
        raise ValueError("row labels (block, index) are required")
    block_rows: dict[int, dict[int, int]] = {}
    for row_idx, (k, i) in enumerate(labels):
        block_rows.setdefault(k, {})[i] = row_idx
    if sorted(block_rows) != list(range(1, r + 1)):
        return None
    if any(sorted(rows) != list(range(n)) for rows in block_rows.values()):
        return None
    if v.nvertices != n**r:
        return None

    row_label = {row: lab for row, lab in enumerate(labels)}
    tuples: list[tuple[int, ...]] = []
    for tight in v.incidence:
        if len(tight) != 2 * r:
            return None
        per_block: dict[int, list[int]] = {}
        for row in tight:
            k, i = row_label[row]
            per_block.setdefault(k, []).append(i)
        if sorted(per_block) != list(range(1, r + 1)):
            return None
        t = []
        for k in range(1, r + 1):
            pair = sorted(per_block[k])
            if len(pair) != 2:
                return None
            a, b = pair
            if b == a + 1:
                t.append(b)
            elif a == 0 and b == n - 1:
                t.append(0)
            else:
                return None
        tuples.append(tuple(t))
    if len(set(tuples)) != n**r:
        return None
    return tuples


def product_isomorphic(v: VPolytope, labels: Sequence[tuple[int, int]] | None, n: int, r: int) -> bool:
    """True iff the vertex-facet incidences are those of a product of r n-gons."""
    return product_labeling(v, labels, n, r) is not None
