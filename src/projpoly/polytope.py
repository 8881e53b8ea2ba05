"""Exact conversions between inequality and vertex descriptions.

``h_to_v`` runs the double description method on the homogenization cone
{(x, t) : Ax - tb <= 0, t >= 0} with integer-scaled rows and primitive
integer rays.  ``convex_hull`` (and ``v_to_h``) enumerates the same way
the polar about the barycenter of the points, which are put on one
integer grid first: every point times the lcm of all denominators.
Distinct points, the barycenter and the polar's cone rows are all
integers, and a ``Fraction`` is built only when the facets are read as
rational rows (``HullResult.h``).  Both directions are exact.

Neither direction runs an extra rank computation around the DD.  Its
greedy initial basis decides whether the cone is pointed (for ``h_to_v``,
rank A = d; for ``convex_hull``, points that span affinely), and a
polytope is full-dimensional iff every row tight at all of its vertices
is 0 . x <= 0.

Adjacency is decided from incidences alone.  An index from each row to
the bitmask of rays tight on it finds, for each ray on the positive side
of a new row, the rays on the negative side that share at least dim - 2
tight rows with it (bit-sliced counters, no scan over all pairs).  Two
such rays are adjacent iff no third ray is tight on every row they share
(the combinatorial test of Fukuda and Prodon, "Double description method
revisited", 1996), which is exact for the extreme rays of a pointed cone.

An insertion's bookkeeping scales with the few rays that change, not
with the many that do not.  Each ray keeps the list of its tight rows,
and the counters, the adjacency test and a new ray's row index walk those
lists.  The masks of a new row's zero and positive rays are built from
those rays, and the negative rays are the live ones left.  The last third
ray that refuted a pair is tried first on the next pair, which it
refutes when it is tight on every row the pair shares.  When the ids
ever made exceed twice the live rays (plus 64), the live rays are
renumbered in id order, so the masks stay as wide as the live set and
the output order is unchanged.

Inequalities are inserted in cdd's "lexmin" order, lexicographic on the
integer rows (b, -a), after a greedy full-rank initial basis chosen in
the same order.  The order is a function of the input alone, so identical
inputs give bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from operator import mul
from typing import Sequence

from .linalg import (
    QMatrix,
    clear_denominators,
    independent_rows,
    nonneg_solution,
    null_vector,
    primitive,
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
    """Vertex list with, per vertex, the bitmask of its tight rows of the
    source system: bit j is set iff row j is tight."""

    vertices: tuple[Point, ...]
    incidence: tuple[int, ...]
    dim: int

    def __post_init__(self) -> None:
        if len(self.vertices) != len(self.incidence):
            raise ValueError("incidence count does not match vertex count")

    @property
    def nvertices(self) -> int:
        return len(self.vertices)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _dd_extreme_rays(rows: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]] | None:
    """Extreme rays of the pointed cone {z : M z <= 0} over integer rows.

    Returns primitive integer rays and, per ray, the bitmask of rows it
    satisfies with equality; None when the rows do not have full column
    rank (the cone is not pointed).
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
        return None

    # ``live`` lists the ids of the current rays in increasing order, so
    # after each insertion it is "kept rays, then new rays".  A dropped
    # ray's entries become None.  Per ray, ``tights`` is the bitmask of its
    # tight rows and ``trows`` the same rows as a list; ``holders[j]`` is
    # the bitmask of ray ids tight on row j (dropped ids included; every
    # use masks them out).
    rays: list[list[int] | None] = []
    tights: list[int | None] = []
    trows: list[list[int] | None] = []
    holders = [0] * nrows
    for rj in basis_idx:
        others = [i for i in basis_idx if i != rj]
        ray = null_vector([rows[i] for i in others])
        if sum(map(mul, rows[rj], ray)) > 0:
            ray = [-x for x in ray]
        rays.append(primitive(ray))
        tights.append(sum(1 << i for i in others))
        trows.append(others)
    alive = (1 << dim) - 1
    for j, rj in enumerate(basis_idx):
        holders[rj] = alive ^ (1 << j)
    live = list(range(dim))

    in_basis = set(basis_idx)
    # Two rays of the cone are adjacent only if they share at least
    # dim - 2 tight rows.
    threshold = dim - 2
    levels = range(threshold - 1, 0, -1)
    for h in order:
        if h in in_basis:
            continue
        if not live:
            break
        row = rows[h]
        hbit = 1 << h
        # The row's value on every live ray, in the order of ``live``.
        vals = [sum(map(mul, row, rays[i])) for i in live]
        plus: list[int] = []
        plus_mask = zero = 0
        for i, v in zip(live, vals):
            if v > 0:
                plus.append(i)
                plus_mask |= 1 << i
            elif not v:
                zero |= 1 << i
                tights[i] |= hbit
                trows[i].append(h)
        holders[h] = zero
        if not plus:
            continue
        # The minus rays are most of the live ones: take them as the rest.
        minus = alive ^ plus_mask ^ zero
        value = dict(zip(live, vals))
        first_new = len(rays)
        # The last third ray that refuted a pair: it refutes any later
        # pair whose shared rows it is tight on, without the AND chain.
        witness = None
        for p in plus:
            tp = tights[p]
            rows_p = trows[p]
            vp = value[p]
            rp = rays[p]
            # Candidates: the minus rays sharing at least ``threshold``
            # rows with p, from bit-sliced counters over p's rows
            # (at_least[k] holds the rays counted k + 1 times or more).
            if threshold:
                at_least = [0] * threshold
                for j in rows_p:
                    m = holders[j] & minus
                    for k in levels:
                        at_least[k] |= at_least[k - 1] & m
                    at_least[0] |= m
                candidates = at_least[-1]
            else:
                candidates = minus
            others = alive ^ (1 << p)
            for q in _bits(candidates):
                # Combinatorial adjacency test (Fukuda-Prodon 1996): p and
                # q are adjacent iff no third ray of the cone is tight on
                # every row the two share.
                tq = tights[q]
                common = tp & tq
                if witness not in (None, p, q) and not common & ~tights[witness]:
                    continue
                rest = others ^ (1 << q)
                shared = [j for j in rows_p if tq >> j & 1]
                for j in shared:
                    rest &= holders[j]
                    if not rest:
                        break
                if rest:
                    witness = (rest & -rest).bit_length() - 1
                    continue
                vq = value[q]
                rq = rays[q]
                bit = 1 << len(rays)
                rays.append(primitive([vp * y - vq * x for x, y in zip(rp, rq)]))
                tights.append(common | hbit)
                shared.append(h)
                trows.append(shared)
                for j in shared:
                    holders[j] |= bit
        for p in plus:
            rays[p] = tights[p] = trows[p] = None
        live = [i for i, v in zip(live, vals) if v <= 0]
        live.extend(range(first_new, len(rays)))
        alive = (alive ^ plus_mask) | ((1 << len(rays)) - (1 << first_new))
        if len(rays) > 2 * len(live) + 64:
            # Renumber the live rays by their position in ``live``, which
            # is also their id order, so the masks stay as narrow as the
            # live set.
            rays = [rays[i] for i in live]
            tights = [tights[i] for i in live]
            trows = [trows[i] for i in live]
            holders = [0] * nrows
            for i, rows_i in enumerate(trows):
                bit = 1 << i
                for j in rows_i:
                    holders[j] |= bit
            live = list(range(len(live)))
            alive = (1 << len(live)) - 1
    return [rays[i] for i in live], [tights[i] for i in live]


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


def _cone_rows(p: HPolytope) -> list[tuple[int, ...]]:
    """Integer rows (a, -b) of the homogenization cone of {x : Ax <= b},
    then the row of -t <= 0."""
    rows = [clear_denominators(tuple(arow) + (-bval,)) for arow, bval in zip(p.A.entries, p.b)]
    rows.append(tuple([0] * p.dim + [-1]))
    return rows


def h_to_v(p: HPolytope) -> VPolytope:
    """Exact vertex enumeration of a bounded full-dimensional {x : Ax <= b}.

    Raises ``EmptyPolytopeError`` / ``UnboundedPolytopeError`` /
    ``DegeneratePolytopeError`` when the system is not such a polytope.
    """
    d = p.dim
    m = p.nrows
    if d == 0 or m == 0:
        raise DegeneratePolytopeError("degenerate")
    rows = _cone_rows(p)
    dd = _dd_extreme_rays(rows)
    if dd is None:
        # The cone rows have full column rank iff rank A = d.
        if _is_feasible(p.A, p.b):
            raise UnboundedPolytopeError("unbounded")
        raise EmptyPolytopeError("empty")
    rays, tights = dd

    vertices: list[Point] = []
    incidence: list[int] = []
    saw_recession = False
    for ray, tight in zip(rays, tights):
        t = ray[d]
        if t == 0:
            saw_recession = True
            continue
        vertices.append(tuple(QQ(ray[i], t) for i in range(d)))
        incidence.append(tight & ((1 << m) - 1))
    if not vertices:
        raise EmptyPolytopeError("empty")
    if saw_recession:
        raise UnboundedPolytopeError("unbounded")
    # The affine hull of a nonempty polyhedron is cut out by the rows tight
    # on all of it, its implicit equalities (Schrijver, "Theory of Linear
    # and Integer Programming", 1986, section 8.2), so the vertices span
    # R^d iff every row tight at all of them is 0 . x <= 0.
    everywhere = -1
    for tight in tights:
        everywhere &= tight
    if any(any(rows[j]) for j in _bits(everywhere)):
        raise DegeneratePolytopeError("degenerate")
    return VPolytope(tuple(vertices), tuple(incidence), d)


@dataclass(frozen=True)
class HullResult:
    """Convex hull of a point set: irredundant facets plus extreme points.

    Facet j is ``planes[j]`` . h <= ``offsets[j]`` over the N distinct
    grid points g (``convex_hull``), centred as h = N * g - S with S =
    ``total``; ``denom`` is N * L.  Both maps are indexed by original
    input point, so equal points share their entries: ``point_vertex[i]``
    is the vertex index of point i in ``v`` (None for non-extreme points),
    and bit i of ``facet_points[j]`` is set when point i lies on facet j.
    """

    planes: tuple[tuple[int, ...], ...]
    offsets: tuple[int, ...]
    denom: int
    total: tuple[int, ...]
    v: VPolytope
    point_vertex: tuple[int | None, ...]
    facet_points: tuple[int, ...]

    @cached_property
    def h(self) -> HPolytope:
        """The facets as rows over the input points x = g / L, built when
        first read: with D = ``denom``, a . h <= b is (D a / b) . x <= (b + a . S) / b."""
        facets = list(zip(self.planes, self.offsets))
        normals = tuple(tuple(QQ(self.denom * x, b) for x in a) for a, b in facets)
        rhs = tuple(QQ(b + sum(map(mul, a, self.total)), b) for a, b in facets)
        return HPolytope(QMatrix(normals), rhs)


def _grid(points: Sequence[Sequence[Fraction]]) -> tuple[int, list[tuple[int, ...]]]:
    """The lcm L of the points' denominators, and each point times L."""
    scale = math.lcm(*(x.denominator for p in points for x in p))
    return scale, [tuple(x.numerator * (scale // x.denominator) for x in p) for p in points]


def convex_hull(points: Sequence[Sequence[Fraction]]) -> HullResult:
    """Irredundant facet description and vertex set of conv(points).

    Translates the point barycenter to the origin (always interior for a
    full-dimensional set) and enumerates the vertices of the polar, which
    are exactly the facets of the hull; the polar's incidences say which
    points lie on which facet, and so which points are vertices.

    Everything between the input and the facet rationals runs on one
    integer grid: the points times the lcm L of all their denominators.
    With N distinct grid points g_i, S = sum g_i and D = N * L, the
    barycenter is S / D, and polar row i, the primitive integer direction
    of (N * g_i - S, -D), is the cone row of (g_i / L - S / D) . y <= 1.
    """
    pts = [[QQ(x) for x in p] for p in points]
    if not pts:
        raise DegeneratePolytopeError("degenerate")
    d = len(pts[0])
    if any(len(p) != d for p in pts):
        raise ValueError("points have unequal lengths")
    if d == 0:
        raise DegeneratePolytopeError("degenerate")

    # Distinct grid points, each with its first input point and the
    # bitmask of input points equal to it.
    scale, keys = _grid(pts)
    seen: dict[tuple[int, ...], int] = {}
    first: list[int] = []
    copies: list[int] = []
    point_unique: list[int] = []
    for i, key in enumerate(keys):
        u = seen.setdefault(key, len(first))
        if u == len(first):
            first.append(i)
            copies.append(0)
        copies[u] |= 1 << i
        point_unique.append(u)

    grid = list(seen)
    count = len(grid)
    total = [sum(col) for col in zip(*grid)]
    denom = count * scale
    rows = [primitive([count * x - s for x, s in zip(g, total)] + [-denom]) for g in grid]
    rows.append([0] * d + [-1])
    # The cone rows have full column rank iff the points span R^d
    # affinely.  Then the polar is bounded and full-dimensional, so every
    # ray has t > 0.
    dd = _dd_extreme_rays(rows)
    if dd is None:
        raise DegeneratePolytopeError("degenerate")
    rays, tights = dd

    # Ray (y, t) is the facet y . h <= t * D over the centred grid points.
    planes = tuple(tuple(ray[:d]) for ray in rays)
    offsets = tuple(ray[d] * denom for ray in rays)

    every_point = (1 << count) - 1
    point_tight = [0] * count
    facet_points: list[int] = []
    facet_unique: list[int] = []
    for facet_idx, tight in enumerate(tights):
        unique_mask = tight & every_point
        mask = 0
        for point_idx in _bits(unique_mask):
            point_tight[point_idx] |= 1 << facet_idx
            mask |= copies[point_idx]
        facet_points.append(mask)
        facet_unique.append(unique_mask)

    # The facets through a distinct point cut out the smallest face
    # containing it.  That face is the convex hull of the input points on
    # it, so the point is a vertex iff it is the only distinct point there.
    vertices: list[Point] = []
    incidence: list[int] = []
    unique_vertex: list[int | None] = []
    for i, tight in enumerate(point_tight):
        face = -1
        for j in _bits(tight):
            face &= facet_unique[j]
        if face == 1 << i:
            unique_vertex.append(len(vertices))
            vertices.append(tuple(pts[first[i]]))
            incidence.append(tight)
        else:
            unique_vertex.append(None)
    hull_v = VPolytope(tuple(vertices), tuple(incidence), d)
    point_vertex = tuple(unique_vertex[u] for u in point_unique)
    return HullResult(planes, offsets, denom, tuple(total), hull_v, point_vertex, tuple(facet_points))


def v_to_h(points: Sequence[Sequence[Fraction]]) -> HPolytope:
    """Irredundant facet description of the convex hull of the given points."""
    return convex_hull(points).h


# --- canonical product structure --------------------------------------------


def product_labeling(
    v: VPolytope, labels: Sequence[tuple[int, int]] | None, n: int, r: int
) -> VPolytope | None:
    """``v``'s vertices in the canonical polygon-product model's code order:
    vertex c is the one whose tuple t has c = sum(t_k * n^(k-1)).

    In the canonical model the facet (k, i) contains vertex t iff t_k is i
    or i+1 (mod n); a simple vertex is tight on exactly two cyclically
    adjacent rows per block and nothing else.  Returns None unless the
    incidences are a product of r n-gons, so each code has one vertex.
    """
    if labels is None:
        raise ValueError("row labels (block, index) are required")
    if sorted(labels) != [(k, i) for k in range(1, r + 1) for i in range(n)] or v.nvertices != n**r:
        return None

    # A product vertex's tight labels, sorted, are two rows of each block
    # in turn: (k, a) and (k, b) with a < b.  Block k adds t_k at stride
    # n^(k-1) to the vertex's code.
    blocks = [k for k in range(1, r + 1) for _ in (0, 1)]
    strides = [n**k for k in range(r)]
    vertex = [-1] * n**r
    for i, tight in enumerate(v.incidence):
        pairs = sorted(labels[row] for row in _bits(tight))
        if [k for k, _ in pairs] != blocks:
            return None
        code = 0
        for (_, a), (_, b), stride in zip(pairs[::2], pairs[1::2], strides):
            if b == a + 1:
                code += b * stride
            elif a != 0 or b != n - 1:
                return None
        vertex[code] = i
    # n^r vertices fill the n^r codes only if no two share a code.
    if -1 in vertex:
        return None
    return VPolytope(tuple(v.vertices[i] for i in vertex), tuple(v.incidence[i] for i in vertex), v.dim)


def product_vertices(h: HPolytope, n: int, r: int) -> VPolytope | None:
    """The vertices of a block-triangular polygon-product system in code
    order, as ``product_labeling`` orders them, solved block by block and
    certified without a global computation; None when a clause fails.

    It runs only when the labels are exactly (k, i) for k = 1..r and i < n,
    and a row of block k is zero in the columns of every block after k.
    Vertex t is tight on rows (k, t_k - 1) and (k, t_k) of each block, and
    those rows fix its block x_k by one 2x2 solve given x_1 .. x_{k-1}.
    The code prefixes are walked depth by depth on integer homogeneous
    coordinates, n + n^2 + ... + n^r Cramer solves in all.  The certificate
    asks that every 2x2 determinant is nonzero and that every candidate is
    strictly inside every other row of its block.  A row of block k reads
    only x_1 .. x_k, so what depth k decides holds for every descendant.

    Why the candidates S are exactly P's vertices.  Each is a simple vertex
    tight on exactly its 2r rows.  Dropping row (k, t_k) leaves the line to
    the neighbour with t_k - 1, and dropping (k, t_k - 1) the line to t_k +
    1; each neighbour is in S and tight on the other 2r - 1 rows, so every
    edge at a vertex of S is bounded and ends in S.  An unbounded P would
    show an unbounded edge to the simplex method started in S, and the
    graph of a polytope is connected (Balinski 1961), so P is bounded and
    S is all of its vertices: local enumeration over the graph, as in
    reverse search (Avis and Fukuda 1992).  Conversely, when
    ``product_labeling(h_to_v(h), ...)`` is not None, every vertex is the
    solution of its 2r rows, whose block-triangular determinant is the
    product of the 2x2 ones, so the certificate holds.
    """
    if n < 3 or h.dim != 2 * r or sorted(h.labels or ()) != [
        (k, i) for k in range(1, r + 1) for i in range(n)
    ]:
        return None
    row_of = {label: j for j, label in enumerate(h.labels)}
    # Per block, per row i: (the row's nonzero entries before the block,
    # its two entries in the block, its right-hand side), all integers.
    blocks = []
    for k in range(r):
        block = []
        for i in range(n):
            j = row_of[(k + 1, i)]
            *a, b = clear_denominators(h.A.row(j) + (h.b[j],))
            if any(a[2 * k + 2 :]):
                return None
            block.append(([(c, x) for c, x in enumerate(a[: 2 * k]) if x], a[2 * k], a[2 * k + 1], b))
        blocks.append(block)

    # A candidate is (X, T, tight): its point X / T on the blocks fixed so
    # far and the bitmask of its tight rows.  Children go t-major, so each
    # level stays in code order.
    level: list[tuple[tuple[int, ...], int, int]] = [((), 1, 0)]
    levels = []
    for k, block in enumerate(blocks):
        # Each row's slack at each prefix, times its T, with x_k = 0.
        slack = [[b * T - sum(x * X[c] for c, x in prior) for prior, _, _, b in block]
                 for X, T, _ in level]
        children = []
        for t in range(n):
            p, q = (t - 1) % n, t
            _, p0, p1, _ = block[p]
            _, q0, q1, _ = block[q]
            det = p0 * q1 - p1 * q0
            if not det:
                return None
            d, sign = abs(det), 1 if det > 0 else -1
            others = [block[j][1:3] + (j,) for j in range(n) if j not in (p, q)]
            tight = 1 << row_of[(k + 1, p)] | 1 << row_of[(k + 1, q)]
            for (X, T, mask), s in zip(level, slack):
                # Cramer's rule over the common denominator T * d: rows p
                # and q are tight by construction.
                y0 = sign * (s[p] * q1 - s[q] * p1)
                y1 = sign * (p0 * s[q] - q0 * s[p])
                if any(s[j] * d <= v0 * y0 + v1 * y1 for v0, v1, j in others):
                    return None
                children.append((tuple(x * d for x in X) + (y0, y1), T * d, mask | tight))
        level = children
        levels.append(level)
    # Block k of a vertex is fixed by its depth-k prefix, so each block's
    # fractions are built once per prefix; child i has prefix i mod the
    # prefix count.
    points: list[Point] = [()]
    for depth in levels:
        pairs = [(QQ(X[-2], T), QQ(X[-1], T)) for X, T, _ in depth]
        points = [points[i % len(points)] + pair for i, pair in enumerate(pairs)]
    incidence = tuple(mask for _, _, mask in level)
    return VPolytope(tuple(points), incidence, 2 * r)
