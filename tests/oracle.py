"""Independent oracles for the test suite.

Everything here is deliberately implemented with different algorithms than
the library paths under test: plain Gaussian elimination instead of
fraction-free elimination, subset enumeration instead of double
description, Caratheodory-style enumeration instead of simplex, a
rank test instead of the combinatorial adjacency test of the double
description method, a ``Fraction`` tableau instead of the integer
simplex, a ``Fraction`` polar instead of the integer grid of the
convex hull, a face lattice whose top level compares every facet with every
other instead of the closure test, counting identities that scan every
2-face for every facet instead of reading the lattice's covers, one
enumerator per kind of product face (edges from each vertex's +1 neighbors)
instead of ``projection.product_polygons`` and the polygon cycles verify
reads edges from, one certificate LP per face instead of the checker's
memo, and the product's vertices from the double description method and
their incidences instead of block-by-block solves.

It also holds the small builders several tests share: ``qmatrix``, the
block-diagonal ``build_plain_product`` with its polygon check
``validate_polygon`` (an orientation scan instead of the construction
gates' product certificate), Euler's relation on a lattice and
``product_tuples``, the tuple of each vertex code, which is the labeling
the per-kind enumerators take.
"""

from __future__ import annotations

from fractions import Fraction as QQ
from functools import cache, reduce
from itertools import combinations
from itertools import product as iter_product
from math import lcm
from operator import and_
from random import Random

from projpoly.construction import ZERO2, ConstructionError, require_r
from projpoly.lattice import LatticeError
from projpoly.linalg import (
    QMatrix,
    clear_denominators,
    independent_rows,
    null_vector,
    positively_spans,
    primitive,
    rank_int_rows,
)
from projpoly.metrics import CountingError, CountingReport
from projpoly.polytope import (
    HPolytope,
    HullResult,
    PolytopeError,
    VPolytope,
    h_to_v,
    product_labeling,
)
from projpoly.projection import ProductFace


def qmatrix(rows):
    """A ``QMatrix`` of ``Fraction(x)`` for each entry x of each row."""
    return QMatrix(tuple(tuple(QQ(x) for x in row) for row in rows))


def validate_polygon(V, b):
    """Is {x : Vx <= b} a correct description of an n-gon?

    Requires nonzero, pairwise distinct rows that positively span the
    plane, strictly positive right-hand sides, and the rescaled rows
    (1/b_i) v_i in strict convex position (all cyclically consecutive
    orientation determinants nonzero and of one sign), so the polygon has
    exactly n vertices and no redundant rows.  The construction gates
    decide this with the first block's product certificate instead.
    """
    if V.cols != 2:
        raise ValueError(f"polygon block must have 2 columns, got {V.cols}")
    n = V.rows
    if len(b) != n:
        raise ValueError("right-hand side length does not match row count")
    if n < 3:
        return False
    rows = [tuple(row) for row in V.entries]
    if any(row == (0, 0) for row in rows):
        return False
    if len(set(rows)) != n:
        return False
    b = [QQ(x) for x in b]
    if any(x <= 0 for x in b):
        return False
    if not positively_spans_oracle(rows, 2):
        return False
    scaled = [(row[0] / bi, row[1] / bi) for row, bi in zip(rows, b)]
    orientation = 0
    for i in range(n):
        p, q, s = scaled[i], scaled[(i + 1) % n], scaled[(i + 2) % n]
        det = (q[0] - p[0]) * (s[1] - p[1]) - (q[1] - p[1]) * (s[0] - p[0])
        if det == 0:
            return False
        side = 1 if det > 0 else -1
        if orientation == 0:
            orientation = side
        elif side != orientation:
            return False
    return True


def build_plain_product(n, r, polygon, rhs):
    """Block-diagonal system of r copies of a validated polygon description."""
    require_r(r)
    if polygon.rows != n or polygon.cols != 2:
        raise ConstructionError(f"polygon block must be {n}x2, got {polygon.rows}x{polygon.cols}")
    if len(rhs) != n:
        raise ConstructionError("right-hand side length does not match the polygon block")
    rhs = tuple(QQ(x) for x in rhs)
    if not validate_polygon(polygon, rhs):
        raise ConstructionError("polygon description is not valid")
    rows, out_rhs, labels = [], [], []
    for k in range(1, r + 1):
        for i in range(n):
            segments = [polygon.row(i) if j == k else ZERO2 for j in range(1, r + 1)]
            rows.append(tuple(x for seg in segments for x in seg))
            out_rhs.append(rhs[i])
            labels.append((k, i))
    return HPolytope(QMatrix(tuple(rows)), tuple(out_rhs), tuple(labels))


def euler_ok(lattice):
    """Euler's relation: the alternating f-vector sum telescopes to
    1 - (-1)^d."""
    total = sum(f if i % 2 == 0 else -f for i, f in enumerate(lattice.f_vector()))
    return total == 1 - (-1) ** lattice.dim


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


def determinant_oracle(rows):
    """Determinant of a square rational matrix by plain Gaussian
    elimination, tracking row swaps and pivots."""
    m = [list(map(QQ, row)) for row in rows]
    n = len(m)
    det = QQ(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return QQ(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        pv = m[c][c]
        det *= pv
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] / pv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


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


@cache
def span_oracle_cases():
    """200 random vector sets with the verdict of ``positively_spans_oracle``
    on each, as ``(vectors, dim, spans)``.

    The subset-enumeration oracle is slow, so its verdicts are computed once
    per test run for every test that compares against them.
    """
    rng = Random(20260810)
    cases = []
    for _ in range(200):
        dim = rng.randint(1, 4)
        count = rng.randint(1, 8)
        vectors = [tuple(QQ(rng.randint(-5, 5)) for _ in range(dim)) for _ in range(count)]
        cases.append((vectors, dim, positively_spans_oracle(vectors, dim)))
    return tuple(cases)


def nonneg_solution_oracle(vectors, target):
    """Exact coefficients mu >= 0 with sum(mu_j * vectors[j]) == target,
    or None when infeasible.

    The phase-1 simplex that ``linalg.nonneg_solution`` replaced: the same
    Bland's rule on a ``Fraction`` tableau with unit artificial columns and
    a division by the pivot in every step.  The integer tableau must reach
    the same basis and the same coefficients.
    """
    k = len(vectors)
    d = len(target)
    for v in vectors:
        if len(v) != d:
            raise ValueError("vector length does not match target length")
    if d == 0:
        return tuple(QQ(0) for _ in range(k))

    # Rows: structural columns, artificial identity, rhs; rhs made nonnegative.
    tableau = []
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


def _fraction_polar(points):
    """Distinct points as ``Fraction`` tuples in input order, their
    barycenter, and the points shifted by it."""
    unique = list(dict.fromkeys(tuple(QQ(x) for x in p) for p in points))
    d = len(unique[0])
    center = tuple(sum(p[j] for p in unique) / len(unique) for j in range(d))
    shifted = tuple(tuple(x - c for x, c in zip(p, center)) for p in unique)
    return unique, center, shifted


def polar_rows_oracle(points):
    """The DD input rows of conv(points) from the ``Fraction`` front end
    that ``polytope.convex_hull`` replaced: the polar {a : a . (p - c) <= 1}
    about the barycenter c of the distinct points, each cone row
    (p - c, -1) cleared of denominators, then the row of -t <= 0."""
    _, center, shifted = _fraction_polar(points)
    return [clear_denominators(s + (QQ(-1),)) for s in shifted] + [(0,) * len(center) + (-1,)]


def convex_hull_oracle(points):
    """``polytope.convex_hull`` as it was before its integer grid: the
    ``Fraction`` polar through ``h_to_v``, facet right-hand sides
    1 + a . c, and the point maps from the polar's incidences.  Returns
    the ``HullResult``, its facets put in integer form, and those facets
    as the ``Fraction`` rows a . x <= 1 + a . c."""
    pts = [tuple(QQ(x) for x in p) for p in points]
    unique, center, shifted = _fraction_polar(pts)
    d = len(center)
    polar = h_to_v(HPolytope(QMatrix(shifted), (QQ(1),) * len(shifted)))
    rhs = tuple(1 + sum(a * c for a, c in zip(normal, center)) for normal in polar.vertices)
    index = {p: i for i, p in enumerate(unique)}
    polar_sets = [set(_bits(tight)) for tight in polar.incidence]
    point_facets = [{j for j, tight in enumerate(polar_sets) if i in tight} for i in range(len(unique))]
    facet_points = tuple(
        sum(1 << k for k, p in enumerate(pts) if index[p] in tight) for tight in polar_sets
    )
    vertices, incidence, unique_vertex = [], [], []
    for i, p in enumerate(unique):
        # p is a vertex iff it is the only distinct point on every facet through it
        face = set(range(len(unique)))
        for j in point_facets[i]:
            face &= polar_sets[j]
        if face == {i}:
            unique_vertex.append(len(vertices))
            vertices.append(p)
            incidence.append(sum(1 << j for j in point_facets[i]))
        else:
            unique_vertex.append(None)
    # With L the lcm of the denominators, N distinct points and S the sum
    # of the points times L, a . x <= 1 + a . c is y . (N L x - S) <= t N L
    # for (y, t) the primitive integer direction of (a, 1).
    scale = lcm(*(x.denominator for p in unique for x in p))
    denom = len(unique) * scale
    rays = [primitive(list(clear_denominators(normal + (QQ(1),)))) for normal in polar.vertices]
    hull = HullResult(
        tuple(tuple(ray[:d]) for ray in rays),
        tuple(ray[d] * denom for ray in rays),
        denom,
        tuple(int(sum(col) * scale) for col in zip(*unique)),
        VPolytope(tuple(vertices), tuple(incidence), d),
        tuple(unique_vertex[index[p]] for p in pts),
        facet_points,
    )
    return hull, HPolytope(QMatrix(polar.vertices), rhs)


def is_irredundant(h, vertices):
    """Every row must be tight at d affinely independent vertices."""
    d = h.dim
    for row, b in zip(h.A.entries, h.b):
        tight = [v for v in vertices if sum(a * x for a, x in zip(row, v)) == b]
        if affine_rank_oracle(tight) != d - 1:
            return False
    return True


def lattice_faces(lattice):
    """Every face of ``lattice`` mapped to its dimension, by dimension and
    then by mask, read through ``faces_of_dim``."""
    return {mask: k for k in range(-1, lattice.dim + 1) for mask in lattice.faces_of_dim(k)}


def is_closed_under_intersection(lattice):
    """Pairwise closure check; quadratic, intended for small instances."""
    masks = list(lattice_faces(lattice))
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


def _bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def dd_rank_oracle(rows):
    """Extreme rays and tight-row masks of {z : M z <= 0}, in the order of
    ``polytope._dd_extreme_rays``: the same insertion order and initial
    basis, but every plus x minus pair is scanned and two rays are adjacent
    iff the rows tight on both have rank dim - 2."""
    dim = len(rows[0])
    keys = [tuple(-x for x in row[-1:] + row[:-1]) for row in rows]
    order = sorted(range(len(rows)), key=keys.__getitem__)
    basis_idx = [order[i] for i in independent_rows([rows[h] for h in order])]
    if len(basis_idx) < dim:
        raise ValueError("cone is not pointed (rows do not have full column rank)")
    rays, tights = [], []
    for rj in basis_idx:
        others = [i for i in basis_idx if i != rj]
        ray = null_vector([rows[i] for i in others])
        if sum(a * x for a, x in zip(rows[rj], ray)) > 0:
            ray = [-x for x in ray]
        rays.append(primitive(ray))
        tights.append(sum(1 << i for i in others))
    for h in order:
        if h in basis_idx or not rays:
            continue
        hbit = 1 << h
        vals = [sum(a * x for a, x in zip(rows[h], ray)) for ray in rays]
        new_rays, new_tights = [], []
        for p, vp in enumerate(vals):
            if vp <= 0:
                continue
            for q, vq in enumerate(vals):
                if vq >= 0:
                    continue
                common = tights[p] & tights[q]
                if common.bit_count() < dim - 2:
                    continue
                if rank_int_rows([rows[i] for i in _bits(common)]) != dim - 2:
                    continue
                new_rays.append(primitive([vp * y - vq * x for x, y in zip(rays[p], rays[q])]))
                new_tights.append(common | hbit)
        kept = [i for i, v in enumerate(vals) if v <= 0]
        rays = [rays[i] for i in kept] + new_rays
        tights = [tights[i] | (hbit if vals[i] == 0 else 0) for i in kept] + new_tights
    return rays, tights


def face_lattice_oracle(v):
    """{face mask: dimension} of a vertex polytope, graded from its
    incidences by the earlier level scan: the top level compares every
    facet set with every other, and no cover relation is kept."""
    n = v.nvertices
    d = v.dim
    incidence = [_bits(t) for t in v.incidence]
    max_row = max((max(t) for t in incidence if t), default=-1)
    row_masks = [0] * (max_row + 1)
    for vert_idx, tight in enumerate(incidence):
        bit = 1 << vert_idx
        for row in tight:
            row_masks[row] |= bit

    full = (1 << n) - 1
    face_dims = {full: d}
    level = [(full, list(set(row_masks) - {full}))]
    for k in range(d - 1, -2, -1):
        below = []
        for face, pool in level:
            candidates = sorted({face & s for s in pool} or [0], key=int.bit_count, reverse=True)
            facets = []
            for g in candidates:
                for f in facets:
                    if g & f == g:
                        break
                else:
                    facets.append(g)
                    if g not in face_dims:
                        face_dims[g] = k
                        below.append((g, [s for s in pool if s & g not in (0, g)] if k else []))
        level = below
    if face_dims.get(0) != -1:
        raise LatticeError("vertex set is not full-dimensional")
    return face_dims


def counting_identities_oracle(face_dims, n, r, polygon_masks):
    """``metrics.counting_identities`` on a {face mask: dimension} map by
    the earlier subset scan: every facet is tested against every 2-face."""
    faces2 = [mask for mask, dim in face_dims.items() if dim == 2]
    facets = [mask for mask, dim in face_dims.items() if dim == 3]
    f2 = len(faces2)
    f03 = sum(mask.bit_count() for mask in facets)
    polygons = set(polygon_masks)
    if not polygons.issubset(set(faces2)):
        raise CountingError("a polygon image is not a 2-face of the lattice")

    prisms = 0
    cubes = 0
    polygon_facet_count = {mask: 0 for mask in polygons}
    for facet in facets:
        sub2 = [m for m in faces2 if m & facet == m]
        own_polygons = [m for m in sub2 if m in polygons]
        quads = [m for m in sub2 if m not in polygons]
        nverts = facet.bit_count()
        if own_polygons:
            if (
                len(own_polygons) != 2
                or nverts != 2 * n
                or len(sub2) != n + 2
                or any(q.bit_count() != 4 for q in quads)
            ):
                raise CountingError("facet with polygon 2-faces is not a prism over the polygon")
            prisms += 1
            for m in own_polygons:
                polygon_facet_count[m] += 1
        else:
            if nverts != 8 or len(sub2) != 6 or any(q.bit_count() != 4 for q in quads):
                raise CountingError("facet without polygon 2-faces is not a combinatorial cube")
            cubes += 1

    identities = {
        "prisms == r*n^(r-1)": prisms == r * n ** (r - 1),
        "cubes == (r-2)*n^r/4": 4 * cubes == (r - 2) * n**r,
        "6C + (n+2)P == 2*f2": 6 * cubes + (n + 2) * prisms == 2 * f2,
        "f03 == 8C + 2nP": f03 == 8 * cubes + 2 * n * prisms,
        "each polygon in two prism facets": all(
            count == 2 for count in polygon_facet_count.values()
        ),
    }
    return CountingReport(prisms, cubes, identities)


def product_tuples(n, r):
    """The tuple t of each code c = sum(t_k * n^(k-1)): the codes in order
    are the tuples of {0..n-1}^r in colexicographic order."""
    return [t[::-1] for t in iter_product(range(n), repeat=r)]


def enumerate_polygon_faces_oracle(labeling, n, r):
    """The r*n^(r-1) polygon faces: one factor varies, the rest are pinned."""
    index_of = {t: i for i, t in enumerate(labeling)}
    if len(index_of) != n**r:
        raise ValueError("labeling is not a bijection onto the product tuples")
    faces = []
    for k in range(r):
        for fixed in iter_product(range(n), repeat=r - 1):
            verts = []
            for value in range(n):
                t = fixed[:k] + (value,) + fixed[k:]
                verts.append(index_of[t])
            coords = ["*" if j == k else str(fixed[j if j < k else j - 1]) for j in range(r)]
            face_id = f"polygon[k={k + 1}]t=" + ".".join(coords)
            faces.append(ProductFace(face_id, k + 1, tuple(sorted(verts))))
    return faces


def enumerate_edges_oracle(labeling, n, r):
    """The r*n^r edges: each vertex joined to its +1 neighbor per factor."""
    index_of = {t: i for i, t in enumerate(labeling)}
    if len(index_of) != n**r:
        raise ValueError("labeling is not a bijection onto the product tuples")
    edges = []
    for t, i in sorted(index_of.items()):
        for k in range(r):
            neighbor = t[:k] + ((t[k] + 1) % n,) + t[k + 1 :]
            j = index_of[neighbor]
            face_id = f"edge[k={k + 1}]t=" + ".".join(str(c) for c in t)
            edges.append(ProductFace(face_id, k + 1, tuple(sorted((i, j)))))
    return edges


def vertex_faces_oracle(labeling):
    return [
        ProductFace("vertex t=" + ".".join(str(c) for c in t), None, (i,))
        for i, t in enumerate(labeling)
    ]


def certificate_input(system, face):
    """The coordinates the projection deletes (all but the last four) of
    the normal of every facet row tight at all of the face's vertices, in
    row order."""
    common = reduce(and_, (system.product.incidence[i] for i in face.vertices))
    a = system.h.A
    return [tuple(a.row(j)[: a.cols - 4]) for j in _bits(common)]


def certificate_oracle(system, face):
    """The Projection Lemma's certificate for one face by its own LP: one
    ``positively_spans`` on the face's input, with no memo and no verdict
    taken from a face that contains it."""
    return positively_spans(certificate_input(system, face), system.h.A.cols - 4).kind == "spanning"


def product_vertices_oracle(h, n, r):
    """What ``polytope.product_vertices`` returns, from the double
    description method and ``product_labeling``, which puts the vertices
    in code order; None when either refuses."""
    try:
        return product_labeling(h_to_v(h), h.labels, n, r)
    except PolytopeError:
        return None
