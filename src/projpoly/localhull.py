"""The hull of a projected polygon product, read from its 3-faces.

``local_hull`` builds Q, the image in R^4 of a product of r n-gons, from
the product's 3-faces.  If the projection keeps every vertex, edge and
polygon of the product, Q's facets are images of 3-faces: prisms (polygon
x edge) and cubes (edge x edge x edge).  Each 3-face G is a candidate.
Its plane is the integer cofactor normal of three edge vectors at one
vertex; every vertex of G must lie on it and the barycenter of the images
strictly inside it.  For each 2-face F of G and each other 3-face through
F, one vertex of that 3-face off F must also lie strictly inside.
Candidates that pass are kept; one with a 2-face already in two kept
facets is skipped before its plane is computed, since (b) refuses a third
facet there, so an input that certifies keeps the same facets (at (4,4),
734 of 1,792 candidates reach the plane).  The selection is only a
heuristic, and the kept set K is then certified (Mehlhorn et al.,
"Checking geometric programs or verification of geometric structures",
1999):

(a) the images are pairwise distinct;
(b) every 2-face of a kept facet lies in exactly two kept facets;
(c) across each such 2-face F, every vertex of either facet off F is
    strictly inside the other facet's plane;
(d) every image lies on a kept facet, and K is connected through 2-faces;
(e) the ray from the barycenter through the centroid of one kept facet
    crosses exactly one kept facet, and meets no 2-face.

The vertices of a 2-face F are vertices of both facets through it, and
every vertex of a kept candidate lies exactly on its plane.  So both
planes hold F, and (c) evaluates only the vertices off F, at the positions
a fixed table per kind of candidate, prism or cube, gives.

Why this proves that K is the set of Q's facets.  By (c), the plane across
each 2-face F of a kept G meets conv(G) exactly in conv(F); so each image
of F spans a face of conv(G), each vertex of G (the one vertex common to
three of its 2-faces) has an image that is a vertex of conv(G), and the
2-faces, which cover the sphere boundary of G, are all the facets of
conv(G).  So conv(G) is combinatorially G, and it is the part of its plane
inside the planes across its 2-faces.  By (b) and (d) these pieces form
a closed connected surface, locally convex at every ridge by (c), with
the barycenter strictly inside every facet plane; with (e), such a
surface bounds a convex body B (van Heijenoort, "On locally convex
manifolds", 1952; the ray is the check of Mehlhorn et al.).  Every
vertex of B is a vertex of a piece, hence an image, and every image lies
on B by (d), so B = Q.  Strict convexity across each ridge gives each
kept facet a plane of its own, so Q's facets are exactly the pieces, each
with exactly its 3-face's images, and every image is a vertex of Q.  When
a clause fails, ``projection.ProjectionChecker`` computes Q with
``convex_hull`` instead, and both routes give the same ``HullResult`` up
to the order of the facets.

Why it also proves Q's face lattice.  By (c) each kept facet conv(G) is
combinatorially its 3-face G, and every proper face of Q lies in a facet,
so Q's proper faces are exactly the faces of the kept 3-faces: the kept
facets; the 2-faces keyed as ridges, each in exactly two facets by (b);
their sides, the edges; and every image, a vertex by (d).  Each face's
facets are read from the same structure: a kept facet's are its ridge
keys, a polygon's are its n cycle steps, a square's its four sides and an
edge's its two ends.  So the lattice is built level by level, each face
once, in time linear in its size, and ``lattice.face_lattice`` is not
called.

Everything runs on ``convex_hull``'s integer grid, so the rows returned
are the ones the double description method returns.  A vertex is its
mixed-radix code c = sum(t_k * n^(k-1)), which is also its index in the
input, a 2-face an integer key, and the neighbours of a vertex are found by
stride arithmetic, so no candidate builds a set.
"""

from __future__ import annotations

import math
from array import array
from itertools import combinations
from operator import mul
from typing import Sequence

from .lattice import FaceLattice
from .polytope import HullResult, Point, VPolytope, _grid


class UncertifiedHull(Exception):
    """A clause of the local certificate failed; the message names it."""


def local_hull(points: Sequence[Point], n: int, r: int) -> tuple[HullResult, FaceLattice]:
    """The hull of the images of a product of r n-gons and its face
    lattice, read from the product's 3-faces and certified without a global
    hull computation.

    ``points[c]`` is the image in R^4 of the product vertex with code c,
    for each of the n^r codes, in the order ``product_labeling`` and
    ``product_vertices`` return the vertices; the proof of the certificate
    rests on it.  Returns what ``convex_hull(points)`` returns, up to the
    order of the facets, with what ``face_lattice`` returns for its
    vertices, up to the order of each face's facets; or raises
    ``UncertifiedHull`` naming the clause that failed.
    """
    ups = _steps(n, r, 1)
    hull, ridges = _certified_hull(points, n, ups)
    # The certificate's scratch went with its frame; the lattice is read
    # from what it kept.
    return hull, _lattice(n, r, ups, hull.facet_points, ridges)


def _steps(n: int, r: int, step: int) -> list[list[int]]:
    """For each factor k, the code one ``step`` (+1 or -1) along factor k
    from each code, cyclically."""
    strides = [n**k for k in range(r)]
    return [[c + ((c // s + step) % n - c // s % n) * s for c in range(n**r)] for s in strides]


def _certified_hull(
    points: Sequence[Point], n: int, ups: list[list[int]]
) -> tuple[HullResult, list[list[int]]]:
    """The hull that ``local_hull`` returns, with the 2-face keys of each
    of its facets; ``ups`` holds each code's step up in each factor."""
    count, r = len(points), len(ups)
    strides = [n**k for k in range(r)]
    downs = _steps(n, r, -1)

    # h = count * g - sum(g) on convex_hull's grid, so that the barycenter
    # is the origin.
    scale, grid = _grid(points)
    if len(set(grid)) != count:
        raise UncertifiedHull("(a) two vertices have the same image")
    total = [sum(col) for col in zip(*grid)]
    coords = [tuple(count * x - s for x, s in zip(g, total)) for g in grid]
    del grid

    # 2-faces are keyed by integers: a polygon in factor k by its code with
    # t_k = 0 and slot k, a square in factors k < k' by its lowest corner
    # and the pair's slot.
    pair_slot = {}
    for i, (k, k2) in enumerate(combinations(range(r), 2)):
        pair_slot[k, k2] = pair_slot[k2, k] = r + i
    slots = r + len(pair_slot) // 2

    planes: list[tuple[int, int, int, int]] = []
    offsets: list[int] = []
    members: list[list[int]] = []
    ridges: list[list[int]] = []
    # seen[key] counts the kept facets through 2-face ``key``, across[key]
    # sums their indices; a candidate with a key seen twice is skipped.
    seen = bytearray(count * slots)
    across = [0] * (count * slots)

    def keep(verts: list[int], probes: list[int], keys: list[int]) -> None:
        """Keep the candidate with vertices ``verts``, the first four
        affinely spanning its plane, when all of them lie on that plane,
        the origin lies strictly inside it and so does every probe."""
        a0, a1, a2, a3, b = _plane(coords, verts)
        if b < 0:
            a0, a1, a2, a3, b = -a0, -a1, -a2, -a3, -b
        elif not b:
            return
        for c in probes:
            y0, y1, y2, y3 = coords[c]
            if a0 * y0 + a1 * y1 + a2 * y2 + a3 * y3 >= b:
                return
        for c in verts[4:]:
            y0, y1, y2, y3 = coords[c]
            if a0 * y0 + a1 * y1 + a2 * y2 + a3 * y3 != b:
                return
        for key in keys:
            seen[key] += 1
            across[key] += len(planes)
        g = math.gcd(a0, a1, a2, a3)
        planes.append((a0 // g, a1 // g, a2 // g, a3 // g))
        offsets.append(b // g)
        members.append(verts)
        ridges.append(keys)

    # Prisms: polygon in factor k times edge {t, t + 1} in factor k2.  The
    # probes hold, for each 2-face F and each other 3-face through F, one
    # vertex of that 3-face off F; 2-faces that share a corner share it.
    for k, sk in enumerate(strides):
        span = n * sk
        for k2 in range(r):
            if k2 == k:
                continue
            up2, down2 = ups[k2], downs[k2]
            rest = [(ups[o], downs[o]) for o in range(r) if o not in (k, k2)]
            square = pair_slot[k, k2]
            for c in range(count):
                if c // sk % n:
                    continue
                ring0 = list(range(c, c + span, sk))
                keys = [c * slots + k, up2[c] * slots + k]
                keys += [x * slots + square for x in ring0]
                if 2 in map(seen.__getitem__, keys):
                    continue
                ring1 = [up2[x] for x in ring0]
                probes = [down2[x] for x in ring0]
                probes.append(up2[ring1[0]])
                for up, down in rest:
                    probes += [up[x] for x in ring0]
                    probes += [down[x] for x in ring0]
                    probes += (up[ring1[0]], down[ring1[0]])
                verts = [ring0[0], ring0[1], ring0[-1], ring1[0]] + ring0[2:-1] + ring1[1:]
                keep(verts, probes, keys)

    # Cubes: edges {t, t + 1} in factors k1 < k2 < k3.
    for k1 in range(r):
        for k2 in range(k1 + 1, r):
            for k3 in range(k2 + 1, r):
                up1, up2, up3 = ups[k1], ups[k2], ups[k3]
                down1, down2, down3 = downs[k1], downs[k2], downs[k3]
                rest = [(ups[o], downs[o]) for o in range(r) if o not in (k1, k2, k3)]
                s12, s13, s23 = (pair_slot[k1, k2], pair_slot[k1, k3], pair_slot[k2, k3])
                for c in range(count):
                    c1, c2, c3 = up1[c], up2[c], up3[c]
                    keys = [c * slots + s12, c * slots + s13, c * slots + s23,
                            c3 * slots + s12, c2 * slots + s13, c1 * slots + s23]
                    if 2 in map(seen.__getitem__, keys):
                        continue
                    c12, c13, c23 = up2[c1], up3[c1], up3[c2]
                    probes = [down1[c], down2[c], down3[c], down1[c3], down2[c3], up3[c3],
                              down1[c2], down3[c2], up2[c2], down2[c1], down3[c1], up1[c1]]
                    for up, down in rest:
                        probes += (up[c], down[c], up[c1], down[c1],
                                   up[c2], down[c2], up[c3], down[c3])
                    keep([c, c1, c2, c3, c12, c13, c23, up3[c12]], probes, keys)

    if not planes:
        raise UncertifiedHull("(d) no 3-face was kept")
    # (b) Closure: every 2-face of a kept facet lies in exactly two kept
    # facets; the selection kept no third.
    for keys in ridges:
        if 1 in map(seen.__getitem__, keys):
            raise UncertifiedHull("(b) a 2-face lies in only one kept facet")

    # (c) Two-sided local convexity: every vertex of a kept facet off each
    # of its 2-faces lies strictly inside the plane across it; ``keep``
    # put the vertices on the 2-face exactly on that plane.
    off_prism, off_cube = _off_ridge(n)
    for j, keys in enumerate(ridges):
        verts = members[j]
        for key, off in zip(keys, off_prism if keys[0] % slots < r else off_cube):
            other = across[key] - j
            a0, a1, a2, a3 = planes[other]
            b = offsets[other]
            on = False
            for p in off:
                y0, y1, y2, y3 = coords[verts[p]]
                value = a0 * y0 + a1 * y1 + a2 * y2 + a3 * y3
                if value > b:
                    raise UncertifiedHull("(c) a kept facet crosses the plane of a neighbour")
                on |= value == b
            if on:
                raise UncertifiedHull("(c) a vertex off a 2-face lies on the plane across it")

    # (d) Coverage and connectivity.
    covered = bytearray(count)
    for verts in members:
        for c in verts:
            covered[c] = 1
    if not all(covered):
        raise UncertifiedHull("(d) an image lies on no kept facet")
    reached = bytearray(len(planes))
    reached[0] = 1
    stack = [0]
    while stack:
        j = stack.pop()
        for key in ridges[j]:
            other = across[key] - j
            if not reached[other]:
                reached[other] = 1
                stack.append(other)
    if not all(reached):
        raise UncertifiedHull("(d) the kept facets are not connected through their 2-faces")

    # (e) The ray from the origin through the centroid of the first kept
    # facet crosses exactly one kept facet.  A facet is the part of its
    # plane inside the planes across its 2-faces, by (c).
    ray = _ray_target(coords, members)
    dots = [sum(map(mul, a, ray)) for a in planes]
    crossings = 0
    for j, keys in enumerate(ridges):
        d = dots[j]
        if d <= 0:
            continue
        b = offsets[j]
        on_boundary = False
        for key in keys:
            other = across[key] - j
            lhs, rhs = dots[other] * b, offsets[other] * d
            if lhs > rhs:
                break
            on_boundary |= lhs == rhs
        else:
            if on_boundary:
                raise UncertifiedHull("(e) the ray meets a 2-face")
            crossings += 1
    if crossings != 1:
        raise UncertifiedHull(f"(e) the ray crosses {crossings} kept facets")

    # Certified: Q's facets are the kept ones, each with exactly its
    # candidate's vertices, and every image is a vertex of Q.
    incidence = [0] * count
    facet_points: list[int] = []
    for j, verts in enumerate(members):
        mask = 0
        for c in verts:
            incidence[c] |= 1 << j
            mask |= 1 << c
        facet_points.append(mask)
    hull_v = VPolytope(tuple(points), tuple(incidence), 4)
    return HullResult(tuple(planes), tuple(offsets), count * scale, tuple(total), hull_v,
                      tuple(range(count)), tuple(facet_points)), ridges


def _plane(coords: list[tuple[int, ...]], verts: list[int]) -> tuple[int, int, int, int, int]:
    """The cofactor normal a of the hyperplane through ``coords[c]`` for the
    first four codes c in ``verts``, and a . x at the first of them."""
    x0, x1, x2, x3 = coords[verts[0]]
    y0, y1, y2, y3 = coords[verts[1]]
    u0, u1, u2, u3 = y0 - x0, y1 - x1, y2 - x2, y3 - x3
    y0, y1, y2, y3 = coords[verts[2]]
    v0, v1, v2, v3 = y0 - x0, y1 - x1, y2 - x2, y3 - x3
    y0, y1, y2, y3 = coords[verts[3]]
    w0, w1, w2, w3 = y0 - x0, y1 - x1, y2 - x2, y3 - x3
    m01, m02, m03 = v0 * w1 - v1 * w0, v0 * w2 - v2 * w0, v0 * w3 - v3 * w0
    m12, m13, m23 = v1 * w2 - v2 * w1, v1 * w3 - v3 * w1, v2 * w3 - v3 * w2
    a0 = u1 * m23 - u2 * m13 + u3 * m12
    a1 = u2 * m03 - u0 * m23 - u3 * m02
    a2 = u0 * m13 - u1 * m03 + u3 * m01
    a3 = u1 * m02 - u0 * m12 - u2 * m01
    return a0, a1, a2, a3, a0 * x0 + a1 * x1 + a2 * x2 + a3 * x3


def _off_ridge(n: int) -> tuple[list[list[int]], list[list[int]]]:
    """For a prism of n-gons and for a cube, in the order of the
    candidate's 2-face keys, the positions in its vertex list of its
    vertices off that 2-face.  The lists are laid out as
    ``_certified_hull`` lays them out."""
    ring0, ring1 = list(range(n)), list(range(n, 2 * n))
    prism = [ring0[0], ring0[1], ring0[-1], ring1[0]] + ring0[2:-1] + ring1[1:]
    prism_sides = [ring0, ring1] + [[t, (t + 1) % n, n + t, n + (t + 1) % n] for t in ring0]
    # The cube's vertices c, c1, c2, c3, c12, c13, c23, c123 are 0..7.
    cube_sides = [(0, 1, 2, 4), (0, 1, 3, 5), (0, 2, 3, 6), (3, 5, 6, 7), (2, 4, 6, 7), (1, 4, 5, 7)]
    return (
        [[p for p, v in enumerate(prism) if v not in side] for side in prism_sides],
        [[p for p in range(8) if p not in side] for side in cube_sides],
    )


def _lattice(
    n: int, r: int, ups: list[list[int]], facet_points: Sequence[int], ridges: list[list[int]]
) -> FaceLattice:
    """Q's face lattice, read from the certified facets and their ridge
    keys; the module docstring says why these are all of Q's faces.

    Faces are numbered level by level, top down, as ``face_lattice``
    numbers them: Q, the facets, their 2-faces in order of first listing,
    the sides of those in the same order, the vertices and the empty face.
    Edges are keyed like 2-faces: the edge from code c to its step up in
    factor k by c * r + k.  Flat arrays map each key to its face's id, 0
    while it is unseen (id 0 is Q), so no dictionary is built but the
    lattice's own.
    """
    count = n**r
    slots = r + r * (r - 1) // 2
    pairs = list(combinations(range(r), 2))
    bit = [1 << c for c in range(count)]
    ids = {(1 << count) - 1: 0}
    for mask in facet_points:
        ids[mask] = len(ids)
    cover_ids = array("I", range(1, len(ids)))
    cover_bounds = array("I", [0, len(cover_ids)])

    base = len(ids)
    two_id = array("I", bytes(4 * count * slots))
    two_keys = array("I")
    for keys in ridges:
        for key in keys:
            if not two_id[key]:
                two_id[key] = base + len(two_keys)
                two_keys.append(key)
            cover_ids.append(two_id[key])
        cover_bounds.append(len(cover_ids))

    base += len(two_keys)
    edge_id = array("I", bytes(4 * count * r))
    edge_keys = array("I")
    for key in two_keys:
        c, slot = divmod(key, slots)
        if slot < r:
            stride = n**slot
            ring = range(c, c + n * stride, stride)
            sides = [x * r + slot for x in ring]
            mask = 0
            for x in ring:
                mask |= bit[x]
        else:
            k, k2 = pairs[slot - r]
            up, up2 = ups[k], ups[k2]
            a, b = up[c], up2[c]
            sides = [c * r + k, c * r + k2, a * r + k2, b * r + k]
            mask = bit[c] | bit[a] | bit[b] | bit[up2[a]]
        ids[mask] = len(ids)
        for side in sides:
            if not edge_id[side]:
                edge_id[side] = base + len(edge_keys)
                edge_keys.append(side)
            cover_ids.append(edge_id[side])
        cover_bounds.append(len(cover_ids))

    base += len(edge_keys)
    for side in edge_keys:
        c, k = divmod(side, r)
        d = ups[k][c]
        ids[bit[c] | bit[d]] = len(ids)
        cover_ids.append(base + c)
        cover_ids.append(base + d)
        cover_bounds.append(len(cover_ids))

    # Each vertex's one facet is the empty face; the empty face has none.
    for i in range(count):
        ids[1 << i] = len(ids)
    ids[0] = len(ids)
    start = len(cover_ids)
    cover_ids.extend(array("I", [base + count]) * count)
    cover_bounds.extend(range(start + 1, start + count + 1))
    cover_bounds.append(len(cover_ids))

    dims = array("i", [4]) + array("i", [3]) * len(facet_points)
    dims += array("i", [2]) * len(two_keys) + array("i", [1]) * len(edge_keys)
    dims += array("i", [0]) * count + array("i", [-1])
    return FaceLattice(4, ids, dims, cover_ids, cover_bounds)


def _ray_target(coords: list[tuple[int, ...]], members: list[list[int]]) -> list[int]:
    """The direction of clause (e)'s ray: the first kept facet's centroid
    times its vertex count, a point inside that facet."""
    return [sum(col) for col in zip(*(coords[c] for c in members[0]))]
