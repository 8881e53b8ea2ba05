"""The projected hull read from the product's 3-faces, against the DD hull.

``local_hull`` must return what ``convex_hull`` returns, up to the order of
the facets, and the face lattice ``face_lattice`` scans from that hull's
incidences, on every system it certifies.  Every clause of its
certificate must be able to refuse: each mutated input below breaks one
clause, with the clauses before it holding, and the checker then falls
back to the DD, returns its hull and scans its lattice.
"""

import re
from fractions import Fraction as QQ
from functools import cache
from itertools import combinations

import pytest

from conftest import GRID, PASS_GATES_FAIL_VERIFY, run_case, zero_pattern_system
from oracle import lattice_faces, product_tuples
from projpoly import lattice, localhull, polytope, projection
from projpoly.lattice import face_lattice
from projpoly.linalg import QMatrix
from projpoly.pipeline import construct_system
from projpoly.polytope import HPolytope, VPolytope, _bits, convex_hull
from projpoly.localhull import UncertifiedHull, local_hull
from projpoly.projection import ProjectionChecker, project

REFUSED = {"6x3-1/16-2^16": "(b)"}
# "zero-pattern" is the one system whose vertices come from the DD, in
# another order, and are sorted into code order by ``product_labeling``.
NAMES = [f"{n}x{r}" for n, r in GRID + [(8, 3)]] + list(PASS_GATES_FAIL_VERIFY) + ["zero-pattern"]
# What the checker runs when the certificate refuses.
FALLBACK = ["convex_hull", "face_lattice"]


@cache
def _system(name):
    if name == "zero-pattern":
        return zero_pattern_system()
    if name in PASS_GATES_FAIL_VERIFY:
        n, r, eps, big_m = PASS_GATES_FAIL_VERIFY[name]
        return construct_system(n, r, eps=eps, big_m=big_m)
    n, r = map(int, name.split("x"))
    return run_case(n, r).system if (n, r) in GRID else construct_system(n, r)


@cache
def _dd_hull(name):
    return convex_hull(project(_system(name).product))


def assert_same_hull(got, want):
    """Equal HullResults up to a relabeling of the facets."""
    assert got.v.vertices == want.v.vertices
    assert got.point_ids == want.point_ids
    assert got.point_vertex == want.point_vertex
    rows = {(row, b): j for j, (row, b) in enumerate(zip(want.h.A.entries, want.h.b))}
    relabel = [rows[row, b] for row, b in zip(got.h.A.entries, got.h.b)]
    assert sorted(relabel) == list(range(want.h.nrows))
    assert [want.facet_points[j] for j in relabel] == list(got.facet_points)
    assert [sum(1 << relabel[j] for j in _bits(inc)) for inc in got.v.incidence] == list(want.v.incidence)


def assert_same_lattice(got, want):
    """Equal face lattices: the same faces with the same dimensions, and
    each face with the same facets."""
    assert got.dim == want.dim
    faces = lattice_faces(want)
    assert lattice_faces(got) == faces and len(got) == len(want) == len(faces)
    for mask in faces:
        assert sorted(got.covers(mask)) == sorted(want.covers(mask))


def _count_dd_calls(monkeypatch):
    """The names of the DD hull and lattice scan calls the checker makes,
    in order."""
    calls = []
    hull, scan = polytope.convex_hull, lattice.face_lattice

    def counting_hull(points):
        calls.append("convex_hull")
        return hull(points)

    def counting_scan(v):
        calls.append("face_lattice")
        return scan(v)

    monkeypatch.setattr(projection, "convex_hull", counting_hull)
    monkeypatch.setattr(projection, "face_lattice", counting_scan)
    return calls


@pytest.mark.parametrize("name", NAMES)
def test_local_hull_equals_the_dd_hull(monkeypatch, name):
    system = _system(name)
    images = project(system.product)
    want = _dd_hull(name)
    if name in REFUSED:
        with pytest.raises(UncertifiedHull, match=f"^{re.escape(REFUSED[name])} "):
            local_hull(images, *system.require_nr())
    else:
        assert_same_hull(local_hull(images, *system.require_nr())[0], want)
    calls = _count_dd_calls(monkeypatch)
    assert_same_hull(ProjectionChecker(system.h, system.product, system.require_nr()).hull, want)
    assert calls == (FALLBACK if name in REFUSED else [])


@pytest.mark.parametrize("name", [name for name in NAMES if name not in REFUSED])
def test_the_certified_lattice_equals_the_scanned_lattice(name):
    system = _system(name)
    _, got = local_hull(project(system.product), *system.require_nr())
    assert_same_lattice(got, face_lattice(_dd_hull(name).v))


@pytest.mark.parametrize("name, planes", [("4x4", 734), ("6x3", 200)])
def test_a_candidate_with_a_closed_2_face_reaches_no_plane(monkeypatch, name, planes):
    # Every prism and cube is a candidate: r(r-1)n^(r-1) + C(r,3)n^r of them,
    # 1,792 at (4,4) and 432 at (6,3).  One with a 2-face already in two
    # kept facets is skipped before its plane is computed.
    system = _system(name)
    n, r = system.require_nr()
    computed = []
    plane = localhull._plane

    def counting(coords, verts):
        computed.append(verts)
        return plane(coords, verts)

    monkeypatch.setattr(localhull, "_plane", counting)
    hull, _ = local_hull(project(system.product), n, r)
    candidates = r * (r - 1) * n ** (r - 1) + r * (r - 1) * (r - 2) // 6 * n**r
    assert len(computed) == planes < candidates
    assert_same_hull(hull, _dd_hull(name))


@pytest.mark.parametrize("name", NAMES)
def test_the_product_index_is_the_canonical_model(name):
    # The product lists P's vertices in code order: in the canonical model
    # the vertex with code c, whose tuple is t, is tight on exactly the
    # rows (k, t_k - 1 mod n) and (k, t_k) of each block k.
    system = _system(name)
    n, r = system.require_nr()
    labels, product = system.h.labels, system.product
    assert product.nvertices == n**r
    assert sorted(product.vertices) == sorted(system.vertices.vertices)
    for t, tight in zip(product_tuples(n, r), product.incidence, strict=True):
        want = sorted((k + 1, (t[k] + step) % n) for k in range(r) for step in (-1, 0))
        assert sorted(labels[j] for j in _bits(tight)) == want


# --- one mutated input per clause -----------------------------------------

# Integer polygons in convex position, counterclockwise about the origin.
SQUARE = [(3, 0), (0, 3), (-3, 0), (0, -3)]
KITE = [(4, 1), (-1, 3), (-3, -1), (1, -4)]
PENTAGON = [(5, 0), (1, 5), (-4, 3), (-4, -3), (1, -5)]


def _product(*polygons):
    """Images in code order of the product of two polygons with equal
    vertex counts, in R^4, and its (n, r)."""
    a, b = polygons
    n = len(a)
    return [tuple(map(QQ, a[i] + b[j])) for i, j in product_tuples(n, 2)], (n, 2)


def _duplicate_image():
    points, product = _product(SQUARE, KITE)
    points[5] = points[0]
    return points, product


def _flat_vertex():
    # the third vertex sits on the segment between its neighbours
    return _product([(4, -4), (4, 4), (0, 4), (-4, 4), (-4, -4)], PENTAGON)


def _pentagram():
    # the pentagon visited as a star: locally convex at every vertex, but
    # each edge line has a vertex beyond it
    star = [PENTAGON[2 * t % 5] for t in range(5)]
    return _product(PENTAGON, star)


def _one_level_is_the_hull():
    # r = 3: the factor-3 level t_3 = 0 is a full-size square x kite, the
    # other levels are smaller copies inside it.  The boundary of that
    # level is a closed convex surface that misses their images.
    shrink = (1, 2, 4, 3)
    points = [tuple(QQ(x, shrink[k]) for x in SQUARE[i] + KITE[j]) for i, j, k in product_tuples(4, 3)]
    return points, (4, 3)


MUTATED = {
    "(a)": _duplicate_image,
    "(b)": _flat_vertex,
    "(c)": _pentagram,
    "(d)": _one_level_is_the_hull,
}


def _checker(points, product):
    pv = VPolytope(tuple(points), (0,) * len(points), 4)
    return ProjectionChecker(HPolytope(QMatrix(()), ()), pv, product)


def test_the_unmutated_products_are_certified(monkeypatch):
    calls = _count_dd_calls(monkeypatch)
    for points, product in (_product(SQUARE, KITE), _product(PENTAGON, PENTAGON)):
        checker = _checker(points, product)
        want = convex_hull(points)
        assert_same_hull(checker.hull, want)
        assert_same_lattice(checker.q_lattice, face_lattice(want.v))
    assert calls == []


@pytest.mark.parametrize("clause", list(MUTATED))
def test_each_clause_refuses_its_mutated_input(monkeypatch, clause):
    points, product = MUTATED[clause]()
    with pytest.raises(UncertifiedHull, match=f"^{re.escape(clause)} "):
        local_hull(points, *product)
    calls = _count_dd_calls(monkeypatch)
    assert_same_hull(_checker(points, product).hull, convex_hull(points))
    assert calls == FALLBACK


def _off_ridge_mismatches(monkeypatch, points, product, tables):
    """The (facet, 2-face key) pairs of the kept candidates whose entry in
    ``tables``, laid out as ``localhull._off_ridge`` lays them, is not
    exactly the positions in the facet's vertex list off that 2-face."""
    n, r = product
    held = []
    target = localhull._ray_target

    def holding(coords, members):
        held.append(members)
        return target(coords, members)

    monkeypatch.setattr(localhull, "_ray_target", holding)
    ups = localhull._steps(n, r, 1)
    _, ridges = localhull._certified_hull(points, n, ups)
    slots = r + r * (r - 1) // 2
    pairs = list(combinations(range(r), 2))

    def two_face(key):
        c, slot = divmod(key, slots)
        if slot < r:
            return {c + t * n**slot for t in range(n)}
        k, k2 = pairs[slot - r]
        return {c, ups[k][c], ups[k2][c], ups[k2][ups[k][c]]}

    mismatches = []
    for j, (verts, keys) in enumerate(zip(held[0], ridges, strict=True)):
        table = tables[0] if keys[0] % slots < r else tables[1]
        for key, off in zip(keys, table, strict=True):
            if sorted(off) != [p for p, c in enumerate(verts) if c not in two_face(key)]:
                mismatches.append((j, key))
    return mismatches


OFF_RIDGE = ["4x4", "6x3", "8x3", "pentagon-pentagon"]


def _off_ridge_input(name):
    if name == "pentagon-pentagon":
        return _product(PENTAGON, PENTAGON)
    return project(_system(name).product), _system(name).require_nr()


@pytest.mark.parametrize("name", OFF_RIDGE)
def test_the_off_ridge_tables_are_each_ridges_complement(monkeypatch, name):
    points, product = _off_ridge_input(name)
    assert _off_ridge_mismatches(monkeypatch, points, product, localhull._off_ridge(product[0])) == []


@pytest.mark.parametrize("kind", [0, 1], ids=["prism", "cube"])
def test_a_table_missing_one_off_position_is_caught(monkeypatch, kind):
    points, product = _off_ridge_input("4x4")
    tables = localhull._off_ridge(product[0])
    tables[kind][-1] = tables[kind][-1][1:]
    assert _off_ridge_mismatches(monkeypatch, points, product, tables) != []


def test_a_vertex_on_the_plane_across_a_2_face_refuses(monkeypatch):
    # A vertex off a 2-face F on the plane across F lies in aff(F), which no
    # kept 3-face of a projected polytope allows, and no other input found
    # reaches it while (a) and (b) hold.  Here the prism table lists, for
    # the first 2-face, a vertex on it, which lies on both planes there.
    points, product = _product(SQUARE, KITE)
    off_ridge = localhull._off_ridge

    def listing_a_ridge_vertex(n):
        prism, cube = off_ridge(n)
        prism[0] = [0] + prism[0]
        return prism, cube

    monkeypatch.setattr(localhull, "_off_ridge", listing_a_ridge_vertex)
    with pytest.raises(UncertifiedHull, match=r"^\(c\) a vertex off a 2-face lies on the plane across it$"):
        local_hull(points, *product)
    calls = _count_dd_calls(monkeypatch)
    assert_same_hull(_checker(points, product).hull, convex_hull(points))
    assert calls == FALLBACK


@pytest.mark.parametrize("target", ["ridge", "edge", "vertex"])
def test_a_ray_through_a_ridge_or_vertex_refuses(monkeypatch, target):
    # On a convex surface the ray through the first facet's centroid meets
    # no 2-face, so no product input breaks clause (e) alone; here the ray
    # is aimed instead at a point inside the first facet's first polygon
    # (its first three vertices lie on it), on an edge or at a vertex.
    points, product = _product(SQUARE, KITE)
    head = {"ridge": 3, "edge": 2, "vertex": 1}[target]

    def aimed(coords, members):
        return [sum(col) for col in zip(*(coords[c] for c in members[0][:head]))]

    monkeypatch.setattr(localhull, "_ray_target", aimed)
    with pytest.raises(UncertifiedHull, match=r"^\(e\) the ray meets a 2-face"):
        local_hull(points, *product)
    calls = _count_dd_calls(monkeypatch)
    assert_same_hull(_checker(points, product).hull, convex_hull(points))
    assert calls == FALLBACK


@pytest.mark.parametrize("product", [None], ids=["none"])
def test_without_a_product_labeling_the_checker_uses_the_dd(monkeypatch, product):
    points, _ = _product(SQUARE, KITE)
    calls = _count_dd_calls(monkeypatch)
    assert_same_hull(_checker(points, product).hull, convex_hull(points))
    assert calls == FALLBACK
