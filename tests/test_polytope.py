import random
from fractions import Fraction as QQ

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracle import affine_rank_oracle, brute_force_vertices, dd_rank_oracle, is_irredundant
from projpoly import linalg
from projpoly.construction import (
    ConstructionParams,
    build_deformed_product,
    build_plain_product,
    choose_parameters,
    rhs_block,
    v_eps_block,
)
from projpoly.linalg import QMatrix, clear_denominators
from projpoly.polytope import (
    DegeneratePolytopeError,
    EmptyPolytopeError,
    HPolytope,
    UnboundedPolytopeError,
    _cone_rows,
    _dd_extreme_rays,
    _primitive,
    convex_hull,
    h_to_v,
    product_isomorphic,
    product_labeling,
    v_to_h,
)

SQUARE = HPolytope(
    QMatrix.from_rows([[1, 0], [-1, 0], [0, 1], [0, -1]]),
    (QQ(1), QQ(1), QQ(1), QQ(1)),
)

SQUARE_POLYGON = QMatrix.from_rows([[1, 0], [0, 1], [-1, 0], [0, -1]])
ONES4 = (QQ(1),) * 4


def test_square_vertices():
    v = h_to_v(SQUARE)
    assert set(v.vertices) == {
        (QQ(1), QQ(1)), (QQ(1), QQ(-1)), (QQ(-1), QQ(1)), (QQ(-1), QQ(-1))
    }
    assert all(len(t) == 2 for t in v.incidence)


def test_perturbed_polygon_matches_pairwise_intersection_oracle():
    block = v_eps_block(4, QQ(1, 16))
    h = HPolytope(block, rhs_block(4, QQ(1, 16)))
    v = h_to_v(h)
    expected = brute_force_vertices([list(r) for r in block.entries], list(h.b))
    assert set(v.vertices) == expected
    assert v.nvertices == 4
    assert all(len(t) == 2 for t in v.incidence)


def test_deformed_product_matches_subset_oracle(grid_case):
    system = grid_case(4, 2).system.h
    v = h_to_v(system)
    assert v.nvertices == 16
    expected = brute_force_vertices([list(r) for r in system.A.entries], list(system.b))
    assert set(v.vertices) == expected


def test_vertex_incidence_is_exact():
    v = h_to_v(SQUARE)
    for vertex, tight in zip(v.vertices, v.incidence):
        for i, (row, b) in enumerate(zip(SQUARE.A.entries, SQUARE.b)):
            lhs = sum(a * x for a, x in zip(row, vertex))
            assert (lhs == b) == (i in tight)
            assert lhs <= b


def test_unbounded_raises():
    h = HPolytope(QMatrix.from_rows([[-1]]), (QQ(0),))
    with pytest.raises(UnboundedPolytopeError):
        h_to_v(h)


def test_unbounded_with_line_raises():
    h = HPolytope(QMatrix.from_rows([[1, 0], [-1, 0]]), (QQ(1), QQ(1)))
    with pytest.raises(UnboundedPolytopeError):
        h_to_v(h)


def test_empty_raises():
    h = HPolytope(QMatrix.from_rows([[1], [-1]]), (QQ(-1), QQ(-1)))
    with pytest.raises(EmptyPolytopeError):
        h_to_v(h)


def test_empty_rank_deficient_raises():
    h = HPolytope(QMatrix.from_rows([[1, 0], [-1, 0]]), (QQ(-1), QQ(-1)))
    with pytest.raises(EmptyPolytopeError):
        h_to_v(h)


def test_degenerate_point_raises():
    h = HPolytope(QMatrix.from_rows([[1], [-1]]), (QQ(0), QQ(0)))
    with pytest.raises(DegeneratePolytopeError):
        h_to_v(h)


def test_v_to_h_square():
    h = v_to_h([(QQ(1), QQ(1)), (QQ(1), QQ(-1)), (QQ(-1), QQ(1)), (QQ(-1), QQ(-1))])
    assert h.nrows == 4
    v = h_to_v(h)
    assert set(v.vertices) == {
        (QQ(1), QQ(1)), (QQ(1), QQ(-1)), (QQ(-1), QQ(1)), (QQ(-1), QQ(-1))
    }


def test_v_to_h_ignores_interior_and_duplicate_points():
    pts = [
        (QQ(1), QQ(1)), (QQ(1), QQ(-1)), (QQ(-1), QQ(1)), (QQ(-1), QQ(-1)),
        (QQ(0), QQ(0)), (QQ(1), QQ(1)),
    ]
    hull = convex_hull(pts)
    assert hull.h.nrows == 4
    assert hull.v.nvertices == 4
    assert hull.point_vertex[4] is None  # interior point
    assert hull.point_vertex[5] == hull.point_vertex[0]  # duplicate collapses
    assert not any(mask >> 4 & 1 for mask in hull.facet_points)  # interior: on no facet
    assert [mask >> 5 & 1 for mask in hull.facet_points] == [mask & 1 for mask in hull.facet_points]
    assert sum(mask & 1 for mask in hull.facet_points) == 2


@pytest.mark.parametrize("n,r", [(4, 3), (6, 3)])
def test_hull_incidences_match_exact_dot_products(grid_case, n, r):
    # the projected hull's facet_points and point_vertex, against the
    # facet inequalities evaluated on every input point
    checker = grid_case(n, r).system.checker
    points, hull = checker.images, checker.hull
    assert len(hull.point_vertex) == len(points)
    for row, b, mask in zip(hull.h.A.entries, hull.h.b, hull.facet_points):
        tight = 0
        for i, p in enumerate(points):
            lhs = sum(a * x for a, x in zip(row, p))
            assert lhs <= b
            tight |= (lhs == b) << i
        assert mask == tight
    for p, q in zip(points, hull.point_vertex):
        assert q is not None and hull.v.vertices[q] == p


def test_v_to_h_degenerate_input():
    with pytest.raises(DegeneratePolytopeError):
        v_to_h([(QQ(0), QQ(0)), (QQ(1), QQ(1)), (QQ(2), QQ(2))])


def _cube3() -> HPolytope:
    rows, rhs = [], []
    for i in range(3):
        for s in (1, -1):
            rows.append([QQ(s) if j == i else QQ(0) for j in range(3)])
            rhs.append(QQ(1))
    return HPolytope(QMatrix(tuple(tuple(r) for r in rows)), tuple(rhs))


@pytest.mark.parametrize(
    "system_builder",
    [
        lambda: SQUARE,
        _cube3,
        lambda: HPolytope(v_eps_block(6, QQ(1, 100)), rhs_block(6, QQ(1, 100))),
        lambda: build_deformed_product(choose_parameters(4, 2)),
    ],
)
def test_round_trip_h_v_h(system_builder):
    h = system_builder()
    v = h_to_v(h)
    h2 = v_to_h(v.vertices)
    # every original vertex satisfies the recomputed system
    for vertex in v.vertices:
        for row, b in zip(h2.A.entries, h2.b):
            assert sum(a * x for a, x in zip(row, vertex)) <= b
    # the recomputed system is irredundant and describes the same point set
    assert is_irredundant(h2, v.vertices)
    v2 = h_to_v(h2)
    assert set(v2.vertices) == set(v.vertices)


def _facets_up_to_scaling(h: HPolytope) -> set[tuple[int, ...]]:
    return {_primitive(clear_denominators(row + (-b,))) for row, b in zip(h.A.entries, h.b)}


@pytest.mark.parametrize("n,r", [(4, 3), (6, 3)])
def test_dd_results_do_not_depend_on_input_order(grid_case, n, r):
    h = grid_case(n, r).system.h
    perm = list(range(h.nrows))
    random.Random(1).shuffle(perm)
    shuffled = HPolytope(QMatrix(tuple(h.A.row(i) for i in perm)), tuple(h.b[i] for i in perm))
    v = h_to_v(h)
    w = h_to_v(shuffled)
    # row j of the shuffled system is row perm[j] of the original
    assert {x: inc for x, inc in zip(v.vertices, v.incidence)} == {
        x: frozenset(perm[j] for j in inc) for x, inc in zip(w.vertices, w.incidence)
    }

    points = list(v.vertices)
    random.Random(2).shuffle(points)
    facets = _facets_up_to_scaling(v_to_h(points))
    assert facets == _facets_up_to_scaling(v_to_h(v.vertices))
    assert facets == _facets_up_to_scaling(h)


def test_projected_identity_hull_has_eight_facets(grid_case):
    # identity projection for r=2: the hull of the 16 vertices has f3 = 8
    case = grid_case(4, 2)
    v = h_to_v(case.system.h)
    h = v_to_h(v.vertices)
    assert h.nrows == 8


def test_hull_vertices_have_full_rank_incidence(grid_case):
    case = grid_case(6, 2)
    v = h_to_v(case.system.h)
    hull = convex_hull(v.vertices)
    assert hull.v.nvertices == 36
    for vertex, tight in zip(hull.v.vertices, hull.v.incidence):
        normals = [hull.h.A.row(j) for j in sorted(tight)]
        assert affine_rank_oracle([tuple(x) for x in normals] + [(QQ(0),) * 4]) >= 4


def test_product_isomorphic_plain_product():
    system = build_plain_product(4, 2, SQUARE_POLYGON, ONES4)
    v = h_to_v(system)
    assert product_isomorphic(v, system.labels, 4, 2)
    labeling = product_labeling(v, system.labels, 4, 2)
    assert sorted(labeling) == sorted(
        (a, b) for a in range(4) for b in range(4)
    )


def test_product_isomorphic_requires_labels():
    system = build_plain_product(4, 2, SQUARE_POLYGON, ONES4)
    v = h_to_v(system)
    with pytest.raises(ValueError):
        product_isomorphic(v, None, 4, 2)


def test_product_isomorphic_rejects_corrupted_rhs(grid_case):
    good = grid_case(4, 2).system.h
    b = list(good.b)
    b[0], b[1] = b[1], b[0]
    bad = HPolytope(good.A, tuple(b), good.labels)
    v = h_to_v(bad)
    assert not product_isomorphic(v, bad.labels, 4, 2)


def test_product_isomorphic_rejects_coarse_perturbation():
    # eps = 1/2 destroys convex position of the n=6 polygon; the system is
    # not a product of hexagons no matter how large M is
    params = ConstructionParams(6, 3, QQ(1, 2), QQ(36))
    system = build_deformed_product(params)
    v = h_to_v(system)
    assert v.nvertices != 6**3
    assert not product_isomorphic(v, system.labels, 6, 3)


def test_non_simple_polytope_is_not_a_product():
    # square pyramid over a labeled square: apex is tight on four rows
    rows = [
        [1, 0, -1], [0, 1, -1], [-1, 0, -1], [0, -1, -1], [0, 0, 1],
    ]
    h = HPolytope(
        QMatrix.from_rows(rows),
        (QQ(0), QQ(0), QQ(0), QQ(0), QQ(1)),
        ((1, 0), (1, 1), (1, 2), (1, 3), (2, 0)),
    )
    v = h_to_v(h)
    assert not product_isomorphic(v, h.labels, 4, 2)


def test_h_to_v_segment():
    v = h_to_v(HPolytope(QMatrix.from_rows([[1], [-1]]), (QQ(1), QQ(0))))
    assert v.vertices == ((QQ(1),), (QQ(0),))
    assert v.incidence == (frozenset({0}), frozenset({1}))


def test_convex_hull_of_collinear_points():
    hull = convex_hull([(QQ(0),), (QQ(1),), (QQ(1, 2),), (QQ(1),)])
    assert hull.point_vertex == (0, 1, None, 1)
    assert hull.facet_points == (0b1010, 0b0001)


# --- the double description against its rank-test oracle --------------------


def _polar_rows(points) -> list[tuple[int, ...]]:
    """Cone rows of the polar of conv(points) about the barycenter of the
    distinct points, as ``convex_hull`` builds them."""
    unique = list(dict.fromkeys(tuple(QQ(x) for x in p) for p in points))
    d = len(unique[0])
    center = [sum(p[j] for p in unique) / len(unique) for j in range(d)]
    shifted = tuple(tuple(x - c for x, c in zip(p, center)) for p in unique)
    return _cone_rows(HPolytope(QMatrix(shifted), (QQ(1),) * len(shifted)))


def _h_polytope(rows) -> HPolytope:
    return HPolytope(QMatrix.from_rows(rows), (QQ(1),) * len(rows))


def _signs(k):
    return [[(-1) ** (m >> i & 1) for i in range(k)] for m in range(2**k)]


def _unit(i, s=1):
    return [s if j == i else 0 for j in range(4)]


CUBE4 = [_unit(i, s) for i in range(4) for s in (1, -1)]
CROSS4 = _signs(4)
CELL24 = [
    [a if k == i else b if k == j else 0 for k in range(4)]
    for i in range(4) for j in range(i + 1, 4) for a, b in _signs(2)
]


@pytest.mark.parametrize("n,r", [(4, 3), (6, 3)])
def test_dd_matches_rank_oracle_on_source_and_projected_hull(grid_case, n, r):
    system = grid_case(n, r).system
    for rows in (_cone_rows(system.h), _polar_rows(system.checker.images)):
        assert _dd_extreme_rays(rows) == dd_rank_oracle(rows)


@pytest.mark.parametrize("facets", [CUBE4, CROSS4, CELL24], ids=["cube", "cross", "24-cell"])
def test_dd_matches_rank_oracle_on_degenerate_4_polytopes(facets):
    # every vertex of the cross-polytope lies on 8 facets, of the 24-cell on 6
    h = _h_polytope(facets)
    for rows in (_cone_rows(h), _polar_rows(h_to_v(h).vertices)):
        assert _dd_extreme_rays(rows) == dd_rank_oracle(rows)


@st.composite
def small_grid_points(draw):
    d = draw(st.integers(2, 5))
    point = st.tuples(*[st.integers(-3, 3)] * d)
    return draw(st.lists(point, min_size=d + 1, max_size=d + 8))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(points=small_grid_points())
def test_dd_matches_rank_oracle_on_small_grid_point_sets(points):
    assume(affine_rank_oracle(points) == len(points[0]))
    rows = _polar_rows(points)
    assert _dd_extreme_rays(rows) == dd_rank_oracle(rows)


# --- scaling guard: elimination calls do not grow with the row count --------


def _bareiss_calls(monkeypatch, fn, *args) -> int:
    calls = []
    original = linalg._bareiss

    def counting(rows):
        calls.append(1)
        return original(rows)

    monkeypatch.setattr(linalg, "_bareiss", counting)
    fn(*args)
    return len(calls)


@pytest.mark.parametrize("n,r,calls", [(4, 3, 10), (6, 3, 10), (4, 4, 12)])
def test_h_to_v_eliminations_follow_the_cone_dimension(grid_case, monkeypatch, n, r, calls):
    # rank of A, the initial basis, one null vector per basis ray and the
    # final affine rank: cone dimension 2r + 1, plus 3
    assert _bareiss_calls(monkeypatch, h_to_v, grid_case(n, r).system.h) == calls


@pytest.mark.parametrize("n,r", [(4, 3), (6, 3)])
def test_4d_hull_eliminations_are_fixed(grid_case, monkeypatch, n, r):
    images = grid_case(n, r).system.checker.images
    assert _bareiss_calls(monkeypatch, convex_hull, images) == 9
