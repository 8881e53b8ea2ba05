import random
from fractions import Fraction as QQ

import pytest

from oracle import affine_rank_oracle, brute_force_vertices, is_irredundant
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
    assert hull.point_vertex[hull.dedup_index[4]] is None  # interior point
    assert hull.dedup_index[5] == hull.dedup_index[0]  # duplicate collapses


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
