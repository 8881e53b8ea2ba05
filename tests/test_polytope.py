import random
from fractions import Fraction as QQ
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import GRID, zero_pattern_system
from oracle import (
    affine_rank_oracle,
    brute_force_vertices,
    build_plain_product,
    convex_hull_oracle,
    dd_rank_oracle,
    is_irredundant,
    polar_rows_oracle,
    product_vertices_oracle,
    qmatrix,
)
from projpoly import linalg, polytope
from projpoly.construction import (
    build_deformed_product,
    choose_parameters,
    rhs_block,
    v_eps_block,
)
from projpoly.io import SystemFile
from projpoly.linalg import QMatrix, clear_denominators, primitive
from projpoly.polytope import (
    DegeneratePolytopeError,
    EmptyPolytopeError,
    HPolytope,
    UnboundedPolytopeError,
    VPolytope,
    _bits,
    _cone_rows,
    _dd_extreme_rays,
    convex_hull,
    h_to_v,
    product_labeling,
    product_vertices,
    v_to_h,
)
from projpoly.pipeline import construct_system
from projpoly.projection import project

SQUARE = HPolytope(
    qmatrix([[1, 0], [-1, 0], [0, 1], [0, -1]]),
    (QQ(1), QQ(1), QQ(1), QQ(1)),
)

SQUARE_POLYGON = qmatrix([[1, 0], [0, 1], [-1, 0], [0, -1]])
ONES4 = (QQ(1),) * 4


def test_square_vertices():
    v = h_to_v(SQUARE)
    assert set(v.vertices) == {
        (QQ(1), QQ(1)), (QQ(1), QQ(-1)), (QQ(-1), QQ(1)), (QQ(-1), QQ(-1))
    }
    assert all(t.bit_count() == 2 for t in v.incidence)


def test_perturbed_polygon_matches_pairwise_intersection_oracle():
    block = v_eps_block(4, QQ(1, 16))
    h = HPolytope(block, rhs_block(4, QQ(1, 16)))
    v = h_to_v(h)
    expected = brute_force_vertices([list(r) for r in block.entries], list(h.b))
    assert set(v.vertices) == expected
    assert v.nvertices == 4
    assert all(t.bit_count() == 2 for t in v.incidence)


def test_deformed_product_matches_subset_oracle(grid_case):
    system = grid_case(4, 2).system.h
    v = h_to_v(system)
    assert v.nvertices == 16
    expected = brute_force_vertices([list(r) for r in system.A.entries], list(system.b))
    assert set(v.vertices) == expected


def test_vertex_incidence_is_exact(grid_case):
    # bit i of a vertex's mask is set iff row i is tight there, and no
    # bit past the last row is set
    for h in (SQUARE, grid_case(4, 3).system.h):
        v = h_to_v(h)
        for vertex, tight in zip(v.vertices, v.incidence):
            assert tight >> h.nrows == 0
            for i, (row, b) in enumerate(zip(h.A.entries, h.b)):
                lhs = sum(a * x for a, x in zip(row, vertex))
                assert (lhs == b) == bool(tight >> i & 1)
                assert lhs <= b


def test_unbounded_raises():
    h = HPolytope(qmatrix([[-1]]), (QQ(0),))
    with pytest.raises(UnboundedPolytopeError):
        h_to_v(h)


def test_unbounded_with_line_raises():
    h = HPolytope(qmatrix([[1, 0], [-1, 0]]), (QQ(1), QQ(1)))
    with pytest.raises(UnboundedPolytopeError):
        h_to_v(h)


def test_empty_raises():
    h = HPolytope(qmatrix([[1], [-1]]), (QQ(-1), QQ(-1)))
    with pytest.raises(EmptyPolytopeError):
        h_to_v(h)


def test_empty_rank_deficient_raises():
    h = HPolytope(qmatrix([[1, 0], [-1, 0]]), (QQ(-1), QQ(-1)))
    with pytest.raises(EmptyPolytopeError):
        h_to_v(h)


def test_degenerate_point_raises():
    h = HPolytope(qmatrix([[1], [-1]]), (QQ(0), QQ(0)))
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


@pytest.mark.parametrize("n,r,eps_m", [
    pytest.param(4, 3, None, id="4-3"),
    pytest.param(6, 3, None, id="6-3"),
    # local_hull refuses this system, so its hull comes from the DD
    pytest.param(6, 3, (QQ(1, 16), QQ(2**16)), id="6-3-dd-fallback"),
])
def test_hull_incidences_match_exact_dot_products(grid_case, n, r, eps_m):
    # the projected hull's facet_points and point_vertex, against the
    # facet inequalities evaluated on every input point; the vertex
    # incidences, against the transpose of facet_points
    if eps_m is None:
        checker = grid_case(n, r).system.checker
    else:
        checker = construct_system(n, r, eps=eps_m[0], big_m=eps_m[1]).checker
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
    for q, tight in enumerate(hull.v.incidence):
        images = sum(1 << i for i, v in enumerate(hull.point_vertex) if v == q)
        assert tight == sum(1 << j for j, mask in enumerate(hull.facet_points) if mask & images)


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
        lambda: choose_parameters(4, 2).h,
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
    return {tuple(primitive(clear_denominators(row + (-b,)))) for row, b in zip(h.A.entries, h.b)}


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
        x: sum(1 << perm[j] for j in _bits(inc)) for x, inc in zip(w.vertices, w.incidence)
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
        normals = [hull.h.A.row(j) for j in _bits(tight)]
        assert affine_rank_oracle([tuple(x) for x in normals] + [(QQ(0),) * 4]) >= 4


def test_product_isomorphic_plain_product():
    system = build_plain_product(4, 2, SQUARE_POLYGON, ONES4)
    v = h_to_v(system)
    product = product_labeling(v, system.labels, 4, 2)
    assert product is not None
    # the same vertices with the same incidences, in another order
    assert product.vertices != v.vertices
    assert sorted(zip(product.vertices, product.incidence)) == sorted(zip(v.vertices, v.incidence))


def test_product_labeling_rejects_two_vertices_with_one_code(grid_case):
    # vertex 1 copies vertex 0's tight rows, so both read as one tuple and
    # the 16 vertices cover only 15 codes
    system = grid_case(4, 2).system
    v = system.vertices
    assert product_labeling(v, system.h.labels, 4, 2) is not None
    incidence = (v.incidence[0],) * 2 + v.incidence[2:]
    twin = VPolytope(v.vertices, incidence, v.dim)
    assert product_labeling(twin, system.h.labels, 4, 2) is None


def test_product_isomorphic_requires_labels():
    system = build_plain_product(4, 2, SQUARE_POLYGON, ONES4)
    v = h_to_v(system)
    with pytest.raises(ValueError):
        product_labeling(v, None, 4, 2)


def test_product_isomorphic_rejects_corrupted_rhs(grid_case):
    good = grid_case(4, 2).system.h
    b = list(good.b)
    b[0], b[1] = b[1], b[0]
    bad = HPolytope(good.A, tuple(b), good.labels)
    v = h_to_v(bad)
    assert product_labeling(v, bad.labels, 4, 2) is None


def test_product_isomorphic_rejects_coarse_perturbation():
    # eps = 1/2 destroys convex position of the n=6 polygon; the system is
    # not a product of hexagons no matter how large M is
    system = build_deformed_product(6, 3, QQ(1, 2), QQ(36))
    v = h_to_v(system)
    assert v.nvertices != 6**3
    assert product_labeling(v, system.labels, 6, 3) is None


def test_non_simple_polytope_is_not_a_product():
    # square pyramid over a labeled square: apex is tight on four rows
    rows = [
        [1, 0, -1], [0, 1, -1], [-1, 0, -1], [0, -1, -1], [0, 0, 1],
    ]
    h = HPolytope(
        qmatrix(rows),
        (QQ(0), QQ(0), QQ(0), QQ(0), QQ(1)),
        ((1, 0), (1, 1), (1, 2), (1, 3), (2, 0)),
    )
    v = h_to_v(h)
    assert product_labeling(v, h.labels, 4, 2) is None


@pytest.mark.parametrize("n,r", GRID + [(8, 3), (4, 5), (6, 4)])
def test_product_vertices_equal_the_dd_on_every_adaptation_round(n, r):
    system = construct_system(n, r)
    rounds = [(a.eps, a.big_m) for a in system.adaptation] + [(system.eps, system.big_m)]
    verdicts = []
    for eps, big_m in rounds:
        h = build_deformed_product(n, r, eps, big_m)
        got = product_vertices(h, n, r)
        assert got == product_vertices_oracle(h, n, r)
        verdicts.append(got is not None)
    assert verdicts == [False] * len(system.adaptation) + [True]


@pytest.mark.parametrize("n,r,eps,big_m,accepted", [
    (4, 3, QQ(1, 16), QQ(2**32), True),
    (4, 2, QQ(1, 16), QQ(256), False),
    (4, 3, QQ(1, 8), QQ(256), True),
    (6, 3, QQ(1, 16), QQ(2**16), True),
    (5, 3, QQ(1, 40), QQ(2**20), True),
])
def test_product_vertices_equal_the_dd_on_explicit_parameters(n, r, eps, big_m, accepted):
    h = build_deformed_product(n, r, eps, big_m)
    got = product_vertices(h, n, r)
    assert got == product_vertices_oracle(h, n, r)
    assert (got is not None) == accepted


def _mutant(h, label, row=None, rhs=None, new_label=None):
    """``h`` with the row, right-hand side or label of row ``label`` replaced."""
    j = h.labels.index(label)
    rows, b, labels = list(h.A.entries), list(h.b), list(h.labels)
    rows[j] = rows[j] if row is None else tuple(QQ(x) for x in row)
    b[j] = b[j] if rhs is None else rhs
    labels[j] = labels[j] if new_label is None else new_label
    return HPolytope(QMatrix(tuple(rows)), tuple(b), tuple(labels))


def _product_mutants():
    """One input per clause of ``product_vertices`` on the (4,3) system."""
    h = construct_system(4, 3).h
    row = h.A.row
    # Vertex 1 has t = (1, 0, 0), so x_1 is the first polygon's corner on
    # rows (1, 0) and (1, 1).  Row (1, 2) moved to that corner, or past
    # it, leaves a triangle.
    corner = product_vertices(h, 4, 3).vertices[1]
    at_corner = sum(a * x for a, x in zip(row(2), corner))
    # Row (3, 1) with twice row (3, 0)'s block-3 entries, and row (1, 0)
    # reading x_2.
    doubled = row(8)[:4] + tuple(2 * x for x in row(8)[4:])
    return {
        "singular-block": _mutant(h, (3, 1), row=doubled),
        "extra-tight-row": _mutant(h, (1, 2), rhs=at_corner),
        "violated-row": _mutant(h, (1, 2), rhs=at_corner - QQ(1, 1000)),
        "zero-pattern": zero_pattern_system().h,
        "duplicate-label": _mutant(h, (2, 1), new_label=(2, 2)),
    }


@pytest.mark.parametrize("clause", [
    "singular-block", "extra-tight-row", "violated-row", "zero-pattern", "duplicate-label",
])
def test_each_clause_refuses_its_mutant(clause):
    h = _product_mutants()[clause]
    assert product_vertices(h, 4, 3) is None
    system = SystemFile(h)
    assert system.certified is None
    if clause == "zero-pattern":
        # a product still, which the double description fallback finds
        assert product_vertices_oracle(h, 4, 3) is not None
        assert system.product is not None and system.vertices.nvertices == 64
    else:
        assert product_vertices_oracle(h, 4, 3) is None
        assert system.product is None


def test_a_singular_pair_is_refused_where_every_candidate_is_strict():
    # Rows (1, 3) and (1, 0) are parallel, and each candidate, the one they
    # give included, is strictly inside its other rows: only the
    # determinant test refuses this strip, which is unbounded.
    h = HPolytope(
        qmatrix([[-2, 2], [0, 2], [2, 2], [2, -2]]),
        tuple(QQ(x) for x in (3, 2, 2, 3)),
        tuple((1, i) for i in range(4)),
    )
    assert product_vertices(h, 4, 1) is None
    assert product_vertices_oracle(h, 4, 1) is None


def test_h_to_v_segment():
    v = h_to_v(HPolytope(qmatrix([[1], [-1]]), (QQ(1), QQ(0))))
    assert v.vertices == ((QQ(1),), (QQ(0),))
    assert v.incidence == (0b01, 0b10)


def test_convex_hull_of_collinear_points():
    hull = convex_hull([(QQ(0),), (QQ(1),), (QQ(1, 2),), (QQ(1),)])
    assert hull.point_vertex == (0, 1, None, 1)
    assert hull.facet_points == (0b1010, 0b0001)


# --- the double description against its rank-test oracle --------------------


def _h_polytope(rows) -> HPolytope:
    return HPolytope(qmatrix(rows), (QQ(1),) * len(rows))


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
    # the 2r-dim polar of P's vertices is the v_to_h of a round trip; many
    # of its candidate pairs are not adjacent
    polars = (polar_rows_oracle(system.vertices.vertices), polar_rows_oracle(system.checker.images))
    for rows in (_cone_rows(system.h), *polars):
        assert _dd_extreme_rays(rows) == dd_rank_oracle(rows)


def test_dd_matches_rank_oracle_where_ray_ids_are_renumbered(grid_case):
    # The (4,4) hull makes 3,458 ray ids for at most 513 live rays, so its
    # ids are renumbered (past twice the live rays plus 64) many times.
    rows = polar_rows_oracle(grid_case(4, 4).system.checker.images)
    assert _dd_extreme_rays(rows) == dd_rank_oracle(rows)


@pytest.mark.parametrize("facets", [CUBE4, CROSS4, CELL24], ids=["cube", "cross", "24-cell"])
def test_dd_matches_rank_oracle_on_degenerate_4_polytopes(facets):
    # every vertex of the cross-polytope lies on 8 facets, of the 24-cell on 6
    h = _h_polytope(facets)
    for rows in (_cone_rows(h), polar_rows_oracle(h_to_v(h).vertices)):
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
    rows = polar_rows_oracle(points)
    assert _dd_extreme_rays(rows) == dd_rank_oracle(rows)


# --- the integer grid of convex_hull against the Fraction front end ----------


def _hull_and_dd_rows(points):
    """convex_hull(points) and the rows it handed to the double description."""
    with patch.object(polytope, "_dd_extreme_rays", wraps=polytope._dd_extreme_rays) as dd:
        hull = convex_hull(points)
    (rows,), _ = dd.call_args
    return hull, [tuple(row) for row in rows]


def _assert_matches_fraction_front_end(points):
    hull, rows = _hull_and_dd_rows(points)
    assert rows == polar_rows_oracle(points)
    want, rows = convex_hull_oracle(points)
    assert hull == want
    assert hull.h == rows


@pytest.mark.parametrize("n,r", GRID)
def test_integer_grid_hull_matches_fraction_front_end(grid_case, n, r):
    _assert_matches_fraction_front_end(grid_case(n, r).system.checker.images)


def test_integer_grid_hull_matches_fraction_front_end_at_8_3():
    _assert_matches_fraction_front_end(project(construct_system(8, 3).vertices))


def _spellings(x):
    """x as a Fraction, as an unreduced 'p/q' string and, if integral, as an int."""
    forms = [x, f"{2 * x.numerator}/{2 * x.denominator}"]
    if x.denominator == 1:
        forms.append(int(x))
    return forms


@st.composite
def rational_point_sets(draw):
    d = draw(st.integers(1, 3))
    # coprime and mixed denominators
    coord = st.builds(QQ, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5, 6, 7]))
    points = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=d + 6))
    points += draw(st.lists(st.sampled_from(points), max_size=3))
    points = draw(st.permutations(points))
    return [tuple(draw(st.sampled_from(_spellings(x))) for x in p) for p in points]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(points=rational_point_sets())
def test_integer_grid_hull_matches_fraction_front_end_on_rational_points(points):
    if affine_rank_oracle([tuple(QQ(x) for x in p) for p in points]) < len(points[0]):
        with pytest.raises(DegeneratePolytopeError):
            convex_hull(points)
    else:
        _assert_matches_fraction_front_end(points)


def test_convex_hull_hashes_no_fraction(grid_case, monkeypatch):
    images = grid_case(4, 3).system.checker.images
    hashed = []
    original = QQ.__hash__

    def counting(self):
        hashed.append(self)
        return original(self)

    monkeypatch.setattr(QQ, "__hash__", counting)
    hull = convex_hull(images)
    monkeypatch.undo()
    assert hull.v.nvertices == 64
    assert hashed == []


CUBE3 = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
# |x| <= 2, |y| <= 2, |x| + |y| <= 3 and z = 0: eight coplanar vertices
OCTAGON3 = CUBE3 + [[1, 1, 0], [1, -1, 0], [-1, 1, 0], [-1, -1, 0]]


@pytest.mark.parametrize("rows,rhs,error", [
    (CUBE3[:4], [1, 1, 1, 1], UnboundedPolytopeError),
    (CUBE3[:4], [-1, -1, 1, 1], EmptyPolytopeError),
    (CUBE3, [1, 1, 1, 1, -1, -1], EmptyPolytopeError),
    (OCTAGON3, [2, 2, 2, 2, 0, 0, 3, 3, 3, 3], DegeneratePolytopeError),
], ids=["rank-deficient-feasible", "rank-deficient-infeasible", "infeasible", "lower-dimensional"])
def test_h_to_v_errors_in_three_dimensions(rows, rhs, error):
    with pytest.raises(error):
        h_to_v(HPolytope(qmatrix(rows), tuple(QQ(b) for b in rhs)))


def test_zero_rows_tight_everywhere_are_not_implicit_equalities():
    # 0 . x <= 0 holds with equality at every vertex but cuts nothing out
    h = HPolytope(qmatrix(CUBE3 + [[0, 0, 0]]), (QQ(1),) * 6 + (QQ(0),))
    v = h_to_v(h)
    assert v.nvertices == 8
    assert all(tight >> 6 & 1 for tight in v.incidence)


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


@pytest.mark.parametrize("n,r,calls", [(4, 3, 8), (6, 3, 8), (4, 4, 10)])
def test_h_to_v_eliminations_follow_the_cone_dimension(grid_case, monkeypatch, n, r, calls):
    # the initial basis and one null vector per basis ray: cone dimension
    # 2r + 1, plus 1 (the basis also decides rank A = d, and the implicit
    # equalities decide full dimension)
    assert _bareiss_calls(monkeypatch, h_to_v, grid_case(n, r).system.h) == calls


@pytest.mark.parametrize("n,r", [(4, 3), (6, 3)])
def test_4d_hull_eliminations_are_fixed(grid_case, monkeypatch, n, r):
    # the polar's initial basis, which also decides full dimension, and its
    # five null vectors
    images = grid_case(n, r).system.checker.images
    assert _bareiss_calls(monkeypatch, convex_hull, images) == 6
