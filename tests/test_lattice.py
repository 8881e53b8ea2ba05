from fractions import Fraction as QQ
from functools import cache
from itertools import combinations, product

import pytest

from oracle import (
    affine_rank_oracle,
    build_plain_product,
    euler_ok,
    face_lattice_oracle,
    is_closed_under_intersection,
    lattice_faces,
    poly_power_coeffs,
    qmatrix,
)
from conftest import GRID, run_case
from projpoly.lattice import FlagVector4, LatticeError, face_lattice
from projpoly.linalg import QMatrix
from projpoly.polytope import HPolytope, VPolytope, _bits, convex_hull, h_to_v

SQUARE_POLYGON = qmatrix([[1, 0], [0, 1], [-1, 0], [0, -1]])
HEXAGON_POLYGON = qmatrix([[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]])


def _cube3_vertices():
    rows, rhs = [], []
    for i in range(3):
        for s in (1, -1):
            rows.append(tuple(QQ(s) if j == i else QQ(0) for j in range(3)))
            rhs.append(QQ(1))
    return h_to_v(HPolytope(QMatrix(tuple(rows)), tuple(rhs)))


def _cube3_lattice():
    return face_lattice(_cube3_vertices())


def _product_lattice(n, r, polygon):
    system = build_plain_product(n, r, polygon, (QQ(1),) * n)
    return face_lattice(h_to_v(system))


def test_cube_f_vector():
    lat = _cube3_lattice()
    assert lat.f_vector() == (8, 12, 6)
    assert euler_ok(lat)


def test_cube_lattice_closed_under_intersection():
    assert is_closed_under_intersection(_cube3_lattice())


def test_cube_contains_empty_and_full_face():
    lat = _cube3_lattice()
    assert lat.dim_of(0) == -1
    assert lat.dim_of((1 << 8) - 1) == 3


def test_square_times_square_f_vector():
    lat = _product_lattice(4, 2, SQUARE_POLYGON)
    assert lat.f_vector() == (16, 32, 24, 8)
    assert euler_ok(lat)
    assert FlagVector4.from_lattice(lat).f03 == 64


def test_hexagon_times_hexagon_f_vector():
    lat = _product_lattice(6, 2, HEXAGON_POLYGON)
    assert lat.f_vector() == (36, 72, 48, 12)
    assert euler_ok(lat)
    assert FlagVector4.from_lattice(lat).f03 == 144


@pytest.mark.parametrize(
    "n,r,polygon",
    [(4, 2, SQUARE_POLYGON), (6, 2, HEXAGON_POLYGON), (4, 3, SQUARE_POLYGON)],
)
def test_product_f_vector_matches_generating_function(n, r, polygon):
    # coefficient of t^i in (1 + n t + n t^2)^r equals f_{2r-i}
    lat = _product_lattice(n, r, polygon)
    coeffs = poly_power_coeffs(n, r)
    fvec = lat.f_vector()
    assert coeffs[0] == 1  # the polytope itself
    for i in range(1, 2 * r + 1):
        assert coeffs[i] == fvec[2 * r - i]


@pytest.mark.parametrize("n,r", [(4, 2), (4, 3), (6, 3)])
def test_deformed_product_f_vector_matches_generating_function(n, r, grid_case):
    # the deformed systems realize the same face numbers as the plain products
    case = grid_case(n, r)
    lat = face_lattice(h_to_v(case.system.h))
    coeffs = poly_power_coeffs(n, r)
    fvec = lat.f_vector()
    for i in range(1, 2 * r + 1):
        assert coeffs[i] == fvec[2 * r - i]
    assert euler_ok(lat)


def _simplex4_vertices():
    pts = [tuple(QQ(1) if j == i else QQ(0) for j in range(4)) for i in range(4)]
    pts.append((QQ(0),) * 4)
    return convex_hull(pts).v


def test_simplex_flag_f03():
    lat = face_lattice(_simplex4_vertices())
    assert lat.f_vector() == (5, 10, 10, 5)
    assert FlagVector4.from_lattice(lat).f03 == 20


def _cell24_vertices():
    pts = set()
    for pos in combinations(range(4), 2):
        for s1, s2 in product((1, -1), repeat=2):
            p = [QQ(0)] * 4
            p[pos[0]], p[pos[1]] = QQ(s1), QQ(s2)
            pts.add(tuple(p))
    return convex_hull(sorted(pts)).v


def _cell24_lattice():
    return face_lattice(_cell24_vertices())


def test_24_cell_flag():
    lat = _cell24_lattice()
    assert lat.f_vector() == (24, 96, 96, 24)
    assert FlagVector4.from_lattice(lat).f03 == 144  # 24 octahedron facets with 6 vertices each
    for facet in lat.faces_of_dim(3):
        assert facet.bit_count() == 6


def test_flag_f03_needs_dimension_four():
    with pytest.raises(LatticeError):
        FlagVector4.from_lattice(_cube3_lattice())


def test_flag_vector_from_lattice():
    flag = FlagVector4.from_lattice(_product_lattice(4, 2, SQUARE_POLYGON))
    assert flag.as_tuple() == (16, 32, 24, 8, 64)
    assert flag.euler_ok


def test_dimensions_increase_along_containment():
    lat = _cube3_lattice()
    faces = lattice_faces(lat).items()
    for mask_a, dim_a in faces:
        for mask_b, dim_b in faces:
            if mask_a != mask_b and mask_a & mask_b == mask_a and dim_a >= 0:
                assert dim_a < dim_b


def test_face_dimension_is_affine_rank():
    lat = _cube3_lattice()
    # every edge of the cube has exactly 2 vertices, every facet 4
    assert all(m.bit_count() == 2 for m in lat.faces_of_dim(1))
    assert all(m.bit_count() == 4 for m in lat.faces_of_dim(2))
    assert all(len(list(_bits(m))) == 4 for m in lat.faces_of_dim(2))


@pytest.mark.parametrize("n,r", [(4, 3), (6, 3)])
def test_grading_from_incidences_is_affine_rank(n, r, grid_case):
    # the incidences alone grade the lattice; coordinates must agree
    system = grid_case(n, r).system
    for v, lat in ((system.vertices, face_lattice(system.vertices)),
                   (system.checker.qv, system.checker.q_lattice)):
        for mask, dim in lattice_faces(lat).items():
            assert dim == affine_rank_oracle([v.vertices[i] for i in _bits(mask)])


def test_lower_dimensional_vertex_set_rejected():
    # the unit square's vertices and edge incidences, declared in dimension 3
    square = VPolytope(
        tuple((QQ(x), QQ(y), QQ(0)) for x, y in ((0, 0), (1, 0), (1, 1), (0, 1))),
        (0b1001, 0b0011, 0b0110, 0b1100),
        dim=3,
    )
    with pytest.raises(LatticeError, match="not full-dimensional"):
        face_lattice(square)


# The lattices checked against the oracle: P's and Q's for every grid case,
# and three regular polytopes.
ORACLE_LATTICES = [f"{side}{n}x{r}" for n, r in GRID for side in "PQ"] + ["24-cell", "simplex", "3-cube"]


@cache
def _oracle_case(name):
    """(vertex polytope, its lattice) by name; Q's lattice is the checker's."""
    if name[0] in "PQ":
        n, r = map(int, name[1:].split("x"))
        system = run_case(n, r).system
        if name[0] == "Q":
            return system.checker.qv, system.checker.q_lattice
        return system.vertices, face_lattice(system.vertices)
    v = {"24-cell": _cell24_vertices, "simplex": _simplex4_vertices, "3-cube": _cube3_vertices}[name]()
    return v, face_lattice(v)


def _brute_force_covers(lat):
    """{face: sorted faces one dimension lower inside it}, by testing every
    face against every face of the dimension below."""
    by_dim = {}
    for mask, dim in lattice_faces(lat).items():
        by_dim.setdefault(dim, []).append(mask)
    return {
        face: sorted(g for g in by_dim.get(dim - 1, ()) if g & face == g)
        for face, dim in lattice_faces(lat).items()
    }


@pytest.mark.parametrize("name", ORACLE_LATTICES)
def test_face_dims_equal_the_oracle_lattice(name):
    v, lat = _oracle_case(name)
    faces = lattice_faces(lat)
    assert faces == face_lattice_oracle(v)
    assert len(lat) == len(faces)
    assert all(lat.dim_of(mask) == dim and mask in lat for mask, dim in faces.items())


@pytest.mark.parametrize("name", ORACLE_LATTICES)
def test_covers_are_the_faces_one_dimension_lower(name):
    _, lat = _oracle_case(name)
    brute = _brute_force_covers(lat)
    for face in lattice_faces(lat):
        covers = lat.covers(face)
        assert len(covers) == len(set(covers))
        assert sorted(covers) == brute[face]


def _square_vertices(extra_rows=(), dim=2):
    """The unit square: rows 0-3 are its edges, and ``extra_rows`` maps
    more row indices to the vertices they are tight at."""
    edges = ({0, 1}, {1, 2}, {2, 3}, {3, 0})
    incidence = [{row for row, ends in enumerate(edges) if u in ends} for u in range(4)]
    for row, verts in extra_rows:
        for u in verts:
            incidence[u].add(row)
    coords = ((0, 0), (1, 0), (1, 1), (0, 1))
    return VPolytope(
        tuple(tuple(QQ(x) for x in xy) + (QQ(0),) * (dim - 2) for xy in coords),
        tuple(sum(1 << row for row in t) for t in incidence),
        dim=dim,
    )


def _cube_with_rows(extra_rows):
    """The 3-cube's vertices with ``extra_rows`` (row index, tight
    vertices) added to its six facet rows."""
    cube = _cube3_vertices()
    incidence = list(cube.incidence)
    for row, verts in extra_rows:
        for u in verts:
            incidence[u] |= 1 << row
    return VPolytope(cube.vertices, tuple(incidence), cube.dim)


def _facet_vertices(cube, row):
    return [u for u, tight in enumerate(cube.incidence) if tight >> row & 1]


def _edge_cases():
    """{name: (vertex polytope, its f-vector)}."""
    cube = _cube3_vertices()
    facet0 = _facet_vertices(cube, 0)
    facet3 = _facet_vertices(cube, 3)
    edge = sorted(set(facet0) & set(_facet_vertices(cube, 2)))
    segment = VPolytope(((QQ(0),), (QQ(1),)), (0b01, 0b10), dim=1)
    return {
        # rows 6 and 7 repeat rows 0 and 3
        "duplicate-rows": (_cube_with_rows([(6, facet0), (7, facet3)]), (8, 12, 6)),
        # row 6 touches the cube along one edge, inside two facets
        "redundant-edge-row": (_cube_with_rows([(6, edge)]), (8, 12, 6)),
        # row 6 touches one vertex only
        "redundant-vertex-row": (_cube_with_rows([(6, edge[:1])]), (8, 12, 6)),
        # row 6 is tight at no vertex: it shows only as a gap before row 7
        "row-tight-nowhere": (_cube_with_rows([(7, facet0)]), (8, 12, 6)),
        "segment": (segment, (2,)),
        "square": (_square_vertices(), (4, 4)),
        "square-with-duplicate-edge": (_square_vertices([(4, {0, 1})]), (4, 4)),
    }


@pytest.mark.parametrize("name", list(_edge_cases()))
def test_closure_top_level_matches_the_oracle_on_edge_cases(name):
    v, f_vector = _edge_cases()[name]
    lat = face_lattice(v)
    assert lat.f_vector() == f_vector
    assert lattice_faces(lat) == face_lattice_oracle(v)
    brute = _brute_force_covers(lat)
    assert all(sorted(lat.covers(face)) == brute[face] for face in brute)


def test_row_tight_at_every_vertex_is_not_full_dimensional():
    # the square in dimension 3, with row 4 (z <= 0) tight at all four vertices
    square = _square_vertices([(4, {0, 1, 2, 3})], dim=3)
    for build in (face_lattice, face_lattice_oracle):
        with pytest.raises(LatticeError, match="^vertex set is not full-dimensional$"):
            build(square)
