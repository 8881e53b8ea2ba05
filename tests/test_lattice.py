from fractions import Fraction as QQ
from itertools import combinations, product

import pytest

from oracle import is_closed_under_intersection, poly_power_coeffs
from projpoly.construction import build_plain_product
from projpoly.lattice import (
    FlagVector4,
    LatticeError,
    face_lattice,
    flag_f03,
)
from projpoly.linalg import QMatrix
from projpoly.polytope import HPolytope, _bits, convex_hull, h_to_v

SQUARE_POLYGON = QMatrix.from_rows([[1, 0], [0, 1], [-1, 0], [0, -1]])
HEXAGON_POLYGON = QMatrix.from_rows([[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]])


def _cube3_lattice():
    rows, rhs = [], []
    for i in range(3):
        for s in (1, -1):
            rows.append(tuple(QQ(s) if j == i else QQ(0) for j in range(3)))
            rhs.append(QQ(1))
    h = HPolytope(QMatrix(tuple(rows)), tuple(rhs))
    return face_lattice(h_to_v(h))


def _product_lattice(n, r, polygon):
    system = build_plain_product(n, r, polygon, (QQ(1),) * n)
    return face_lattice(h_to_v(system))


def test_cube_f_vector():
    lat = _cube3_lattice()
    assert lat.f_vector() == (8, 12, 6)
    assert lat.euler_ok()


def test_cube_lattice_closed_under_intersection():
    assert is_closed_under_intersection(_cube3_lattice())


def test_cube_contains_empty_and_full_face():
    lat = _cube3_lattice()
    assert lat.dim_of(0) == -1
    assert lat.dim_of((1 << 8) - 1) == 3


def test_square_times_square_f_vector():
    lat = _product_lattice(4, 2, SQUARE_POLYGON)
    assert lat.f_vector() == (16, 32, 24, 8)
    assert lat.euler_ok()
    assert flag_f03(lat) == 64


def test_hexagon_times_hexagon_f_vector():
    lat = _product_lattice(6, 2, HEXAGON_POLYGON)
    assert lat.f_vector() == (36, 72, 48, 12)
    assert lat.euler_ok()
    assert flag_f03(lat) == 144


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
    assert lat.euler_ok()


def test_simplex_flag_f03():
    pts = [tuple(QQ(1) if j == i else QQ(0) for j in range(4)) for i in range(4)]
    pts.append((QQ(0),) * 4)
    hull = convex_hull(pts)
    lat = face_lattice(hull.v)
    assert lat.f_vector() == (5, 10, 10, 5)
    assert flag_f03(lat) == 20


def _cell24_lattice():
    pts = set()
    for pos in combinations(range(4), 2):
        for s1, s2 in product((1, -1), repeat=2):
            p = [QQ(0)] * 4
            p[pos[0]], p[pos[1]] = QQ(s1), QQ(s2)
            pts.add(tuple(p))
    return face_lattice(convex_hull(sorted(pts)).v)


def test_24_cell_flag():
    lat = _cell24_lattice()
    assert lat.f_vector() == (24, 96, 96, 24)
    assert flag_f03(lat) == 144  # 24 octahedron facets with 6 vertices each
    for facet in lat.faces_of_dim(3):
        assert facet.bit_count() == 6


def test_flag_f03_needs_dimension_four():
    with pytest.raises(LatticeError):
        flag_f03(_cube3_lattice())


def test_flag_vector_from_lattice():
    flag = FlagVector4.from_lattice(_product_lattice(4, 2, SQUARE_POLYGON))
    assert flag.as_tuple() == (16, 32, 24, 8, 64)
    assert flag.euler_ok


def test_dimensions_increase_along_containment():
    lat = _cube3_lattice()
    for mask_a, dim_a in lat.faces:
        for mask_b, dim_b in lat.faces:
            if mask_a != mask_b and mask_a & mask_b == mask_a and dim_a >= 0:
                assert dim_a < dim_b


def test_face_dimension_is_affine_rank():
    lat = _cube3_lattice()
    # every edge of the cube has exactly 2 vertices, every facet 4
    assert all(m.bit_count() == 2 for m in lat.faces_of_dim(1))
    assert all(m.bit_count() == 4 for m in lat.faces_of_dim(2))
    assert all(len(list(_bits(m))) == 4 for m in lat.faces_of_dim(2))
