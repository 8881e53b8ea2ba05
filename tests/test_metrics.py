from fractions import Fraction as QQ
from itertools import combinations, product

import pytest

from conftest import GRID
from oracle import counting_identities_oracle, lattice_faces
from projpoly.construction import ConstructionError
from projpoly.lattice import FlagVector4, face_lattice
from projpoly.metrics import (
    CountingError,
    MetricsError,
    complexity,
    complexity_paper_literal,
    cone_membership,
    counting_identities,
    fatness,
    fatness_paper_literal,
    gvector,
    metrics_report,
    phi_coords,
    predicted_flag,
    predicted_flag_paper_literal,
)
from projpoly.polytope import convex_hull
from projpoly.projection import product_polygons

CUBE4 = FlagVector4(16, 32, 24, 8, 64)
SIMPLEX4 = FlagVector4(5, 10, 10, 5, 20)


def _cell24_flag():
    pts = set()
    for pos in combinations(range(4), 2):
        for s1, s2 in product((1, -1), repeat=2):
            p = [QQ(0)] * 4
            p[pos[0]], p[pos[1]] = QQ(s1), QQ(s2)
            pts.add(tuple(p))
    return FlagVector4.from_lattice(face_lattice(convex_hull(sorted(pts)).v))


CELL24 = _cell24_flag()


def test_fatness_cube():
    assert fatness(CUBE4) == QQ(18, 7)
    assert fatness(CUBE4) < 3


def test_fatness_24_cell_matches_table_value():
    fat = fatness(CELL24)
    assert fat == QQ(172, 38)
    # printed table value 4.526, to three decimals
    assert abs(fat - QQ(4526, 1000)) < QQ(1, 1000)


def test_fatness_apex_error():
    with pytest.raises(MetricsError, match="apex"):
        fatness(SIMPLEX4)


def test_fatness_is_reciprocal_of_phi_sum():
    for flag in (CUBE4, CELL24, predicted_flag(6, 3)):
        phi = phi_coords(flag)
        assert fatness(flag) * (phi.phi0 + phi.phi3) == 1


def test_phi_cube_simple_extreme_case():
    phi = phi_coords(CUBE4)
    assert phi.phi0 == QQ(11, 36)
    assert phi.phi3 == QQ(3, 36)
    assert 3 * phi.phi0 + phi.phi3 == 1


def test_fatness_paper_literal_disagrees():
    # the transposed-index form gives 100/110 for the 24-cell, nowhere near
    # the published 4.526; the discrepancy is what --paper-literal reports
    assert fatness_paper_literal(CELL24) == QQ(100, 110)
    assert fatness_paper_literal(CELL24) != fatness(CELL24)


def test_complexity_forms_agree():
    for flag in (CUBE4, CELL24, predicted_flag(4, 3), predicted_flag(6, 3)):
        comp = complexity(flag)
        g = gvector(flag)
        assert comp == QQ(g.g2, g.g1 + g.g1_dual) + 3
        assert comp >= 3


def test_complexity_fixtures():
    assert complexity(CUBE4) == QQ(22, 7)
    assert complexity(CELL24) == QQ(62, 19)
    # the printed no--20 form differs by exactly 20/(f0+f3-10)
    assert complexity_paper_literal(CUBE4) == QQ(64, 14)
    assert complexity_paper_literal(CUBE4) - complexity(CUBE4) == QQ(20, 14)
    assert complexity_paper_literal(CELL24) == QQ(144, 38)


def test_complexity_factor_two_bounds():
    for flag in (CUBE4, CELL24, predicted_flag(4, 2), predicted_flag(8, 2), predicted_flag(6, 3)):
        fat, comp = fatness(flag), complexity(flag)
        assert comp <= 2 * fat - 2
        assert fat <= 2 * comp - 2
    # tight for the 4-cube: its facets are simple 3-polytopes
    assert complexity(CUBE4) == 2 * fatness(CUBE4) - 2


def test_gvector():
    g = gvector(CUBE4)
    assert (g.g1, g.g1_dual, g.g2) == (11, 3, 2)
    assert gvector(CELL24).g2 == 10


def test_cone_membership():
    assert all(cone_membership(CUBE4).values())
    report = cone_membership(CELL24)
    assert all(report.values())
    phi = phi_coords(CELL24)
    assert phi.phi0 + phi.phi3 == QQ(38, 172) <= QQ(2, 5)
    with pytest.raises(MetricsError):
        cone_membership(SIMPLEX4)


@pytest.mark.parametrize(
    "n,r,expected",
    [
        (4, 2, (16, 32, 24, 8, 64)),
        (4, 3, (64, 192, 192, 64, 512)),
        (6, 3, (216, 648, 594, 162, 1728)),
        (6, 2, (36, 72, 48, 12, 144)),
        (8, 2, (64, 128, 80, 16, 256)),
        (4, 4, (256, 1024, 1152, 384, 3072)),
    ],
)
def test_predicted_flag(n, r, expected):
    flag = predicted_flag(n, r)
    assert flag.as_tuple() == expected
    assert flag.euler_ok


def test_predicted_flag_rejects_bad_input():
    with pytest.raises(ConstructionError):
        predicted_flag(5, 2)
    with pytest.raises(ConstructionError):
        predicted_flag(4, 1)


def test_predicted_flag_paper_literal_violates_euler():
    literal = predicted_flag_paper_literal(4, 2)
    assert literal.f2 == 36  # vs the 24 actual 2-faces of the identity case
    assert not literal.euler_ok
    assert predicted_flag(4, 2).f2 == 24


def test_predicted_flag_matches_computed_lattices(grid_case):
    from conftest import GRID

    for (n, r) in GRID:
        case = grid_case(n, r)
        assert case.analyze.flag_actual == predicted_flag(n, r)
        assert case.analyze.ok


def test_counting_identities_on_computed_instances(grid_case):
    for (n, r), prisms, cubes in [((4, 2), 8, 0), ((4, 3), 48, 16), ((6, 3), 108, 54)]:
        counting = grid_case(n, r).analyze.counting
        assert counting.prisms == prisms
        assert counting.cubes == cubes
        assert counting.ok
    # (4,3): 6*16 + 6*48 = 384 = 2*192 and f03 = 8*16 + 8*48 = 512
    assert 6 * 16 + (4 + 2) * 48 == 2 * predicted_flag(4, 3).f2
    assert 8 * 16 + 2 * 4 * 48 == predicted_flag(4, 3).f03
    # (6,3): 6*54 + 8*108 = 1188 = 2*594
    assert 6 * 54 + (6 + 2) * 108 == 2 * predicted_flag(6, 3).f2


def test_counting_identities_rejects_wrong_polygons(grid_case):
    from projpoly.polytope import h_to_v
    from projpoly.projection import ProjectionChecker

    # n=4: square prisms are combinatorial cubes, so an empty polygon set
    # slips past the shape check but fails the counting identities
    case = grid_case(4, 2)
    v = h_to_v(case.system.h)
    checker = ProjectionChecker(case.system.h, v)
    flag = FlagVector4.from_lattice(checker.q_lattice)
    report = counting_identities(checker.q_lattice, flag, 4, 2, [])
    assert not report.ok

    # n=6: a hexagon prism has 12 vertices and cannot pass as a cube
    case62 = grid_case(6, 2)
    v62 = h_to_v(case62.system.h)
    checker62 = ProjectionChecker(case62.system.h, v62)
    flag62 = FlagVector4.from_lattice(checker62.q_lattice)
    with pytest.raises(CountingError):
        counting_identities(checker62.q_lattice, flag62, 6, 2, [])


def _polygon_masks(system):
    """The polygon images as Q-vertex masks, as ``analyze_system`` builds them."""
    vertex_map = system.checker.hull.point_vertex
    return [sum(1 << vertex_map[i] for i in face.vertices)
            for face in product_polygons(*system.require_nr())]


@pytest.mark.parametrize("n,r", GRID)
def test_counting_identities_equal_the_subset_scan_oracle(n, r, grid_case):
    system = grid_case(n, r).system
    lattice = system.checker.q_lattice
    masks = _polygon_masks(system)
    report = counting_identities(lattice, FlagVector4.from_lattice(lattice), n, r, masks)
    expected = counting_identities_oracle(lattice_faces(lattice), n, r, masks)
    assert (report.prisms, report.cubes) == (expected.prisms, expected.cubes)
    assert report.identities == expected.identities
    assert report.ok and report == grid_case(n, r).analyze.counting


@pytest.mark.parametrize("dim", [0, 1, 3])
def test_counting_identities_reject_a_polygon_of_the_wrong_dimension(dim, grid_case):
    system = grid_case(4, 3).system
    lattice = system.checker.q_lattice
    masks = _polygon_masks(system)
    masks[0] = lattice.faces_of_dim(dim)[0]
    message = "^a polygon image is not a 2-face of the lattice$"
    with pytest.raises(CountingError, match=message):
        counting_identities(lattice, FlagVector4.from_lattice(lattice), 4, 3, masks)
    with pytest.raises(CountingError, match=message):
        counting_identities_oracle(lattice_faces(lattice), 4, 3, masks)


def _fatness_and_complexity(n, r):
    flag = predicted_flag(n, r)
    return fatness(flag), complexity(flag)


def test_limit_claims_large_parameters():
    fat, comp = _fatness_and_complexity(10**6, 10**3)
    assert fat > QQ(89, 10)
    assert comp > QQ(159, 10)
    assert fat < 9
    assert comp < 16


def test_limit_claims_identity_case():
    fat, comp = _fatness_and_complexity(4, 2)
    assert fat == QQ(18, 7)


def test_fatness_approaches_fixed_r_limit():
    # limit of the predicted fatness for n -> infinity at fixed r
    def fatness_limit_fixed_r(r):
        return QQ(9 * r - 6, r + 2)

    for r in (10, 100, 1000):
        limit = fatness_limit_fixed_r(r)
        closer = fatness(predicted_flag(10**6, r))
        farther = fatness(predicted_flag(100, r))
        assert abs(limit - closer) < abs(limit - farther)
        assert abs(limit - closer) < QQ(1, 10**4)
    assert fatness_limit_fixed_r(10) == 7


def test_fatness_monotone_in_r():
    for n in (4, 6, 8, 100):
        values = [fatness(predicted_flag(n, r)) for r in range(2, 51)]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_fatness_and_complexity_bounded_on_sweep():
    for n in (4, 6, 8, 100, 10**6):
        for r in (2, 3, 10, 50, 1000):
            fat, comp = _fatness_and_complexity(n, r)
            assert fat < 9
            assert comp < 16


def test_metrics_report_shape():
    report = metrics_report(CUBE4, paper_literal=True)
    assert report["fatness"] == "18/7"
    assert report["fatness_decimal_approx"] == "2.571429"
    assert report["complexity"] == "22/7"
    assert report["cone"]["3*phi0 + phi3 <= 1"] is True
    lit = report["paper_literal"]
    assert lit["complexity"] == "32/7"
    assert lit["complexity_discrepancy"] == "-10/7"
    assert report["consistency"] == {
        "fatness == 1/(phi0+phi3)": True,
        "g2 >= 0": True,
        "C <= 2F - 2": True,
        "F <= 2C - 2": True,
        "cone": True,
    }
    assert list(report)[-1] == "consistency"
