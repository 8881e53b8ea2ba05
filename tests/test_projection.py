import dataclasses
from collections import Counter
from fractions import Fraction as QQ
from functools import cache, reduce
from operator import and_, attrgetter

import pytest

from conftest import GRID, PASS_GATES_FAIL_VERIFY, zero_pattern_system
from oracle import (
    affine_rank_oracle,
    certificate_input,
    certificate_oracle,
    enumerate_edges_oracle,
    enumerate_polygon_faces_oracle,
    gale_verdict,
    nonneg_solution_oracle,
    product_tuples,
    qmatrix,
    vertex_faces_oracle,
)
from projpoly import linalg, projection
from projpoly.construction import (
    U0,
    U1,
    V0,
    V1,
    W0,
    W1,
    CertificateError,
    alpha_coeff,
    beta_coeff,
    deletion_certificates,
    reduced_matrix,
    zero_sum_check,
)
from projpoly.lattice import FaceLattice, mask_of
from projpoly.pipeline import construct_system, verify_system
from projpoly.polytope import HPolytope, _bits, h_to_v, product_labeling
from projpoly.projection import ProductFace, ProjectionChecker, product_polygons, project


def _faces(system, dim):
    """The system's faces of dimension ``dim``, from the per-kind oracles."""
    n, r = system.require_nr()
    tuples = product_tuples(n, r)
    if dim == 0:
        return vertex_faces_oracle(tuples)
    if dim == 1:
        return enumerate_edges_oracle(tuples, n, r)
    return enumerate_polygon_faces_oracle(tuples, n, r)


def _cycle_edges(polygon):
    """The consecutive pairs of a polygon's vertices, the last with the
    first, each as a sorted pair."""
    cycle = polygon.vertices
    return [tuple(sorted(pair)) for pair in zip(cycle, cycle[1:] + cycle[:1])]


def test_alpha_beta_values():
    assert alpha_coeff(0) == 0 and beta_coeff(0) == 0
    assert alpha_coeff(1) == QQ(1, 2) and beta_coeff(1) == QQ(3, 8)
    assert alpha_coeff(-1) == QQ(1, 2) and beta_coeff(-1) == QQ(3, 4)


def test_alpha_beta_nonnegative_zero_only_at_origin():
    for k in range(-20, 21):
        alpha, beta = alpha_coeff(k), beta_coeff(k)
        assert alpha >= 0 and beta >= 0
        assert (alpha == 0) == (k == 0)
        assert (beta == 0) == (k == 0)


def test_zero_sum_identity_examples():
    # k=0: (1/2)v0 + (1/2)w0 + (3/8)w1 = 0
    assert sum(c * v[0] for c, v in [(QQ(1, 2), V0), (QQ(1, 2), W0), (QQ(3, 8), W1)]) == 0
    assert zero_sum_check(0)
    assert zero_sum_check(1)
    assert zero_sum_check(5)


def test_zero_sum_identity_range():
    assert all(zero_sum_check(k) for k in range(-20, 21))


def test_reduced_matrix_r3():
    m = reduced_matrix(3)
    assert m.entries == (V0, V1, U0, U1, W0, W1)


def test_reduced_matrix_r2_has_no_columns():
    m = reduced_matrix(2)
    assert m.rows == 4 and m.cols == 0


def test_reduced_matrix_r4_block_pattern():
    m = reduced_matrix(4)
    assert m.rows == 8 and m.cols == 4
    zero = (QQ(0), QQ(0))
    assert m.row(0) == V0 + zero        # block 1: V at column 1
    assert m.row(2) == U0 + V0          # block 2: U at 1, V at 2
    assert m.row(4) == W0 + U0          # block 3: W at 1, U at 2
    assert m.row(6) == zero + W0        # block 4: W at 2
    assert m.row(7) == zero + W1


def test_reduced_matrix_rejects_r1():
    with pytest.raises(CertificateError):
        reduced_matrix(1)


def test_deletion_certificates_r2_vacuous():
    assert deletion_certificates(2) == []


def test_deletion_certificates_r3():
    certs = deletion_certificates(3)
    assert [c.kind for c in certs] == ["spanning"] * 3
    # coefficients are alpha/beta at the block offsets from the deleted block
    assert certs[0].coefficients == (
        alpha_coeff(1), beta_coeff(1), alpha_coeff(2), beta_coeff(2)
    )
    assert certs[1].coefficients == (
        alpha_coeff(-1), beta_coeff(-1), alpha_coeff(1), beta_coeff(1)
    )


def test_deletion_certificates_r5_block3():
    certs = deletion_certificates(5)
    coeffs = certs[2].coefficients  # t = 3
    assert coeffs == (
        QQ(9, 4), QQ(3),        # alpha(-2), beta(-2)
        QQ(1, 2), QQ(3, 4),     # alpha(-1), beta(-1)
        QQ(1, 2), QQ(3, 8),     # alpha(1), beta(1)
        QQ(9, 4), QQ(33, 16),   # alpha(2), beta(2)
    )
    # the dependence is exact on the reduced matrix with block 3 removed
    m = reduced_matrix(5)
    rows = [m.row(i) for i in range(10) if i not in (4, 5)]
    for j in range(m.cols):
        assert sum(c * row[j] for c, row in zip(coeffs, rows)) == 0


def test_deletion_certificates_formula_level_r10():
    certs = deletion_certificates(10)
    assert len(certs) == 10
    assert all(c.kind == "spanning" for c in certs)
    assert all(min(c.coefficients) > 0 for c in certs)


def test_project_identity_for_r2(grid_case):
    case = grid_case(4, 2)
    v = h_to_v(case.system.h)
    images = project(v)
    assert images == list(v.vertices)


def test_project_rejects_keep_beyond_dimension():
    # projection keeps four coordinates, more than the square has
    square = HPolytope(
        qmatrix([[1, 0], [-1, 0], [0, 1], [0, -1]]), (QQ(1),) * 4
    )
    v = h_to_v(square)
    with pytest.raises(ValueError):
        project(v)


def test_projected_vertices_distinct(grid_case):
    case = grid_case(4, 3)
    v = h_to_v(case.system.h)
    images = project(v)
    assert len(set(images)) == len(images) == 64


def test_projected_hull_facet_count(grid_case):
    # the hull of the 64 projected vertices has 64 facets (f3 of the
    # predicted flag vector for n=4, r=3)
    from projpoly.polytope import v_to_h

    case = grid_case(4, 3)
    v = h_to_v(case.system.h)
    hull = v_to_h(project(v))
    assert hull.nrows == 64


# [0,1]^5: dropping x0 projects it onto the 4-cube, so every x0-edge
# collapses onto a vertex of the image.
UNIT_CUBE5 = HPolytope(
    qmatrix([[s if j == i else 0 for j in range(5)] for i in range(5) for s in (-1, 1)]),
    (QQ(0), QQ(1)) * 5,
)


def _cube5_setup():
    v = h_to_v(UNIT_CUBE5)
    by_coord = {vx: i for i, vx in enumerate(v.vertices)}

    def idx(*ones):
        return by_coord[tuple(QQ(int(j in ones)) for j in range(5))]

    return ProjectionChecker(UNIT_CUBE5, v), idx


def test_projection_to_one_coordinate_fails_condition_iii():
    # the x0-edge at the origin collapses onto the image of the origin, so
    # the preimage of that image is bigger than the vertex
    checker, idx = _cube5_setup()
    rep = checker.check_face(ProductFace(None, None, (idx(),)), 0)
    assert not rep.direct_ok
    assert "(iii) preimage of the image contains 1 extra vertices" in rep.details
    assert "(ii)" not in rep.details
    assert not rep.certificate_ok


def test_projection_to_one_coordinate_fails_condition_ii():
    # the x0-edge at the origin maps onto a single point, so the map is not
    # a bijection
    checker, idx = _cube5_setup()
    rep = checker.check_face(ProductFace(None, None, (idx(), idx(0))), 1)
    assert not rep.direct_ok
    assert "(ii) projection is not injective" in rep.details


def test_projection_checker_rejects_non_face():
    # a diagonal of a square 2-face maps onto a diagonal of a square of the
    # 4-cube, which is no face of it
    checker, idx = _cube5_setup()
    rep = checker.check_face(ProductFace(None, None, (idx(), idx(1, 2))), 1)
    assert not rep.direct_ok
    assert "(i) image vertex set is not a face of the projection" in rep.details


def test_projection_checker_compares_the_image_dimension():
    # an x1-edge survives the projection as an edge, so claiming it is a
    # polygon fails condition (ii) on the image's dimension
    checker, idx = _cube5_setup()
    assert "(ii)" not in checker.check_face(ProductFace(None, None, (idx(), idx(1))), 1).details
    rep = checker.check_face(ProductFace(None, None, (idx(), idx(1))), 2)
    assert not rep.direct_ok
    assert "(ii) image has lower affine dimension than the face" in rep.details


@pytest.mark.parametrize("n,r", [(4, 3), (6, 3)])
def test_face_dimensions_agree_with_affine_rank_oracle(n, r, grid_case):
    # the dimensions the checker reads combinatorially are the geometric
    # ones: the face kind for P, the projection's lattice for the image
    system = grid_case(n, r).system
    checker = system.checker
    for dim in (0, 1, 2):
        for face in _faces(system, dim):
            assert affine_rank_oracle([system.product.vertices[i] for i in face.vertices]) == dim
            qmask = mask_of(checker.hull.point_vertex[i] for i in face.vertices)
            images = [checker.images[i] for i in face.vertices]
            assert affine_rank_oracle(images) == checker.q_lattice.dim_of(qmask)


def test_all_polygon_faces_strictly_preserved(grid_case):
    case = grid_case(4, 3)
    product = product_labeling(h_to_v(case.system.h), case.system.h.labels, 4, 3)
    checker = ProjectionChecker(case.system.h, product)
    for face in product_polygons(4, 3):
        rep = checker.check_face(face, 2)
        assert rep.direct_ok, rep.details
        assert rep.certificate_ok, rep.details


def test_certificate_implies_direct_on_verified_grid(grid_case):
    for (n, r) in [(4, 2), (4, 3), (6, 3)]:
        result = grid_case(n, r).verify
        assert result.implication_ok


def test_enumerate_polygon_faces_counts():
    faces = product_polygons(4, 2)
    assert len(faces) == 2 * 4
    assert all(len(f.vertices) == 4 for f in faces)

    faces63 = product_polygons(6, 3)
    assert len(faces63) == 3 * 36
    assert all(len(f.vertices) == 6 for f in faces63)

    assert len(product_polygons(4, 3)) == 48


def test_enumerate_edges_counts():
    # Every edge lies in exactly one polygon, and every vertex in r of them.
    polygons = product_polygons(4, 2)
    edges = [edge for face in polygons for edge in _cycle_edges(face)]
    assert len(edges) == len(set(edges)) == 2 * 16
    assert Counter(i for face in polygons for i in face.vertices) == dict.fromkeys(range(16), 2)


@pytest.mark.parametrize("n,r", GRID + [(8, 3)])
def test_product_faces_equal_the_per_kind_oracles(n, r):
    labeling = product_tuples(n, r)
    polygons = product_polygons(n, r)
    assert [(f.face_id, f.factor, tuple(sorted(f.vertices))) for f in polygons] == [
        (f.face_id, f.factor, f.vertices) for f in enumerate_polygon_faces_oracle(labeling, n, r)
    ]
    # Each polygon lists its vertices in cycle order: its consecutive pairs
    # are the oracle's edges of its factor, each edge in one polygon.
    edges = [(edge, f.factor) for f in polygons for edge in _cycle_edges(f)]
    assert sorted(edges) == sorted((f.vertices, f.factor) for f in enumerate_edges_oracle(labeling, n, r))


def test_stability_certificates_on_perturbed_normals(grid_case):
    # the spanning certificates survive the perturbation: they are computed
    # here from the actual perturbed facet normals, not the unperturbed ones
    from projpoly.linalg import positively_spans

    case = grid_case(4, 3)
    product = product_labeling(h_to_v(case.system.h), case.system.h.labels, 4, 3)
    a = case.system.h.A
    for face in product_polygons(4, 3)[:16]:
        common = reduce(and_, (product.incidence[i] for i in face.vertices))
        truncated = [tuple(a.row(j)[:2]) for j in _bits(common)]
        assert positively_spans(truncated, 2).kind == "spanning"


def _counting_lps(monkeypatch):
    """Record the input of every LP the projection module runs."""
    inputs = []

    def counting(vectors, dim):
        inputs.append(frozenset(vectors))
        return linalg.positively_spans(vectors, dim)

    monkeypatch.setattr(projection, "positively_spans", counting)
    return inputs


def test_certificate_lp_runs_once_per_distinct_input(monkeypatch):
    system = construct_system(4, 3)
    inputs = _counting_lps(monkeypatch)
    assert verify_system(system).ok
    # Every polygon passes here, so no edge or vertex is checked.
    polygons = product_polygons(*system.require_nr())
    distinct = {frozenset(certificate_input(system, face)) for face in polygons}
    assert len(distinct) < len(polygons)
    assert Counter(inputs) == Counter(distinct)


@pytest.mark.parametrize("n,r,lps", [(4, 4, 40), (6, 3, 13), (4, 5, 176)])
def test_verify_runs_one_lp_per_distinct_polygon_input(monkeypatch, n, r, lps):
    system = construct_system(n, r)
    inputs = _counting_lps(monkeypatch)
    assert verify_system(system).ok
    assert len(inputs) == lps


def _distinct_certificate_inputs(system, dims=(0, 1, 2)):
    """Every distinct certificate input among the system's faces of the
    given dimensions, as the vectors in the facet-row order that
    ``check_face`` passes."""
    inputs = {}
    for dim in dims:
        for face in _faces(system, dim):
            vectors = certificate_input(system, face)
            inputs.setdefault(frozenset(vectors), vectors)
    return list(inputs.values())


@pytest.mark.parametrize("n,r", [(4, 3), (6, 3), (4, 4)])
def test_certificate_lps_match_fraction_simplex(grid_case, n, r):
    system = grid_case(n, r).system
    dim = system.checker.certificate.dim
    # verify ran one LP per distinct polygon input and checked no edge or
    # vertex.
    assert len(_distinct_certificate_inputs(system, (2,))) == len(system.checker.certificate._spans)
    for vectors in _distinct_certificate_inputs(system):
        target = [-sum(v[i] for v in vectors) for i in range(dim)]
        assert linalg.nonneg_solution(vectors, target) == nonneg_solution_oracle(vectors, target)


# Every GRID case, (8,3), and the four systems the gates accept that fail
# verify.  The first of those loses 8 edges, all in its 4 failing polygons.
CERTIFICATE_CASES = [(n, r, None, None) for n, r in GRID + [(8, 3)]] + list(
    PASS_GATES_FAIL_VERIFY.values()
)
CERTIFICATE_IDS = [f"{n}x{r}" for n, r in GRID + [(8, 3)]] + list(PASS_GATES_FAIL_VERIFY)
FAILING_EDGES = PASS_GATES_FAIL_VERIFY["4x3-1/16-2^32"]
# Odd-n systems built with --force that fail verify at vertices, some of
# which lie in several failing polygons.
FORCED = {
    "5x3-1/40-2^20": (5, 3, QQ(1, 40), QQ(2**20)),
    "3x4-1/40-2^20": (3, 4, QQ(1, 40), QQ(2**20)),
}


@cache
def _certificate_case(case):
    """The system of one case, the oracle's certificate verdict for each of
    its faces, and each face's report from one fresh checker."""
    n, r, eps, big_m = case
    system = construct_system(n, r, eps=eps, big_m=big_m, force=True)
    alone = ProjectionChecker(system.h, system.product, system.require_nr())
    verdicts, reports = {}, {}
    for dim in (0, 1, 2):
        for face in _faces(system, dim):
            verdicts[face.vertices] = certificate_oracle(system, face)
            reports[face.vertices] = alone.check_face(face, dim)
    return system, verdicts, reports


@cache
def _checked(case, order):
    """Each face with its report, checked in ``order`` of dimension by a
    fresh checker."""
    system = _certificate_case(case)[0]
    checking = ProjectionChecker(system.h, system.product, system.require_nr())
    return [(face, checking.check_face(face, dim)) for dim in order for face in _faces(system, dim)]


def _certificate_mismatches(case, order):
    """The faces whose ``certificate_ok`` differs from the per-face LP
    oracle, checked as ``_checked`` checks them."""
    verdicts = _certificate_case(case)[1]
    return [face for face, rep in _checked(case, order) if rep.certificate_ok != verdicts[face.vertices]]


def _report_mismatches(case, order):
    """The faces whose report differs from the same face's report in
    ``_certificate_case``, when checked as ``_checked`` checks them."""
    reports = _certificate_case(case)[2]
    return [face for face, rep in _checked(case, order) if rep != reports[face.vertices]]


ORDERS = pytest.mark.parametrize(
    "order", [(2, 1, 0), (0, 1, 2)], ids=["polygons_first", "vertices_first"]
)


@ORDERS
@pytest.mark.parametrize("case", CERTIFICATE_CASES, ids=CERTIFICATE_IDS)
def test_certificate_equals_the_per_face_lp_oracle(case, order):
    assert _certificate_mismatches(case, order) == []


@ORDERS
@pytest.mark.parametrize("case", CERTIFICATE_CASES, ids=CERTIFICATE_IDS)
def test_each_report_equals_the_face_checked_alone(case, order):
    assert _report_mismatches(case, order) == []


# The LPs a fresh certificate runs on the polygons of a GRID case.
POLYGON_LPS = {(4, 4, None, None): 40, (6, 3, None, None): 13}


@pytest.mark.parametrize("case", CERTIFICATE_CASES, ids=CERTIFICATE_IDS)
def test_the_certificate_needs_no_q(monkeypatch, case):
    system = _certificate_case(case)[0]
    polygons = _faces(system, 2)
    incidence = system.product.incidence
    rows = [reduce(and_, (incidence[i] for i in face.vertices)) for face in polygons]
    distinct = {frozenset(certificate_input(system, face)) for face in polygons}

    def refuse(*args, **kwargs):
        raise AssertionError("the certificate built Q")

    monkeypatch.setattr(projection, "local_hull", refuse)
    monkeypatch.setattr(projection, "convex_hull", refuse)
    inputs = _counting_lps(monkeypatch)
    certificate = projection.Certificate(system.h)
    assert [certificate.spans(mask) for mask in rows] == [
        certificate_oracle(system, face) for face in polygons
    ]
    assert Counter(inputs) == Counter(distinct)
    assert len(inputs) == POLYGON_LPS.get(case, len(distinct))


# Distinct polygon inputs per case, and how many of them do not span.
GALE_INPUTS = {"4x2": (1, 0), "6x2": (1, 0), "8x2": (1, 0), "4x3": (9, 0), "6x3": (13, 0), "4x4": (40, 0),
               "8x3": (17, 0), "4x3-1/16-2^32": (9, 1), "4x3-1/8-256": (9, 2), "4x4-1/16-2^32": (40, 9),
               "6x3-1/16-2^16": (13, 4), "4x3-zero-pattern": (9, 0)}


@pytest.mark.parametrize("case", CERTIFICATE_CASES + [None], ids=CERTIFICATE_IDS + ["4x3-zero-pattern"])
def test_the_gale_dual_decides_every_polygon_input(request, case):
    system = zero_pattern_system() if case is None else _certificate_case(case)[0]
    verdicts = [gale_verdict(vectors, system.h.dim - 4) for vectors in _distinct_certificate_inputs(system, (2,))]
    assert (len(verdicts), verdicts.count(False)) == GALE_INPUTS[request.node.callspec.id]


def test_the_failing_edges_lie_in_the_failing_polygons():
    system, verdicts, reports = _certificate_case(FAILING_EDGES)
    failing = [face for face in _faces(system, 2) if not reports[face.vertices].direct_ok]
    assert len(failing) == 4 and all(not verdicts[face.vertices] for face in failing)
    edges = [edge for edge in _faces(system, 1) if not reports[edge.vertices].direct_ok]
    assert len(edges) == 8
    assert all(any(set(e.vertices) <= set(f.vertices) for f in failing) for e in edges)


def _checks(reports):
    """How many faces were checked, and how many passed the direct checks."""
    return len(reports), sum(rep.direct_ok for rep in reports)


@pytest.mark.parametrize(
    "case", CERTIFICATE_CASES + list(FORCED.values()), ids=CERTIFICATE_IDS + list(FORCED)
)
def test_verify_counts_equal_every_face_checked(case):
    # verify checks the polygons and then only the faces that can fail; its
    # counts must be those of checking every face.
    system, _, reports = _certificate_case(case)
    checked = {dim: [reports[face.vertices] for face in _faces(system, dim)] for dim in (0, 1, 2)}
    polygons = checked[2]
    result = verify_system(system)
    assert (result.vertices_total, result.vertices_preserved) == _checks(checked[0])
    assert (result.edges_total, result.edges_preserved) == _checks(checked[1])
    assert (result.polygons_total, result.polygons_direct) == _checks(polygons)
    assert result.polygons_certified == sum(rep.certificate_ok for rep in polygons)
    assert result.implication_ok == all(
        rep.direct_ok or not rep.certificate_ok for reps in checked.values() for rep in reps
    )
    by_id = attrgetter("face_id")
    assert sorted(result.polygon_reports, key=by_id) == sorted(polygons, key=by_id)


@pytest.mark.parametrize("case", FORCED.values(), ids=FORCED)
def test_the_forced_systems_fail_at_vertices_in_several_failing_polygons(case):
    system, _, reports = _certificate_case(case)
    failing = [face for face in _faces(system, 2) if not reports[face.vertices].direct_ok]
    vertices = [face.vertices[0] for face in _faces(system, 0) if not reports[face.vertices].direct_ok]
    assert vertices
    assert any(sum(i in face.vertices for face in failing) > 1 for i in vertices)


def _full_checks(monkeypatch):
    """Record the image mask of every face that runs the direct checks
    (i)-(iii): each asks whether its image is a face of Q."""
    masks = []
    contains = FaceLattice.__contains__

    def counting(lattice, mask):
        masks.append(mask)
        return contains(lattice, mask)

    monkeypatch.setattr(FaceLattice, "__contains__", counting)
    return masks


def _image_masks(system, faces):
    return Counter(mask_of(system.checker.hull.point_vertex[i] for i in face.vertices) for face in faces)


@pytest.mark.parametrize("n,r,polygons", [(4, 4, 256), (6, 3, 108), (4, 5, 1280)])
def test_verify_runs_the_direct_checks_on_the_polygons_alone(monkeypatch, n, r, polygons):
    system = construct_system(n, r)
    masks = _full_checks(monkeypatch)
    assert verify_system(system).ok
    assert len(masks) == polygons
    assert Counter(masks) == _image_masks(system, product_polygons(*system.require_nr()))


def test_verify_runs_the_direct_checks_inside_each_failing_polygon(monkeypatch):
    n, r, eps, big_m = FAILING_EDGES
    system = construct_system(n, r, eps=eps, big_m=big_m)
    masks = _full_checks(monkeypatch)
    result = verify_system(system)
    assert (result.polygons_direct, result.edges_preserved) == (44, 184)
    polygons = product_polygons(*system.require_nr())
    # Every edge and vertex inside no passing polygon runs the checks; each
    # edge of a failing polygon lies in no other polygon, and each vertex
    # lies in a passing one.
    passed = {rep.face_id for rep in result.polygon_reports if rep.direct_ok}
    failing = [face for face in polygons if face.face_id not in passed]
    inside = [
        face
        for dim in (1, 0)
        for face in _faces(system, dim)
        if not any(set(face.vertices) <= set(p.vertices) for p in polygons if p.face_id in passed)
    ]
    assert len(failing) == 4 and len(inside) == 16
    assert all(any(set(face.vertices) <= set(p.vertices) for p in failing) for face in inside)
    assert Counter(masks) == _image_masks(system, polygons + inside)


def test_a_none_polygon_passes_nothing_down(monkeypatch, grid_case):
    # The LP of one polygon is forced to "none".  Its vertices and then its
    # edges, none of which lies in another checked face, must each reach
    # the LP and keep their true verdict.
    system = grid_case(4, 3).system
    polygon = product_polygons(*system.require_nr())[0]
    forced = frozenset(certificate_input(system, polygon))
    inputs = []

    def forcing(vectors, dim):
        inputs.append(frozenset(vectors))
        if inputs[-1] == forced:
            return linalg.PositiveCertificate("none")
        return linalg.positively_spans(vectors, dim)

    monkeypatch.setattr(projection, "positively_spans", forcing)
    checker = ProjectionChecker(system.h, system.product, system.require_nr())
    assert not checker.check_face(polygon, 2).certificate_ok
    inside = [(0, ProductFace(None, None, (i,))) for i in polygon.vertices] + [
        (1, edge)
        for edge in _faces(system, 1)
        if set(edge.vertices) <= set(polygon.vertices)
    ]
    assert len(inside) == 8
    for dim, face in inside:
        assert checker.check_face(face, dim).certificate_ok == certificate_oracle(system, face)
        assert frozenset(certificate_input(system, face)) in inputs


def test_a_direct_failure_passes_nothing_down(grid_case):
    # Vertex 0's image is taken out of the hull's ``point_vertex``, so
    # every polygon through it fails (i) while its certificate still
    # spans.  The edges through it, and it, checked after the polygons,
    # must fail (i) too.
    system = grid_case(4, 3).system
    checker = ProjectionChecker(system.h, system.product, system.require_nr())
    hull = checker.hull
    checker.hull = dataclasses.replace(hull, point_vertex=(None,) + hull.point_vertex[1:])
    for polygon in product_polygons(*system.require_nr()):
        checker.check_face(polygon, 2)
    through = [(dim, face) for dim in (1, 0) for face in _faces(system, dim) if 0 in face.vertices]
    assert len(through) == 7
    for dim, face in through:
        rep = checker.check_face(face, dim)
        assert rep.certificate_ok and not rep.direct_ok
        assert "(i) some vertex image is not a vertex of the projection" in rep.details


def test_check_face_hashes_no_fraction_on_a_memo_hit(grid_case, monkeypatch):
    system = grid_case(4, 3).system
    checker = system.checker
    faces = [(dim, face) for dim in (2, 1, 0) for face in _faces(system, dim)]
    expected = [checker.check_face(face, dim) for dim, face in faces]
    product, nr = system.product, system.require_nr()
    hashes = []
    original = QQ.__hash__

    def counting(self):
        hashes.append(self)
        return original(self)

    monkeypatch.setattr(QQ, "__hash__", counting)
    # Building a checker hashes only what the certificate interns, each
    # row's deleted coordinates: the hull says which images are equal.
    fresh = ProjectionChecker(system.h, product, nr)
    assert 0 < len(hashes) <= system.h.nrows * (system.h.dim - 4) == 24
    # Given every certificate verdict the first checker computed, each
    # face hits the memo.
    fresh.certificate._spans = dict(checker.certificate._spans)
    hashes.clear()
    assert [fresh.check_face(face, dim) for dim, face in faces] == expected
    assert hashes == []
