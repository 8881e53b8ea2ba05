from collections import Counter
from fractions import Fraction as QQ

import pytest

from projpoly import linalg, projection
from projpoly.construction import U0, U1, V0, V1, W0, W1
from projpoly.lattice import face_lattice
from projpoly.linalg import QMatrix
from projpoly.pipeline import construct_system, verify_system
from projpoly.polytope import HPolytope, h_to_v, product_labeling
from projpoly.projection import (
    CertificateError,
    ProjectionChecker,
    alpha_beta,
    alpha_coeff,
    beta_coeff,
    deletion_certificates,
    enumerate_edges,
    enumerate_polygon_faces,
    project,
    reduced_matrix,
    vertex_faces,
    zero_sum_check,
)


def test_alpha_beta_values():
    assert alpha_beta(0).alpha == 0 and alpha_beta(0).beta == 0
    assert alpha_beta(1).alpha == QQ(1, 2) and alpha_beta(1).beta == QQ(3, 8)
    assert alpha_beta(-1).alpha == QQ(1, 2) and alpha_beta(-1).beta == QQ(3, 4)


def test_alpha_beta_nonnegative_zero_only_at_origin():
    for k in range(-20, 21):
        ab = alpha_beta(k)
        assert ab.alpha >= 0 and ab.beta >= 0
        assert (ab.alpha == 0) == (k == 0)
        assert (ab.beta == 0) == (k == 0)


def test_zero_sum_identity_examples():
    # k=0: (1/2)v0 + (1/2)w0 + (3/8)w1 = 0
    assert sum(c * v[0] for c, v in [(QQ(1, 2), V0), (QQ(1, 2), W0), (QQ(3, 8), W1)]) == 0
    assert zero_sum_check(0)
    assert zero_sum_check(1)
    assert zero_sum_check(5)


def test_zero_sum_identity_range():
    assert all(zero_sum_check(k) for k in range(-20, 21))


def test_reduced_matrix_r3():
    m = reduced_matrix(4, 3)
    assert m.entries == (V0, V1, U0, U1, W0, W1)


def test_reduced_matrix_r2_has_no_columns():
    m = reduced_matrix(4, 2)
    assert m.rows == 4 and m.cols == 0


def test_reduced_matrix_r4_block_pattern():
    m = reduced_matrix(4, 4)
    assert m.rows == 8 and m.cols == 4
    zero = (QQ(0), QQ(0))
    assert m.row(0) == V0 + zero        # block 1: V at column 1
    assert m.row(2) == U0 + V0          # block 2: U at 1, V at 2
    assert m.row(4) == W0 + U0          # block 3: W at 1, U at 2
    assert m.row(6) == zero + W0        # block 4: W at 2
    assert m.row(7) == zero + W1


def test_reduced_matrix_rejects_r1():
    with pytest.raises(CertificateError):
        reduced_matrix(4, 1)


def test_deletion_certificates_r2_vacuous():
    assert deletion_certificates(4, 2) == []


def test_deletion_certificates_r3():
    certs = deletion_certificates(4, 3)
    assert [c.kind for c in certs] == ["spanning"] * 3
    # coefficients are alpha/beta at the block offsets from the deleted block
    assert certs[0].coefficients == (
        alpha_coeff(1), beta_coeff(1), alpha_coeff(2), beta_coeff(2)
    )
    assert certs[1].coefficients == (
        alpha_coeff(-1), beta_coeff(-1), alpha_coeff(1), beta_coeff(1)
    )


def test_deletion_certificates_r5_block3():
    certs = deletion_certificates(6, 5)
    coeffs = certs[2].coefficients  # t = 3
    assert coeffs == (
        QQ(9, 4), QQ(3),        # alpha(-2), beta(-2)
        QQ(1, 2), QQ(3, 4),     # alpha(-1), beta(-1)
        QQ(1, 2), QQ(3, 8),     # alpha(1), beta(1)
        QQ(9, 4), QQ(33, 16),   # alpha(2), beta(2)
    )
    # the dependence is exact on the reduced matrix with block 3 removed
    m = reduced_matrix(6, 5)
    rows = [m.row(i) for i in range(10) if i not in (4, 5)]
    for j in range(m.cols):
        assert sum(c * row[j] for c, row in zip(coeffs, rows)) == 0


def test_deletion_certificates_formula_level_r10():
    certs = deletion_certificates(4, 10)
    assert len(certs) == 10
    assert all(c.kind == "spanning" for c in certs)
    assert all(min(c.coefficients) > 0 for c in certs)


def test_project_identity_for_r2(grid_case):
    case = grid_case(4, 2)
    v = h_to_v(case.system.h)
    images = project(v, keep=4)
    assert images == list(v.vertices)


def test_project_rejects_keep_beyond_dimension():
    square = HPolytope(
        QMatrix.from_rows([[1, 0], [-1, 0], [0, 1], [0, -1]]), (QQ(1),) * 4
    )
    v = h_to_v(square)
    with pytest.raises(ValueError):
        project(v, keep=3)


def test_projected_vertices_distinct(grid_case):
    case = grid_case(4, 3)
    v = h_to_v(case.system.h)
    images = project(v, keep=4)
    assert len(set(images)) == len(images) == 64


def test_projected_hull_facet_count(grid_case):
    # the hull of the 64 projected vertices has 64 facets (f3 of the
    # predicted flag vector for n=4, r=3)
    from projpoly.polytope import v_to_h

    case = grid_case(4, 3)
    v = h_to_v(case.system.h)
    hull = v_to_h(project(v, keep=4))
    assert hull.nrows == 64


UNIT_SQUARE = HPolytope(
    QMatrix.from_rows([[-1, 0], [1, 0], [0, -1], [0, 1]]),
    (QQ(0), QQ(1), QQ(0), QQ(1)),
)


def _square_setup():
    v = h_to_v(UNIT_SQUARE)
    lat = face_lattice(v)
    by_coord = {vx: i for i, vx in enumerate(v.vertices)}
    return v, lat, by_coord


def test_projection_to_one_coordinate_fails_condition_iii():
    # the edge x=0 collapses onto the image of the vertex (0,0), so the
    # preimage of the image is bigger than the vertex
    v, lat, idx = _square_setup()
    checker = ProjectionChecker(UNIT_SQUARE, v, keep_coords=(0,), p_lattice=lat)
    rep = checker.check_face([idx[(QQ(0), QQ(0))]], face_id="w")
    assert not rep.direct_ok
    assert "(iii)" in rep.details
    assert "(ii)" not in rep.details
    assert not rep.certificate_ok


def test_projection_to_one_coordinate_fails_condition_ii():
    # the edge x=0 maps onto a single point, so the map is not a bijection
    v, lat, idx = _square_setup()
    checker = ProjectionChecker(UNIT_SQUARE, v, keep_coords=(0,), p_lattice=lat)
    rep = checker.check_face([idx[(QQ(0), QQ(0))], idx[(QQ(0), QQ(1))]], face_id="e")
    assert not rep.direct_ok
    assert "(ii)" in rep.details


def test_projection_checker_rejects_non_face():
    v, lat, idx = _square_setup()
    diagonal = [idx[(QQ(0), QQ(0))], idx[(QQ(1), QQ(1))]]
    checker = ProjectionChecker(UNIT_SQUARE, v, keep_coords=(0,), p_lattice=lat)
    with pytest.raises(ValueError):
        checker.check_face(diagonal)


def test_all_polygon_faces_strictly_preserved(grid_case):
    case = grid_case(4, 3)
    v = h_to_v(case.system.h)
    labeling = product_labeling(v, case.system.h.labels, 4, 3)
    checker = ProjectionChecker(case.system.h, v, keep=4)
    for face in enumerate_polygon_faces(labeling, 4, 3):
        rep = checker.check_face(face.vertices, face_id=face.face_id, factor=face.factor)
        assert rep.direct_ok, rep.details
        assert rep.certificate_ok, rep.details


def test_certificate_implies_direct_on_verified_grid(grid_case):
    for (n, r) in [(4, 2), (4, 3), (6, 3)]:
        result = grid_case(n, r).verify
        assert result.implication_ok


def test_enumerate_polygon_faces_counts(grid_case):
    case = grid_case(4, 2)
    v = h_to_v(case.system.h)
    labeling = product_labeling(v, case.system.h.labels, 4, 2)
    faces = enumerate_polygon_faces(labeling, 4, 2)
    assert len(faces) == 2 * 4
    assert all(len(f.vertices) == 4 for f in faces)

    case63 = grid_case(6, 3)
    v63 = h_to_v(case63.system.h)
    labeling63 = product_labeling(v63, case63.system.h.labels, 6, 3)
    faces63 = enumerate_polygon_faces(labeling63, 6, 3)
    assert len(faces63) == 3 * 36
    assert all(len(f.vertices) == 6 for f in faces63)

    case43 = grid_case(4, 3)
    v43 = h_to_v(case43.system.h)
    labeling43 = product_labeling(v43, case43.system.h.labels, 4, 3)
    assert len(enumerate_polygon_faces(labeling43, 4, 3)) == 48


def test_enumerate_edges_counts(grid_case):
    case = grid_case(4, 2)
    v = h_to_v(case.system.h)
    labeling = product_labeling(v, case.system.h.labels, 4, 2)
    edges = enumerate_edges(labeling, 4, 2)
    assert len(edges) == 2 * 16
    assert len({e.vertices for e in edges}) == 32
    assert len(vertex_faces(labeling)) == 16


def test_stability_certificates_on_perturbed_normals(grid_case):
    # the spanning certificates survive the perturbation: they are computed
    # here from the actual perturbed facet normals, not the unperturbed ones
    from projpoly.linalg import positively_spans

    case = grid_case(4, 3)
    v = h_to_v(case.system.h)
    labeling = product_labeling(v, case.system.h.labels, 4, 3)
    a = case.system.h.A
    for face in enumerate_polygon_faces(labeling, 4, 3)[:16]:
        common = None
        for i in face.vertices:
            inc = v.incidence[i]
            common = inc if common is None else common & inc
        truncated = [tuple(a.row(j)[:2]) for j in sorted(common)]
        assert positively_spans(truncated, 2).kind == "spanning"


def test_certificate_lp_runs_once_per_distinct_input(monkeypatch):
    inputs = []

    def counting(vectors, dim):
        inputs.append(frozenset(vectors))
        return linalg.positively_spans(vectors, dim)

    monkeypatch.setattr(projection, "positively_spans", counting)
    system = construct_system(4, 3)
    assert verify_system(system).ok
    checker, labeling = system.checker, system.labeling
    faces = (
        vertex_faces(labeling)
        + enumerate_edges(labeling, 4, 3)
        + enumerate_polygon_faces(labeling, 4, 3)
    )
    distinct = set()
    for face in faces:
        common = frozenset.intersection(*(system.vertices.incidence[i] for i in face.vertices))
        vectors = [
            tuple(system.h.A.row(j)[c] for c in checker.drop_coords) for j in sorted(common)
        ]
        distinct.add(frozenset(vectors))
        direct = linalg.positively_spans(vectors, len(checker.drop_coords)).kind == "spanning"
        assert checker.check_face(face.vertices, face_id=face.face_id).certificate_ok == direct
    assert len(distinct) < len(faces)
    assert Counter(inputs) == Counter(distinct)
