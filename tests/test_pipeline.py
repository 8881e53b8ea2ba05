import dataclasses
from fractions import Fraction

import pytest

from conftest import zero_pattern_system
from projpoly import construction, io, lattice, pipeline, polytope, projection
from projpoly.metrics import metrics_report, predicted_flag
from projpoly.pipeline import analyze_system, construct_system, verify_system


def _count_hull_builds(monkeypatch):
    calls = {"convex_hull": 0, "face_lattice": 0, "ProjectionChecker": 0}
    hull, scan = polytope.convex_hull, lattice.face_lattice
    init = projection.ProjectionChecker.__init__

    def counting_hull(*args, **kwargs):
        calls["convex_hull"] += 1
        return hull(*args, **kwargs)

    def counting_scan(*args, **kwargs):
        calls["face_lattice"] += 1
        return scan(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        calls["ProjectionChecker"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(polytope, "convex_hull", counting_hull)
    monkeypatch.setattr(projection, "convex_hull", counting_hull)
    monkeypatch.setattr(lattice, "face_lattice", counting_scan)
    monkeypatch.setattr(projection, "face_lattice", counting_scan)
    monkeypatch.setattr(projection.ProjectionChecker, "__init__", counting_init)
    return calls


def test_construct_verify_analyze_build_the_projected_hull_once(monkeypatch):
    # The local certificate holds, so neither the double description nor
    # the lattice scan runs.
    calls = _count_hull_builds(monkeypatch)
    system = construct_system(4, 3)
    assert verify_system(system).ok
    assert analyze_system(system).ok
    assert calls == {"convex_hull": 0, "face_lattice": 0, "ProjectionChecker": 1}


def test_a_product_whose_vertices_come_from_the_dd_verifies_and_analyzes(monkeypatch):
    # The one route on which ``product_labeling`` reorders: the DD lists
    # this system's vertices in another order than code order.  Sorted,
    # they certify the local hull, and every face is preserved.
    calls = _count_hull_builds(monkeypatch)
    system = dataclasses.replace(zero_pattern_system())
    assert system.certified is None
    assert system.product.vertices != system.vertices.vertices
    checks = verify_system(system).as_dict()["checks"]
    assert [checks[f"{kind}_preserved"] for kind in ("vertices", "edges")] == ["64/64", "192/192"]
    assert checks["polygons_direct"] == checks["polygons_certified"] == "48/48"
    assert verify_system(system).ok
    analysis = analyze_system(system)
    assert analysis.ok and analysis.flag_actual == predicted_flag(4, 3)
    assert calls == {"convex_hull": 0, "face_lattice": 0, "ProjectionChecker": 1}


def test_a_system_the_local_certificate_refuses_runs_the_dd_hull_once(monkeypatch):
    # At (6,3) with eps 1/16 and M 2^16 the kept 3-faces are not closed.
    calls = _count_hull_builds(monkeypatch)
    system = construct_system(6, 3, eps=Fraction(1, 16), big_m=Fraction(2**16))
    assert not verify_system(system).ok
    assert not analyze_system(system).ok
    assert calls == {"convex_hull": 1, "face_lattice": 1, "ProjectionChecker": 1}


def test_geometry_context_leaves_equality_and_hash_alone():
    system = construct_system(4, 2)
    fresh = dataclasses.replace(system)
    assert verify_system(system).ok
    assert "checker" in vars(system) and "checker" not in vars(fresh)
    assert system == fresh
    assert hash(system) == hash(fresh)


@pytest.mark.parametrize("params", [{}, {"eps": Fraction(1, 160), "big_m": Fraction(2**32)}])
def test_construct_hands_the_gates_vertices_to_the_system(monkeypatch, params):
    certified, calls = [], {"h_to_v": 0, "product_labeling": 0}
    product_vertices = polytope.product_vertices

    def recording(*args):
        certified.append(product_vertices(*args))
        return certified[-1]

    def counting(name, func):
        def counted(*args):
            calls[name] += 1
            return func(*args)
        return counted

    for name in calls:
        counted = counting(name, getattr(polytope, name))
        monkeypatch.setattr(polytope, name, counted)
        monkeypatch.setattr(io, name, counted)
    monkeypatch.setattr(io, "product_vertices", recording)
    system = construct_system(4, 3, **params)
    assert system.validated
    assert "certified" in vars(system)
    assert verify_system(system).ok
    assert analyze_system(system).ok
    # one certificate per gate round, none after, and no vertex
    # enumeration or labeling from incidences anywhere
    assert len(certified) == len(system.adaptation) + 1
    assert certified[:-1] == [None] * len(system.adaptation)
    assert system.vertices is system.product is certified[-1]
    assert calls == {"h_to_v": 0, "product_labeling": 0}


def test_a_rejected_explicit_system_keeps_the_gates_verdict(monkeypatch):
    # eps = 1/16, M = 256 fails the product gate, which enumerates no vertices
    system = construct_system(4, 2, Fraction(1, 16), Fraction(256))
    assert not system.validated
    assert "certified" in vars(system) and system.certified is None
    assert "vertices" not in vars(system) and "product" not in vars(system)
    enumerated = []
    h_to_v = polytope.h_to_v

    def recording(h):
        enumerated.append(h)
        return h_to_v(h)

    def forbidden(*args):
        raise AssertionError("the rejected system's certificate was decided again")

    monkeypatch.setattr(io, "h_to_v", recording)
    monkeypatch.setattr(io, "product_vertices", forbidden)
    assert verify_system(system).failures == [
        "not_validated: the construction gates rejected this system",
        "product_isomorphic",
    ]
    assert enumerated == [system.h]

NOT_A_FACE = (
    "(i) image vertex set is not a face of the projection; "
    "(iii) not evaluated: image is not a face; "
    "certificate: deleted normal coordinates do not positively span"
)
NOT_A_VERTEX = (
    "(i) some vertex image is not a vertex of the projection; "
    "certificate: deleted normal coordinates do not positively span"
)


def _failing_details(result):
    return sorted(rep.details for rep in result.polygon_reports if rep.details)


def test_gates_accept_a_system_that_verification_rejects():
    # the construction gates do not test preservation, so this system is
    # "validated" and still fails four polygons
    system = construct_system(4, 3, eps=Fraction(1, 16), big_m=Fraction(2**32))
    assert system.validated
    result = verify_system(system)
    assert result.failures == [
        "edge_preservation",
        "polygon_preservation_direct",
        "polygon_preservation_certificate",
    ]
    assert (result.edges_preserved, result.edges_total) == (184, 192)
    assert (result.polygons_direct, result.polygons_certified, result.polygons_total) == (44, 44, 48)
    assert _failing_details(result) == [NOT_A_FACE] * 4


def test_forced_odd_n_system_reports_both_kinds_of_failure():
    system = construct_system(5, 3, eps=Fraction(1, 40), big_m=Fraction(2**20), force=True)
    result = verify_system(system)
    assert (result.vertices_preserved, result.vertices_total) == (122, 125)
    assert (result.edges_preserved, result.edges_total) == (333, 375)
    assert (result.polygons_direct, result.polygons_certified, result.polygons_total) == (58, 58, 75)
    assert _failing_details(result) == sorted([NOT_A_FACE] * 10 + [NOT_A_VERTEX] * 7)


def test_analyze_fails_each_false_consistency_check(monkeypatch):
    def report(flag, paper_literal=False):
        out = metrics_report(flag, paper_literal)
        out["consistency"]["g2 >= 0"] = out["consistency"]["cone"] = False
        return out

    system = construct_system(4, 2)
    assert analyze_system(system).ok
    monkeypatch.setattr(pipeline, "metrics_report", report)
    result = analyze_system(system)
    assert result.failures == ["consistency: g2 >= 0", "consistency: cone"]
    assert result.as_dict()["consistency"]["cone"] is False


def test_verify_reports_each_broken_identity(monkeypatch):
    # Both identities are evaluated on every call: a broken generator
    # vector or coefficient shows on a system that verified before.
    system = construct_system(4, 2)
    assert verify_system(system).ok
    with monkeypatch.context() as patch:
        patch.setattr(construction, "V0", (Fraction(1), Fraction(1)))
        assert verify_system(system).failures == ["zero_sum_range"]
    alpha = construction.alpha_coeff
    monkeypatch.setattr(pipeline, "alpha_coeff", lambda k: alpha(k) - Fraction(1, 2))
    assert verify_system(system).failures == ["alpha_beta_nonneg"]
