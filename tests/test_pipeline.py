import dataclasses
from fractions import Fraction

import pytest

from projpoly import construction, io, polytope, projection
from projpoly.pipeline import analyze_system, construct_system, verify_system


def test_construct_verify_analyze_build_the_projected_hull_once(monkeypatch):
    calls = {"convex_hull": 0, "ProjectionChecker": 0}
    hull, init = polytope.convex_hull, projection.ProjectionChecker.__init__

    def counting_hull(*args, **kwargs):
        calls["convex_hull"] += 1
        return hull(*args, **kwargs)

    def counting_init(self, *args, **kwargs):
        calls["ProjectionChecker"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(polytope, "convex_hull", counting_hull)
    monkeypatch.setattr(projection, "convex_hull", counting_hull)
    monkeypatch.setattr(projection.ProjectionChecker, "__init__", counting_init)
    system = construct_system(4, 3)
    assert verify_system(system).ok
    assert analyze_system(system).ok
    assert calls == {"convex_hull": 1, "ProjectionChecker": 1}


def test_geometry_context_leaves_equality_and_hash_alone():
    system = construct_system(4, 2)
    fresh = dataclasses.replace(system)
    assert verify_system(system).ok
    assert "checker" in vars(system) and "checker" not in vars(fresh)
    assert system == fresh
    assert hash(system) == hash(fresh)


@pytest.mark.parametrize("params", [{}, {"eps": Fraction(1, 160), "big_m": Fraction(2**32)}])
def test_construct_hands_the_gates_vertices_to_the_system(monkeypatch, params):
    enumerated = []

    def recording(h):
        enumerated.append(polytope.h_to_v(h))
        return enumerated[-1]

    monkeypatch.setattr(construction, "h_to_v", recording)
    monkeypatch.setattr(io, "h_to_v", recording)
    system = construct_system(4, 3, **params)
    assert system.validated
    assert verify_system(system).ok
    # one enumeration per gate round, none after
    assert len(enumerated) == len(system.adaptation) + 1
    assert system.vertices is enumerated[-1]
