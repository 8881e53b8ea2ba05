import dataclasses

from projpoly import polytope, projection
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
