"""Workloads, one case of each kind, and the correctness gates.

A pipeline case runs ``construct_system -> verify_system ->
analyze_system(paper_literal=True)`` on one ``SystemFile``, the way
``sweep_row`` and the test suite's ``run_case`` do, so a per-system
context shared by the three calls would show up here.  A round-trip case
runs H -> V -> H -> V on a system built in set-up, plus the source face
lattice; its three stages are reported under the pipeline's stage names
(see README.md).

Every case returns its system, its canonical JSON outputs (compared for
byte identity across repeats and with the traced run) and the list of
gates it failed.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from projpoly import io, lattice, metrics, pipeline, polytope

STAGES = ("construct_s", "verify_s", "analyze_s")


@dataclass(frozen=True)
class Workload:
    kind: str  # "pipeline" or "roundtrip"
    cases: tuple[tuple[int, int], ...]


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "pipeline-deep": Workload("pipeline", ((4, 4), (6, 3))),
    "dd-roundtrip": Workload("roundtrip", ((4, 3), (6, 3))),
}


class StageClock:
    """Wall time per stage of one case, less the time ``paused()`` (a
    running total) grew by meanwhile."""

    def __init__(self, paused: Callable[[], float] = lambda: 0.0) -> None:
        self.seconds = dict.fromkeys(STAGES, 0.0)
        self.paused = paused

    @contextmanager
    def __call__(self, stage: str):
        paused = self.paused()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[stage] += time.perf_counter() - start - (self.paused() - paused)


def build_inputs(workload: Workload) -> dict[tuple[int, int], io.SystemFile | None]:
    """Per-case inputs: round-trip cases start from a constructed system,
    pipeline cases construct their own inside the timed section."""
    if workload.kind == "roundtrip":
        return {case: pipeline.construct_system(*case) for case in workload.cases}
    return dict.fromkeys(workload.cases)


CaseResult = tuple[io.SystemFile, dict[str, str], list[str]]


def pipeline_case(n: int, r: int, clock: StageClock, construct=None) -> CaseResult:
    with clock("construct_s"):
        system = (construct or pipeline.construct_system)(n, r)
    with clock("verify_s"):
        verification = pipeline.verify_system(system)
    with clock("analyze_s"):
        analysis = pipeline.analyze_system(system, paper_literal=True)

    problems = []
    if not verification.ok:
        problems.append(f"verify failed: {verification.failures}")
    if not analysis.ok:
        problems.append(f"analyze failed: {analysis.failures}")
    predicted = metrics.predicted_flag(n, r)
    if analysis.flag_actual is None or analysis.flag_actual.as_tuple() != predicted.as_tuple():
        problems.append(f"flag vector {analysis.flag_actual} != predicted {predicted}")
    expected = {
        "vertices": (verification.vertices_preserved, verification.vertices_total, n**r),
        "edges": (verification.edges_preserved, verification.edges_total, r * n**r),
        "polygons": (verification.polygons_direct, verification.polygons_total, r * n ** (r - 1)),
    }
    for kind, (preserved, total, want) in expected.items():
        if not preserved == total == want:
            problems.append(f"{kind} preserved {preserved}/{total}, expected {want}")
    outputs = {
        "system": io.dumps_json(io.system_to_dict(system)),
        "verify": io.dumps_json(verification.as_dict()),
        "analyze": io.dumps_json(analysis.as_dict()),
    }
    return system, outputs, problems


def roundtrip_case(n: int, r: int, system: io.SystemFile, clock: StageClock) -> CaseResult:
    source = system.h
    with clock("construct_s"):
        v = polytope.h_to_v(source)
    with clock("verify_s"):
        h2 = polytope.v_to_h(v.vertices)
        v2 = polytope.h_to_v(h2)
    with clock("analyze_s"):
        faces = lattice.face_lattice(v)

    problems = []
    if len(v.vertices) != n**r:
        problems.append(f"{len(v.vertices)} source vertices, expected {n**r}")
    if _facet_set(h2) != _facet_set(source):
        problems.append("round-trip facets differ from the source rows up to positive scaling")
    if set(v2.vertices) != set(v.vertices):
        problems.append("round-trip vertices differ from the source vertices")
    if len(faces) != (2 * n + 1) ** r + 1:
        problems.append(f"source lattice has {len(faces)} faces, expected {(2 * n + 1) ** r + 1}")
    outputs = {
        "hull": io.dumps_json(io.system_to_dict(io.SystemFile(h2))),
        "vertices": io.dumps_json(sorted([str(x) for x in p] for p in v2.vertices)),
        "lattice": io.dumps_json(list(faces.f_vector())),
    }
    return system, outputs, problems


def _facet_set(h) -> set[tuple[int, ...]]:
    """Rows (a, b) of A x <= b as primitive integer vectors, which makes
    rows equal up to positive scaling compare equal."""
    return {_primitive(tuple(row) + (b,)) for row, b in zip(h.A.entries, h.b)}


def _primitive(row: tuple[Fraction, ...]) -> tuple[int, ...]:
    scale = math.lcm(*(x.denominator for x in row))
    ints = [int(x * scale) for x in row]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)
