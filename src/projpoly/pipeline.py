"""End-to-end runs: construct, verify, analyze, and sweep.

This is the glue the CLI and the test suite share.  Verification covers the
product structure, the closed-form certificate identities, and the strict
preservation of every vertex, edge, and polygon 2-face under projection to
the last four coordinates; analysis compares the computed flag vector of
the projection against the closed-form prediction and evaluates the
metrics.
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from .construction import (
    AdaptationAttempt,
    ConstructionError,
    ConstructionParams,
    check_parameters,
    choose_parameters,
)
from .io import SystemFile
from .lattice import FlagVector4
from .metrics import (
    CountingError,
    CountingReport,
    complexity,
    cone_membership,
    counting_identities,
    fatness,
    gvector,
    metrics_report,
    phi_coords,
    predicted_flag,
    predicted_flag_paper_literal,
)
from .polytope import PolytopeError, VPolytope
from .polytope import h_to_v  # noqa: F401  (kept as pipeline.h_to_v, which perfbench wraps)
from .projection import (
    CertificateError,
    PreservationReport,
    ProjectionChecker,
    alpha_coeff,
    beta_coeff,
    deletion_certificates,
    enumerate_edges,
    enumerate_polygon_faces,
    vertex_faces,
    zero_sum_check,
)
from .rational import QQ, format_rational, rational_to_decimal

ZERO_SUM_RANGE = range(-20, 21)


def construct_system(
    n: int,
    r: int,
    eps: Fraction | None = None,
    big_m: Fraction | None = None,
    force: bool = False,
) -> SystemFile:
    """Build a deformed product, adapting any parameter left unspecified.

    Explicit parameters skip adaptation but never skip the validity gates:
    the gates run and their outcome is recorded in the result (an invalid
    explicit system is written as ``validated=False`` and will fail
    ``verify``).  ``force`` additionally relaxes the even-n domain check
    for exploratory builds.
    """
    if eps is None or big_m is None:
        params = choose_parameters(n, r, fixed_eps=eps, fixed_big_m=big_m)
    else:
        params = ConstructionParams(n, r, QQ(eps), QQ(big_m), validated=True, forced=force)
        reason = check_parameters(params)
        if reason is not None:
            log = (AdaptationAttempt(params.eps, params.big_m, reason),)
            params = dataclasses.replace(params, validated=False, adaptation_log=log)
    system = SystemFile(
        params.deformed_product,
        n=params.n,
        r=params.r,
        eps=params.eps,
        big_m=params.big_m,
        validated=params.validated,
        adaptation=params.adaptation_log,
    )
    if params.validated:
        # The gates enumerated these vertices; seed the system's cached
        # ``vertices`` with them instead of enumerating again.
        vars(system)["vertices"] = params.vertices
    return system


@dataclass
class VerifyResult:
    n: int
    r: int
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    product_ok: bool = False
    vertex_count: int = 0
    zero_sum_ok: bool = False
    alpha_beta_ok: bool = False
    deletion_ok: bool = False
    deletion_blocks: int = 0
    vertices_total: int = 0
    vertices_preserved: int = 0
    edges_total: int = 0
    edges_preserved: int = 0
    polygons_total: int = 0
    polygons_direct: int = 0
    polygons_certified: int = 0
    implication_ok: bool = True
    polygon_reports: list[PreservationReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "schema": 1,
            "command": "verify",
            "n": self.n,
            "r": self.r,
            "ok": self.ok,
            "failures": list(self.failures),
            "notes": list(self.notes),
            "checks": {
                "product_isomorphic": self.product_ok,
                "zero_sum_range": self.zero_sum_ok,
                "alpha_beta_nonneg": self.alpha_beta_ok,
                "deletion_certificates": self.deletion_ok,
                "vertices_preserved": f"{self.vertices_preserved}/{self.vertices_total}",
                "edges_preserved": f"{self.edges_preserved}/{self.edges_total}",
                "polygons_direct": f"{self.polygons_direct}/{self.polygons_total}",
                "polygons_certified": f"{self.polygons_certified}/{self.polygons_total}",
                "certificate_implies_direct": self.implication_ok,
            },
            "polygon_reports": [rep.as_dict() for rep in sorted(
                self.polygon_reports, key=lambda rep: rep.face_id
            )],
        }


def _geometry(
    system: SystemFile, failures: list[str]
) -> tuple[VPolytope | None, list[tuple[int, ...]] | None, ProjectionChecker | None]:
    """The system's vertices, product labeling and projection checker, as
    far as they exist; the first step that fails appends its reason to
    ``failures`` and leaves itself and the later steps None."""
    try:
        verts = system.vertices
    except PolytopeError as exc:
        failures.append(f"vertex_enumeration: {exc}")
        return None, None, None
    labeling = system.labeling
    if labeling is None:
        failures.append("product_isomorphic")
        return verts, None, None
    try:
        return verts, labeling, system.checker
    except PolytopeError as exc:
        failures.append(f"projection_hull: {exc}")
        return verts, labeling, None


def verify_system(system: SystemFile) -> VerifyResult:
    """Run the full verification suite over one inequality system."""
    n, r = system.require_nr()
    result = VerifyResult(n=n, r=r)
    if system.validated is False:
        result.failures.append("not_validated: the construction gates rejected this system")

    result.zero_sum_ok = all(zero_sum_check(k) for k in ZERO_SUM_RANGE)
    if not result.zero_sum_ok:
        result.failures.append("zero_sum_range")
    result.alpha_beta_ok = all(
        alpha_coeff(k) >= 0
        and beta_coeff(k) >= 0
        and ((alpha_coeff(k) == 0) == (k == 0))
        and ((beta_coeff(k) == 0) == (k == 0))
        for k in ZERO_SUM_RANGE
    )
    if not result.alpha_beta_ok:
        result.failures.append("alpha_beta_nonneg")

    try:
        certs = deletion_certificates(n, r)
        result.deletion_ok = True
        result.deletion_blocks = len(certs)
        if r == 2:
            result.notes.append("deletion certificates vacuous (r=2)")
    except CertificateError as exc:
        result.failures.append(f"deletion_certificates: {exc}")

    verts, labeling, checker = _geometry(system, result.failures)
    if verts is not None:
        result.vertex_count = verts.nvertices
    result.product_ok = labeling is not None
    if labeling is not None and 2 * r == 4:
        result.notes.append("projection is identity; preservation vacuous")
    if checker is None:
        return result
    reports_by_kind = {"vertex": [0, 0], "edge": [0, 0], "polygon": [0, 0]}

    for face in vertex_faces(labeling):
        rep = checker.check_face(face.vertices, face_id=face.face_id, factor=face.factor)
        reports_by_kind["vertex"][0] += 1
        reports_by_kind["vertex"][1] += rep.direct_ok
        if rep.certificate_ok and not rep.direct_ok:
            result.implication_ok = False
    for face in enumerate_edges(labeling, n, r):
        rep = checker.check_face(face.vertices, face_id=face.face_id, factor=face.factor)
        reports_by_kind["edge"][0] += 1
        reports_by_kind["edge"][1] += rep.direct_ok
        if rep.certificate_ok and not rep.direct_ok:
            result.implication_ok = False
    for face in enumerate_polygon_faces(labeling, n, r):
        rep = checker.check_face(face.vertices, face_id=face.face_id, factor=face.factor)
        result.polygon_reports.append(rep)
        reports_by_kind["polygon"][0] += 1
        reports_by_kind["polygon"][1] += rep.direct_ok
        result.polygons_certified += rep.certificate_ok
        if rep.certificate_ok and not rep.direct_ok:
            result.implication_ok = False

    result.vertices_total, result.vertices_preserved = reports_by_kind["vertex"]
    result.edges_total, result.edges_preserved = reports_by_kind["edge"]
    result.polygons_total, result.polygons_direct = reports_by_kind["polygon"]

    if result.vertices_preserved != result.vertices_total:
        result.failures.append("vertex_preservation")
    if result.edges_preserved != result.edges_total:
        result.failures.append("edge_preservation")
    if result.polygons_direct != result.polygons_total:
        result.failures.append("polygon_preservation_direct")
    if result.polygons_certified != result.polygons_total:
        result.failures.append("polygon_preservation_certificate")
    if not result.implication_ok:
        result.failures.append("certificate_implies_direct")
    return result


@dataclass
class AnalyzeResult:
    n: int
    r: int
    failures: list[str] = field(default_factory=list)
    flag_actual: FlagVector4 | None = None
    flag_predicted: FlagVector4 | None = None
    flag_match: bool = False
    counting: CountingReport | None = None
    report: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        out = {
            "schema": 1,
            "command": "analyze",
            "n": self.n,
            "r": self.r,
            "ok": self.ok,
            "failures": list(self.failures),
            "flag_actual": list(self.flag_actual.as_tuple()) if self.flag_actual else None,
            "flag_predicted": list(self.flag_predicted.as_tuple()) if self.flag_predicted else None,
            "flag_match": self.flag_match,
        }
        if self.counting is not None:
            out["identities"] = {
                "prisms": self.counting.prisms,
                "cubes": self.counting.cubes,
                "checks": dict(self.counting.identities),
            }
        out.update(self.report)
        return out


def analyze_system(system: SystemFile, paper_literal: bool = False) -> AnalyzeResult:
    """Hull of the projection, flag vector, metrics, counting identities."""
    n, r = system.require_nr()
    result = AnalyzeResult(n=n, r=r)
    result.flag_predicted = predicted_flag(n, r)

    _, labeling, checker = _geometry(system, result.failures)
    if checker is None:
        return result
    if not checker.vertex_bijection_ok():
        result.failures.append("projected vertices are not in bijection with the source")
        return result

    result.flag_actual = FlagVector4.from_lattice(checker.q_lattice)
    result.flag_match = result.flag_actual == result.flag_predicted
    if not result.flag_match:
        result.failures.append("flag_vector_mismatch")

    polygon_masks = []
    for face in enumerate_polygon_faces(labeling, n, r):
        mask = 0
        for i in face.vertices:
            mask |= 1 << checker.vertex_map[i]
        polygon_masks.append(mask)
    try:
        result.counting = counting_identities(checker.q_lattice, n, r, polygon_masks)
        if not result.counting.ok:
            bad = [name for name, ok in result.counting.identities.items() if not ok]
            result.failures.append("counting_identities: " + ", ".join(bad))
    except CountingError as exc:
        result.failures.append(f"counting_identities: {exc}")

    flag = result.flag_actual
    result.report = metrics_report(flag, paper_literal=paper_literal)
    if paper_literal:
        literal = predicted_flag_paper_literal(n, r)
        result.report["paper_literal"]["predicted_f2"] = literal.f2
        result.report["paper_literal"]["actual_f2"] = flag.f2
        result.report["paper_literal"]["predicted_f2_discrepancy"] = literal.f2 - flag.f2

    phi = phi_coords(flag)
    fat = fatness(flag)
    comp = complexity(flag)
    consistency = {
        "fatness == 1/(phi0+phi3)": fat * (phi.phi0 + phi.phi3) == 1,
        "g2 >= 0": gvector(flag).g2 >= 0,
        "C <= 2F - 2": comp <= 2 * fat - 2,
        "F <= 2C - 2": fat <= 2 * comp - 2,
        "cone": cone_membership(flag).all_hold,
    }
    result.report["consistency"] = consistency
    for name, ok in consistency.items():
        if not ok:
            result.failures.append(f"consistency: {name}")
    return result


@dataclass(frozen=True)
class SweepRow:
    n: int
    r: int
    flag: FlagVector4
    fatness: Fraction
    complexity: Fraction
    geometric: str

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "flag": list(self.flag.as_tuple()),
            "fatness": format_rational(self.fatness),
            "fatness_decimal_approx": rational_to_decimal(self.fatness),
            "complexity": format_rational(self.complexity),
            "complexity_decimal_approx": rational_to_decimal(self.complexity),
            "geometric": self.geometric,
        }


def sweep_row(n: int, r: int, geometric_budget: int = 5000) -> SweepRow:
    """One sweep entry; runs the geometric pipeline when n^r is within
    budget, otherwise reports formula-only values."""
    flag = predicted_flag(n, r)
    fat, comp = fatness(flag), complexity(flag)
    if n**r > geometric_budget:
        return SweepRow(n, r, flag, fat, comp, "formula-only")
    try:
        system = construct_system(n, r)
        verification = verify_system(system)
        analysis = analyze_system(system)
    except (ConstructionError, PolytopeError) as exc:
        return SweepRow(n, r, flag, fat, comp, f"FAIL: {exc}")
    if not verification.ok:
        return SweepRow(n, r, flag, fat, comp, f"FAIL: {verification.failures[0]}")
    if not analysis.ok:
        return SweepRow(n, r, flag, fat, comp, f"FAIL: {analysis.failures[0]}")
    return SweepRow(n, r, flag, fat, comp, "ok")


def _sweep_task(args: tuple[int, int, int]) -> SweepRow:
    n, r, budget = args
    return sweep_row(n, r, geometric_budget=budget)


def sweep(
    n_values: list[int],
    r_values: list[int],
    geometric_budget: int = 5000,
    jobs: int = 1,
) -> list[SweepRow]:
    """Sweep the (n, r) grid; output order is the sorted grid regardless of
    how the rows were scheduled."""
    grid = sorted({(n, r) for n in n_values for r in r_values})
    tasks = [(n, r, geometric_budget) for n, r in grid]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [_sweep_task(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_sweep_task, tasks))
