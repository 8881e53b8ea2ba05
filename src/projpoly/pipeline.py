"""End-to-end runs: construct, verify, analyze, and sweep.

This is the glue the CLI and the test suite share.  Verification covers the
product structure, the closed-form certificate identities, and the strict
preservation of every vertex, edge, and polygon 2-face under projection to
the last four coordinates; analysis compares the computed flag vector of
the projection against the closed-form prediction and evaluates the
metrics.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from .construction import (
    CertificateError,
    ConstructionError,
    InvalidParameterError,
    alpha_coeff,
    beta_coeff,
    choose_parameters,
    deletion_certificates,
    zero_sum_check,
)
from .io import SystemFile
from .lattice import FlagVector4, mask_of
from .metrics import (
    CountingError,
    CountingReport,
    complexity,
    counting_identities,
    fatness,
    metrics_report,
    predicted_flag,
    predicted_flag_paper_literal,
)
from .polytope import PolytopeError, VPolytope
from .polytope import h_to_v  # noqa: F401  (kept as pipeline.h_to_v, which perfbench wraps)
from .projection import PreservationReport, ProductFace, ProjectionChecker, product_polygons
from .rational import format_rational, rational_to_decimal

ZERO_SUM_RANGE = range(-20, 21)
# ``sweep`` verifies geometrically only when n^r is at most this.
GEOMETRIC_BUDGET = 5000


construct_system = choose_parameters


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
            "polygon_reports": [asdict(rep) for rep in sorted(
                self.polygon_reports, key=lambda rep: rep.face_id
            )],
        }


def _geometry(
    system: SystemFile, failures: list[str]
) -> tuple[VPolytope | None, VPolytope | None, ProjectionChecker | None]:
    """The system's vertices, the same in code order and its projection
    checker, as far as they exist; the first step that fails appends its
    reason to ``failures`` and leaves itself and the later steps None."""
    try:
        verts = system.vertices
    except PolytopeError as exc:
        failures.append(f"vertex_enumeration: {exc}")
        return None, None, None
    product = system.product
    if product is None:
        failures.append("product_isomorphic")
        return verts, None, None
    try:
        return verts, product, system.checker
    except PolytopeError as exc:
        failures.append(f"projection_hull: {exc}")
        return verts, product, None


def verify_system(system: SystemFile) -> VerifyResult:
    """Run the full verification suite over one inequality system.

    Every polygon 2-face of the product is checked, and then only the edges
    of the failing polygons and, once each, the vertices in no passing
    polygon.  This is exact: every edge lies in exactly one polygon and
    every vertex in r of them, and a face E of a polygon F that passed both
    halves passes both (Amenta-Ziegler 1998; Ziegler, "Projected products
    of polygons", 2004).  The image of F keeps F's dimension, so the
    projection maps aff F isomorphically onto the image's affine hull: (i)
    the image of E is a face of the image of F, hence of the projection;
    (ii) the map keeps E's vertices apart and E's dimension; (iii) a vertex
    of P whose image lies in the image of E is, by (iii) for F, a vertex of
    F, hence of E.  E lies on every facet through F, and a superset of a
    positively spanning set spans (Davis 1954).
    """
    n, r = system.require_nr()
    result = VerifyResult(n=n, r=r)
    if system.validated is False:
        result.failures.append("not_validated: the construction gates rejected this system")

    result.zero_sum_ok = all(zero_sum_check(k) for k in ZERO_SUM_RANGE)
    if not result.zero_sum_ok:
        result.failures.append("zero_sum_range")
    result.alpha_beta_ok = all(
        alpha >= 0 and beta >= 0 and (alpha == 0) == (k == 0) and (beta == 0) == (k == 0)
        for k in ZERO_SUM_RANGE
        for alpha, beta in [(alpha_coeff(k), beta_coeff(k))]
    )
    if not result.alpha_beta_ok:
        result.failures.append("alpha_beta_nonneg")

    try:
        certs = deletion_certificates(r)
        result.deletion_ok = True
        result.deletion_blocks = len(certs)
        if r == 2:
            result.notes.append("deletion certificates vacuous (r=2)")
    except CertificateError as exc:
        result.failures.append(f"deletion_certificates: {exc}")

    verts, product, checker = _geometry(system, result.failures)
    if verts is not None:
        result.vertex_count = verts.nvertices
    result.product_ok = product is not None
    if product is not None and 2 * r == 4:
        result.notes.append("projection is identity; preservation vacuous")
    if checker is None:
        return result
    # P's incidences are the product's, so each face has exactly the
    # dimension it is checked under.
    polygons = product_polygons(n, r)
    reports = result.polygon_reports = [checker.check_face(polygon, 2) for polygon in polygons]
    covered = 0  # P-vertices in a passing polygon or already checked
    failing = []
    for polygon, rep in zip(polygons, reports):
        if rep.direct_ok and rep.certificate_ok:
            covered |= mask_of(polygon.vertices)
        else:
            failing.append(polygon)
    edges: list[PreservationReport] = []
    vertices: list[PreservationReport] = []
    for polygon in failing:
        cycle = polygon.vertices
        for pair in zip(cycle, cycle[1:] + cycle[:1]):
            edges.append(checker.check_face(ProductFace(None, polygon.factor, pair), 1))
        for i in cycle:
            if not covered >> i & 1:
                covered |= 1 << i
                vertices.append(checker.check_face(ProductFace(None, None, (i,)), 0))
    result.polygons_total = len(polygons)
    result.polygons_direct = sum(rep.direct_ok for rep in reports)
    result.polygons_certified = sum(rep.certificate_ok for rep in reports)
    result.vertices_total = n**r
    result.vertices_preserved = result.vertices_total - sum(not rep.direct_ok for rep in vertices)
    result.edges_total = r * n**r
    result.edges_preserved = result.edges_total - sum(not rep.direct_ok for rep in edges)
    result.implication_ok = all(rep.direct_ok or not rep.certificate_ok for rep in reports + edges + vertices)

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
    # The closed form covers even n only; an odd-n system (``construct
    # --force``) still gets its geometry analyzed.
    try:
        result.flag_predicted = predicted_flag(n, r)
    except InvalidParameterError as exc:
        result.failures.append(f"flag_predicted: unavailable: {exc}")

    checker = _geometry(system, result.failures)[2]
    if checker is None:
        return result
    # The flag vector of the projection needs only its lattice.
    flag = result.flag_actual = FlagVector4.from_lattice(checker.q_lattice)
    if not checker.vertex_bijection_ok():
        result.failures.append("projected vertices are not in bijection with the source")
        return result

    result.flag_match = flag == result.flag_predicted
    if result.flag_predicted is not None and not result.flag_match:
        result.failures.append("flag_vector_mismatch")

    polygon_masks = [
        mask_of(checker.vertex_map[i] for i in face.vertices)
        for face in product_polygons(n, r)
    ]
    try:
        result.counting = counting_identities(checker.q_lattice, flag, n, r, polygon_masks)
        if not result.counting.ok:
            bad = [name for name, ok in result.counting.identities.items() if not ok]
            result.failures.append("counting_identities: " + ", ".join(bad))
    except CountingError as exc:
        result.failures.append(f"counting_identities: {exc}")

    result.report = metrics_report(flag, paper_literal=paper_literal)
    if paper_literal and result.flag_predicted is not None:
        literal = predicted_flag_paper_literal(n, r)
        result.report["paper_literal"]["predicted_f2"] = literal.f2
        result.report["paper_literal"]["actual_f2"] = flag.f2
        result.report["paper_literal"]["predicted_f2_discrepancy"] = literal.f2 - flag.f2

    result.failures += [
        f"consistency: {name}" for name, ok in result.report["consistency"].items() if not ok
    ]
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


def sweep_row(n: int, r: int, geometric_budget: int = GEOMETRIC_BUDGET) -> SweepRow:
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
    geometric_budget: int = GEOMETRIC_BUDGET,
    jobs: int = 1,
) -> list[SweepRow]:
    """Sweep the (n, r) grid; output order is the sorted grid regardless of
    how the rows were scheduled."""
    grid = sorted({(n, r) for n in n_values for r in r_values})
    tasks = [(n, r, geometric_budget) for n, r in grid]
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [_sweep_task(t) for t in tasks]
    # Imported here: loading the process pool pulls in multiprocessing,
    # which no other command needs.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_sweep_task, tasks))
