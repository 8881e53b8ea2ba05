"""Per-layer metrics of the traced round, named ``<module>.<function>.<stat>``.

``.calls`` counts calls, ``.s`` is inclusive wall time and ``.self_s`` is
that time minus the time of traced calls nested inside it.  The remaining
metrics are sizes read from the traced calls' arguments and results.
"""

from __future__ import annotations

from spans import Tracer

PER_LAYER = (
    ("construction.check_parameters.calls", "count"),
    ("construction.choose_parameters.s", "s"),
    ("construction.m_bits", "bits"),
    ("polytope.convex_hull.calls", "count"),
    ("polytope.convex_hull.s", "s"),
    ("polytope.convex_hull.self_s", "s"),
    ("polytope.h_to_v.calls", "count"),
    ("polytope.h_to_v.s", "s"),
    ("polytope.product_labeling.s", "s"),
    ("polytope.hull_facets", "count"),
    ("linalg.rank_int_rows.calls", "count"),
    ("linalg.positively_spans.calls", "count"),
    ("linalg.positively_spans.s", "s"),
    ("linalg.positively_spans.distinct", "count"),
    ("linalg.nonneg_solution.calls", "count"),
    ("linalg.nonneg_solution.s", "s"),
    ("lattice.face_lattice.calls", "count"),
    ("lattice.face_lattice.s", "s"),
    ("lattice.faces", "count"),
    ("projection.ProjectionChecker.s", "s"),
    ("projection.ProjectionChecker.self_s", "s"),
    ("projection.check_face.calls", "count"),
    ("projection.check_face.self_s", "s"),
    ("metrics.counting_identities.s", "s"),
    ("io.save_system.s", "s"),
    ("io.load_system.s", "s"),
    ("io.system_bytes", "bytes"),
    ("pipeline.construct_system.s", "s"),
    ("pipeline.verify_system.s", "s"),
    ("pipeline.verify_system.self_s", "s"),
    ("pipeline.analyze_system.s", "s"),
    ("pipeline.analyze_system.self_s", "s"),
    ("trace_overhead_s", "s"),
)


def per_layer(tracer: Tracer, systems: list, system_bytes: int, trace_overhead_s: float) -> dict[str, float]:
    """Every PER_LAYER metric; a layer the workload never calls reads 0."""
    totals = tracer.totals()
    spans_args = tracer.arguments["linalg.positively_spans"]
    sizes = {
        "construction.m_bits": max((s.big_m.numerator.bit_length() for s in systems if s.big_m), default=0),
        "polytope.hull_facets": sum(hull.h.nrows for hull in tracer.results["polytope.convex_hull"]),
        "linalg.positively_spans.distinct": len({
            (args[1], tuple(sorted(tuple(v) for v in args[0]))) for args in spans_args
        }),
        "lattice.faces": sum(len(lat) for lat in tracer.results["lattice.face_lattice"]),
        "io.system_bytes": system_bytes,
        "trace_overhead_s": trace_overhead_s,
    }
    out = {}
    for name, _unit in PER_LAYER:
        if name in sizes:
            out[name] = sizes[name]
            continue
        span, stat = name.rsplit(".", 1)
        out[name] = getattr(totals[span], stat) if span in totals else 0
    return out
