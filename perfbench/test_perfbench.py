"""Self-tests of the benchmark harness.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import cases  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from projpoly import io, pipeline, polytope, projection  # noqa: E402
from spans import Tracer  # noqa: E402

TINY = cases.Workload("pipeline", ((4, 2), (6, 2)))


def _printed(lines: list[str], names: list[tuple[str, str]]) -> None:
    result = json.loads(lines[-1])
    for name, unit in names:
        assert any(re.fullmatch(rf"{re.escape(name)}\s+\S+\s+{re.escape(unit)}", line) for line in lines), name
        assert result["metrics"][name]["unit"] == unit
    assert set(result["metrics"]) == {name for name, _ in names}


def test_tiny_configuration_prints_every_metric_with_its_unit():
    report = worker.run_workload(TINY, cases.build_inputs(TINY), seed=7, seconds=0, trace=True)
    assert report["attempted"] == 4 and report["failed"] == 0  # one timed and one traced round
    values = dict(report, setup_s=0.1)
    _printed(run.render(values, list(run.END_TO_END), report["attempted"], report["failed"], {}),
             list(run.END_TO_END))
    _printed(run.render(report["layers"], list(layers.PER_LAYER), 4, 0, {}), list(layers.PER_LAYER))
    assert report["layers"]["construction.check_parameters.calls"] >= 2
    assert report["layers"]["polytope.convex_hull.calls"] == 4  # verify and analyze, per case
    # vertices, edges and polygons of the products: n^r + r*n^r + r*n^(r-1)
    assert report["layers"]["projection.check_face.calls"] == (16 + 32 + 8) + (36 + 72 + 12)


def test_round_trip_gates_pass_on_a_small_case():
    tiny = cases.Workload("roundtrip", ((4, 2),))
    report = worker.run_workload(tiny, cases.build_inputs(tiny), seed=1, seconds=0, trace=False)
    assert report["attempted"] == 1 and report["failed"] == 0
    assert report["verify_s"] > 0


def test_corrupted_rhs_lands_in_fail_ratio():
    good = pipeline.construct_system(4, 2)
    h = good.h
    # Moving the facet x1 <= 1/160 out to 1000/160 makes it redundant: the
    # first polygon becomes a triangle and the system is no longer a product.
    rhs = (h.b[0], h.b[1] * 1000) + h.b[2:]
    bad = io.SystemFile(polytope.HPolytope(h.A, rhs, h.labels), n=4, r=2, eps=good.eps,
                        big_m=good.big_m, validated=good.validated, adaptation=good.adaptation)
    runner = worker.Runner(TINY, cases.build_inputs(TINY))
    sample, _ = runner.run((4, 2), construct=lambda n, r: bad)
    assert sample is None
    assert (runner.attempted, runner.failed) == (1, 1)
    sample, _ = runner.run((6, 2))
    assert sample is not None and runner.failed == 1


def test_tracer_restores_every_wrapped_attribute():
    before = (polytope.convex_hull, projection.convex_hull, pipeline.h_to_v,
              projection.ProjectionChecker.__dict__["check_face"])
    with Tracer() as tracer:
        assert projection.convex_hull is polytope.convex_hull is not before[0]
        projection.ProjectionChecker(pipeline.construct_system(4, 2).h,
                                     polytope.h_to_v(pipeline.construct_system(4, 2).h))
    after = (polytope.convex_hull, projection.convex_hull, pipeline.h_to_v,
             projection.ProjectionChecker.__dict__["check_face"])
    assert after == before
    totals = tracer.totals()
    assert totals["projection.ProjectionChecker"].calls == 1
    assert totals["polytope.convex_hull"].calls == 1
    hull = totals["polytope.convex_hull"]
    assert 0 <= hull.self_s <= hull.s


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(cases.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)


def test_reference_kernel_runs_without_projpoly():
    code = ("import sys; sys.path.insert(0, 'perfbench'); import reference; "
            "assert reference.kernel_seconds() > 0; print('projpoly' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout.strip() == "False"


def test_speed_gauge_counts_kernel_runs_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with reference.SpeedGauge() as gauge:
        start_units = gauge.mark()
        start = time.perf_counter()
        while time.perf_counter() - start < 1.2:  # long enough for the timer to fire twice
            sum(range(1000))
        elapsed = time.perf_counter() - start
        units = gauge.mark() - start_units
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert gauge.paused_s > 3 * 0.005
    # the loop's time, less the kernel runs, in kernel runs of 5-100 ms
    assert (elapsed - gauge.paused_s) / 0.1 < units < elapsed / 0.005


def test_normalised_wall_time_is_reported_next_to_the_plain_one():
    report = worker.run_workload(TINY, cases.build_inputs(TINY), seed=3, seconds=0, trace=False)
    assert report["wall_s"] > 0 and report["raw_wall_s"] > 0


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pipeline-deep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
