"""One workload in one fresh interpreter: set up, measure, check, report.

Started by ``run.py``; prints one JSON object on its last stdout line.

The timed section is a closed loop with one client: rounds of the
workload's cases, each round in an order drawn from the seed.  Every case
runs once; after that a case is started only while its median time so far
still fits into ``--seconds``.  Meanwhile a ``reference.SpeedGauge``
measures each case's time also in runs of a fixed reference kernel, which
cancels the drift of a shared machine's speed.  A case's first outputs
are its reference; every later run of it, and the traced run, must
reproduce them byte for byte.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from projpoly import io  # noqa: E402

import cases  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
from spans import Tracer  # noqa: E402


class Runner:
    """Runs cases, counts attempts and failures, keeps reference outputs."""

    def __init__(self, workload: cases.Workload, inputs: dict) -> None:
        self.workload = workload
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.reference: dict[tuple[int, int], dict[str, str]] = {}
        self.samples: dict[tuple[int, int], list[dict[str, float]]] = {c: [] for c in workload.cases}
        self.gauge: reference.SpeedGauge | None = None  # set while the timed loop runs

    def run(self, case: tuple[int, int], construct=None, label: str = "untraced"):
        """One case; returns its timings (None if it failed) and its system.
        A failure is counted and reported, never raised.  With a gauge,
        ``kernel_runs`` is the case's time in reference-kernel runs and the
        wall times leave out the gauge's own kernel runs."""
        self.attempted += 1
        gauge = self.gauge
        clock = cases.StageClock(lambda: gauge.paused_s) if gauge else cases.StageClock()
        units = gauge.mark() if gauge else 0.0
        paused = gauge.paused_s if gauge else 0.0
        start = time.perf_counter()
        try:
            if self.workload.kind == "pipeline":
                system, outputs, problems = cases.pipeline_case(*case, clock, construct=construct)
            else:
                system, outputs, problems = cases.roundtrip_case(*case, self.inputs[case], clock)
        except Exception:  # a crashing case is a failed case, not a crashed harness
            traceback.print_exc(file=sys.stderr)
            system, outputs, problems = None, None, ["raised"]
        wall = time.perf_counter() - start
        if gauge:
            wall -= gauge.paused_s - paused
            units = gauge.mark() - units
        if outputs is not None:
            first = self.reference.setdefault(case, outputs)
            problems += [f"{name} output differs from the first run ({label})"
                         for name in outputs if outputs[name] != first[name]]
        if problems:
            self.failed += 1
            print(f"case {case} failed ({label}): {'; '.join(problems)}", file=sys.stderr)
            return None, system
        return {"wall_s": wall, "kernel_runs": units, **clock.seconds}, system


def measure(runner: Runner, seed: int, seconds: float) -> random.Random:
    """Run every case once, then keep drawing cases in seeded rounds while
    a case's median time so far still fits before the deadline."""
    rng = random.Random(seed)
    case_list = list(runner.workload.cases)
    deadline = time.perf_counter() + seconds
    first_round = True
    with reference.SpeedGauge() as runner.gauge:
        try:
            while True:
                ran = False
                for case in rng.sample(case_list, len(case_list)):
                    runs = runner.samples[case]
                    if not first_round:
                        expected = statistics.median(s["wall_s"] for s in runs) if runs else 0.0
                        if time.perf_counter() + expected > deadline:
                            continue
                    sample, _ = runner.run(case)
                    ran = True
                    if sample is not None:
                        runs.append(sample)
                if not ran:
                    return rng
                first_round = False
        finally:
            runner.gauge = None


def round_medians(samples: dict[tuple[int, int], list[dict[str, float]]]) -> dict[str, float]:
    """Time of one round of the workload: per case the median over its
    runs, summed over cases.  ``wall_s`` is speed-normalised: the case's
    time in reference-kernel runs, scaled by ``REFERENCE_KERNEL_S``;
    ``raw_wall_s`` is the plain wall time."""
    def summed(key: str) -> float:
        return sum(statistics.median(s[key] for s in runs) for runs in samples.values() if runs)

    report = {stage: summed(stage) for stage in cases.STAGES}
    report["raw_wall_s"] = summed("wall_s")
    report["wall_s"] = reference.REFERENCE_KERNEL_S * summed("kernel_runs")
    return report


def traced_round(runner: Runner, rng: random.Random, untraced_wall: float) -> dict[str, float]:
    """One more round with every traced function wrapped, plus a save and
    load of each case's system; returns the per-layer metrics."""
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    wall = 0.0
    written = 0
    systems = []
    try:
        with Tracer() as tracer:
            for case in rng.sample(list(runner.workload.cases), len(runner.workload.cases)):
                sample, system = runner.run(case, label="traced")
                if sample is None:
                    continue
                wall += sample["wall_s"]
                systems.append(system)
                path = scratch / f"{case[0]}_{case[1]}.json"
                try:
                    io.save_system(path, system)
                    saved = path.read_text()
                    written += len(saved.encode())
                    same = io.dumps_json(io.system_to_dict(io.load_system(path))) == saved
                except Exception:  # counted as a failure like any other case
                    traceback.print_exc(file=sys.stderr)
                    same = False
                if not same:
                    runner.failed += 1
                    print(f"case {case}: saved system does not load back identically", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return layers.per_layer(tracer, systems, written, wall - untraced_wall)


def run_workload(workload: cases.Workload, inputs: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Measure the workload; with ``trace`` add the traced round's per-layer
    metrics under ``"layers"``."""
    runner = Runner(workload, inputs)
    rng = measure(runner, seed, seconds)
    report = round_medians(runner.samples)
    if trace:
        report["layers"] = traced_round(runner, rng, report["raw_wall_s"])
    report["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["attempted"] = runner.attempted
    report["failed"] = runner.failed
    report["runs_per_case"] = {f"{n}x{r}": len(runs) for (n, r), runs in runner.samples.items()}
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched-at", type=float, required=True,
                        help="time.monotonic() in the parent just before this process started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = cases.WORKLOADS[args.workload]
    inputs = cases.build_inputs(workload)
    setup_s = time.monotonic() - args.launched_at
    report = {"setup_s": setup_s}
    if not args.setup_only:
        report.update(run_workload(workload, inputs, args.seed, args.seconds, bool(args.trace)))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
