"""projpoly benchmark: one workload, measured in fresh subprocesses.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pipeline-deep --seed 1 --seconds 50 --trace 0

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it carries the
per-layer metrics of an extra traced round instead.  Lines before it give
the same metrics as a table, the failure ratio and a record of the machine
and the run.  Exit status 0 means a result was printed; a missing package
or a crashed worker exits 1 without one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER  # noqa: E402

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)
# wall_s is normalised to the speed of a reference machine (reference.py).
# The plain wall time and the stage times are printed with the metrics but
# left out of the result object (see README.md).
STAGES_PRINTED = (("raw_wall_s", "s"), ("construct_s", "s"), ("verify_s", "s"), ("analyze_s", "s"))
# Set-up is measured in this many fresh interpreters (the measuring
# worker included) and reported as their median.
SETUP_SAMPLES = 9
# All workers of one run together must end within this many seconds.
TIMEOUT_S = 170


class BenchmarkError(Exception):
    pass


def run_worker(args: argparse.Namespace, deadline: float, setup_only: bool = False) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON report; the
    worker is killed at ``deadline`` (a ``time.monotonic()`` value)."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    # Fixed hashing, and compiling from source every time, keep set-up the
    # same whatever bytecode caches the checkout happens to hold.
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    launched_at = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--launched-at", repr(launched_at)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=max(deadline - launched_at, 1))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"the run did not finish within {TIMEOUT_S} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def machine_record(args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def collect(args: argparse.Namespace) -> tuple[dict, dict]:
    """The measured values by name, and the measuring worker's report."""
    deadline = time.monotonic() + TIMEOUT_S
    if args.trace:
        report = run_worker(args, deadline)
        return report["layers"], report
    setup = [run_worker(args, deadline, setup_only=True)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    report = run_worker(args, deadline)
    return dict(report, setup_s=statistics.median(setup + [report["setup_s"]])), report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload named in BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "projpoly" / "__init__.py").is_file():
        print(f"error: no projpoly package under {ROOT / 'src'}", file=sys.stderr)
        return 1

    record = machine_record(args)
    try:
        values, report = collect(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["runs_per_case"] = report["runs_per_case"]
    names, printed = (list(PER_LAYER), []) if args.trace else (list(END_TO_END), list(STAGES_PRINTED))
    print("\n".join(render(values, names, report["attempted"], report["failed"], record, printed)))
    return 0


def render(values: dict, names: list[tuple[str, str]], attempted: int, failed: int, record: dict,
           printed: list[tuple[str, str]] = ()) -> list[str]:
    """A table of the metrics and the ``printed`` extras with their units,
    the failure ratio, the record line, and last the result object, which
    holds only ``names``."""
    lines = [f"{name:40s} {values[name]:>14.6g} {unit}" for name, unit in [*names, *printed]]
    lines.append(f"{'fail_ratio':40s} {failed / attempted:>14.6g} ratio ({failed}/{attempted})")
    lines.append(json.dumps({"record": record}))
    lines.append(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }))
    return lines


if __name__ == "__main__":
    sys.exit(main())
