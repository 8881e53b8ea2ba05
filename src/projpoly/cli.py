"""Command-line front end.

Commands: construct, verify, analyze, sweep, export.  Outputs are
deterministic (identical invocations produce byte-identical files) and the
exit codes are a stable contract: 0 success, 1 verification or analysis
failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import io as pio
from . import pipeline
from .construction import ConstructionError, InvalidParameterError
from .polytope import PolytopeError
from .rational import parse_rational

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INVALID = 2


def _parse_auto_rational(text: str) -> Fraction | None:
    if text == "auto":
        return None
    return parse_rational(text)


# Sweep size limits, checked before any list is built.
MAX_AXIS_VALUES = 10_000
MAX_GRID_PAIRS = 10_000


def _parse_range(text: str) -> list[int]:
    """Accept '4,6,8' lists and '4:8:2' (inclusive, stepped) ranges of at
    most ``MAX_AXIS_VALUES`` values in all."""
    values: list[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" in chunk:
            parts = chunk.split(":")
            if len(parts) not in (2, 3):
                raise ValueError(f"bad range: {chunk!r}")
            start, stop = int(parts[0]), int(parts[1])
            step = int(parts[2]) if len(parts) == 3 else 1
            if step <= 0:
                raise ValueError(f"range step must be positive: {chunk!r}")
            # Counted by hand: len() of a range longer than sys.maxsize
            # raises OverflowError.
            count = max(0, (stop - start) // step + 1)
            chunk_values = range(start, stop + 1, step)
        else:
            count = 1
            chunk_values = [int(chunk)]
        if len(values) + count > MAX_AXIS_VALUES:
            raise ValueError(f"more than {MAX_AXIS_VALUES} values in one range argument")
        values.extend(chunk_values)
    return values


def _write_report(path: str | None, data: dict) -> None:
    if path:
        Path(path).write_text(pio.dumps_json(data))


def cmd_construct(args: argparse.Namespace) -> int:
    try:
        eps = _parse_auto_rational(args.eps)
        big_m = _parse_auto_rational(args.big_m)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        system = pipeline.construct_system(args.n, args.r, eps=eps, big_m=big_m, force=args.force)
    except InvalidParameterError:
        raise
    except ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    pio.save_system(args.output, system)
    if args.ine:
        pio.save_ine(args.ine, system.h)
    print(
        f"constructed n={system.n} r={system.r} eps={system.eps} M={system.big_m} "
        f"({system.h.nrows}x{system.h.dim} system, validated={system.validated}) -> {args.output}"
    )
    for attempt in system.adaptation:
        print(f"  adaptation: eps={attempt.eps} M={attempt.big_m} rejected: {attempt.reason}")
    return EXIT_OK


def _load_system(path: str) -> pio.SystemFile:
    if path.endswith(".ine"):
        return pio.SystemFile(pio.load_ine(path))
    return pio.load_system(path)


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        system = _load_system(args.input)
        n, r = system.require_nr()
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load {args.input}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    result = pipeline.verify_system(system)
    print(f"system: n={n} r={r} ({system.h.nrows}x{system.h.dim})")
    print(f"product structure: {'ok' if result.product_ok else 'FAILED'} "
          f"({result.vertex_count} vertices)")
    print(f"zero-sum identity on k in [-20,20]: {'ok' if result.zero_sum_ok else 'FAILED'}")
    print(f"alpha/beta nonnegative, zero only at k=0: {'ok' if result.alpha_beta_ok else 'FAILED'}")
    if result.deletion_ok:
        print(f"deletion certificates: ok ({result.deletion_blocks} blocks)")
    else:
        print("deletion certificates: FAILED")
    if result.product_ok:
        print(f"vertices preserved: {result.vertices_preserved}/{result.vertices_total}")
        print(f"edges preserved: {result.edges_preserved}/{result.edges_total}")
        print(
            f"polygons preserved: {result.polygons_direct}/{result.polygons_total} direct, "
            f"{result.polygons_certified}/{result.polygons_total} certificate"
        )
        print(f"certificate => direct: {'ok' if result.implication_ok else 'FAILED'}")
    for note in result.notes:
        print(f"note: {note}")
    _write_report(args.report, result.as_dict())
    if result.ok:
        print("VERIFY OK")
        return EXIT_OK
    print(f"VERIFY FAILED: {result.failures[0]}")
    return EXIT_FAILURE


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        system = _load_system(args.input)
        n, r = system.require_nr()
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load {args.input}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    result = pipeline.analyze_system(system, paper_literal=args.paper_literal)
    print(f"system: n={n} r={r}")
    if result.flag_actual is not None:
        fa = result.flag_actual
        print(f"flag vector actual:    ({fa.f0}, {fa.f1}, {fa.f2}, {fa.f3}; {fa.f03})")
    fp = result.flag_predicted
    print(f"flag vector predicted: ({fp.f0}, {fp.f1}, {fp.f2}, {fp.f3}; {fp.f03})")
    print(f"flag match: {'yes' if result.flag_match else 'NO'}")
    rep = result.report
    if rep:
        print(f"phi0 = {rep['phi0']}, phi3 = {rep['phi3']}")
        print(f"fatness = {rep['fatness']} (~{rep['fatness_decimal_approx']})")
        print(f"complexity = {rep['complexity']} (~{rep['complexity_decimal_approx']})")
        cone = rep["cone"]
        holds = sum(cone.values())
        print(f"cone conditions: {holds}/5 hold")
    if result.counting is not None:
        print(f"facets: {result.counting.prisms} prisms, {result.counting.cubes} cubes; "
              f"identities {'ok' if result.counting.ok else 'FAILED'}")
    if args.paper_literal and rep.get("paper_literal"):
        lit = rep["paper_literal"]
        print("paper-literal diagnostics:")
        print(f"  fatness (transposed form) = {lit['fatness']}, "
              f"discrepancy {lit['fatness_discrepancy']}")
        print(f"  complexity (no -20 form) = {lit['complexity']}, "
              f"discrepancy {lit['complexity_discrepancy']}")
        print(f"  printed f2 term predicts {lit['predicted_f2']} 2-faces vs "
              f"{lit['actual_f2']} actual (discrepancy {lit['predicted_f2_discrepancy']})")
    _write_report(args.report, result.as_dict())
    if result.ok:
        print("ANALYZE OK")
        return EXIT_OK
    print(f"ANALYZE FAILED: {result.failures[0]}")
    return EXIT_FAILURE


_SWEEP_FIELDS = [
    "n",
    "r",
    "f0",
    "f1",
    "f2",
    "f3",
    "f03",
    "fatness",
    "fatness_decimal_approx",
    "complexity",
    "complexity_decimal_approx",
    "geometric",
]


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        n_values = _parse_range(args.n)
        r_values = _parse_range(args.r)
        pairs = len(set(n_values)) * len(set(r_values))
        if pairs > MAX_GRID_PAIRS:
            raise ValueError(f"{pairs} (n, r) pairs; at most {MAX_GRID_PAIRS} are allowed")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    rows = pipeline.sweep(
        n_values, r_values, geometric_budget=args.geometric_budget, jobs=args.jobs
    )
    if args.format == "json":
        payload = {"schema": 1, "command": "sweep", "rows": [row.as_dict() for row in rows]}
        text = pio.dumps_json(payload)
    else:
        lines = [",".join(_SWEEP_FIELDS)]
        for row in rows:
            d = row.as_dict()
            flat = {
                "n": d["n"],
                "r": d["r"],
                "f0": d["flag"][0],
                "f1": d["flag"][1],
                "f2": d["flag"][2],
                "f3": d["flag"][3],
                "f03": d["flag"][4],
                "fatness": d["fatness"],
                "fatness_decimal_approx": d["fatness_decimal_approx"],
                "complexity": d["complexity"],
                "complexity_decimal_approx": d["complexity_decimal_approx"],
                "geometric": d["geometric"],
            }
            lines.append(",".join(str(flat[f]) for f in _SWEEP_FIELDS))
        text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    failed = [row for row in rows if row.geometric.startswith("FAIL")]
    return EXIT_FAILURE if failed else EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    try:
        system = _load_system(args.input)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot load {args.input}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if args.format == "ine":
        pio.save_ine(args.output, system.h)
    else:
        pio.save_system(args.output, system)
    print(f"exported {args.input} -> {args.output} ({args.format})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projpoly",
        description="Exact construction, verification, and analysis of projected polygon products.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a deformed product system")
    p.add_argument("--n", type=int, required=True, help="polygon size (even, >= 4)")
    p.add_argument("--r", type=int, required=True, help="number of polygon factors (>= 2)")
    p.add_argument("--eps", default="auto", help="perturbation (rational 'p/q' or 'auto')")
    p.add_argument("--big-m", default="auto", help="right-hand-side growth (rational or 'auto')")
    p.add_argument("-o", "--output", required=True, help="output JSON path")
    p.add_argument("--ine", help="also write an H-representation text file")
    p.add_argument("--force", action="store_true",
                   help="allow odd n >= 3 when --eps and --big-m are both given")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="verify product structure, certificates, preservation")
    p.add_argument("input", help="system JSON with row labels")
    p.add_argument("--report", help="write a JSON report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="flag vector, metrics, counting identities")
    p.add_argument("input")
    p.add_argument("--report", help="write a JSON report")
    p.add_argument("--paper-literal", action="store_true",
                   help="also evaluate the commonly printed formula variants and their discrepancy")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="tabulate predicted metrics over an (n, r) grid")
    p.add_argument("--n", required=True, help="values: '4,6,8' or '4:10:2'")
    p.add_argument("--r", required=True, help="values: '2,3' or '2:5'")
    p.add_argument("--geometric-budget", type=int, default=5000,
                   help="verify geometrically when n^r is at most this (default 5000)")
    p.add_argument("--jobs", type=int, default=1, help="parallel workers for grid rows")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("-o", "--output", help="output path (default: stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("export", help="convert between JSON and H-representation text")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--format", choices=("json", "ine"), required=True)
    p.set_defaults(func=cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ConstructionError, PolytopeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
