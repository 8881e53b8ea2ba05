"""Command-line front end.

Commands: construct, verify, analyze, sweep, export.  Outputs are
deterministic (identical invocations produce byte-identical files) and the
exit codes are a stable contract: 0 success, 1 verification or analysis
failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator

from . import io as pio
from . import pipeline
from .construction import ConstructionError, InvalidParameterError, start_parameters, v_eps_block
from .polytope import PolytopeError
from .rational import parse_integer, parse_rational

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INVALID = 2


def _int_option(text: str) -> int:
    """An integer option's value by ``parse_integer``; a malformed one is
    reported in argparse's own words."""
    try:
        return parse_integer(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_auto_rational(text: str) -> Fraction | None:
    if text == "auto":
        return None
    return parse_rational(text)


# Sweep size limits, checked before any list is built.
MAX_AXIS_VALUES = 10_000
MAX_GRID_PAIRS = 10_000
# Digits of a sweep row's largest printed value, f03 = 4(r-1) n^r: Python's
# default limit on int-to-str conversion.
MAX_PRINTED_DIGITS = 4300
_PRINTED_LIMIT = 10**MAX_PRINTED_DIGITS


def _check_printable(n: int, r: int) -> None:
    """Raise ``ValueError`` when f03 = 4(r-1) n^r has more than
    ``MAX_PRINTED_DIGITS`` digits.

    Pairs far past the limit are decided from n^r >= 2^(r(b-1)), with b the
    bit length of n, without computing n^r.  Pairs with n or r below 2 are
    left to the domain check.
    """
    if n < 2 or r < 2:
        return
    # 2^(4k) > 10^k, so a bound past 4k bits is past k digits.
    far = r * (n.bit_length() - 1) > 4 * MAX_PRINTED_DIGITS
    if far or 4 * (r - 1) * n**r >= _PRINTED_LIMIT:
        raise ValueError(
            f"n={n}, r={r}: f03 = 4(r-1)n^r has more than {MAX_PRINTED_DIGITS} digits"
        )


def _check_writable(n: int, r: int, eps: Fraction | None, big_m: Fraction | None) -> None:
    """Raise ``ValueError`` when the first system ``construct`` builds would
    hold a number with more than ``MAX_PRINTED_DIGITS`` digits.

    That system has the given eps and M, or the search's starting values.
    Its right-hand sides are largest in block r, M^(r-1) and M^(r-1) eps:
    M > 1 makes both parts of M^k grow with k, and the numerator of M^(r-1)
    at least as long as its denominator, so powers far past the limit are
    decided from that numerator's bit length.  Its other large numbers,
    the polygon block's entries, are bounded by ``_check_block_writable``.
    Later rounds of the search are not bounded.  Values outside the domain
    are left to the domain check.
    """
    if n < 3 or r < 2 or (eps is not None and eps <= 0) or (big_m is not None and big_m <= 1):
        return
    eps0, m0 = start_parameters(n)
    eps = eps0 if eps is None else eps
    big_m = m0 if big_m is None else big_m
    far = (r - 1) * (big_m.numerator.bit_length() - 1) > 4 * MAX_PRINTED_DIGITS
    power = None if far else big_m ** (r - 1)
    if far or not _printable((power, power * eps)):
        raise ValueError(
            f"r={r}: a right-hand side M^{r - 1} or M^{r - 1}*eps would have more than "
            f"{MAX_PRINTED_DIGITS} digits"
        )


def _check_block_writable(n: int, r: int, eps: Fraction | None, big_m: Fraction | None) -> None:
    """Raise ``ValueError`` when the polygon block of the first system
    ``construct`` builds would hold a number with more than
    ``MAX_PRINTED_DIGITS`` digits.

    Its entries carry eps^2; when a bit-length bound on them stays within
    the limit the block is not built.  The block has n rows, so this runs
    after the geometric budget has bounded n.  Values outside the domain
    are left to the domain check.
    """
    if n < 3 or r < 2 or (eps is not None and eps <= 0) or (big_m is not None and big_m <= 1):
        return
    eps = start_parameters(n)[0] if eps is None else eps
    # Every entry's numerator and denominator, unreduced, is below
    # 2^(2b) (1 + (n-2)^2), with b the longer bit length of eps's; and
    # 2^(3k) < 10^k.
    bits = 2 * max(eps.numerator.bit_length(), eps.denominator.bit_length())
    if bits + (1 + (n - 2) ** 2).bit_length() > 3 * MAX_PRINTED_DIGITS and not _printable(
        x for row in v_eps_block(n, eps).entries for x in row
    ):
        raise ValueError(
            f"n={n}: a polygon block entry such as eps^2*s would have more than "
            f"{MAX_PRINTED_DIGITS} digits"
        )


def _check_budget(n: int, r: int, budget: int, verb: str) -> None:
    """Raise ``ValueError`` when n^r is over the geometric budget; the
    message tells how to ``verb`` the system anyway.

    A power far over it is decided from n^r >= 2^(r(b-1)), with b the bit
    length of n, without computing n^r.  Pairs with n below 3 or r below 2
    are left to the domain check.
    """
    if n < 3 or r < 2:
        return
    if r * (n.bit_length() - 1) > budget.bit_length() or n**r > budget:
        raise ValueError(
            f"n={n}, r={r}: n^r is over the geometric budget {budget}; "
            f"raise --geometric-budget to {verb} it"
        )


def _printable(values: Iterable[Fraction]) -> bool:
    return all(abs(v.numerator) < _PRINTED_LIMIT and v.denominator < _PRINTED_LIMIT for v in values)


def _parse_range(text: str) -> list[int]:
    """Accept '4,6,8' lists and '4:8:2' (inclusive, stepped) ranges of at
    least one and at most ``MAX_AXIS_VALUES`` values in all."""
    values: list[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" in chunk:
            parts = chunk.split(":")
            if len(parts) not in (2, 3):
                raise ValueError(f"bad range: {chunk!r}")
            start, stop = parse_integer(parts[0]), parse_integer(parts[1])
            step = parse_integer(parts[2]) if len(parts) == 3 else 1
            if step <= 0:
                raise ValueError(f"range step must be positive: {chunk!r}")
            # Counted by hand: len() of a range longer than sys.maxsize
            # raises OverflowError.
            count = max(0, (stop - start) // step + 1)
            chunk_values = range(start, stop + 1, step)
        else:
            count = 1
            chunk_values = [parse_integer(chunk)]
        if len(values) + count > MAX_AXIS_VALUES:
            raise ValueError(f"more than {MAX_AXIS_VALUES} values in one range argument")
        values.extend(chunk_values)
    if not values:
        raise ValueError(f"no values in range {text!r}")
    return values


class _OutputError(Exception):
    """An output path could not be written; reported as invalid input."""


def _write_outputs(*outputs: tuple[str, str]) -> None:
    """Write each (path, text) pair.

    Every path is opened for appending before any text is written, so an
    unwritable path raises ``_OutputError`` with no output written and no
    file left behind that was not there before.
    """
    created: list[str] = []
    try:
        for path, _ in outputs:
            existed = os.path.lexists(path)
            with open(path, "a"):
                pass
            if not existed:
                created.append(path)
        for path, text in outputs:
            Path(path).write_text(text)
    except OSError as exc:
        for new in created:
            Path(new).unlink(missing_ok=True)
        raise _OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _refuse_same_file(args: argparse.Namespace) -> None:
    """Raise ``_OutputError`` when a command's files name one file twice."""
    paths = [path for path in map(vars(args).get, ("input", "output", "report", "ine")) if path]
    for i, path in enumerate(paths):
        for other in paths[:i]:
            linked = os.path.exists(path) and os.path.exists(other) and os.path.samefile(path, other)
            if linked or os.path.realpath(path) == os.path.realpath(other):
                raise _OutputError(f"cannot write {path}: it is the same file as {other}")


def _write_report(path: str | None, data: dict) -> None:
    if path:
        _write_outputs((path, pio.dumps_json(data)))


def cmd_construct(args: argparse.Namespace) -> int:
    try:
        eps = _parse_auto_rational(args.eps)
        big_m = _parse_auto_rational(args.big_m)
        _check_writable(args.n, args.r, eps, big_m)
        _check_budget(args.n, args.r, args.geometric_budget, "construct")
        _check_block_writable(args.n, args.r, eps, big_m)
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
    outputs = [(args.output, pio.dumps_json(pio.system_to_dict(system)))]
    if args.ine:
        outputs.append((args.ine, pio.to_ine_text(system.h)))
    _write_outputs(*outputs)
    print(
        f"constructed n={system.n} r={system.r} eps={system.eps} M={system.big_m} "
        f"({system.h.nrows}x{system.h.dim} system, validated={system.validated}) -> {args.output}"
    )
    for attempt in system.adaptation:
        print(f"  adaptation: eps={attempt.eps} M={attempt.big_m} rejected: {attempt.reason}")
    return EXIT_OK


class _InputError(Exception):
    """An input file could not be read as a system; reported as invalid input."""


@contextmanager
def _reading(path: str) -> Iterator[None]:
    """Raise a read or format error of ``path`` in the block as ``_InputError``."""
    try:
        yield
    except (OSError, ValueError, KeyError) as exc:
        raise _InputError(f"cannot load {path}: {exc}") from exc


def _load_system(path: str) -> pio.SystemFile:
    with _reading(path):
        return pio.SystemFile(pio.load_ine(path)) if path.endswith(".ine") else pio.load_system(path)


def _load_labeled_system(args: argparse.Namespace) -> tuple[pio.SystemFile, int, int]:
    """The system at ``args.input`` with its (n, r) from the row labels.  A
    readable ``.ine`` file, and a system with n^r over the geometric
    budget, are refused before any geometry is computed."""
    path, command = args.input, args.command
    system = _load_system(path)
    if path.endswith(".ine"):
        raise _InputError(
            f"{path}: an .ine file carries no row labels; {command} needs the system JSON"
        )
    with _reading(path):
        n, r = system.require_nr()
    try:
        _check_budget(n, r, args.geometric_budget, command)
    except ValueError as exc:
        raise _InputError(f"{path}: {exc}") from exc
    return system, n, r


def cmd_verify(args: argparse.Namespace) -> int:
    system, n, r = _load_labeled_system(args)
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
    system, n, r = _load_labeled_system(args)
    result = pipeline.analyze_system(system, paper_literal=args.paper_literal)
    print(f"system: n={n} r={r}")
    if result.flag_actual is not None:
        fa = result.flag_actual
        print(f"flag vector actual:    ({fa.f0}, {fa.f1}, {fa.f2}, {fa.f3}; {fa.f03})")
    fp = result.flag_predicted
    if fp is not None:
        print(f"flag vector predicted: ({fp.f0}, {fp.f1}, {fp.f2}, {fp.f3}; {fp.f03})")
    else:
        print("flag vector predicted: unavailable")
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
        if "predicted_f2" in lit:
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
        if args.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
        for n in sorted(set(n_values)):
            for r in sorted(set(r_values)):
                _check_printable(n, r)
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
            flat = {**d, **dict(zip(("f0", "f1", "f2", "f3", "f03"), d["flag"]))}
            lines.append(",".join(str(flat[f]) for f in _SWEEP_FIELDS))
        text = "\n".join(lines) + "\n"
    if args.output:
        _write_outputs((args.output, text))
    else:
        sys.stdout.write(text)
    failed = [row for row in rows if row.geometric.startswith("FAIL")]
    return EXIT_FAILURE if failed else EXIT_OK


def cmd_export(args: argparse.Namespace) -> int:
    system = _load_system(args.input)
    if args.format == "ine":
        text = pio.to_ine_text(system.h)
    else:
        text = pio.dumps_json(pio.system_to_dict(system))
    _write_outputs((args.output, text))
    print(f"exported {args.input} -> {args.output} ({args.format})")
    return EXIT_OK


class _Budget(argparse.Action):
    """Stores ``--geometric-budget``; a negative one exits as invalid input."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value < 0:
            parser.exit(EXIT_INVALID, f"error: {option_string} must be at least 0, got {value}\n")
        setattr(namespace, self.dest, value)


def _add_budget(p: argparse.ArgumentParser, verb: str) -> None:
    budget = pipeline.GEOMETRIC_BUDGET
    p.add_argument("--geometric-budget", type=_int_option, default=budget, action=_Budget,
                   help=f"{verb} geometrically when n^r is at most this (default {budget})")


class _Parser(argparse.ArgumentParser):
    """Argparse's own rejections as one ``error:`` line and exit 2."""

    def error(self, message):
        self.exit(EXIT_INVALID, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="projpoly",
        description="Exact construction, verification, and analysis of projected polygon products.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a deformed product system")
    p.add_argument("--n", type=_int_option, required=True, help="polygon size (even, >= 4)")
    p.add_argument("--r", type=_int_option, required=True, help="number of polygon factors (>= 2)")
    p.add_argument("--eps", default="auto", help="perturbation (rational 'p/q' or 'auto')")
    p.add_argument("--big-m", default="auto", help="right-hand-side growth (rational or 'auto')")
    p.add_argument("-o", "--output", required=True, help="output JSON path")
    p.add_argument("--ine", help="also write an H-representation text file")
    p.add_argument("--force", action="store_true",
                   help="allow odd n >= 3 when --eps and --big-m are both given")
    _add_budget(p, "construct")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="verify product structure, certificates, preservation")
    p.add_argument("input", help="system JSON with row labels")
    p.add_argument("--report", help="write a JSON report")
    _add_budget(p, "verify")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("analyze", help="flag vector, metrics, counting identities")
    p.add_argument("input")
    p.add_argument("--report", help="write a JSON report")
    p.add_argument("--paper-literal", action="store_true",
                   help="also evaluate the commonly printed formula variants and their discrepancy")
    _add_budget(p, "analyze")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="tabulate predicted metrics over an (n, r) grid")
    p.add_argument("--n", required=True, help="values: '4,6,8' or '4:10:2'")
    p.add_argument("--r", required=True, help="values: '2,3' or '2:5'")
    _add_budget(p, "verify")
    p.add_argument("--jobs", type=_int_option, default=1, help="parallel workers for grid rows")
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
        _refuse_same_file(args)
        return args.func(args)
    except (InvalidParameterError, _InputError, _OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ConstructionError, PolytopeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
