"""Metamorphic relations over loaded files.

Each transformation below leaves P's combinatorics and the faces of its
projection unchanged, so verify and analyze of the transformed file,
through ``cli.main``, must exit with the same codes and write byte-identical
JSON reports:

- scaling each row with its right-hand side by a positive rational;
- translating P, b -> b + A x0;
- an invertible change of the deleted coordinates, A -> A M on columns
  0..2r-5.  The images are unchanged, and positive spanning is invariant
  under an invertible map.  At r = 4 the block structure is lost, so P's
  vertices come from the double description method;
- permuting the rows together with their labels.

Permuting the factors is left out: it changes the deformed product.  The
systems take both routes to P's vertices and both routes to Q.  The runs
are derandomized and keep no example database.
"""

import contextlib
import io
import tempfile
from dataclasses import replace
from fractions import Fraction as QQ
from functools import cache
from operator import mul
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import GRID, PASS_GATES_FAIL_VERIFY, run_case, zero_pattern_system
from projpoly import cli
from projpoly.io import SystemFile, save_system
from projpoly.linalg import QMatrix
from projpoly.pipeline import construct_system
from projpoly.polytope import HPolytope

NAMES = [f"{n}x{r}" for n, r in GRID] + list(PASS_GATES_FAIL_VERIFY) + ["zero-pattern", "5x3-forced"]

# Each transformation reads its parameters from one list of small integers,
# so that an explicit example can name them.
PARAMS = st.lists(st.integers(-9, 9), min_size=48, max_size=48)
SPREAD = [7 * i % 19 - 9 for i in range(48)]


@cache
def _system(name: str) -> SystemFile:
    if name == "zero-pattern":
        return zero_pattern_system()
    if name == "5x3-forced":
        return construct_system(5, 3, eps=QQ(1, 40), big_m=QQ(2**20), force=True)
    if name in PASS_GATES_FAIL_VERIFY:
        n, r, eps, big_m = PASS_GATES_FAIL_VERIFY[name]
        return construct_system(n, r, eps=eps, big_m=big_m)
    return run_case(*map(int, name.split("x"))).system


def _reports(system: SystemFile) -> list[tuple[int, bytes]]:
    """Verify's and analyze's exit code and JSON report for the file of ``system``."""
    reports = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "system.json"
        save_system(path, system)
        for command in ("verify", "analyze"):
            report = Path(tmp) / f"{command}.json"
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([command, str(path), "--report", str(report)])
            reports.append((code, report.read_bytes()))
    return reports


@cache
def _base_reports(name: str) -> list[tuple[int, bytes]]:
    return _reports(_system(name))


def _system_of(h: HPolytope, rows, rhs) -> HPolytope:
    return HPolytope(QMatrix(tuple(map(tuple, rows))), tuple(rhs), h.labels)


def _scale(h: HPolytope, p: list[int]) -> HPolytope:
    scales = [QQ(abs(p[2 * i]) + 1, abs(p[2 * i + 1]) + 1) for i in range(h.nrows)]
    rows = [[x * s for x in row] for row, s in zip(h.A.entries, scales)]
    return _system_of(h, rows, map(mul, h.b, scales))


def _translate(h: HPolytope, p: list[int]) -> HPolytope:
    x0 = [QQ(p[j], abs(p[j + h.dim]) + 1) for j in range(h.dim)]
    return _system_of(h, h.A.entries, (b + sum(map(mul, row, x0)) for row, b in zip(h.A.entries, h.b)))


def _change_deleted(h: HPolytope, p: list[int]) -> HPolytope:
    # M = L U D, with L and U unit triangular and D a nonzero diagonal, is
    # invertible; k = 2r - 4 <= 4, so 2k^2 + k <= 36 parameters.
    k = h.dim - 4
    low = [[1 if i == j else p[i * k + j] % 5 - 2 if i > j else 0 for j in range(k)] for i in range(k)]
    up = [[1 if i == j else p[16 + i * k + j] % 5 - 2 if i < j else 0 for j in range(k)] for i in range(k)]
    diagonal = [QQ(p[32 + j] or 1, abs(p[40 + j]) + 1) for j in range(k)]
    m = [[sum(low[i][t] * up[t][j] for t in range(k)) * diagonal[j] for j in range(k)] for i in range(k)]
    rows = [[sum(row[i] * m[i][j] for i in range(k)) for j in range(k)] + list(row[k:]) for row in h.A.entries]
    return _system_of(h, rows, h.b)


def _permute(h: HPolytope, p: list[int]) -> HPolytope:
    order = sorted(range(h.nrows), key=lambda i: (p[i], i))
    rows, rhs, labels = ([seq[i] for i in order] for seq in (h.A.entries, h.b, h.labels))
    return HPolytope(QMatrix(tuple(rows)), tuple(rhs), tuple(labels))


TRANSFORMATIONS = {"scale": _scale, "translate": _translate, "change-deleted": _change_deleted,
                   "permute": _permute}


# Every system once, and every transformation.  At r = 4 a change of the
# deleted coordinates mixes blocks 1 and 2, so P's vertices come from the DD.
@settings(derandomize=True, database=None, max_examples=8, deadline=None)
@example(name="4x2", kind="permute", params=SPREAD)
@example(name="6x2", kind="scale", params=SPREAD)
@example(name="8x2", kind="translate", params=SPREAD)
@example(name="4x3", kind="change-deleted", params=SPREAD)
@example(name="6x3", kind="change-deleted", params=SPREAD)
@example(name="4x4", kind="scale", params=SPREAD)
@example(name="4x3-1/16-2^32", kind="translate", params=SPREAD)
@example(name="4x3-1/8-256", kind="permute", params=SPREAD)
@example(name="4x4-1/16-2^32", kind="change-deleted", params=SPREAD)
@example(name="6x3-1/16-2^16", kind="change-deleted", params=SPREAD)
@example(name="zero-pattern", kind="permute", params=SPREAD)
@example(name="5x3-forced", kind="change-deleted", params=SPREAD)
@given(name=st.sampled_from(NAMES), kind=st.sampled_from(sorted(TRANSFORMATIONS)), params=PARAMS)
def test_a_transformed_file_gets_the_same_reports(name, kind, params):
    system = _system(name)
    moved = replace(system, h=TRANSFORMATIONS[kind](system.h, params))
    assert _reports(moved) == _base_reports(name)

