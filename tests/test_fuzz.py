"""Property tests of the three input parsers: on any input each one either
returns a valid object or raises ``ValueError``, never anything else.  The
CLI, given fuzzed files, always exits 0, 1 or 2.

The runs are derandomized and keep no example database, so the suite
draws the same examples on every run.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from projpoly import cli
from projpoly.cli import MAX_AXIS_VALUES, _parse_range
from projpoly.io import SystemFile, parse_ine_text, system_from_dict, system_to_dict, to_ine_text
from projpoly.pipeline import construct_system

FUZZ = settings(derandomize=True, database=None, max_examples=200, deadline=None)

RATIONAL_TEXT = st.sampled_from(
    ["0", "1", "-3/4", "+2", "1/0", "0/5", " 7 ", "1.5", "1e3", "x", "", "-", "/", "2/-3"]
)
JSON_SCALARS = (
    st.sampled_from([float("inf"), float("nan"), 10**30, -1, 0, True])
    | st.none()
    | st.booleans()
    | st.integers(-(10**6), 10**6)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6)
    | RATIONAL_TEXT
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)

# A valid system to mutate: most random dicts fail at the schema check.
BASE = json.loads(json.dumps(system_to_dict(construct_system(4, 2))))
KEYS = sorted(BASE) + ["extra"]
# Field values: scalars, lists of rows or label pairs, adaptation records.
FIELD_VALUES = JSON_SCALARS | JSON_VALUES | st.lists(
    st.lists(JSON_SCALARS, max_size=3)
    | st.dictionaries(st.sampled_from(["eps", "big_m", "reason"]), JSON_VALUES, max_size=3),
    max_size=3,
)


MUTATED_FILES = st.builds(
    lambda overrides, deleted: {
        k: v for k, v in {**BASE, **overrides}.items() if k not in deleted
    },
    st.dictionaries(st.sampled_from(KEYS), FIELD_VALUES, max_size=3),
    st.sets(st.sampled_from(KEYS), max_size=2),
)


@FUZZ
@given(data=MUTATED_FILES | JSON_VALUES)
@example(data={**BASE, "dim": float("inf")})
@example(data={**BASE, "labels": [[float("inf"), 0]] * 8})
@example(data={**BASE, "adaptation": [{"eps": "1", "big_m": "2", "reason": []}]})
@example(data={**BASE, "dim": 4.9})
@example(data={**BASE, "labels": [[1.7, 0]] + BASE["labels"][1:]})
def test_system_from_dict(data):
    try:
        system = system_from_dict(data)
    except ValueError:
        return
    back = system_from_dict(system_to_dict(system))
    assert isinstance(system, SystemFile)
    assert back == system and hash(back) == hash(system)
    # dim and labels are kept as given, with the same types (JSON tells an
    # int from a float or a bool).
    written = system_to_dict(system)
    for key in ("dim", "labels"):
        assert json.dumps(written.get(key)) == json.dumps(data.get(key))


INE_LINES = st.one_of(
    st.sampled_from(["H-representation", "begin", "end", "* comment", "", "rational"]),
    st.builds(
        lambda m, c, kind: f" {m} {c} {kind}",
        st.integers(-20, 6),
        st.integers(-3, 5),
        st.sampled_from(["rational", "real", "integer"]),
    ),
    st.lists(RATIONAL_TEXT, min_size=0, max_size=5).map(" ".join),
    st.text(max_size=10),
)


@FUZZ
@given(header=st.booleans(), lines=st.lists(INE_LINES, max_size=10))
@example(header=True, lines=[])
@example(header=True, lines=[" -9 3 rational", "end"])
def test_parse_ine_text(header, lines):
    text = "\n".join(["H-representation", "begin"] * header + lines)
    try:
        h = parse_ine_text(text)
    except ValueError:
        return
    back = parse_ine_text(to_ine_text(h))
    assert (back.A, back.b) == (h.A, h.b)


SMALL_INTS = st.integers(-(10**20), 10**20) | st.integers(-50, 50)
RANGE_CHUNKS = st.one_of(
    SMALL_INTS.map(str),
    st.builds(lambda a, b: f"{a}:{b}", SMALL_INTS, SMALL_INTS),
    st.builds(lambda a, b, c: f"{a}:{b}:{c}", SMALL_INTS, SMALL_INTS, SMALL_INTS),
    st.sampled_from([":", "::", " ", "", "-", "x", "1:2:3:4"]),
    st.text(max_size=4),
)
RANGE_TEXT = st.lists(RANGE_CHUNKS, max_size=5).map(",".join) | st.text(max_size=12)


@FUZZ
@given(text=RANGE_TEXT)
def test_parse_range(text):
    try:
        values = _parse_range(text)
    except ValueError:
        return
    assert isinstance(values, list)
    assert all(type(v) is int for v in values)
    assert 1 <= len(values) <= MAX_AXIS_VALUES


# The (4,2) system's .ine text with up to three lines replaced; an empty
# replacement deletes the line.
BASE_INE = to_ine_text(system_from_dict(BASE).h).splitlines()
MUTATED_INE = st.builds(
    lambda edits: "\n".join(edits.get(i, line) for i, line in enumerate(BASE_INE)) + "\n",
    st.dictionaries(st.integers(0, len(BASE_INE) - 1), INE_LINES, max_size=3),
)
CLI_FILES = (
    MUTATED_FILES.map(lambda data: ("json", json.dumps(data)))
    | st.text(max_size=20).map(lambda text: ("json", text))
    | MUTATED_INE.map(lambda text: ("ine", text))
)


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(file=CLI_FILES, export_format=st.sampled_from(["json", "ine"]))
@example(file=("json", json.dumps({**BASE, "validated": False})), export_format="json")
@example(
    file=("json", json.dumps({**BASE, "rhs": ["-100"] + BASE["rhs"][1:]})), export_format="ine"
)
def test_cli_exit_codes(file, export_format):
    suffix, text = file
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"system.{suffix}"
        path.write_text(text)
        out_path = Path(tmp) / f"out.{export_format}"
        for argv in (
            ["verify", str(path)],
            ["analyze", str(path)],
            ["export", str(path), "-o", str(out_path), "--format", export_format],
        ):
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            assert code in (cli.EXIT_OK, cli.EXIT_FAILURE, cli.EXIT_INVALID)
            if code == cli.EXIT_INVALID:
                assert len(stderr.getvalue().splitlines()) == 1


# Each command's valid arguments as (option, value) items, a positional's
# option None; every valid draw keeps n^r <= 64.  A draw adds one malformed
# token to one of them.
SKELETONS = {
    "construct": [("--n", "4"), ("--r", "2"), ("-o", "{tmp}/out.json")],
    "verify": [(None, "{tmp}/system.json"), ("--report", "{tmp}/out.json")],
    "analyze": [(None, "{tmp}/system.json"), ("--report", "{tmp}/out.json")],
    "sweep": [("--n", "4,6"), ("--r", "2"), ("-o", "{tmp}/out.csv")],
    "export": [(None, "{tmp}/system.json"), ("-o", "{tmp}/out.ine"), ("--format", "ine")],
}
# Non-integers, negatives, empty values, non-ASCII digits and underscores.
BAD_VALUES = ["four", "1.5", "1e3", "-4", "-1", "", "٤", "４", "1_0", "4/0", "{tmp}"]
# Values that int() reads but an integer option or range must refuse.
NOT_ASCII_INTEGERS = ("٤", "４", "1_0")
BAD_TOKENS = st.one_of(
    st.tuples(st.just("value"), st.integers(0, 2), st.sampled_from(BAD_VALUES)),
    st.tuples(st.just("flag"), st.integers(0, 3), st.sampled_from(["--bogus", "-x", "--", "--n="])),
    st.tuples(st.just("missing"), st.integers(0, 2), st.none()),
    st.tuples(st.just("repeated"), st.integers(0, 2), st.sampled_from(BAD_VALUES + ["6", "2"])),
    # n^r over the geometric budget: (4,2) and (6,2) are 16 and 36.
    st.tuples(st.just("budget"), st.integers(0, 3), st.sampled_from(["15", "0", "35"])),
)


@contextlib.contextmanager
def _working_directory(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def _argv(command, token, tmp):
    kind, at, value = token
    items = list(SKELETONS[command])
    at %= len(items)
    if kind == "value":
        items[at] = (items[at][0], value)
    elif kind == "flag":
        items.insert(at, (value, None))
    elif kind == "missing":
        del items[at]
    elif kind == "repeated":
        items.append((items[at][0] or items[at][1], value))
    else:
        items.insert(at, ("--geometric-budget", value))
    argv = [command]
    for option, value in items:
        argv += [x.format(tmp=tmp) for x in (option, value) if x is not None]
    return argv


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(command=st.sampled_from(sorted(SKELETONS)), token=BAD_TOKENS)
@example(command="sweep", token=("budget", 0, "15"))
@example(command="construct", token=("value", 0, "٤"))
@example(command="construct", token=("repeated", 1, "４"))
@example(command="sweep", token=("value", 0, "1_0"))
@example(command="verify", token=("missing", 0, None))
def test_cli_malformed_argv_exits_with_one_line(command, token):
    # A malformed value can be a relative output path, so the command runs
    # in the temporary directory.
    with tempfile.TemporaryDirectory() as tmp, _working_directory(tmp):
        (Path(tmp) / "system.json").write_text(json.dumps(BASE))
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(_argv(command, token, tmp))
            except SystemExit as exit_:
                code = exit_.code
        assert code in (cli.EXIT_OK, cli.EXIT_FAILURE, cli.EXIT_INVALID)
        kind, at, value = token
        option = SKELETONS[command][at % len(SKELETONS[command])][0]
        if kind in ("value", "repeated") and value in NOT_ASCII_INTEGERS and option in ("--n", "--r"):
            assert code == cli.EXIT_INVALID
        if code == cli.EXIT_INVALID:
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), lines
            assert "Traceback" not in stderr.getvalue()
            assert sorted(p.name for p in Path(tmp).iterdir()) == ["system.json"]
