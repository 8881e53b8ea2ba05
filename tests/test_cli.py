import concurrent.futures
import json

import pytest

from projpoly import construction, io, pipeline
from projpoly.cli import _parse_range, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_construct_writes_labeled_system(tmp_path, capsys):
    out = tmp_path / "p63.json"
    code, stdout, _ = run(capsys, "construct", "--n", "6", "--r", "3",
                          "--eps", "auto", "--big-m", "auto", "-o", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert len(data["rows"]) == 18
    assert data["dim"] == 6
    assert len(data["labels"]) == 18
    assert data["validated"] is True


def test_construct_rejects_odd_n(tmp_path, capsys):
    code, _, stderr = run(capsys, "construct", "--n", "5", "--r", "3",
                          "-o", str(tmp_path / "x.json"))
    assert code == 2
    assert "even" in stderr


@pytest.mark.parametrize("argv,message", [
    (["--n", "5", "--r", "3", "--force"], "n must be even, got 5"),
    (["--n", "2", "--r", "3", "--eps", "1/4", "--big-m", "9", "--force"], "n must be at least 3, got 2"),
    (["--n", "4", "--r", "3", "--eps", "1/16", "--big-m", "1"], "M must exceed 1"),
    (["--n", "4", "--r", "1"], "r must be at least 2, got 1"),
    # M^2 = 10^4400 cannot be written; 2^99999 is decided without computing it
    (["--n", "4", "--r", "3", "--eps", "1/16", "--big-m", f"1{'0' * 2200}"],
     "r=3: a right-hand side M^2 or M^2*eps would have more than 4300 digits"),
    (["--n", "4", "--r", "100000", "--big-m", "2"],
     "r=100000: a right-hand side M^99999 or M^99999*eps would have more than 4300 digits"),
    # M^2 eps = 9/(2 * 10^4300)
    (["--n", "4", "--r", "3", "--eps", f"1/5{'0' * 4299}", "--big-m", "3/2"],
     "r=3: a right-hand side M^2 or M^2*eps would have more than 4300 digits"),
    # the search's own M = n^2 = 16 is bounded too
    (["--n", "4", "--r", "100000"],
     "r=100000: a right-hand side M^99999 or M^99999*eps would have more than 4300 digits"),
    # the polygon block's eps^2*s = 2/10^4400 cannot be written, with M given or searched
    (["--n", "6", "--r", "2", "--eps", f"1/1{'0' * 2200}", "--big-m", "36"],
     "n=6: a polygon block entry such as eps^2*s would have more than 4300 digits"),
    (["--n", "6", "--r", "2", "--eps", f"1/1{'0' * 2200}"],
     "n=6: a polygon block entry such as eps^2*s would have more than 4300 digits"),
], ids=["force-needs-both", "forced-n-too-small", "m-too-small", "r-too-small", "m-unprintable",
        "m-power-far", "m-times-eps-unprintable", "m-searched-power-far", "eps-unprintable",
        "eps-unprintable-m-searched"])
def test_construct_checks_the_domain_before_any_geometry(tmp_path, capsys, monkeypatch, argv, message):
    def no_geometry(*args, **kwargs):
        raise AssertionError("geometry built for an out-of-domain request")

    monkeypatch.setattr(construction, "build_deformed_product", no_geometry)
    monkeypatch.setattr(io, "h_to_v", no_geometry)
    out = tmp_path / "x.json"
    code, stdout, stderr = run(capsys, "construct", *argv, "-o", str(out))
    assert code == 2
    assert stdout == ""
    assert stderr == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv,budget", [
    (["--n", "4", "--r", "10"], 5000),
    (["--n", "4", "--r", "3", "--geometric-budget", "63"], 63),
    # n^r = 2^200000 is over the budget by its bit length alone
    (["--n", str(2**40), "--r", "5000", "--big-m", "3/2", "--eps", "1"], 5000),
    # refused before the digit bound on the polygon block builds its n rows
    (["--n", str(2**2152), "--r", "2"], 5000),
], ids=["default", "given", "far", "huge-n"])
def test_construct_over_the_geometric_budget_exits_before_any_gate(
    tmp_path, capsys, monkeypatch, argv, budget
):
    def no_geometry(*args, **kwargs):
        raise AssertionError("a gate ran for a system over the budget")

    monkeypatch.setattr(construction, "build_deformed_product", no_geometry)
    out = tmp_path / "x.json"
    code, stdout, stderr = run(capsys, "construct", *argv, "-o", str(out))
    n, r = argv[1], argv[3]
    assert code == 2
    assert stdout == ""
    assert stderr == (
        f"error: n={n}, r={r}: n^r is over the geometric budget {budget}; "
        "raise --geometric-budget to construct it\n"
    )
    assert not out.exists()


def test_construct_writes_a_large_m_up_to_the_digit_limit(tmp_path, capsys):
    big_m = 10**1500
    out = tmp_path / "x.json"
    code, _, stderr = run(capsys, "construct", "--n", "4", "--r", "3", "--eps", "1/16",
                          "--big-m", str(big_m), "-o", str(out))
    assert code == 0 and stderr == ""
    assert str(big_m**2) in json.loads(out.read_text())["rhs"]


def test_construct_writes_a_small_eps_up_to_the_digit_limit(tmp_path, capsys):
    # eps^2*s = 2/10^4300 = 1/(5*10^4299) has 4300 digits, the most allowed
    out = tmp_path / "x.json"
    code, _, stderr = run(capsys, "construct", "--n", "6", "--r", "2", "--eps", f"1/1{'0' * 2150}",
                          "--big-m", "36", "-o", str(out))
    assert code == 0 and stderr == ""
    assert f"1/5{'0' * 4299}" in json.loads(out.read_text())["rows"][1]


def test_construct_rejects_decimal_eps(tmp_path, capsys):
    code, _, stderr = run(capsys, "construct", "--n", "4", "--r", "2",
                          "--eps", "0.0625", "-o", str(tmp_path / "x.json"))
    assert code == 2
    assert "rational" in stderr


def test_construct_fixture_is_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "construct", "--n", "4", "--r", "2",
                         "--eps", "1/16", "--big-m", "256", "-o", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    # these explicit parameters fail the product gate and are recorded so
    data = json.loads(a.read_text())
    assert data["validated"] is False


def test_verify_accepted_system(tmp_path, capsys):
    out = tmp_path / "p42.json"
    report = tmp_path / "report.json"
    run(capsys, "construct", "--n", "4", "--r", "2", "-o", str(out))
    code, stdout, _ = run(capsys, "verify", str(out), "--report", str(report))
    assert code == 0
    assert "VERIFY OK" in stdout
    assert "projection is identity; preservation vacuous" in stdout
    rep = json.loads(report.read_text())
    assert rep["ok"] is True
    assert rep["checks"]["polygons_direct"] == "8/8"
    assert rep["schema"] == 1
    assert len(rep["polygon_reports"]) == 8
    first = rep["polygon_reports"][0]
    assert set(first) == {"face_id", "factor", "direct_ok", "certificate_ok", "details"}
    assert [pr["face_id"] for pr in rep["polygon_reports"]] == sorted(
        pr["face_id"] for pr in rep["polygon_reports"]
    )


def test_verify_corrupted_rhs_fails(tmp_path, capsys):
    out = tmp_path / "p42.json"
    run(capsys, "construct", "--n", "4", "--r", "2", "-o", str(out))
    data = json.loads(out.read_text())
    data["rhs"][0], data["rhs"][1] = data["rhs"][1], data["rhs"][0]
    out.write_text(json.dumps(data))
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 1
    assert "VERIFY FAILED: product_isomorphic" in stdout


def _zero_row(data):
    data["rows"][5] = ["0"] * 4


def _negative_rhs(data):
    data["rhs"][0] = "-100"


def _block_two_unbounded(data):
    # block 2's rows keep only their coupling to block 1, so x_2 is free
    for row in data["rows"][4:]:
        row[2:] = ["0", "0"]


def _duplicate_label(data):
    data["labels"][7] = [2, 2]


@pytest.mark.parametrize("command", ["verify", "analyze"])
@pytest.mark.parametrize("mutate,failure", [
    (_zero_row, "product_isomorphic"),
    (_negative_rhs, "vertex_enumeration: empty"),
    (_block_two_unbounded, "vertex_enumeration: unbounded"),
    (_duplicate_label, "product_isomorphic"),
], ids=["zero-row", "negative-rhs", "block-2-unbounded", "duplicate-label"])
def test_a_malformed_labeled_file_keeps_its_verdict(tmp_path, capsys, command, mutate, failure):
    # The product certificate refuses each of these, and the double
    # description fallback decides them as before.
    out = tmp_path / "p42.json"
    report = tmp_path / "report.json"
    run(capsys, "construct", "--n", "4", "--r", "2", "-o", str(out))
    data = json.loads(out.read_text())
    mutate(data)
    out.write_text(json.dumps(data))
    code, stdout, stderr = run(capsys, command, str(out), "--report", str(report))
    assert code == 1 and stderr == ""
    assert stdout.endswith(f"{command.upper()} FAILED: {failure}\n")
    assert json.loads(report.read_text())["failures"][0] == failure


def test_verify_counts_polygons(tmp_path, capsys):
    out = tmp_path / "p43.json"
    run(capsys, "construct", "--n", "4", "--r", "3", "-o", str(out))
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 0
    assert "polygons preserved: 48/48 direct, 48/48 certificate" in stdout


def test_verify_hexagon_triple_product(tmp_path, capsys):
    out = tmp_path / "p63.json"
    run(capsys, "construct", "--n", "6", "--r", "3", "-o", str(out))
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 0
    assert "polygons preserved: 108/108 direct, 108/108 certificate" in stdout


def test_analyze_reports_flag_and_metrics(tmp_path, capsys):
    out = tmp_path / "p42.json"
    run(capsys, "construct", "--n", "4", "--r", "2", "-o", str(out))
    code, stdout, _ = run(capsys, "analyze", str(out))
    assert code == 0
    assert "flag vector actual:    (16, 32, 24, 8; 64)" in stdout
    assert "fatness = 18/7" in stdout
    assert "ANALYZE OK" in stdout


def test_analyze_paper_literal_prints_discrepancy(tmp_path, capsys):
    out = tmp_path / "p42.json"
    run(capsys, "construct", "--n", "4", "--r", "2", "-o", str(out))
    code, stdout, _ = run(capsys, "analyze", str(out), "--paper-literal")
    assert code == 0
    assert "paper-literal diagnostics" in stdout
    assert "predicts 36 2-faces vs 24 actual" in stdout


def test_analyze_report_file(tmp_path, capsys):
    out = tmp_path / "p63.json"
    report = tmp_path / "a.json"
    run(capsys, "construct", "--n", "6", "--r", "3", "-o", str(out))
    code, stdout, _ = run(capsys, "analyze", str(out), "--report", str(report))
    assert code == 0
    rep = json.loads(report.read_text())
    assert rep["flag_actual"] == [216, 648, 594, 162, 1728]
    assert rep["fatness"] == "611/184"
    assert rep["identities"]["prisms"] == 108


def test_sweep_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--n", "4,6,8", "--r", "2:3",
                     "--geometric-budget", "100", "-o", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 7  # header + 6 rows
    assert lines[0].startswith("n,r,f0")
    # (4,2) fits the budget of 100 and verifies geometrically
    assert lines[1].startswith("4,2,16,32,24,8,64,18/7")
    assert lines[1].endswith("ok")
    # (8,3) exceeds it
    assert any(line.startswith("8,3") and line.endswith("formula-only") for line in lines)


def test_sweep_is_deterministic_and_jobs_safe(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "sweep", "--n", "4,6", "--r", "2", "--geometric-budget", "0", "-o", str(a))
    run(capsys, "sweep", "--n", "4,6", "--r", "2", "--geometric-budget", "0",
        "--jobs", "2", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_sweep_empty_range(capsys):
    for n, r, text in [("", "2", "''"), (",", "2", "','"), ("4:2", "2", "'4:2'"),
                       ("4", "3:2", "'3:2'")]:
        for fmt in ("csv", "json"):
            code, stdout, stderr = run(capsys, "sweep", "--n", n, "--r", r, "--format", fmt)
            assert code == 2
            assert stdout == ""
            assert stderr == f"error: no values in range {text}\n"


def test_sweep_json_format(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    code, _, _ = run(capsys, "sweep", "--n", "4", "--r", "2", "--geometric-budget", "0",
                     "--format", "json", "-o", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert data["rows"][0]["fatness"] == "18/7"
    assert data["rows"][0]["geometric"] == "formula-only"


def test_export_ine_and_back(tmp_path, capsys):
    src = tmp_path / "p42.json"
    ine = tmp_path / "p42.ine"
    back = tmp_path / "back.json"
    run(capsys, "construct", "--n", "4", "--r", "2", "-o", str(src))
    code, _, _ = run(capsys, "export", str(src), "-o", str(ine), "--format", "ine")
    assert code == 0
    assert ine.read_text().startswith("H-representation")
    code, _, _ = run(capsys, "export", str(ine), "-o", str(back), "--format", "json")
    assert code == 0
    original = json.loads(src.read_text())
    restored = json.loads(back.read_text())
    assert restored["rows"] == original["rows"]
    assert restored["rhs"] == original["rhs"]


def test_construct_also_writes_ine(tmp_path, capsys):
    out = tmp_path / "p42.json"
    ine = tmp_path / "p42.ine"
    code, _, _ = run(capsys, "construct", "--n", "4", "--r", "2",
                     "-o", str(out), "--ine", str(ine))
    assert code == 0
    assert ine.exists()


def test_missing_input_file(capsys):
    code, _, stderr = run(capsys, "verify", "/nonexistent/x.json")
    assert code == 2
    assert "cannot load" in stderr


def test_construct_rejects_nonpositive_eps(tmp_path, capsys):
    code, _, stderr = run(capsys, "construct", "--n", "4", "--r", "2",
                          "--eps", "0", "-o", str(tmp_path / "x.json"))
    assert code == 2
    assert stderr == "error: eps must be positive\n"


def test_sweep_rejects_odd_n(capsys):
    code, _, stderr = run(capsys, "sweep", "--n", "5", "--r", "2")
    assert code == 2
    assert stderr == "error: n must be even, got 5\n"


@pytest.mark.parametrize("n,r", [("4:20004:1", "2"), ("4", "2,3:10003"), ("4:20002:2", "2:3")],
                         ids=["n_axis", "r_axis", "grid"])
def test_sweep_rejects_ranges_past_the_limit(capsys, n, r):
    code, stdout, stderr = run(capsys, "sweep", "--n", n, "--r", r, "--geometric-budget", "0")
    assert code == 2
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert "10000" in stderr
    assert stdout == ""


SWEEP_4_8_2_BY_2_3 = """\
n,r,f0,f1,f2,f3,f03,fatness,fatness_decimal_approx,complexity,complexity_decimal_approx,geometric
4,2,16,32,24,8,64,18/7,2.571429,22/7,3.142857,formula-only
4,3,64,192,192,64,512,182/59,3.084746,246/59,4.169492,formula-only
6,2,36,72,48,12,144,50/19,2.631579,62/19,3.263158,formula-only
6,3,216,648,594,162,1728,611/184,3.320652,427/92,4.641304,formula-only
8,2,64,128,80,16,256,94/35,2.685714,118/35,3.371429,formula-only
8,3,512,1536,1344,320,4096,1430/411,3.479319,2038/411,4.958637,formula-only
"""


def test_sweep_prints_values_up_to_the_digit_limit(capsys):
    # f03 = 4(r-1) 4^r has 4,300 digits at r = 7134 and 4,301 at r = 7135
    assert len(str(4 * 7133 * 4**7134)) == 4300
    code, stdout, stderr = run(capsys, "sweep", "--n", "4", "--r", "7134", "--geometric-budget", "0")
    assert code == 0 and stderr == ""
    assert stdout.splitlines()[1].split(",")[6] == str(4 * 7133 * 4**7134)
    code, stdout, _ = run(capsys, "sweep", "--n", "4:8:2", "--r", "2:3", "--geometric-budget", "0")
    assert code == 0 and stdout == SWEEP_4_8_2_BY_2_3


@pytest.mark.parametrize("n,r", [("4", "7135"), ("4", "7200"), ("4", "1000000000000"),
                                 ("4,6", "2,1000000000000")])
def test_sweep_rejects_values_past_the_digit_limit(capsys, n, r):
    code, stdout, stderr = run(capsys, "sweep", "--n", n, "--r", r, "--geometric-budget", "0")
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: n=4, r=") and stderr.count("\n") == 1
    assert "more than 4300 digits" in stderr


def test_parse_range_accepts_the_limit():
    assert len(_parse_range("4:20002:2")) == 10000
    assert _parse_range("4, 8:12:2,20:19") == [4, 8, 10, 12]


MALFORMED = [
    ("rows_not_a_list", lambda d: {**d, "rows": 5}, "malformed system file"),
    ("n_not_an_int", lambda d: {**d, "n": "4"}, "'n' must be int"),
    ("top_level_list", lambda d: [d], "must hold a JSON object"),
    ("unknown_schema", lambda d: {**d, "schema": 99}, "unsupported schema 99"),
    ("n_contradicts_labels", lambda d: {**d, "n": 6}, "contradicts the row labels"),
    ("empty_system", lambda d: {**d, "rows": [], "rhs": [], "labels": [], "dim": 0},
     "system has no row labels"),
    ("labels_too_short", lambda d: {**d, "labels": [[1]] * 8}, "row labels must be pairs of ints"),
    ("labels_a_string", lambda d: {**d, "labels": "abc"}, "row labels must be pairs of ints"),
    ("labels_an_object", lambda d: {**d, "labels": {"a": 1}}, "row labels must be pairs of ints"),
    ("labels_too_long", lambda d: {**d, "labels": [[1, 0, 0]] * 8},
     "row labels must be pairs of ints"),
]


@pytest.mark.parametrize("corrupt,message", [(c, m) for _, c, m in MALFORMED],
                         ids=[name for name, _, _ in MALFORMED])
def test_verify_rejects_malformed_system(tmp_path, capsys, corrupt, message):
    out = tmp_path / "p42.json"
    run(capsys, "construct", "--n", "4", "--r", "2", "-o", str(out))
    out.write_text(json.dumps(corrupt(json.loads(out.read_text()))))
    code, stdout, stderr = run(capsys, "verify", str(out))
    assert code == 2
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert message in stderr
    assert "VERIFY" not in stdout


@pytest.mark.parametrize("command", ["verify", "export"])
def test_truncated_ine_is_invalid_input(tmp_path, capsys, command):
    path = tmp_path / "x.ine"
    path.write_text("H-representation\nbegin\n")
    extra = ["-o", str(tmp_path / "x.json"), "--format", "json"] if command == "export" else []
    code, stdout, stderr = run(capsys, command, str(path), *extra)
    assert code == 2
    assert stderr == f"error: cannot load {path}: missing size line\n"
    assert stdout == ""


@pytest.mark.parametrize("command", ["verify", "analyze"])
def test_verify_and_analyze_refuse_an_ine_file(tmp_path, capsys, monkeypatch, command):
    system, ine = tmp_path / "p42.json", tmp_path / "p42.ine"
    run(capsys, "construct", "--n", "4", "--r", "2", "-o", str(system), "--ine", str(ine))
    monkeypatch.setattr(io, "h_to_v", None)  # no geometry is computed
    code, stdout, stderr = run(capsys, command, str(ine))
    assert code == 2
    assert stderr == (
        f"error: {ine}: an .ine file carries no row labels; {command} needs the system JSON\n"
    )
    assert stdout == ""


@pytest.mark.parametrize("command", ["verify", "analyze", "export"])
def test_deeply_nested_json_is_invalid_input(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    out = tmp_path / "x.ine"
    extra = ["-o", str(out), "--format", "ine"] if command == "export" else []
    code, stdout, stderr = run(capsys, command, str(path), *extra)
    assert code == 2
    assert stderr == f"error: cannot load {path}: JSON nested too deeply\n"
    assert stdout == ""
    assert not out.exists()


def test_verify_fails_unvalidated_system(tmp_path, capsys):
    out = tmp_path / "p42.json"
    run(capsys, "construct", "--n", "4", "--r", "2", "-o", str(out))
    data = json.loads(out.read_text())
    data["validated"] = False
    out.write_text(json.dumps(data))
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 1
    assert "VERIFY FAILED: not_validated" in stdout


@pytest.mark.parametrize("cpus,workers", [(3, 3), (64, 4)])
def test_sweep_clamps_jobs(monkeypatch, capsys, cpus, workers):
    # an in-process stand-in for the pool: it records its size and starts
    # no process
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(pipeline.os, "cpu_count", lambda: cpus)
    code, stdout, _ = run(capsys, "sweep", "--n", "4,6", "--r", "2,3",
                          "--geometric-budget", "0", "--jobs", "1000000")
    assert code == 0
    assert sizes == [workers]
    assert len(stdout.splitlines()) == 5


@pytest.mark.parametrize("argv", [
    ["construct", "--n", "4", "--r", "2", "-o", "{bad}"],
    ["construct", "--n", "4", "--r", "2", "-o", "{tmp}/ok.json", "--ine", "{bad}"],
    ["verify", "{system}", "--report", "{bad}"],
    ["analyze", "{system}", "--report", "{bad}"],
    ["export", "{system}", "--format", "json", "-o", "{bad}"],
    ["export", "{system}", "--format", "ine", "-o", "{bad}"],
    ["sweep", "--n", "4", "--r", "2", "-o", "{bad}"],
    ["sweep", "--n", "4", "--r", "2", "--format", "json", "-o", "{tmp}"],
], ids=["construct", "construct-ine", "verify", "analyze", "export-json", "export-ine",
        "sweep", "sweep-directory"])
def test_unwritable_output_is_invalid_input(tmp_path, capsys, argv):
    system = tmp_path / "p42.json"
    assert main(["construct", "--n", "4", "--r", "2", "-o", str(system)]) == 0
    capsys.readouterr()
    bad = tmp_path / "missing" / "out"
    code, _, stderr = run(capsys, *(a.format(bad=bad, system=system, tmp=tmp_path) for a in argv))
    assert code == 2
    assert stderr.startswith("error: cannot write ")
    assert stderr.count("\n") == 1
    # an invalid-input exit writes none of the outputs
    assert not (tmp_path / "ok.json").exists()


def test_construct_ine_failure_keeps_existing_output(tmp_path, capsys):
    out = tmp_path / "ok.json"
    out.write_text("before")
    code, _, _ = run(capsys, "construct", "--n", "4", "--r", "2", "-o", str(out),
                     "--ine", str(tmp_path / "missing" / "x.ine"))
    assert code == 2
    assert out.read_text() == "before"


def test_analyze_of_forced_odd_n_system_reports_its_geometry(tmp_path, capsys):
    # the closed-form prediction needs even n; the geometry is still analyzed
    path, report = tmp_path / "p53.json", tmp_path / "analyze.json"
    assert main(["construct", "--n", "5", "--r", "3", "--eps", "1/40", "--big-m", "1048576",
                 "--force", "-o", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    capsys.readouterr()
    code, stdout, stderr = run(capsys, "analyze", str(path), "--paper-literal", "--report", str(report))
    assert (code, stderr) == (1, "")
    assert "flag vector predicted: unavailable" in stdout
    rep = json.loads(report.read_text())
    assert rep["flag_predicted"] is None
    assert rep["flag_actual"] == [122, 333, 302, 91, 844]
    assert rep["failures"] == [
        "flag_predicted: unavailable: n must be even, got 5",
        "projected vertices are not in bijection with the source",
    ]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_jobs_below_one(capsys, jobs):
    code, stdout, stderr = run(capsys, "sweep", "--n", "4", "--r", "2", "--jobs", jobs)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: ") and "--jobs" in stderr


@pytest.mark.parametrize("command", ["construct", "verify", "analyze", "sweep"])
def test_a_negative_geometric_budget_is_refused(tmp_path, capsys, command):
    system = _ungated_system(tmp_path, 4, 2)
    argv = {
        "construct": ["--n", "4", "--r", "2", "-o", str(tmp_path / "out.json")],
        "verify": [str(system)],
        "analyze": [str(system)],
        "sweep": ["--n", "4", "--r", "2"],
    }[command]
    with pytest.raises(SystemExit) as exit_:
        main([command, *argv, "--geometric-budget", "-1"])
    assert exit_.value.code == 2
    assert capsys.readouterr() == ("", "error: --geometric-budget must be at least 0, got -1\n")
    assert not (tmp_path / "out.json").exists()


class _GeometryReached(Exception):
    pass


def _ungated_system(tmp_path, n, r):
    """A system file for (n, r) at the search's starting parameters,
    written without running the gates or any geometry."""
    eps, big_m = construction.start_parameters(n)
    h = construction.build_deformed_product(n, r, eps, big_m)
    path = tmp_path / f"p{n}{r}.json"
    io.save_system(path, io.SystemFile(h, n=n, r=r, eps=eps, big_m=big_m, validated=True))
    return path


def _no_geometry(monkeypatch):
    def reached(h):
        raise _GeometryReached

    monkeypatch.setattr(io, "h_to_v", reached)


@pytest.mark.parametrize("command", ["verify", "analyze"])
@pytest.mark.parametrize("n,r,budget", [(4, 2, "15"), (6, 5, None), (4, 7, None)])
def test_a_system_over_the_geometric_budget_exits_before_any_geometry(
    tmp_path, capsys, monkeypatch, command, n, r, budget
):
    path = _ungated_system(tmp_path, n, r)
    _no_geometry(monkeypatch)
    extra = ["--geometric-budget", budget] if budget else []
    code, stdout, stderr = run(capsys, command, str(path), *extra)
    assert code == 2
    limit = budget or pipeline.GEOMETRIC_BUDGET
    assert stderr == (
        f"error: {path}: n={n}, r={r}: n^r is over the geometric budget {limit}; "
        f"raise --geometric-budget to {command} it\n"
    )
    assert stdout == ""


@pytest.mark.parametrize("command", ["verify", "analyze"])
@pytest.mark.parametrize("n,r,budget", [(4, 2, "16"), (4, 6, None), (8, 4, None), (6, 5, "7776")])
def test_a_system_within_the_geometric_budget_reaches_the_geometry(
    tmp_path, capsys, monkeypatch, command, n, r, budget
):
    path = _ungated_system(tmp_path, n, r)
    _no_geometry(monkeypatch)
    extra = ["--geometric-budget", budget] if budget else []
    with pytest.raises(_GeometryReached):
        main([command, str(path), *extra])


def test_construct_exits_1_when_no_round_passes(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(construction, "check_parameters", lambda system: "refused")
    out = tmp_path / "out.json"
    code, stdout, stderr = run(capsys, "construct", "--n", "4", "--r", "2", "-o", str(out),
                               "--ine", str(tmp_path / "out.ine"))
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("construction failed: no parameters found for n=4, r=2 after 12 rounds")
    assert stderr.count("\n") == 1 and stderr.count(": refused") == 12
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    [],
    ["bogus"],
    ["construct", "--n", "4", "--r", "2", "-o", "out.json", "--bogus"],
    ["construct", "--n", "4", "-o", "out.json"],
    ["construct", "--n", "four", "--r", "2", "-o", "out.json"],
    ["construct", "--n", "4", "--r", "2", "-o", "out.json", "--geometric-budget", "1e3"],
    ["verify", "system.json", "--bogus"],
    ["verify", "--report", "out.json"],
    ["verify", "system.json", "--report", "out.json", "--geometric-budget", "abc"],
    ["analyze", "system.json", "--report", "out.json", "--bogus"],
    ["analyze", "--paper-literal", "--report", "out.json"],
    ["analyze", "system.json", "--report", "out.json", "--geometric-budget", ""],
    ["sweep", "--n", "4", "--r", "2", "-o", "out.csv", "--bogus"],
    ["sweep", "--n", "4", "-o", "out.csv"],
    ["sweep", "--n", "4", "--r", "2", "-o", "out.csv", "--format", "xml"],
    ["sweep", "--n", "4", "--r", "2", "-o", "out.csv", "--geometric-budget", "abc"],
    ["sweep", "--n", "4", "--r", "2", "-o", "out.csv", "--jobs", "two"],
    ["sweep", "--n", "4", "--r", "2", "-o", "out.csv", "--jobs", "٢"],
    ["sweep", "--n", "4", "--r", "2", "-o", "out.csv", "--geometric-budget", "٥"],
    ["export", "system.json", "-o", "out.ine", "--format", "ine", "--bogus"],
    ["export", "system.json", "-o", "out.ine"],
    ["export", "-o", "out.ine", "--format", "ine"],
    ["export", "system.json", "-o", "out.ine", "--format", "xml"],
], ids=lambda argv: " ".join(argv) or "no-command")
def test_argparse_rejections_print_one_line(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "system.json").write_text("{}")
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["system.json"]


def test_help_keeps_its_usage_text(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["sweep", "--help"])
    assert exit_.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: projpoly sweep [-h] --n N --r R") and err == ""
