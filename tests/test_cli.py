import json

import pytest

from projpoly import pipeline
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
    code, stdout, _ = run(capsys, "sweep", "--n", "", "--r", "2")
    assert code == 0
    assert stdout.splitlines()[0].startswith("n,r,")
    assert len(stdout.splitlines()) == 1


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


def test_parse_range_accepts_the_limit():
    assert len(_parse_range("4:20002:2")) == 10000
    assert _parse_range("4, 8:12:2,20:19") == [4, 8, 10, 12]


MALFORMED = [
    ("rows_not_a_list", lambda d: {**d, "rows": 5}),
    ("n_not_an_int", lambda d: {**d, "n": "4"}),
    ("top_level_list", lambda d: [d]),
    ("unknown_schema", lambda d: {**d, "schema": 99}),
    ("n_contradicts_labels", lambda d: {**d, "n": 6}),
]


@pytest.mark.parametrize("corrupt", [c for _, c in MALFORMED], ids=[name for name, _ in MALFORMED])
def test_verify_rejects_malformed_system(tmp_path, capsys, corrupt):
    out = tmp_path / "p42.json"
    run(capsys, "construct", "--n", "4", "--r", "2", "-o", str(out))
    out.write_text(json.dumps(corrupt(json.loads(out.read_text()))))
    code, stdout, stderr = run(capsys, "verify", str(out))
    assert code == 2
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert "VERIFY" not in stdout


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

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(pipeline.os, "cpu_count", lambda: cpus)
    code, stdout, _ = run(capsys, "sweep", "--n", "4,6", "--r", "2,3",
                          "--geometric-budget", "0", "--jobs", "1000000")
    assert code == 0
    assert sizes == [workers]
    assert len(stdout.splitlines()) == 5
