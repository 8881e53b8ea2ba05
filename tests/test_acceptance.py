"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Exact arithmetic means zero tolerance unless a tolerance is stated
inline.
"""

import json
from fractions import Fraction as QQ
from itertools import combinations, product

from conftest import GRID, run_case
from oracle import euler_ok, is_irredundant, span_oracle_cases
from projpoly.cli import main
from projpoly.construction import (
    alpha_coeff,
    beta_coeff,
    deletion_certificates,
    zero_sum_check,
)
from projpoly.lattice import FlagVector4, face_lattice
from projpoly.linalg import positively_spans
from projpoly.metrics import (
    complexity,
    complexity_paper_literal,
    fatness,
    gvector,
    phi_coords,
    predicted_flag,
    predicted_flag_paper_literal,
)
from projpoly.polytope import convex_hull, h_to_v, v_to_h

EXPECTED_VERTICES = {(4, 2): 16, (6, 2): 36, (8, 2): 64, (4, 3): 64, (6, 3): 216, (4, 4): 256}


def test_criterion_1_construction_equivalence():
    for (n, r) in GRID:
        case = run_case(n, r)
        assert case.system.validated, f"({n},{r}): parameter search failed"
        assert case.verify.product_ok, f"({n},{r}): product structure check failed"
        assert case.verify.vertex_count == EXPECTED_VERTICES[(n, r)]
        assert case.seconds < 300, f"({n},{r}) took {case.seconds:.1f}s"
    print("ACCEPTANCE 1 PASS: construction equivalence on the grid "
          f"(vertex counts {[run_case(n, r).verify.vertex_count for n, r in GRID]})")


def test_criterion_2_strict_preservation():
    for (n, r) in [(4, 3), (6, 3), (4, 4)]:
        v = run_case(n, r).verify
        assert v.vertices_preserved == v.vertices_total == n**r
        assert v.edges_preserved == v.edges_total == r * n**r
        assert v.polygons_direct == v.polygons_total == r * n ** (r - 1)
        assert v.polygons_certified == v.polygons_total
        assert v.implication_ok
    print("ACCEPTANCE 2 PASS: 1-skeleton and all polygon 2-faces strictly "
          "preserved (direct + certificate, certificate => direct) for r >= 3")


def test_criterion_3_flag_vectors(tmp_path, capsys):
    expected = {
        (4, 2): (16, 32, 24, 8, 64),
        (4, 3): (64, 192, 192, 64, 512),
        (6, 3): (216, 648, 594, 162, 1728),
    }
    for (n, r), flag in expected.items():
        case = run_case(n, r)
        assert case.analyze.flag_actual.as_tuple() == flag
        assert predicted_flag(n, r).as_tuple() == flag
    # the printed f2 coefficient is demonstrated inconsistent by the
    # identity-projection oracle: 36 predicted vs 24 actual 2-faces
    literal = predicted_flag_paper_literal(4, 2)
    actual = run_case(4, 2).analyze.flag_actual
    assert literal.f2 == 36 and actual.f2 == 24
    assert not literal.euler_ok
    # and the CLI diagnostic reports exactly that discrepancy
    path = tmp_path / "p42.json"
    assert main(["construct", "--n", "4", "--r", "2", "-o", str(path)]) == 0
    capsys.readouterr()
    assert main(["analyze", str(path), "--paper-literal"]) == 0
    stdout = capsys.readouterr().out
    assert "predicts 36 2-faces vs 24 actual" in stdout
    print("ACCEPTANCE 3 PASS: computed flag vectors equal the Euler-corrected "
          "closed form; printed f2 term refuted (36 vs 24 on the identity case)")


def test_criterion_4_counting_identities():
    for (n, r) in GRID:
        analysis = run_case(n, r).analyze
        counting = analysis.counting
        assert counting is not None and counting.ok, f"({n},{r}): {counting}"
        assert counting.prisms == r * n ** (r - 1)
        assert 4 * counting.cubes == (r - 2) * n**r
        flag = analysis.flag_actual
        assert 6 * counting.cubes + (n + 2) * counting.prisms == 2 * flag.f2
        assert flag.f03 == 8 * counting.cubes + 2 * n * counting.prisms
    print("ACCEPTANCE 4 PASS: prism/cube counts and both double-counting "
          "identities hold on every computed instance")


def test_criterion_5_certificate_suite():
    assert all(zero_sum_check(k) for k in range(-20, 21))
    for k in range(-20, 21):
        alpha, beta = alpha_coeff(k), beta_coeff(k)
        assert alpha >= 0 and beta >= 0
        assert (alpha == 0) == (k == 0) and (beta == 0) == (k == 0)
    for (n, r) in GRID:
        if r >= 3:
            certs = deletion_certificates(r)
            assert len(certs) == r and all(c.kind == "spanning" for c in certs)
    certs10 = deletion_certificates(10)
    assert len(certs10) == 10 and all(c.kind == "spanning" for c in certs10)
    print("ACCEPTANCE 5 PASS: zero-sum identity on [-20,20], alpha/beta "
          "nonnegativity, deletion certificates for the grid and (4,10)")


def _fixture_flags():
    cube = FlagVector4(16, 32, 24, 8, 64)
    pts = set()
    for pos in combinations(range(4), 2):
        for s1, s2 in product((1, -1), repeat=2):
            p = [QQ(0)] * 4
            p[pos[0]], p[pos[1]] = QQ(s1), QQ(s2)
            pts.add(tuple(p))
    cell24 = FlagVector4.from_lattice(face_lattice(convex_hull(sorted(pts)).v))
    grid_flags = [run_case(n, r).analyze.flag_actual for (n, r) in GRID]
    return [cube, cell24] + grid_flags


def test_criterion_6_metrics_fixtures():
    flags = _fixture_flags()
    cube, cell24 = flags[0], flags[1]
    assert fatness(cube) == QQ(18, 7)
    assert fatness(cell24) == QQ(172, 38)
    assert abs(fatness(cell24) - QQ(4526, 1000)) < QQ(1, 1000)  # table value, 3 decimals
    phi = phi_coords(cube)
    assert 3 * phi.phi0 + phi.phi3 == 1
    for flag in flags:
        comp = complexity(flag)
        g = gvector(flag)
        assert comp >= 3
        assert comp == QQ(g.g2, g.g1 + g.g1_dual) + 3  # both forms agree exactly
    print("ACCEPTANCE 6 PASS: fatness fixtures 18/7 and 172/38 (~4.526), "
          "cube tight on 3*phi0+phi3=1, C >= 3 with both complexity forms equal")


def test_criterion_7_limit_claims():
    limit = predicted_flag(10**6, 10**3)
    fat, comp = fatness(limit), complexity(limit)
    assert fat > QQ(89, 10) and comp > QQ(159, 10)
    for n in (4, 6, 8, 100):
        values = [fatness(predicted_flag(n, r)) for r in range(2, 51)]
        assert all(a < b for a, b in zip(values, values[1:]))
    for n in (4, 6, 8, 100, 10**6):
        for r in (2, 3, 10, 50, 1000):
            flag = predicted_flag(n, r)
            f, c = fatness(flag), complexity(flag)
            assert f < 9 and c < 16
    print("ACCEPTANCE 7 PASS: predicted fatness/complexity exceed 8.9/15.9 at "
          "(10^6, 10^3), are monotone in r, and stay strictly below 9/16")


def test_criterion_8_property_suites(tmp_path, capsys):
    # positive-span agreement with the condition-(i) oracle
    for vectors, dim, spans in span_oracle_cases():
        assert (positively_spans(vectors, dim).kind == "spanning") == spans

    # double-description round trips and Euler on every grid lattice
    for (n, r) in GRID:
        system = run_case(n, r).system
        v = system.vertices
        h2 = v_to_h(v.vertices)
        assert is_irredundant(h2, v.vertices)
        assert set(h_to_v(h2).vertices) == set(v.vertices)
        assert euler_ok(system.checker.q_lattice)

    # byte-identical CLI outputs across two runs
    pairs = []
    for name in ("one", "two"):
        out = tmp_path / f"{name}.json"
        sweep = tmp_path / f"{name}.csv"
        assert main(["construct", "--n", "4", "--r", "2", "-o", str(out)]) == 0
        assert main(["sweep", "--n", "4,6", "--r", "2,3", "--geometric-budget", "100",
                     "-o", str(sweep)]) == 0
        pairs.append((out.read_bytes(), sweep.read_bytes()))
    capsys.readouterr()
    assert pairs[0] == pairs[1]
    print("ACCEPTANCE 8 PASS: span oracle agreement (200 cases), round-trip "
          "consistency, Euler on all lattices, byte-identical CLI outputs")
