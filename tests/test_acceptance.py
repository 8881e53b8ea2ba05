"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Exact arithmetic means zero tolerance unless a tolerance is stated
inline.
"""

import json
from fractions import Fraction as QQ
from hashlib import sha256
from itertools import combinations, product
from types import SimpleNamespace

from conftest import GRID, run_case, zero_pattern_system
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
from projpoly.io import dumps_json, system_to_dict
from projpoly.pipeline import analyze_system, construct_system, verify_system
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


# The outputs of each pinned system, in the order of its digests below.
PINNED_OUTPUTS = ("system", "verify", "analyze", "analyze --paper-literal")
# Systems pinned beyond the grid: the DD hull fallback, a system whose
# construction passes the gates but fails verify, a forced odd n, and the
# one system whose P vertices come from the DD, sorted into code order.
PINNED_SYSTEMS = {
    "6x3-1/16-2^16": lambda: construct_system(n=6, r=3, eps=QQ(1, 16), big_m=QQ(2**16)),
    "4x3-1/16-2^32": lambda: construct_system(n=4, r=3, eps=QQ(1, 16), big_m=QQ(2**32)),
    "5x3-1/40-2^20-forced": lambda: construct_system(
        n=5, r=3, eps=QQ(1, 40), big_m=QQ(2**20), force=True
    ),
    "4x3-zero-pattern": zero_pattern_system,
}
# SHA-256 of each output's JSON text.  A change that alters an output
# updates its pin and says why.
PINS = {
    "4x2": (
        "2d2192a6f88c1a3cb17af60367f4e0ec565e5bca446eba6586ce02125fbc1a85",
        "5fe7d0d3bf3169ce24a9f7067e7ccfd1878f770372e9a3b00dd4031963b5e69a",
        "9b1312c1851b2e21b02d26b9732524a2ce6c6efb2b33585285de9afc5c8cab5d",
        "c927a7eec8ee73d22e6f0e614b720f6e8dee11a7c798f9c3da160618a045b4b8",
    ),
    "6x2": (
        "f0c6d05835c17dadb4193375a302df3b87368c9efc8f5e2eb439c868f371135c",
        "2e0b35f181e29fc8972cb8d29a376394e6fbe552a14b811fbffc3cab41dcd7df",
        "80d49f1b7de93b5b24e7a230b30dae7424822b1eefeee36e5feb3bce2200c009",
        "7f2ad3ba4a2f1ad8ffe1b97513022e75eeae9f2fe5c6460302f20e015d5a40bc",
    ),
    "8x2": (
        "989d0f9e0e0b0b306e54c5e8fd2b3dd031996f178f8ae84df373018842bccd7f",
        "01e0ecf93a58e92933e044e476738fcd9aa044619ae8cabf13924ff4a1ad8c7b",
        "80cb32e4a30cde33c2e01b4a50463ca45534935bafdd5dae89a7c7921ef8f4b8",
        "676ab52a8586a5a669b9476e7d7889445a46dab4376cc264e3fca60dbb1b2522",
    ),
    "4x3": (
        "2b37a111c73d8fb87d30ec2a09484fce64c213664f07042c576da607e1d5fab5",
        "8bcc7d442f59076093e390298d72bc8474d67f192ee3237166dbc3adbf669c19",
        "08b49e51acc7cf75ea0f066199172b3853b7ad9892e64d06ef636101eb4d121c",
        "6a13813fc680cfc2ef322eb8c54de55de6218799853449a0751e498c1df8d431",
    ),
    "6x3": (
        "af037a3363c5ea0fea7e70135ca3b858dcc7d623abb5d1a840ad5ae3bba6b5cf",
        "c725f31e0ea87694e3a93a6ed4f5af6190309513b22697e33282cc4a0a837e1c",
        "349160f2d1e1900b2ccde1e9bf25365590eb14c256919dcf25711a22533280c7",
        "24ba019f9979627696541526323fc9b7df7f54cd11d5d1de5b39af87dffd0b47",
    ),
    "4x4": (
        "e5d078e2086af96678950f91c7999193b325de76f3d1e5b73b61e561a047ad57",
        "311981ba6204d2f0c90f0321b3246819ab8bd3e1ae4308bff8dbf416bb7c03bd",
        "92f70a1a8718bfed76ccfdc56ed2f3413527204452d43b65853cdb910399c621",
        "6df51e9479ee3ea34e60a3273cfe354c69f2b08853600f1ffeb543ddacc02181",
    ),
    "6x3-1/16-2^16": (
        "25a83ad61c237fc931a9d4180a8271f2754038f938f6a3a33149d0ccedcdaa98",
        "4c70b3db17d99b1009ce8cf433a05cee729588d8f633cfbabb1db12e1d697e57",
        "ff10ca3b5ba4fbba65edd328d135703957f0a0a195f04a420fcda3a362635eef",
        "e48b302d3b55efb7b221d923e5432c812a2e34c5df6dee8c475cf822bdf7a4f2",
    ),
    "4x3-1/16-2^32": (
        "51a602b9ce2bbf1f445bf3969b3ab7fb8be1cd6ea9071fb035fbb69c64458075",
        "94281e1516e1f492b68d707bc2a1817db42db739d521d79e17ce9af9fbb8916a",
        "f2943ff5c5e2eb6eae4dec1d987b0e058e8030ddc76777e12aa32927acf18a44",
        "a526310cbc7063b54ca484fe1bb41f89af39999b53dca31050ee2313849b2e6f",
    ),
    "5x3-1/40-2^20-forced": (
        "a17b85a15d800ab58e9d5c0c018eeef069fd1d5c9a5d125c0376069f1eb834b7",
        "fc4e4afd33fd2125d94f49c90f81d83954bd3f2bf0dc2f2b79d840f88ff56059",
        "377491eedfe329402d76ea1dabed7e579be1c3c514893d0c613b43cca3c76770",
        "377491eedfe329402d76ea1dabed7e579be1c3c514893d0c613b43cca3c76770",
    ),
    # Its verify and analyze JSON equal the grid's 4x3: sorted into code
    # order, the DD's vertices give the same reports.
    "4x3-zero-pattern": (
        "0013933fed36e23c3e125cfc158857da91606f27afb6ea3e9cf68f4954ed27f9",
        "8bcc7d442f59076093e390298d72bc8474d67f192ee3237166dbc3adbf669c19",
        "08b49e51acc7cf75ea0f066199172b3853b7ad9892e64d06ef636101eb4d121c",
        "6a13813fc680cfc2ef322eb8c54de55de6218799853449a0751e498c1df8d431",
    ),
}


def test_outputs_match_their_pins():
    cases = {f"{n}x{r}": run_case(n, r) for n, r in GRID}
    for name, build in PINNED_SYSTEMS.items():
        system = build()
        cases[name] = SimpleNamespace(
            system=system, verify=verify_system(system), analyze=analyze_system(system)
        )
    assert cases.keys() == PINS.keys()
    for name, case in cases.items():
        outputs = (
            system_to_dict(case.system),
            case.verify.as_dict(),
            case.analyze.as_dict(),
            analyze_system(case.system, paper_literal=True).as_dict(),
        )
        for output, data, pin in zip(PINNED_OUTPUTS, outputs, PINS[name], strict=True):
            digest = sha256(dumps_json(data).encode()).hexdigest()
            assert digest == pin, f"{name}: the {output} JSON no longer matches its pin"
    print(f"ACCEPTANCE PINS PASS: {len(PINNED_OUTPUTS)} outputs of {len(cases)} systems "
          "byte-identical to their pinned digests")
