from fractions import Fraction as QQ

import pytest

from oracle import build_plain_product, qmatrix, validate_polygon
from projpoly import construction
from projpoly.construction import (
    MAX_ROUNDS,
    U0,
    U1,
    V0,
    V1,
    W0,
    W1,
    ConstructionError,
    build_deformed_product,
    check_parameters,
    choose_parameters,
    rhs_block,
    start_parameters,
    v_eps_block,
)
from projpoly.io import SystemFile, system_to_dict, dumps_json
from projpoly.polytope import h_to_v, product_labeling

SQUARE_POLYGON = qmatrix([[1, 0], [0, 1], [-1, 0], [0, -1]])
HEXAGON_POLYGON = qmatrix([[1, 0], [1, 1], [0, 1], [-1, 0], [-1, -1], [0, -1]])
POLYGON_REASON = "polygon description invalid"
PRODUCT_REASON = "vertex-facet incidences do not match the product"


def test_v_eps_block_n4():
    block = v_eps_block(4, QQ(1, 16))
    assert block.entries == (
        (QQ(3, 4), QQ(1, 8)),
        (QQ(1, 16), QQ(0)),
        (QQ(3, 4), QQ(-1, 8)),
        (QQ(-1, 16), QQ(0)),
    )


def test_v_eps_block_zero_offset_row():
    # for n=6 the middle even row has offset n-2-2i = 0
    block = v_eps_block(6, QQ(1, 7))
    assert block.row(2) == (QQ(1), QQ(0))


def test_v_eps_block_n6_odd_row():
    block = v_eps_block(6, QQ(1, 100))
    assert block.row(1) == (QQ(6, 625), QQ(1, 5000))


def test_v_eps_block_builds_odd_n():
    block = v_eps_block(5, QQ(1, 16))
    assert block.rows == 5
    assert block.row(4) == (QQ(-1, 16), QQ(0))


def test_v_eps_rows_in_cyclic_order():
    for n, eps in [(4, QQ(1, 16)), (6, QQ(1, 100)), (8, QQ(1, 300))]:
        rows = v_eps_block(n, eps).entries
        dets = [
            rows[i][0] * rows[(i + 1) % n][1] - rows[i][1] * rows[(i + 1) % n][0]
            for i in range(n)
        ]
        assert all(d != 0 for d in dets)
        assert len({d > 0 for d in dets}) == 1


def test_block_spec_defaults():
    assert V0 == (1, 0)
    assert V1 == (0, 0)
    assert U0 == (0, 1)
    assert U1 == (-3, QQ(-2, 3))
    assert W0 == (QQ(-31, 4), QQ(1, 2))
    assert W1 == (9, QQ(-2, 3))


def test_deformed_product_block_placement():
    system = build_deformed_product(4, 3, QQ(1, 16), QQ(256))
    assert system.A.rows == 12 and system.A.cols == 6
    vblock = v_eps_block(4, QQ(1, 16))
    ublock, wblock = (U0, U1, U0, U1), (W0, W1, W0, W1)
    zero = (QQ(0), QQ(0))
    nonzero_blocks = 0
    for k in range(1, 4):
        for j in range(1, 4):
            got = tuple(
                tuple(system.A.row((k - 1) * 4 + i)[2 * (j - 1) : 2 * j]) for i in range(4)
            )
            if j == k:
                assert got == vblock.entries
            elif j == k - 1:
                assert got == ublock
            elif j == k - 2:
                assert got == wblock
            else:
                assert got == (zero,) * 4
            if got != (zero,) * 4:
                nonzero_blocks += 1
    assert nonzero_blocks == 3 * 3 - 3  # r + (r-1) + (r-2)


def test_deformed_product_rhs_fixture():
    system = build_deformed_product(4, 2, QQ(1, 16), QQ(256))
    assert system.b == (
        QQ(1), QQ(1, 16), QQ(1), QQ(1, 16), QQ(256), QQ(16), QQ(256), QQ(16)
    )
    assert system.labels == tuple((k, i) for k in (1, 2) for i in range(4))


def test_deformed_product_rejects_r1():
    with pytest.raises(ConstructionError):
        choose_parameters(4, 1, QQ(1, 16), QQ(256))


def test_deformed_product_rejects_odd_n():
    with pytest.raises(ConstructionError):
        choose_parameters(5, 3, QQ(1, 16), QQ(256))


def test_plain_product_square():
    system = build_plain_product(4, 2, SQUARE_POLYGON, (QQ(1),) * 4)
    v = h_to_v(system)
    assert v.nvertices == 16
    assert product_labeling(v, system.labels, 4, 2) is not None


def test_plain_product_hexagon():
    system = build_plain_product(6, 2, HEXAGON_POLYGON, (QQ(1),) * 6)
    assert h_to_v(system).nvertices == 36


def test_plain_product_rejects_mismatched_rhs():
    with pytest.raises(ConstructionError):
        build_plain_product(4, 2, SQUARE_POLYGON, (QQ(1),) * 3)


def test_plain_product_rejects_invalid_polygon():
    collinear = qmatrix([[1, 0], [2, 0], [-1, 0], [0, -1]])
    with pytest.raises(ConstructionError):
        build_plain_product(4, 2, collinear, (QQ(1),) * 4)


def test_validate_polygon_perturbed_block():
    eps = QQ(1, 100)
    block = v_eps_block(6, eps)
    b = rhs_block(6, eps)
    assert validate_polygon(block, b)
    # rescaled rows land on the parabola x = 1 - y^2/eps, plus (-1, 0)
    scaled = [
        (row[0] / bi, row[1] / bi) for row, bi in zip(block.entries, b)
    ]
    expected = [(1 - eps * s * s, eps * s) for s in (4, 2, 0, -2, -4)] + [(-1, QQ(0))]
    assert scaled == expected


def test_validate_polygon_rejects_coarse_eps():
    assert not validate_polygon(v_eps_block(6, QQ(1)), rhs_block(6, QQ(1)))
    assert not validate_polygon(v_eps_block(6, QQ(1, 2)), rhs_block(6, QQ(1, 2)))


def test_validate_polygon_rejects_nonpositive_rhs():
    b = list(rhs_block(4, QQ(1, 16)))
    b[2] = QQ(0)
    assert not validate_polygon(v_eps_block(4, QQ(1, 16)), b)


def test_validate_polygon_rejects_duplicate_rows():
    dup = qmatrix([[1, 0], [0, 1], [1, 0], [0, -1]])
    assert not validate_polygon(dup, (QQ(1),) * 4)


def test_validate_polygon_rejects_non_spanning_rows():
    half = qmatrix([[1, 0], [0, 1], [1, 1], [1, 2]])
    assert not validate_polygon(half, (QQ(1),) * 4)


@pytest.mark.parametrize("n,r", [(4, 2), (6, 3)])
def test_choose_parameters_accepts_grid(n, r, grid_case):
    case = grid_case(n, r)
    params_eps, params_m = case.system.eps, case.system.big_m
    assert case.system.validated
    v = h_to_v(case.system.h)
    assert v.nvertices == n**r
    assert product_labeling(v, case.system.h.labels, n, r) is not None
    assert params_eps > 0 and params_m > 1


def test_choose_parameters_rejects_odd_n():
    with pytest.raises(ConstructionError, match="even"):
        choose_parameters(5, 2)


def test_choose_parameters_logs_attempts():
    system = choose_parameters(4, 2)
    assert system.adaptation, "initial parameters happen to pass; expected logged attempts"
    first = system.adaptation[0]
    assert first.eps == QQ(1, 20)
    assert first.big_m == QQ(16)
    assert "product" in first.reason


def test_check_parameters_reports_reason():
    reason = check_parameters(SystemFile(build_deformed_product(4, 2, QQ(1), QQ(16))))
    assert reason == POLYGON_REASON
    reason = check_parameters(SystemFile(build_deformed_product(4, 2, QQ(1, 16), QQ(256))))
    assert reason == PRODUCT_REASON
    good = choose_parameters(4, 2)
    assert check_parameters(SystemFile(build_deformed_product(4, 2, good.eps, good.big_m))) is None


GATE_EPS = [QQ(x) for x in (
    "1", "2", "5", "7/3", "3/4", "1/2", "1/3", "1/4", "1/8",
    "1/16", "1/20", "1/40", "1/64", "1/100", "1/160", "1/256", "1/544", "1/1024",
)]


def test_the_polygon_gate_equals_the_reference_polygon_check():
    # The gates refuse a polygon by the first block's own product
    # certificate; on every block the construction builds, that verdict is
    # the orientation-scan reference's.
    verdicts = set()
    for n in range(3, 17):
        for eps in GATE_EPS:
            valid = validate_polygon(v_eps_block(n, eps), rhs_block(n, eps))
            reason = check_parameters(SystemFile(build_deformed_product(n, 2, eps, QQ(2**16))))
            assert (reason != POLYGON_REASON) == valid, (n, eps)
            verdicts.add(reason)
    assert verdicts == {POLYGON_REASON, PRODUCT_REASON, None}


def test_choose_parameters_gives_up_after_max_rounds(monkeypatch):
    monkeypatch.setattr(construction, "check_parameters", lambda system: "refused")
    with pytest.raises(ConstructionError) as error:
        choose_parameters(4, 2)
    eps0, m0 = start_parameters(4)
    attempts = "; ".join(
        f"eps={eps0 / 2**i}, M={m0 ** 2**i}: refused" for i in range(MAX_ROUNDS)
    )
    assert MAX_ROUNDS == 12
    assert str(error.value) == f"no parameters found for n=4, r=2 after 12 rounds; attempts: {attempts}"


def test_construction_is_deterministic():
    def build_bytes():
        return dumps_json(system_to_dict(choose_parameters(4, 2))).encode()

    assert build_bytes() == build_bytes()
