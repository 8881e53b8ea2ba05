from fractions import Fraction as QQ

import pytest

from oracle import qmatrix
from projpoly.construction import choose_parameters
from projpoly.io import (
    AdaptationAttempt,
    SystemFile,
    dumps_json,
    load_ine,
    load_system,
    parse_ine_text,
    save_system,
    system_from_dict,
    system_to_dict,
    to_ine_text,
)
from projpoly.polytope import HPolytope

FIXTURE = HPolytope(
    qmatrix([["-31/4", "1/2"], ["9", "-2/3"]]),
    (QQ(1), QQ(1, 16)),
    ((1, 0), (1, 1)),
)


def test_json_round_trip_exact():
    data = system_to_dict(SystemFile(FIXTURE, n=4, r=2, eps=QQ(1, 16), big_m=QQ(256)))
    assert data["rows"][0] == ["-31/4", "1/2"]
    assert data["rhs"] == ["1", "1/16"]
    assert data["labels"] == [[1, 0], [1, 1]]
    back = system_from_dict(data)
    assert back.h == FIXTURE
    assert back.n == 4 and back.r == 2
    assert back.eps == QQ(1, 16) and back.big_m == QQ(256)


def test_json_round_trip_with_adaptation_log(tmp_path):
    system = SystemFile(
        FIXTURE,
        n=4,
        r=2,
        eps=QQ(1, 20),
        big_m=QQ(16),
        validated=True,
        adaptation=(AdaptationAttempt(QQ(1, 20), QQ(16), "polygon description invalid"),),
    )
    path = tmp_path / "sys.json"
    save_system(path, system)
    back = load_system(path)
    assert back.adaptation == system.adaptation
    assert back.validated is True


def test_json_dim_mismatch_rejected():
    data = system_to_dict(SystemFile(FIXTURE))
    data["dim"] = 3
    with pytest.raises(ValueError):
        system_from_dict(data)


@pytest.mark.parametrize(
    "override",
    [
        {"dim": 4.9},
        {"dim": "4"},
        {"dim": 4.0},
        {"label": [1.7, 0]},
        {"label": ["1", 0]},
        {"label": [True, False]},
        {"label": [1, True]},
    ],
    ids=["dim-float", "dim-str", "dim-integral-float", "label-float", "label-str",
         "label-bools", "label-bool"],
)
def test_json_wrongly_typed_dim_or_label_rejected(override):
    data = system_to_dict(SystemFile(choose_parameters(4, 2).h))
    if "dim" in override:
        data["dim"] = override["dim"]
    else:
        data["labels"][0] = override["label"]
    with pytest.raises(ValueError):
        system_from_dict(data)


def test_require_nr_from_labels():
    system = SystemFile(FIXTURE)
    with pytest.raises(ValueError):
        system.require_nr()  # 1 block of 2 rows is not r >= 2... derived below
    full = SystemFile(choose_parameters(4, 2).h)
    assert full.require_nr() == (4, 2)


def test_ine_round_trip():
    text = to_ine_text(FIXTURE)
    lines = text.splitlines()
    assert lines[0] == "H-representation"
    assert lines[1] == "begin"
    assert lines[2] == " 2 3 rational"
    assert lines[3] == " 1 31/4 -1/2"
    assert lines[4] == " 1/16 -9 2/3"
    assert lines[5] == "end"
    back = parse_ine_text(text)
    assert back.A == FIXTURE.A
    assert back.b == FIXTURE.b
    assert back.labels is None


def test_ine_file_round_trip(tmp_path):
    path = tmp_path / "sys.ine"
    path.write_text(to_ine_text(FIXTURE))
    back = load_ine(path)
    assert back.A == FIXTURE.A and back.b == FIXTURE.b


def test_ine_skips_comments_and_blank_lines():
    text = "* produced for regression tests\n\n" + to_ine_text(FIXTURE)
    back = parse_ine_text(text)
    assert back.A == FIXTURE.A


def test_ine_rejects_garbage():
    with pytest.raises(ValueError):
        parse_ine_text("begin\n1 2 rational\n1 1\nend\n")
    with pytest.raises(ValueError):
        parse_ine_text("H-representation\nbegin\n 1 3 real\n 1 0 0\nend\n")
    with pytest.raises(ValueError):
        parse_ine_text("H-representation\nbegin\n 2 3 rational\n 1 0 0\n")
    with pytest.raises(ValueError, match="missing size line"):
        parse_ine_text("H-representation\nbegin\n")
    for counts in ("\u0662 \u0662", "+2 2", "2 1_0", "-1 2"):
        with pytest.raises(ValueError, match="malformed size line"):
            parse_ine_text(f"H-representation\nbegin\n {counts} rational\n 1 -1\n 1 1\nend\n")


def test_serialization_is_deterministic(tmp_path):
    params = choose_parameters(4, 2)
    system = params.h
    payload = SystemFile(system, n=4, r=2, eps=params.eps, big_m=params.big_m)
    a = dumps_json(system_to_dict(payload))
    b = dumps_json(system_to_dict(payload))
    assert a == b
    assert to_ine_text(system) == to_ine_text(system)
