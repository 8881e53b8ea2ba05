import pytest
from fractions import Fraction as QQ

from projpoly.rational import format_rational, parse_integer, parse_rational, rational_to_decimal


def test_parse_canonical_tokens():
    assert parse_rational("-31/4") == QQ(-31, 4)
    assert parse_rational("9") == QQ(9)
    assert parse_rational("0") == QQ(0)
    assert parse_rational("+3") == QQ(3)
    assert parse_rational("6/8") == QQ(3, 4)


@pytest.mark.parametrize("bad", ["1.5", "1e3", "", "a", "1/0", "1/-2", "3 / 4", "0x10",
                                 "\u0661/\u0662", "\uff19", "1/\u0968"])
def test_parse_rejects_non_rational_tokens(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_parse_integer_takes_the_integer_tokens():
    assert [parse_integer(t) for t in ["4", "+4", "-1", "0", " 7 ", "007"]] == [4, 4, -1, 0, 7, 7]


@pytest.mark.parametrize("bad", ["", "+", "1/2", "1.0", "1e3", "0x10", "1_0", "\u0664", "\uff14",
                                 "4\u0660", "four"])
def test_parse_integer_rejects_non_integer_tokens(bad):
    with pytest.raises(ValueError, match="invalid int value"):
        parse_integer(bad)


def test_format_is_canonical():
    assert format_rational(QQ(-31, 4)) == "-31/4"
    assert format_rational(QQ(9)) == "9"
    assert format_rational(QQ(0)) == "0"
    assert format_rational(QQ(6, 8)) == "3/4"


def test_format_parse_round_trip():
    values = [QQ(0), QQ(7), QQ(-7), QQ(22, 7), QQ(-1, 1000), QQ(12345, 67)]
    for q in values:
        assert parse_rational(format_rational(q)) == q


def test_decimal_approximation():
    assert rational_to_decimal(QQ(18, 7)) == "2.571429"
    assert rational_to_decimal(QQ(86, 19), 3) == "4.526"
    assert rational_to_decimal(QQ(-1, 2), 2) == "-0.50"
    assert rational_to_decimal(QQ(3)) == "3.000000"
