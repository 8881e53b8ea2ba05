import math
import random
from fractions import Fraction as QQ

import pytest

from oracle import determinant_oracle, positively_spans_oracle, row_reduce_rank
from projpoly.construction import U0, U1, V0, W0, W1
from projpoly.linalg import (
    PositiveCertificate,
    QMatrix,
    positive_dependence,
    positively_spans,
    rank,
)
from projpoly.projection import alpha_coeff, beta_coeff


def test_rank_identity():
    assert rank(QMatrix.from_rows([[1, 0], [0, 1]])) == 2


def test_rank_coupling_block():
    u = QMatrix(( U0, U1 ))
    # direct 2x2 evaluation: det = 0*(-2/3) - 1*(-3) = 3
    assert U0[0] * U1[1] - U0[1] * U1[0] == 3
    assert rank(u) == 2


def test_rank_zero_row():
    assert rank(QMatrix.from_rows([[1, 0], [0, 0]])) == 1


def _coefficient_matrix(k: int):
    return [
        (-alpha_coeff(-1), -alpha_coeff(k), -beta_coeff(k)),
        (-alpha_coeff(0), -alpha_coeff(k + 1), -beta_coeff(k + 1)),
        (-alpha_coeff(1), -alpha_coeff(k + 2), -beta_coeff(k + 2)),
    ]


def test_coefficient_matrix_determinant_k0():
    assert abs(determinant_oracle(_coefficient_matrix(0))) == QQ(3, 32)


@pytest.mark.parametrize("k", range(0, 7))
def test_coefficient_matrix_determinant_closed_form(k):
    # magnitude (3/8) * (2^k - 1 + 2^(-k-2)); the sign depends on row order
    expected = QQ(3, 8) * (QQ(2) ** k - 1 + QQ(2) ** (-k - 2))
    assert abs(determinant_oracle(_coefficient_matrix(k))) == expected


def test_positive_dependence_symmetric_pairs():
    cert = positive_dependence([(QQ(1), QQ(0)), (QQ(-1), QQ(0)), (QQ(0), QQ(1)), (QQ(0), QQ(-1))], 2)
    assert cert.kind == "dependence"
    assert cert.coefficients == (1, 1, 1, 1)


def test_positive_dependence_half_plane():
    cert = positive_dependence([(QQ(1), QQ(0)), (QQ(0), QQ(1))], 2)
    assert cert.kind == "none"


def test_positive_dependence_empty():
    assert positive_dependence([], 2).kind == "none"


def test_positive_dependence_generator_vectors():
    vectors = [V0, U0, U1, W0, W1]
    cert = positive_dependence(vectors, 2)
    assert cert.kind == "dependence"
    assert all(c > 0 for c in cert.coefficients)
    for i in range(2):
        assert sum(c * v[i] for c, v in zip(cert.coefficients, vectors)) == 0
    # the zero-sum identity at k=2 provides one explicit certificate
    explicit = (alpha_coeff(1), alpha_coeff(2), beta_coeff(2), alpha_coeff(3), beta_coeff(3))
    assert explicit == (QQ(1, 2), QQ(9, 4), QQ(33, 16), QQ(49, 8), QQ(189, 32))
    for i in range(2):
        assert sum(c * v[i] for c, v in zip(explicit, vectors)) == 0


def test_positively_spans_examples():
    cross = [(QQ(1), QQ(0)), (QQ(-1), QQ(0)), (QQ(0), QQ(1)), (QQ(0), QQ(-1))]
    assert positively_spans(cross, 2).kind == "spanning"
    assert positively_spans([(QQ(1), QQ(0)), (QQ(-1), QQ(0))], 2).kind == "none"
    assert positively_spans([V0, U0, U1, W0, W1], 2).kind == "spanning"


def test_certificate_kind_validation():
    with pytest.raises(ValueError):
        PositiveCertificate("bogus")


def test_positively_spans_agrees_with_unit_vector_oracle():
    rng = random.Random(20260810)
    agreements = 0
    for _ in range(200):
        dim = rng.randint(1, 4)
        count = rng.randint(1, 8)
        vectors = [
            tuple(QQ(rng.randint(-5, 5)) for _ in range(dim)) for _ in range(count)
        ]
        cert = positively_spans(vectors, dim)
        expected = positively_spans_oracle(vectors, dim)
        assert (cert.kind == "spanning") == expected, (vectors, dim)
        if cert.kind == "spanning":
            # the certificate itself must be exact: positive weights, zero sum
            assert min(cert.coefficients) > 0
            for i in range(dim):
                assert sum(c * v[i] for c, v in zip(cert.coefficients, vectors)) == 0
        agreements += 1
    assert agreements == 200


def test_rank_and_determinant_agree():
    rng = random.Random(7)
    for _ in range(100):
        n = rng.randint(1, 5)
        rows = [[QQ(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.4 and n >= 2:
            # force singularity: last row a combination of the first two
            rows[-1] = [rows[0][j] + (rows[1][j] if n > 1 else 0) for j in range(n)]
        m = QMatrix.from_rows(rows)
        det = determinant_oracle(rows)
        assert (rank(m) < n) == (det == 0)
        assert rank(m) == row_reduce_rank(rows)


def test_results_stay_reduced():
    cert = positive_dependence([V0, U0, U1, W0, W1], 2)
    for c in cert.coefficients:
        assert c.denominator > 0
        assert math.gcd(c.numerator, c.denominator) == 1
