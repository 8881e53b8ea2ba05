import math
import random
from fractions import Fraction as QQ

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import determinant_oracle, nonneg_solution_oracle, qmatrix, row_reduce_rank, span_oracle_cases
from projpoly.construction import U0, U1, V0, W0, W1, alpha_coeff, beta_coeff
from projpoly.linalg import (
    PositiveCertificate,
    QMatrix,
    _dependence,
    _equations,
    nonneg_solution,
    positively_spans,
    rank_rows,
)


def test_rank_identity():
    assert rank_rows(qmatrix([[1, 0], [0, 1]]).entries) == 2


def test_rank_coupling_block():
    u = QMatrix(( U0, U1 ))
    # direct 2x2 evaluation: det = 0*(-2/3) - 1*(-3) = 3
    assert U0[0] * U1[1] - U0[1] * U1[0] == 3
    assert rank_rows(u.entries) == 2


def test_rank_zero_row():
    assert rank_rows(qmatrix([[1, 0], [0, 0]]).entries) == 1


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


def positive_dependence(vectors, dim):
    """Strictly positive coefficients with zero weighted sum, as
    ``positively_spans`` computes them, for any vector set; or None."""
    return _dependence(vectors, _equations(vectors, dim)) if vectors else None


def test_positive_dependence_symmetric_pairs():
    coefficients = positive_dependence([(QQ(1), QQ(0)), (QQ(-1), QQ(0)), (QQ(0), QQ(1)), (QQ(0), QQ(-1))], 2)
    assert coefficients is not None
    assert coefficients == (1, 1, 1, 1)


def test_positive_dependence_half_plane():
    assert positive_dependence([(QQ(1), QQ(0)), (QQ(0), QQ(1))], 2) is None


def test_positive_dependence_empty():
    assert positive_dependence([], 2) is None


def test_positive_dependence_generator_vectors():
    vectors = [V0, U0, U1, W0, W1]
    coefficients = positive_dependence(vectors, 2)
    assert coefficients is not None
    assert all(c > 0 for c in coefficients)
    for i in range(2):
        assert sum(c * v[i] for c, v in zip(coefficients, vectors)) == 0
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
    agreements = 0
    for vectors, dim, expected in span_oracle_cases():
        cert = positively_spans(vectors, dim)
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
        m = qmatrix(rows)
        det = determinant_oracle(rows)
        assert (rank_rows(m.entries) < n) == (det == 0)
        assert rank_rows(m.entries) == row_reduce_rank(rows)


def test_results_stay_reduced():
    for c in positive_dependence([V0, U0, U1, W0, W1], 2):
        assert c.denominator > 0
        assert math.gcd(c.numerator, c.denominator) == 1


# --- the integer simplex against the Fraction simplex it replaced -----------


def _qq_rows(rows):
    return [tuple(QQ(x) for x in row) for row in rows]


@pytest.mark.parametrize("vectors,target,expected", [
    # column 0 enters with equal ratios 2/1 in both rows: the lower basis
    # index (row 0's artificial) leaves
    ([(1, 1), (2, 0), (0, 2)], (2, 2), (2, 0, 0)),
    # a ratio tie once the basis is no longer in row order: Bland's rule
    # takes the row whose basic variable has the lower index, which is not
    # the first tied row, and a first-row choice ends at another vertex
    ([(1, 0, 1), (1, 2, 1), (2, -2, 0), (1, 1, -2)], (1, 0, 0),
     (QQ(1, 2), 0, QQ(1, 8), QQ(1, 4))),
    ([(), ()], (), (0, 0)),
    ([], (), ()),
    ([(1, 0), (0, 1)], (-1, 0), None),
    ([], (1, 0), None),
    ([(-1, 0), (0, -2)], (-3, -4), (3, 2)),
    ([(0, 0), (1, 1)], (2, 2), (0, 2)),
    ([(1, 2), (1, 2), (0, 1)], (2, 5), (2, 0, 1)),
    ([(QQ(1, 2), QQ(1, 3)), (QQ(1, 5), QQ(-1, 7)), (QQ(-1, 4), QQ(2, 9))],
     (QQ(1, 6), QQ(1, 10)), (QQ(46, 145), QQ(7, 174), 0)),
], ids=["bland-tie", "bland-tie-out-of-row-order", "d0", "d0-k0", "infeasible", "k0-infeasible", "negative-rhs",
        "zero-vector", "duplicate-vectors", "mixed-denominators"])
def test_nonneg_solution_examples_match_fraction_simplex(vectors, target, expected):
    vectors, target = _qq_rows(vectors), tuple(QQ(x) for x in target)
    got = nonneg_solution(vectors, target)
    assert got == nonneg_solution_oracle(vectors, target) == expected
    if got is not None:
        assert all(type(c) is QQ for c in got)


# Small numerators and denominators, so that ratio ties and zero entries
# are common.
_entries = st.builds(QQ, st.integers(-3, 3), st.sampled_from((1, 1, 1, 2, 3, 6)))


@st.composite
def lp_systems(draw):
    d = draw(st.integers(0, 5))
    vectors = draw(st.lists(st.tuples(*[_entries] * d), max_size=9))
    if vectors and draw(st.booleans()):
        vectors.append(draw(st.sampled_from(vectors)))
    target = draw(st.tuples(*[_entries] * d))
    return vectors, target


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(system=lp_systems())
def test_nonneg_solution_matches_fraction_simplex(system):
    vectors, target = system
    assert nonneg_solution(vectors, target) == nonneg_solution_oracle(vectors, target)


def test_positive_dependence_is_the_fraction_simplex_plus_one():
    for vectors, dim, _ in span_oracle_cases():
        mu = nonneg_solution_oracle(vectors, [-sum(v[i] for v in vectors) for i in range(dim)])
        coefficients = positive_dependence(vectors, dim)
        if mu is None:
            assert coefficients is None
        else:
            assert coefficients == tuple(m + 1 for m in mu)
