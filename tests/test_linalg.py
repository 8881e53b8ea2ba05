import math
import random
from collections import Counter
from fractions import Fraction as QQ

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import (
    determinant_oracle,
    nonneg_solution_oracle,
    positively_spans_oracle,
    qmatrix,
    row_reduce_rank,
    gale_verdict,
    span_oracle_cases,
)
from projpoly import linalg
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


# --- corank 2: the Gale dual against the oracle and the simplex ------------


@pytest.mark.parametrize("vectors,dim,spans", [
    (_qq_rows([(), ()]), 0, True),
    (_qq_rows([(1, 0), (0, 1), (-1, -1), (2, 2)]), 2, True),
    (_qq_rows([(1, 0), (0, 1), (-1, 0), (0, -1)]), 2, True),
    (_qq_rows([(1, 0), (-1, 0), (2, 0), (-3, 0)]), 2, False),
    (_qq_rows([(1, 0, 0), (0, 1, 0), (-1, -1, 0), (2, 3, 0), (0, -1, 0)]), 3, False),
    (_qq_rows([(1, 0), (0, 1), (-1, -1), (0, 0)]), 2, True),
    (_qq_rows([(1, 0), (0, 1), (0, 0), (1, 1)]), 2, False),
    (_qq_rows([(1, 0), (-1, 0), (2, 0), (0, 1)]), 2, False),
    (_qq_rows([(1, 0), (0, 1), (1, 0), (0, 1)]), 2, False),
    (_qq_rows([(1, 1), (2, 2), (-1, -1), (0, 1)]), 2, False),
    (_qq_rows([(1, 0), (-1, 0), (0, 1), (0, -1)]), 2, True),
    (_qq_rows([(1, 0), (0, 1), (-1, 0), (1, 1)]), 2, False),
    (_qq_rows([(QQ(1, 2), QQ(1, 3)), (QQ(-1, 5), QQ(2, 7)), (QQ(-1, 4), QQ(-2, 9)),
               (QQ(1, 6), QQ(-1, 10))]), 2, True),
    (_qq_rows([(1,), (-1,), (1,)]), 1, True),
    (_qq_rows([(1,), (2,), (3,)]), 1, False),
], ids=["dim0", "spanning", "cross", "rank-deficient", "rank-deficient-3d", "zero-vector",
        "zero-vector-in-half-plane", "coloop",
        "parallel-pairs", "parallel-and-opposite", "opposite-pairs", "opposite-in-half-plane",
        "mixed-denominators", "dim1-opposite", "dim1-one-side"])
def test_the_gale_dual_decides_corank_two_examples(vectors, dim, spans):
    assert gale_verdict(vectors, dim) == spans


@st.composite
def corank_two_sets(draw):
    """d + 2 vectors in dimension d, often with a zero vector, a parallel or
    an opposite copy, all of them in a hyperplane, or one the negated sum
    of the others.  Dimension 4 is left to the polygon inputs: there the
    subset-enumeration oracle takes ten times as long."""
    d = draw(st.integers(0, 3))
    vectors = draw(st.lists(st.tuples(*[_entries] * d), min_size=d + 2, max_size=d + 2))
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, d + 1)), draw(st.integers(0, d + 1))
        c = draw(st.sampled_from((0, 2, -1, QQ(-1, 2))))
        vectors[i] = tuple(c * x for x in vectors[j])
    shape = draw(st.sampled_from(("as drawn", "as drawn", "in a hyperplane", "balanced", "balanced")))
    if shape == "in a hyperplane" and d:
        vectors = [v[:-1] + (QQ(0),) for v in vectors]
    elif shape == "balanced" and d:
        vectors[-1] = tuple(-sum(col) for col in zip(*vectors[:-1]))
    return vectors, d


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(case=corank_two_sets())
def test_the_gale_dual_matches_the_oracle_and_the_simplex(case):
    gale_verdict(*case)


def test_every_corank_two_oracle_case_carries_a_witness():
    cases = [(vectors, dim) for vectors, dim, _ in span_oracle_cases() if len(vectors) == dim + 2]
    assert len(cases) > 10
    for vectors, dim in cases:
        gale_verdict(vectors, dim)


def test_a_flipped_half_plane_verdict_is_caught_by_its_witness(monkeypatch):
    scan = linalg._open_half_plane

    def flipped(points):
        z, _ = scan(points)
        return (None, {0: 1}) if z is not None else ((1, 0), {})

    monkeypatch.setattr(linalg, "_open_half_plane", flipped)
    cases = [(_qq_rows([(1, 0), (0, 1), (-1, -1), (2, 2)]), 2), (_qq_rows([(1, 0), (0, 1), (-1, 0), (1, 1)]), 2)]
    cases += [(vectors, dim) for vectors, dim, _ in span_oracle_cases() if len(vectors) == dim + 2]
    flipped_kinds = Counter()
    for vectors, dim in cases:
        if rank_rows(vectors) == dim:
            flipped_kinds[positively_spans_oracle(vectors, dim)] += 1
            with pytest.raises(RuntimeError, match="invalid"):
                positively_spans(vectors, dim)
    assert flipped_kinds[True] >= 5 and flipped_kinds[False] >= 5
