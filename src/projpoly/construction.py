"""The deformed product of r n-gons as an inequality system.

The system chains three fixed 2-column blocks per block row: the
perturbed polygon block on the diagonal, a coupling block U one position
below the diagonal, and a second coupling block W two positions below.
This placement is the unique layout under which the zero-sum identity of
the generator vectors (``zero_sum_check``) produces positive row
dependences with the documented index offsets; it is verified a
posteriori by the certificate checks (``deletion_certificates``) rather
than assumed.

The scalar parameters are adapted, not solved for: eps halves and M squares
until the gates pass.  The gates are one certificate: the product's
vertices solved from the block-triangular system
(``polytope.product_vertices``), whose first block alone decides whether
the polygon description is valid.  They run no vertex enumeration.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

from .io import AdaptationAttempt, SystemFile
from .linalg import PositiveCertificate, QMatrix, rank_rows
from .polytope import HPolytope, product_vertices
from .rational import QQ

# Generator vectors of the coupling blocks.  Up to the choice of basis
# (v0, u0), these five directions are forced by the zero-sum identity.
V0 = (QQ(1), QQ(0))
V1 = (QQ(0), QQ(0))
U0 = (QQ(0), QQ(1))
U1 = (QQ(-3), QQ(-2, 3))
W0 = (QQ(-31, 4), QQ(1, 2))
W1 = (QQ(9), QQ(-2, 3))
ZERO2 = (QQ(0), QQ(0))

# Twelve failed rounds signal an implementation bug, not a parameter gap.
MAX_ROUNDS = 12

POLYGON_INVALID = "polygon description invalid"


class ConstructionError(Exception):
    pass


class InvalidParameterError(ConstructionError):
    """A parameter outside the construction's domain (n, r, eps or M)."""


def require_r(r: int) -> None:
    if r < 2:
        raise InvalidParameterError(f"r must be at least 2, got {r}")


def require_even_ngon(n: int) -> None:
    if n < 4:
        raise InvalidParameterError(f"n must be at least 4, got {n}")
    if n % 2 != 0:
        raise InvalidParameterError(f"n must be even, got {n}")


def start_parameters(n: int) -> tuple[Fraction, Fraction]:
    """Where the search of ``choose_parameters`` starts: eps = 1/(4(n-2)^2 + 4)
    and M = n^2."""
    return QQ(1, 4 * (n - 2) ** 2 + 4), QQ(n * n)


def v_eps_block(n: int, eps: Fraction) -> QMatrix:
    """The perturbed polygon block: row i is

        (1 - eps*s^2, eps*s)        for even i <= n-2, with s = n-2-2i,
        eps*(1 - eps*s^2, eps*s)    for odd  i <= n-3,
        (-eps, 0)                   for i = n-1.
    """
    rows = []
    for i in range(n - 1):
        s = n - 2 - 2 * i
        base = (1 - eps * s * s, eps * s)
        rows.append(base if i % 2 == 0 else (eps * base[0], eps * base[1]))
    rows.append((-eps, QQ(0)))
    return QMatrix(tuple(rows))


def rhs_block(n: int, eps: Fraction) -> tuple[Fraction, ...]:
    """First right-hand-side block: 1 at even positions, eps at odd ones."""
    eps = QQ(eps)
    return tuple(QQ(1) if i % 2 == 0 else eps for i in range(n))


def build_deformed_product(n: int, r: int, eps: Fraction, big_m: Fraction) -> HPolytope:
    """Assemble the rn x 2r deformed-product system with (block, row) labels.

    Block row k holds the perturbed polygon block at block column k, U at
    k-1 (k >= 2) and W at k-2 (k >= 3); the right-hand side of block k is
    M^(k-1) times the first block's.  Row i of U is U0 or U1, and of W is
    W0 or W1, as i is even or odd.
    """
    vblock = v_eps_block(n, eps)
    b1 = rhs_block(n, eps)

    rows: list[tuple[Fraction, ...]] = []
    rhs: list[Fraction] = []
    labels: list[tuple[int, int]] = []
    for k in range(1, r + 1):
        mfactor = big_m ** (k - 1)
        for i in range(n):
            u, w = (U0, W0) if i % 2 == 0 else (U1, W1)
            rows.append(block_row(k, r, vblock.row(i), u, w))
            rhs.append(mfactor * b1[i])
            labels.append((k, i))
    return HPolytope(QMatrix(tuple(rows)), tuple(rhs), tuple(labels))


def choose_parameters(
    n: int,
    r: int,
    eps: Fraction | None = None,
    big_m: Fraction | None = None,
    force: bool = False,
) -> SystemFile:
    """The deformed product for (n, r), with eps and M searched
    deterministically where not given.

    Each round builds a system and runs ``check_parameters`` on it.  The
    search starts at eps = 1/(4(n-2)^2 + 4) and M = n^2; each failed round
    halves eps and squares M, and a given value stays pinned.  The first
    system that passes is returned with ``validated=True``, the rejected
    rounds as its adaptation log, and the vertices in code order that the
    gates certified.  No round runs the double description method.
    ``MAX_ROUNDS`` failures raise ``ConstructionError``, and so does the
    first refusal of the polygon with eps pinned: that gate reads block 1
    alone, which no M changes.

    When both eps and M are given, one round runs, and a rejected system is
    returned with ``validated=False``, that round logged, and the gates'
    verdict, a failed product certificate.  Only then does ``force``
    apply: it relaxes the even-n domain check to n >= 3.  The domain of n,
    r, eps and M is checked here only, before any system is built.

    ``validated=True`` means only that the gates passed: the n^r vertices
    of the product are certified, so the polygon description is valid.  It
    does not mean that the projection preserves faces, which only
    ``pipeline.verify_system`` checks: (4,3) with eps = 1/16 and M = 2^32
    passes the gates and fails verification.
    """
    explicit = eps is not None and big_m is not None
    if not (force and explicit):
        require_even_ngon(n)
    elif n < 3:
        raise InvalidParameterError(f"n must be at least 3, got {n}")
    require_r(r)
    if eps is not None:
        eps = QQ(eps)
        if eps <= 0:
            raise InvalidParameterError("eps must be positive")
    if big_m is not None:
        big_m = QQ(big_m)
        if big_m <= 1:
            raise InvalidParameterError("M must exceed 1")
    eps0, m0 = start_parameters(n)
    log: list[AdaptationAttempt] = []
    for round_idx in range(1 if explicit else MAX_ROUNDS):
        round_eps = eps if eps is not None else eps0 / 2**round_idx
        round_m = big_m if big_m is not None else m0 ** (2**round_idx)
        system = SystemFile(
            build_deformed_product(n, r, round_eps, round_m),
            n=n,
            r=r,
            eps=round_eps,
            big_m=round_m,
            validated=True,
            adaptation=tuple(log),
        )
        reason = check_parameters(system)
        if reason is None:
            return system
        log.append(AdaptationAttempt(round_eps, round_m, reason))
        if eps is not None and reason == POLYGON_INVALID:
            break
    if explicit:
        rejected = dataclasses.replace(system, validated=False, adaptation=tuple(log))
        # Keep the gates' verdict: the product certificate is always computed.
        vars(rejected)["certified"] = system.certified
        return rejected
    ended = f"after {len(log)} rounds" if len(log) == MAX_ROUNDS else f"with eps={eps} pinned"
    raise ConstructionError(
        f"no parameters found for n={n}, r={r} {ended}; "
        "attempts: " + "; ".join(f"eps={a.eps}, M={a.big_m}: {a.reason}" for a in log)
    )


def check_parameters(system: SystemFile) -> str | None:
    """Run the acceptance gates on a deformed product; None on success,
    else the failure reason.

    The system is one ``build_deformed_product`` returned, and the gates
    are one certificate, ``system.certified``: the n^r product vertices,
    solved from the block-triangular system, are simple with exactly their
    canonical tight rows.  A certified system passes and keeps its vertices
    in code order; no vertex enumeration runs.  A refused one is refused for
    its polygon when its first block (rows 0..n-1, columns 0-1, labels
    (1, i)) fails the same certificate alone, else for the product.

    That is the polygon gate.  Block 1's rows are zero past its columns, so
    depth 0 of the product certificate is block 1's own, and for the blocks
    built here it holds iff the block describes an n-gon with n irredundant
    rows (the reference check in the tests).  Its right-hand sides are 1
    and eps > 0, so 0 is inside, and its rescaled rows (1/b_i) v_i are a
    chain monotone in y on the parabola x = 1 - y^2/eps, closed by (-1, 0).
    So when the reference holds, consecutive orientations of one sign put
    them in convex position: the rows in order are the edges, consecutive
    rows meet at the vertices and each vertex is strictly inside the other
    rows, the certificate.  Conversely, by the closure argument in
    ``product_vertices``, a certified block is a bounded polygon whose n
    vertices are tight on exactly their two consecutive rows, and its
    polar, the hull of the rescaled rows, has them as vertices in that
    cyclic order, which is the reference.
    """
    if system.certified is not None:
        return None
    n, _ = system.require_nr()
    h = system.h
    polygon = HPolytope(
        QMatrix(tuple(row[:2] for row in h.A.entries[:n])), h.b[:n], tuple((1, i) for i in range(n))
    )
    if product_vertices(polygon, n, 1) is None:
        return POLYGON_INVALID
    # Vertex enumeration cannot fail here.  Every block's polygon rows are
    # the valid first block's and every right-hand side is positive (eps >
    # 0, M > 1), so 0 is strictly feasible; and the recession cone is {0},
    # since V x_1 <= 0 forces x_1 = 0 (V's rows positively span the plane),
    # then V x_2 <= 0 forces x_2 = 0, and so on down the block-triangular
    # rows.  So, by the converse in ``product_vertices``, a failed
    # certificate means exactly that the DD's incidences are not the
    # product's.
    return "vertex-facet incidences do not match the product"


# --- generator identities and deletion certificates -------------------------


class CertificateError(Exception):
    pass


# The coefficients of the block-system positive dependences: both are
# nonnegative for every integer k and vanish exactly at k = 0.
def alpha_coeff(k: int) -> Fraction:
    """2^k + 2^-k - 2."""
    a, _, d = _cleared(k)
    return QQ(a, d)


def beta_coeff(k: int) -> Fraction:
    """2^k + (5/4) 2^-k - 9/4."""
    _, b, d = _cleared(k)
    return QQ(b, d)


def _cleared(k: int) -> tuple[int, int, int]:
    """(d alpha_k, d beta_k, d) for d = 4 * 2^|k|: both coefficients as
    integers over one denominator, with no rational power taken."""
    half = 1 << abs(k)
    # 2^k and 2^-k times 2^|k|
    up, down = (half * half, 1) if k >= 0 else (1, half * half)
    return 4 * (up + down - 2 * half), 4 * up + 5 * down - 9 * half, 4 * half


def zero_sum_check(k: int) -> bool:
    """Exact check of the generator identity

    alpha_{k-1} v0 + alpha_k u0 + beta_k u1 + alpha_{k+1} w0 + beta_{k+1} w1 = 0,

    summed in integers over the common denominators of the coefficients
    and of the vectors' entries.
    """
    coeffs = (alpha_coeff(k - 1), alpha_coeff(k), beta_coeff(k), alpha_coeff(k + 1), beta_coeff(k + 1))
    vectors = (V0, U0, U1, W0, W1)
    dc = math.lcm(*(c.denominator for c in coeffs))
    dv = math.lcm(*(x.denominator for v in vectors for x in v))
    scaled = [c.numerator * (dc // c.denominator) for c in coeffs]
    return all(
        sum(c * x.numerator * (dv // x.denominator) for c, x in zip(scaled, column)) == 0
        for column in zip(*vectors)
    )


def block_row(
    k: int,
    blocks: int,
    v: tuple[Fraction, Fraction],
    u: tuple[Fraction, Fraction],
    w: tuple[Fraction, Fraction],
) -> tuple[Fraction, ...]:
    """One row of the deformed layout over block columns 1..blocks: ``v``
    at block column k, ``u`` at k-1, ``w`` at k-2, zeros elsewhere."""
    at = {k: v, k - 1: u, k - 2: w}
    return sum((at.get(j, ZERO2) for j in range(1, blocks + 1)), ())


def reduced_matrix(r: int) -> QMatrix:
    """The 2r x (2r-4) unperturbed block matrix restricted to the deleted
    coordinates.

    Each block contributes its two distinct row patterns; any two
    cyclically adjacent rows of a block realize exactly this pair.  For
    r = 2 the matrix has no columns and every downstream check is vacuous.
    """
    if r < 2:
        raise CertificateError(f"r must be at least 2, got {r}")
    rows = [
        block_row(k, r - 2, *pattern)
        for k in range(1, r + 1)
        for pattern in ((V0, U0, W0), (V1, U1, W1))
    ]
    return QMatrix(tuple(rows))


def deletion_certificates(r: int) -> list[PositiveCertificate]:
    """One spanning certificate per deleted block t = 1..r.

    Deleting block t's pair of rows from the reduced matrix must leave
    (a) rows of full rank 2r-4 and (b) an exact zero-sum dependence with
    strictly positive coefficients alpha_{k-t}, beta_{k-t} on the rows of
    every remaining block k.  Raises naming t and the failed sub-condition.
    """
    if r == 2:
        return []
    matrix = reduced_matrix(r)
    dim = 2 * r - 4
    certificates: list[PositiveCertificate] = []
    for t in range(1, r + 1):
        remaining_rows: list[tuple[Fraction, ...]] = []
        coeffs: list[Fraction] = []
        for k in range(1, r + 1):
            if k == t:
                continue
            a, b = alpha_coeff(k - t), beta_coeff(k - t)
            if a <= 0 or b <= 0:
                raise CertificateError(f"block {t}: coefficient for block {k} is not positive")
            remaining_rows.append(matrix.row(2 * (k - 1)))
            remaining_rows.append(matrix.row(2 * (k - 1) + 1))
            coeffs.extend((a, b))
        got_rank = rank_rows(remaining_rows)
        if got_rank != dim:
            raise CertificateError(
                f"block {t}: remaining rows span rank {got_rank}, expected {dim}"
            )
        for j in range(dim):
            total = sum(c * row[j] for c, row in zip(coeffs, remaining_rows))
            if total != 0:
                raise CertificateError(f"block {t}: dependence sum is nonzero in column {j}")
        certificates.append(PositiveCertificate("spanning", tuple(coeffs)))
    return certificates
