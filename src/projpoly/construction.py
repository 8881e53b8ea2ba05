"""Builders for polygon-product inequality systems.

A plain product of r n-gons is block diagonal.  The deformed variant chains
three fixed 2-column blocks per block row: the perturbed polygon block on
the diagonal, a coupling block U one position below the diagonal, and a
second coupling block W two positions below.  This placement is the unique
layout under which the zero-sum identity of the generator vectors (see
``projection.zero_sum_check``) produces positive row dependences with the
documented index offsets; it is verified a posteriori by the certificate
checks rather than assumed.

The scalar parameters are adapted, not solved for: eps halves and M squares
until the polygon description is valid and the product structure is
certified on the computed vertices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .linalg import QMatrix, positively_spans
from .polytope import HPolytope, PolytopeError, VPolytope, h_to_v, product_isomorphic
from .rational import QQ

# Generator vectors of the coupling blocks.  Up to the choice of basis
# (v0, u0), these five directions are forced by the zero-sum identity.
V0 = (QQ(1), QQ(0))
V1 = (QQ(0), QQ(0))
U0 = (QQ(0), QQ(1))
U1 = (QQ(-3), QQ(-2, 3))
W0 = (QQ(-31, 4), QQ(1, 2))
W1 = (QQ(9), QQ(-2, 3))


class ConstructionError(Exception):
    pass


class InvalidParameterError(ConstructionError):
    """A parameter outside the construction's domain (n, r, eps or M)."""


def require_r(r: int) -> None:
    if r < 2:
        raise InvalidParameterError(f"r must be at least 2, got {r}")


@dataclass(frozen=True)
class AdaptationAttempt:
    eps: Fraction
    big_m: Fraction
    reason: str


@dataclass(frozen=True)
class ConstructionParams:
    """Parameters of one deformed product, with the search history that
    produced them.

    ``forced`` relaxes the even-n requirement for exploratory builds; all
    verification downstream still runs honestly.  The system and its
    vertices are computed on first use and kept on the instance, so the
    gates' vertex enumeration is done once.
    """

    n: int
    r: int
    eps: Fraction
    big_m: Fraction
    adaptation_log: tuple[AdaptationAttempt, ...] = field(default_factory=tuple)
    validated: bool = False
    forced: bool = False

    def __post_init__(self) -> None:
        if self.forced:
            if self.n < 3:
                raise InvalidParameterError(f"n must be at least 3, got {self.n}")
        else:
            require_even_ngon(self.n)
        require_r(self.r)
        if self.eps <= 0:
            raise InvalidParameterError("eps must be positive")
        if self.big_m <= 1:
            raise InvalidParameterError("M must exceed 1")

    @cached_property
    def deformed_product(self) -> HPolytope:
        """The system these parameters build (``build_deformed_product``)."""
        return build_deformed_product(self)

    @cached_property
    def vertices(self) -> VPolytope:
        """Vertex enumeration of the system (raises ``PolytopeError``)."""
        return h_to_v(self.deformed_product)


def require_even_ngon(n: int) -> None:
    if n < 4:
        raise InvalidParameterError(f"n must be at least 4, got {n}")
    if n % 2 != 0:
        raise InvalidParameterError(f"n must be even, got {n}")


def v_eps_block(n: int, eps: Fraction, force: bool = False) -> QMatrix:
    """The perturbed polygon block: row i is

        (1 - eps*s^2, eps*s)        for even i <= n-2, with s = n-2-2i,
        eps*(1 - eps*s^2, eps*s)    for odd  i <= n-3,
        (-eps, 0)                   for i = n-1.

    ``force`` skips the even-n requirement for exploration; every
    verification step downstream still runs honestly.
    """
    if not force:
        require_even_ngon(n)
    elif n < 3:
        raise InvalidParameterError(f"n must be at least 3, got {n}")
    eps = QQ(eps)
    if eps <= 0:
        raise InvalidParameterError("eps must be positive")
    rows = []
    for i in range(n - 1):
        s = n - 2 - 2 * i
        base = (1 - eps * s * s, eps * s)
        rows.append(base if i % 2 == 0 else (eps * base[0], eps * base[1]))
    rows.append((-eps, QQ(0)))
    return QMatrix(tuple(rows))


def u_block(n: int) -> QMatrix:
    return QMatrix(tuple(U0 if i % 2 == 0 else U1 for i in range(n)))


def w_block(n: int) -> QMatrix:
    return QMatrix(tuple(W0 if i % 2 == 0 else W1 for i in range(n)))


def rhs_block(n: int, eps: Fraction) -> tuple[Fraction, ...]:
    """First right-hand-side block: 1 at even positions, eps at odd ones."""
    eps = QQ(eps)
    return tuple(QQ(1) if i % 2 == 0 else eps for i in range(n))


def build_deformed_product(params: ConstructionParams) -> HPolytope:
    """Assemble the rn x 2r deformed-product system with (block, row) labels.

    Block row k holds the perturbed polygon block at block column k, U at
    k-1 (k >= 2) and W at k-2 (k >= 3); the right-hand side of block k is
    M^(k-1) times the first block's.
    """
    n, r = params.n, params.r
    vblock = v_eps_block(n, params.eps, force=params.forced)
    ublock = u_block(n)
    wblock = w_block(n)
    b1 = rhs_block(n, params.eps)

    zero2 = (QQ(0), QQ(0))
    rows: list[tuple[Fraction, ...]] = []
    rhs: list[Fraction] = []
    labels: list[tuple[int, int]] = []
    for k in range(1, r + 1):
        mfactor = params.big_m ** (k - 1)
        for i in range(n):
            segments: list[tuple[Fraction, Fraction]] = []
            for j in range(1, r + 1):
                if j == k:
                    segments.append(vblock.row(i))
                elif j == k - 1:
                    segments.append(ublock.row(i))
                elif j == k - 2:
                    segments.append(wblock.row(i))
                else:
                    segments.append(zero2)
            rows.append(tuple(x for seg in segments for x in seg))
            rhs.append(mfactor * b1[i])
            labels.append((k, i))
    return HPolytope(QMatrix(tuple(rows)), tuple(rhs), tuple(labels))


def build_plain_product(n: int, r: int, polygon: QMatrix, rhs: tuple[Fraction, ...] | list[Fraction]) -> HPolytope:
    """Block-diagonal system of r copies of a validated polygon description."""
    require_r(r)
    if polygon.rows != n or polygon.cols != 2:
        raise ConstructionError(f"polygon block must be {n}x2, got {polygon.rows}x{polygon.cols}")
    if len(rhs) != n:
        raise ConstructionError("right-hand side length does not match the polygon block")
    rhs = tuple(QQ(x) for x in rhs)
    if not validate_polygon(polygon, rhs):
        raise ConstructionError("polygon description is not valid")
    zero2 = (QQ(0), QQ(0))
    rows: list[tuple[Fraction, ...]] = []
    out_rhs: list[Fraction] = []
    labels: list[tuple[int, int]] = []
    for k in range(1, r + 1):
        for i in range(n):
            segments = [polygon.row(i) if j == k else zero2 for j in range(1, r + 1)]
            rows.append(tuple(x for seg in segments for x in seg))
            out_rhs.append(rhs[i])
            labels.append((k, i))
    return HPolytope(QMatrix(tuple(rows)), tuple(out_rhs), tuple(labels))


def validate_polygon(V: QMatrix, b: tuple[Fraction, ...] | list[Fraction]) -> bool:
    """Is {x : Vx <= b} a correct description of an n-gon?

    Requires nonzero, pairwise distinct rows that positively span the
    plane, strictly positive right-hand sides, and the rescaled rows
    (1/b_i) v_i in strict convex position (all cyclically consecutive
    orientation determinants nonzero and of one sign), so the polygon has
    exactly n vertices and no redundant rows.
    """
    if V.cols != 2:
        raise ValueError(f"polygon block must have 2 columns, got {V.cols}")
    n = V.rows
    if len(b) != n:
        raise ValueError("right-hand side length does not match row count")
    if n < 3:
        return False
    rows = [tuple(row) for row in V.entries]
    if any(row == (0, 0) for row in rows):
        return False
    if len(set(rows)) != n:
        return False
    b = [QQ(x) for x in b]
    if any(x <= 0 for x in b):
        return False
    if positively_spans(rows, 2).kind != "spanning":
        return False
    scaled = [(row[0] / bi, row[1] / bi) for row, bi in zip(rows, b)]
    orientation = 0
    for i in range(n):
        p, q, s = scaled[i], scaled[(i + 1) % n], scaled[(i + 2) % n]
        det = (q[0] - p[0]) * (s[1] - p[1]) - (q[1] - p[1]) * (s[0] - p[0])
        if det == 0:
            return False
        side = 1 if det > 0 else -1
        if orientation == 0:
            orientation = side
        elif side != orientation:
            return False
    return True


def choose_parameters(
    n: int,
    r: int,
    max_rounds: int = 12,
    fixed_eps: Fraction | None = None,
    fixed_big_m: Fraction | None = None,
) -> ConstructionParams:
    """Search eps and M deterministically until the construction certifies.

    Starts at eps = 1/(4(n-2)^2 + 4) and M = n^2; each failed round halves
    eps and squares M.  A round passes when the polygon description is
    valid, vertex enumeration succeeds, and the vertex-facet incidences
    match the canonical product.  Twelve failures signal an implementation
    bug, not a parameter gap, and raise.

    A fixed value pins that parameter and adapts only the other one.
    """
    require_even_ngon(n)
    require_r(r)
    eps0 = QQ(1, 4 * (n - 2) ** 2 + 4)
    m0 = QQ(n * n)
    log: list[AdaptationAttempt] = []
    for round_idx in range(max_rounds):
        eps = QQ(fixed_eps) if fixed_eps is not None else eps0 / 2**round_idx
        big_m = QQ(fixed_big_m) if fixed_big_m is not None else m0 ** (2**round_idx)
        # Built as validated and returned only if the gates pass, so the
        # instance returned keeps the vertices they enumerated.
        params = ConstructionParams(n, r, eps, big_m, tuple(log), validated=True)
        reason = check_parameters(params)
        if reason is None:
            return params
        log.append(AdaptationAttempt(eps, big_m, reason))
        if fixed_eps is not None and fixed_big_m is not None:
            break
    raise ConstructionError(
        f"no parameters found for n={n}, r={r} after {len(log)} rounds; "
        "attempts: " + "; ".join(f"eps={a.eps}, M={a.big_m}: {a.reason}" for a in log)
    )


def check_parameters(params: ConstructionParams) -> str | None:
    """Run the acceptance gates; None on success, else the failure reason."""
    vblock = v_eps_block(params.n, params.eps, force=params.forced)
    if not validate_polygon(vblock, rhs_block(params.n, params.eps)):
        return "polygon description invalid"
    system = params.deformed_product
    try:
        verts = params.vertices
    except PolytopeError as exc:
        return f"vertex enumeration failed: {exc}"
    if not product_isomorphic(verts, system.labels, params.n, params.r):
        return "vertex-facet incidences do not match the product"
    return None
