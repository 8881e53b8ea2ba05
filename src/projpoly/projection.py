"""Projection to the last four coordinates and strict-preservation checks.

A face survives a projection strictly when its image is a face of the
projected polytope, the restriction of the projection to the face is a
bijection, and the full preimage of the image is the face itself.  All
three conditions are checked directly at vertex level on the computed
lattices.  Independently, the sufficient linear-algebra certificate is
evaluated: the coordinates that the projection deletes, taken from the
normals of all facets containing the face, must positively span.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Iterable, Sequence

from .construction import U0, U1, V0, V1, W0, W1
from .lattice import FaceLattice, face_lattice, mask_of
from .linalg import (
    PositiveCertificate,
    QMatrix,
    affine_rank,
    clear_denominators,
    positively_spans,
    rank_rows,
)
from .polytope import HPolytope, HullResult, VPolytope, convex_hull
from .rational import QQ

Point = tuple[Fraction, ...]


class CertificateError(Exception):
    pass


@dataclass(frozen=True)
class AlphaBeta:
    """Coefficient pair used in the block-system positive dependences.

    Both sequences are nonnegative for every integer k and vanish exactly
    at k = 0.
    """

    k: int
    alpha: Fraction
    beta: Fraction


def alpha_coeff(k: int) -> Fraction:
    return QQ(2) ** k + QQ(2) ** (-k) - 2


def beta_coeff(k: int) -> Fraction:
    return QQ(2) ** k + QQ(5, 4) * QQ(2) ** (-k) - QQ(9, 4)


def alpha_beta(k: int) -> AlphaBeta:
    return AlphaBeta(k, alpha_coeff(k), beta_coeff(k))


def zero_sum_check(k: int) -> bool:
    """Exact check of the generator identity

    alpha_{k-1} v0 + alpha_k u0 + beta_k u1 + alpha_{k+1} w0 + beta_{k+1} w1 = 0.
    """
    coeffs = (alpha_coeff(k - 1), alpha_coeff(k), beta_coeff(k), alpha_coeff(k + 1), beta_coeff(k + 1))
    vectors = (V0, U0, U1, W0, W1)
    for i in range(2):
        if sum(c * v[i] for c, v in zip(coeffs, vectors)) != 0:
            return False
    return True


def reduced_matrix(n: int, r: int) -> QMatrix:
    """The 2r x (2r-4) unperturbed block matrix restricted to the deleted
    coordinates.

    Each block contributes its two distinct row patterns; any two
    cyclically adjacent rows of a block realize exactly this pair.  For
    r = 2 the matrix has no columns and every downstream check is vacuous.
    """
    if r < 2:
        raise CertificateError(f"r must be at least 2, got {r}")
    ncols_blocks = r - 2
    rows: list[tuple[Fraction, ...]] = []
    for k in range(1, r + 1):
        for even in (True, False):
            v, u, w = (V0, U0, W0) if even else (V1, U1, W1)
            segments = []
            for j in range(1, ncols_blocks + 1):
                if j == k:
                    segments.append(v)
                elif j == k - 1:
                    segments.append(u)
                elif j == k - 2:
                    segments.append(w)
                else:
                    segments.append((QQ(0), QQ(0)))
            rows.append(tuple(x for seg in segments for x in seg))
    return QMatrix(tuple(rows))


def deletion_certificates(n: int, r: int) -> list[PositiveCertificate]:
    """One spanning certificate per deleted block t = 1..r.

    Deleting block t's pair of rows from the reduced matrix must leave
    (a) rows of full rank 2r-4 and (b) an exact zero-sum dependence with
    strictly positive coefficients alpha_{k-t}, beta_{k-t} on the rows of
    every remaining block k.  Raises naming t and the failed sub-condition.
    """
    if r < 2:
        raise CertificateError(f"r must be at least 2, got {r}")
    if r == 2:
        return []
    matrix = reduced_matrix(n, r)
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


def project(v: VPolytope, keep: int = 4) -> list[Point]:
    """Images of all vertices under projection to the last ``keep``
    coordinates, in vertex order (duplicates retained)."""
    if keep < 1 or keep > v.dim:
        raise ValueError(f"cannot keep {keep} of {v.dim} coordinates")
    return [vx[v.dim - keep :] for vx in v.vertices]


@dataclass(frozen=True)
class PreservationReport:
    face_id: str
    factor: int | None
    direct_ok: bool
    certificate_ok: bool
    details: str

    def as_dict(self) -> dict:
        return {
            "face_id": self.face_id,
            "factor": self.factor,
            "direct_ok": self.direct_ok,
            "certificate_ok": self.certificate_ok,
            "details": self.details,
        }


class ProjectionChecker:
    """Shared state for checking many faces of one projection.

    Computes the projected hull, its face lattice, the vertex
    correspondence, and per-row tightness masks of all projected vertices;
    individual face checks are then cheap set arithmetic plus one
    positive-span certificate, computed once per distinct input and kept
    for the checker's lifetime.
    """

    def __init__(
        self,
        ph: HPolytope,
        pv: VPolytope,
        keep: int = 4,
        keep_coords: Sequence[int] | None = None,
        p_lattice: FaceLattice | None = None,
    ):
        self.ph = ph
        self.pv = pv
        self.p_lattice = p_lattice
        d = pv.dim
        if keep_coords is None:
            if keep < 1 or keep > d:
                raise ValueError(f"cannot keep {keep} of {d} coordinates")
            keep_coords = tuple(range(d - keep, d))
        self.keep_coords = tuple(keep_coords)
        self.drop_coords = tuple(i for i in range(d) if i not in self.keep_coords)

        self.images: list[Point] = [tuple(vx[i] for i in self.keep_coords) for vx in pv.vertices]
        self.hull: HullResult = convex_hull(self.images)
        self.qh: HPolytope = self.hull.h
        self.qv: VPolytope = self.hull.v
        self.q_lattice: FaceLattice = face_lattice(self.qv)

        # P-vertex index -> Q-vertex index (None when the image is not
        # a vertex of Q).
        self.vertex_map: list[int | None] = [
            self.hull.point_vertex[self.hull.dedup_index[i]] for i in range(pv.nvertices)
        ]

        # Per Q-row bitmask of P-vertices whose image is tight on that row.
        qrows = [
            clear_denominators(tuple(row) + (-b,))
            for row, b in zip(self.qh.A.entries, self.qh.b)
        ]
        homogeneous = [clear_denominators(img + (QQ(1),)) for img in self.images]
        self.row_masks: list[int] = []
        for row in qrows:
            mask = 0
            for i, pt in enumerate(homogeneous):
                if sum(a * x for a, x in zip(row, pt)) == 0:
                    mask |= 1 << i
            self.row_masks.append(mask)
        self.all_p_mask = (1 << pv.nvertices) - 1
        # Certificate verdict per distinct set of deleted normal coordinates.
        self._spans: dict[frozenset[Point], bool] = {}

    def images_distinct(self) -> bool:
        return len(set(self.images)) == len(self.images)

    def vertex_bijection_ok(self) -> bool:
        """Every vertex image is a vertex of Q, distinctly, and Q has no
        other vertices."""
        return (
            self.images_distinct()
            and all(q is not None for q in self.vertex_map)
            and self.qv.nvertices == self.pv.nvertices
        )

    def check_face(
        self,
        face_vertices: Iterable[int],
        face_id: str = "face",
        factor: int | None = None,
    ) -> PreservationReport:
        face = sorted(set(face_vertices))
        face_mask = mask_of(face)
        if self.p_lattice is not None:
            if face_mask not in self.p_lattice:
                raise ValueError(f"{face_id}: vertex set is not a face of the source polytope")
            dim_g = self.p_lattice.dim_of(face_mask)
        else:
            dim_g = affine_rank([self.pv.vertices[i] for i in face])

        problems: list[str] = []
        unique_images = sorted(set(self.images[i] for i in face))

        # (ii) bijectivity: distinct images of equal affine dimension.
        injective = len(unique_images) == len(face)
        if not injective:
            problems.append("(ii) projection is not injective on the face's vertices")
        elif affine_rank(unique_images) != dim_g:
            problems.append("(ii) image has lower affine dimension than the face")
            injective = False

        # (i) the image is a face of Q.
        qbits: list[int] = []
        missing = False
        for img_idx in face:
            q = self.vertex_map[img_idx]
            if q is None:
                missing = True
            else:
                qbits.append(q)
        qmask = mask_of(qbits)
        if missing:
            is_face = False
            problems.append("(i) some vertex image is not a vertex of the projection")
        else:
            is_face = qmask in self.q_lattice
            if not is_face:
                problems.append("(i) image vertex set is not a face of the projection")

        # (iii) the preimage of the image is the face itself.
        preimage_ok = False
        if is_face:
            tight_rows: frozenset[int] | None = None
            for q in qbits:
                inc = self.qv.incidence[q]
                tight_rows = inc if tight_rows is None else tight_rows & inc
            preimage = self.all_p_mask
            for row in sorted(tight_rows or ()):
                preimage &= self.row_masks[row]
            preimage_ok = preimage == face_mask
            if not preimage_ok:
                extra = preimage & ~face_mask
                problems.append(
                    f"(iii) preimage of the image contains {extra.bit_count()} extra vertices"
                )
        elif not missing:
            problems.append("(iii) not evaluated: image is not a face")

        direct_ok = injective and is_face and preimage_ok

        # Sufficient certificate: deleted coordinates of the normals of all
        # facets containing the face must positively span.
        common: frozenset[int] | None = None
        for i in face:
            inc = self.pv.incidence[i]
            common = inc if common is None else common & inc
        vectors = [
            tuple(self.ph.A.row(j)[c] for c in self.drop_coords) for j in sorted(common or ())
        ]
        # Positive spanning depends only on the set of vectors, so each
        # distinct set runs one LP per checker.
        key = frozenset(vectors)
        certificate_ok = self._spans.get(key)
        if certificate_ok is None:
            cert = positively_spans(vectors, len(self.drop_coords))
            certificate_ok = self._spans[key] = cert.kind == "spanning"
        if not certificate_ok:
            problems.append("certificate: deleted normal coordinates do not positively span")

        return PreservationReport(face_id, factor, direct_ok, certificate_ok, "; ".join(problems))


# --- combinatorial faces of a certified product ------------------------------


@dataclass(frozen=True)
class ProductFace:
    face_id: str
    factor: int | None
    vertices: tuple[int, ...]


def enumerate_polygon_faces(labeling: Sequence[tuple[int, ...]], n: int, r: int) -> list[ProductFace]:
    """The r*n^(r-1) polygon faces: one factor varies, the rest are pinned."""
    index_of = {t: i for i, t in enumerate(labeling)}
    if len(index_of) != n**r:
        raise ValueError("labeling is not a bijection onto the product tuples")
    faces: list[ProductFace] = []
    for k in range(r):
        for fixed in iter_product(range(n), repeat=r - 1):
            verts = []
            for value in range(n):
                t = fixed[:k] + (value,) + fixed[k:]
                verts.append(index_of[t])
            coords = ["*" if j == k else str(fixed[j if j < k else j - 1]) for j in range(r)]
            face_id = f"polygon[k={k + 1}]t=" + ".".join(coords)
            faces.append(ProductFace(face_id, k + 1, tuple(sorted(verts))))
    return faces


def enumerate_edges(labeling: Sequence[tuple[int, ...]], n: int, r: int) -> list[ProductFace]:
    """The r*n^r edges: each vertex joined to its +1 neighbor per factor."""
    index_of = {t: i for i, t in enumerate(labeling)}
    if len(index_of) != n**r:
        raise ValueError("labeling is not a bijection onto the product tuples")
    edges: list[ProductFace] = []
    for t, i in sorted(index_of.items()):
        for k in range(r):
            neighbor = t[:k] + ((t[k] + 1) % n,) + t[k + 1 :]
            j = index_of[neighbor]
            face_id = f"edge[k={k + 1}]t=" + ".".join(str(c) for c in t)
            edges.append(ProductFace(face_id, k + 1, tuple(sorted((i, j)))))
    return edges


def vertex_faces(labeling: Sequence[tuple[int, ...]]) -> list[ProductFace]:
    return [
        ProductFace("vertex t=" + ".".join(str(c) for c in t), None, (i,))
        for i, t in enumerate(labeling)
    ]
