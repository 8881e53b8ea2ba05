"""Projection to the last four coordinates and strict-preservation checks.

A face survives a projection strictly when its image is a face of the
projected polytope, the restriction of the projection to the face is a
bijection, and the full preimage of the image is the face itself.  All
three conditions are checked directly at vertex level, and no rank is
computed: the face's dimension comes from its kind in the product
labeling, and the image's dimension from the projection's face lattice.
Independently, the sufficient linear-algebra certificate is evaluated: the
coordinates that the projection deletes, taken from the normals of all
facets containing the face, must positively span.

The projected polytope Q is read from the product's 3-faces when a
product labeling is known (``localhull.local_hull``).  If the projection
keeps every vertex, edge and polygon of the product, Q's facets are
images of 3-faces: prisms (polygon x edge) and cubes (edge x edge x
edge).  Each 3-face G is a candidate.  Its plane is the integer cofactor
normal of three edge vectors at one vertex; every vertex of G must lie on
it and the barycenter of the images strictly inside it.  For each 2-face F of G and
each other 3-face through F, one vertex of that 3-face off F must also lie
strictly inside.  Candidates that pass are kept.  The selection is only a
heuristic, and the kept set K is then certified (Mehlhorn et al.,
"Checking geometric programs or verification of geometric structures",
1999):

(a) the images are pairwise distinct;
(b) every 2-face of a kept facet lies in exactly two kept facets;
(c) across each such 2-face F, every vertex of either facet off F is
    strictly inside the other facet's plane;
(d) every image lies on a kept facet, and K is connected through 2-faces;
(e) the ray from the barycenter through the centroid of one kept facet
    crosses exactly one kept facet, and meets no 2-face.

Why this proves that K is the set of Q's facets.  By (c), the plane across
each 2-face F of a kept G meets conv(G) exactly in conv(F); so each image
of F spans a face of conv(G), each vertex of G (the one vertex common to
three of its 2-faces) has an image that is a vertex of conv(G), and the
2-faces, which cover the sphere boundary of G, are all the facets of
conv(G).  So conv(G) is combinatorially G, and it is the part of its plane
inside the planes across its 2-faces.  By (b) and (d) these pieces form
a closed connected surface, locally convex at every ridge by (c), with
the barycenter strictly inside every facet plane; with (e), such a
surface bounds a convex body B (van Heijenoort, "On locally convex
manifolds", 1952; the ray is the check of Mehlhorn et al.).  Every
vertex of B is a vertex of a piece, hence an image, and every image lies
on B by (d), so B = Q.  Strict convexity across each ridge gives each
kept facet a plane of its own, so Q's facets are exactly the pieces, each
with exactly its 3-face's images, and every image is a vertex of Q.  When
a clause fails, ``ProjectionChecker`` computes Q with ``convex_hull``
instead, and both routes give the same ``HullResult`` up to the order of
the facets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Iterable, Sequence

from .lattice import FaceLattice, face_lattice, mask_of
from .linalg import PositiveCertificate, QMatrix, positively_spans, rank_rows
from .localhull import UncertifiedHull, local_hull
from .polytope import HPolytope, HullResult, VPolytope, convex_hull
from .rational import QQ

Point = tuple[Fraction, ...]

# Generator vectors of the coupling blocks.  Up to the choice of basis
# (v0, u0), these five directions are forced by the zero-sum identity.
V0 = (QQ(1), QQ(0))
V1 = (QQ(0), QQ(0))
U0 = (QQ(0), QQ(1))
U1 = (QQ(-3), QQ(-2, 3))
W0 = (QQ(-31, 4), QQ(1, 2))
W1 = (QQ(9), QQ(-2, 3))
ZERO2 = (QQ(0), QQ(0))


class CertificateError(Exception):
    pass


# The coefficients of the block-system positive dependences: both are
# nonnegative for every integer k and vanish exactly at k = 0.
def alpha_coeff(k: int) -> Fraction:
    return QQ(2) ** k + QQ(2) ** (-k) - 2


def beta_coeff(k: int) -> Fraction:
    return QQ(2) ** k + QQ(5, 4) * QQ(2) ** (-k) - QQ(9, 4)


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


def project(v: VPolytope) -> list[Point]:
    """Images of all vertices under projection to the last four
    coordinates, in vertex order (duplicates retained)."""
    if v.dim < 4:
        raise ValueError(f"cannot keep 4 of {v.dim} coordinates")
    return [vx[v.dim - 4 :] for vx in v.vertices]


@dataclass(frozen=True)
class PreservationReport:
    face_id: str | None
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


def _intern(values: Sequence[Point]) -> list[int]:
    """An integer id per value, in order of first appearance; equal values
    get equal ids."""
    ids: dict[Point, int] = {}
    return [ids.setdefault(value, len(ids)) for value in values]


class ProjectionChecker:
    """Shared state for checking many faces of one projection.

    Computes the projected hull, which also reports the vertex
    correspondence and which projected vertices lie on each of its facets,
    and the hull's face lattice.  With the source's product ``labeling``
    the hull comes from ``local_hull``; without one, or when its
    certificate fails, from ``convex_hull``.  No rank is computed per
    face: the caller knows the face's dimension from its kind, and once the
    image is a face of the projection its dimension is read from that
    lattice.  The face checks are set arithmetic plus one positive-span
    certificate, computed once per distinct input and kept for the
    checker's lifetime.
    """

    def __init__(
        self, ph: HPolytope, pv: VPolytope, labeling: Sequence[tuple[int, ...]] | None = None
    ):
        self.pv = pv
        self.images: list[Point] = project(pv)
        self.drop_coords = range(pv.dim - 4)
        try:
            self.hull: HullResult = local_hull(self.images, labeling)
        except UncertifiedHull:
            self.hull = convex_hull(self.images)
        self.qv: VPolytope = self.hull.v
        self.q_lattice: FaceLattice = face_lattice(self.qv)
        # P-vertex index -> Q-vertex index (None when the image is not
        # a vertex of Q).
        self.vertex_map = self.hull.point_vertex
        self.all_p_mask = (1 << pv.nvertices) - 1
        # Each facet row's deleted normal coordinates and each vertex image
        # as an integer id, equal ids for equal vectors, so that the per-face
        # work hashes no Fraction.
        self._drop_vectors: list[Point] = [
            tuple(row[c] for c in self.drop_coords) for row in ph.A.entries
        ]
        self._drop_ids = _intern(self._drop_vectors)
        self._image_ids = _intern(self.images)
        # Certificate verdict per distinct set of deleted normal coordinates,
        # keyed by their ids.
        self._spans: dict[frozenset[int], bool] = {}

    def vertex_bijection_ok(self) -> bool:
        """Every vertex image is a vertex of Q, distinctly, and Q has no
        other vertices.  Every vertex of Q is an image, so when all images
        are vertices, Q has one vertex per distinct image."""
        return None not in self.vertex_map and self.qv.nvertices == self.pv.nvertices

    def check_face(
        self,
        face_vertices: Iterable[int],
        dim: int,
        face_id: str | None = "face",
        factor: int | None = None,
    ) -> PreservationReport:
        """Check one face of the source polytope, of dimension ``dim``."""
        face = sorted(set(face_vertices))
        face_mask = mask_of(face)

        # (i) the image is a face of Q.
        qbits = [self.vertex_map[i] for i in face]
        missing = None in qbits
        qmask = 0 if missing else mask_of(qbits)
        is_face = not missing and qmask in self.q_lattice

        # (ii) bijectivity: distinct images spanning a face of equal
        # dimension.  When (i) holds the images are the vertices of the
        # face qmask, so its grade is their affine dimension.
        problems: list[str] = []
        injective = len({self._image_ids[i] for i in face}) == len(face)
        if not injective:
            problems.append("(ii) projection is not injective on the face's vertices")
        elif is_face and self.q_lattice.dim_of(qmask) != dim:
            problems.append("(ii) image has lower affine dimension than the face")
            injective = False

        if missing:
            problems.append("(i) some vertex image is not a vertex of the projection")
        elif not is_face:
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
                preimage &= self.hull.facet_points[row]
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
        rows = common or frozenset()
        # Positive spanning depends only on the set of vectors, so each
        # distinct set runs one LP per checker.
        key = frozenset(map(self._drop_ids.__getitem__, rows))
        certificate_ok = self._spans.get(key)
        if certificate_ok is None:
            vectors = [self._drop_vectors[j] for j in sorted(rows)]
            cert = positively_spans(vectors, len(self.drop_coords))
            certificate_ok = self._spans[key] = cert.kind == "spanning"
        if not certificate_ok:
            problems.append("certificate: deleted normal coordinates do not positively span")

        return PreservationReport(face_id, factor, direct_ok, certificate_ok, "; ".join(problems))


# --- combinatorial faces of a certified product ------------------------------


@dataclass(frozen=True)
class ProductFace:
    face_id: str | None
    factor: int | None
    vertices: tuple[int, ...]


def product_faces(labeling: Sequence[tuple[int, ...]], n: int, r: int, dim: int) -> list[ProductFace]:
    """The product's faces of dimension ``dim``: 0, 1 or 2.

    Each is one face of one polygon factor k, taken with one vertex of
    every other factor: a vertex is one tuple, an edge joins a tuple to its
    +1 neighbor in factor k, and a polygon runs through all n values of
    coordinate k.  Only polygons get a ``face_id``, since only their
    reports reach an output.
    """
    index_of = {t: i for i, t in enumerate(labeling)}
    if len(index_of) != n**r:
        raise ValueError("labeling is not a bijection onto the product tuples")
    if dim == 0:
        return [ProductFace(None, None, (i,)) for i in range(len(labeling))]
    faces: list[ProductFace] = []
    for k in range(r):
        for fixed in iter_product(range(n), repeat=r - 1):
            head, tail = fixed[:k], fixed[k:]
            cycle = [index_of[head + (value,) + tail] for value in range(n)]
            if dim == 1:
                faces += [
                    ProductFace(None, k + 1, tuple(sorted((i, cycle[(v + 1) % n]))))
                    for v, i in enumerate(cycle)
                ]
            else:
                coords = ".".join(map(str, head + ("*",) + tail))
                faces.append(ProductFace(f"polygon[k={k + 1}]t={coords}", k + 1, tuple(sorted(cycle))))
    return faces
