"""Projection to the last four coordinates and strict-preservation checks.

A face survives a projection strictly when its image is a face of the
projected polytope, the restriction of the projection to the face is a
bijection, and the full preimage of the image is the face itself.  All
three conditions are checked directly at vertex level, and no rank is
computed: the face's dimension comes from its kind in the product, and
the image's dimension from the projection's face lattice.  ``Certificate``
evaluates the Projection Lemma's sufficient certificate independently.
``pipeline.verify_system`` decides which faces to check.

The projected polytope Q comes from ``localhull.local_hull``, whose module
docstring gives the method and its proof, or else from ``convex_hull``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product as iter_product
from operator import and_, mul, or_
from typing import Sequence

from .lattice import FaceLattice, face_lattice, mask_of
from .linalg import positively_spans
from .localhull import UncertifiedHull, local_hull
from .polytope import HPolytope, HullResult, Point, VPolytope, _bits, convex_hull


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


def _intern(values: Sequence[Point]) -> list[int]:
    """An integer id per value, in order of first appearance; equal values
    get equal ids."""
    ids: dict[Point, int] = {}
    return [ids.setdefault(value, len(ids)) for value in values]


def _projected_hull(
    images: list[Point], product: tuple[int, int] | None
) -> tuple[HullResult, FaceLattice]:
    """Q and its face lattice: from ``local_hull`` when ``product`` is given
    and certified, else from ``convex_hull`` and ``face_lattice``."""
    if product is not None:
        try:
            return local_hull(images, *product)
        except UncertifiedHull:
            pass
    hull = convex_hull(images)
    return hull, face_lattice(hull.v)


def _common_rows(incidence: Sequence[int], vertices: Sequence[int]) -> int:
    """The rows tight at every listed vertex, as a bitmask; 0 for none."""
    return reduce(and_, map(incidence.__getitem__, vertices)) if vertices else 0


class Certificate:
    """The Projection Lemma's certificate that a face of P survives: the
    deleted coordinates of the normals of all facets containing it, read
    from P's rows alone, positively span.  That depends on the set of
    vectors only, so each distinct set runs one LP, kept for its lifetime."""

    def __init__(self, ph: HPolytope):
        self.dim = ph.dim - 4
        # Each row's deleted normal coordinates, and their integer id as the
        # bit 1 << id, equal for equal vectors: a memo hit hashes no Fraction.
        self._drop_vectors: list[Point] = [tuple(row[: self.dim]) for row in ph.A.entries]
        self._drop_bits = [1 << i for i in _intern(self._drop_vectors)]
        # Verdict per distinct set of vectors, keyed by the bitmask of their ids.
        self._spans: dict[int, bool] = {}

    def spans(self, rows: int) -> bool:
        """Whether the deleted coordinates of the rows in bitmask ``rows`` positively span."""
        key = reduce(or_, map(self._drop_bits.__getitem__, _bits(rows)), 0)
        if key not in self._spans:
            vectors = [self._drop_vectors[j] for j in _bits(rows)]
            self._spans[key] = positively_spans(vectors, self.dim).kind == "spanning"
        return self._spans[key]


class ProjectionChecker:
    """Shared state for checking many faces of one projection.

    Computes the projected hull, which also reports the vertex
    correspondence and which projected vertices lie on each of its facets,
    and the hull's face lattice.  When ``product`` is (n, r) and ``pv``
    lists the vertices of a product of r n-gons in code order, both come
    from ``local_hull``, which reads the lattice from the facets it
    certified; without it, or when its certificate fails, the hull comes
    from ``convex_hull`` and the lattice from ``face_lattice``'s scan of
    the hull's incidences.  No rank is computed per face: the caller
    knows the face's dimension from its kind, and once the image is a face
    of the projection its dimension is read from that lattice.  The face
    checks are set arithmetic plus one call to ``certificate``.  A face's
    report depends on the face alone, whatever the order of the calls.
    """

    def __init__(self, ph: HPolytope, pv: VPolytope, product: tuple[int, int] | None = None):
        self.pv = pv
        self.images: list[Point] = project(pv)
        self.certificate = Certificate(ph)
        self.hull, self.q_lattice = _projected_hull(self.images, product)
        self.qv: VPolytope = self.hull.v
        # P-vertex index -> Q-vertex index (None when the image is not
        # a vertex of Q).
        self.vertex_map = self.hull.point_vertex
        self.all_p_mask = (1 << pv.nvertices) - 1
        # Vertex images as ids, equal for equal images, so no face hashes a Fraction.
        self._image_ids = _intern(self.images)

    def vertex_bijection_ok(self) -> bool:
        """Every vertex image is a vertex of Q, distinctly, and Q has no
        other vertices.  Every vertex of Q is an image, so when all images
        are vertices, Q has one vertex per distinct image."""
        return None not in self.vertex_map and self.qv.nvertices == self.pv.nvertices

    def check_face(self, face: ProductFace, dim: int) -> PreservationReport:
        """Check one face of the source polytope, of dimension ``dim``."""
        vertices = sorted(set(face.vertices))
        face_mask = mask_of(vertices)

        # (i) the image is a face of Q.
        qbits = [self.vertex_map[i] for i in vertices]
        missing = None in qbits
        qmask = 0 if missing else mask_of(qbits)
        is_face = not missing and qmask in self.q_lattice

        # (ii) bijectivity: distinct images spanning a face of equal
        # dimension.  When (i) holds the images are the vertices of the
        # face qmask, so its grade is their affine dimension.
        problems: list[str] = []
        injective = len({self._image_ids[i] for i in vertices}) == len(vertices)
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
            preimage = self.all_p_mask
            for row in _bits(_common_rows(self.qv.incidence, qbits)):
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

        certificate_ok = self.certificate.spans(_common_rows(self.pv.incidence, vertices))
        if not certificate_ok:
            problems.append("certificate: deleted normal coordinates do not positively span")

        return PreservationReport(
            face.face_id, face.factor, direct_ok, certificate_ok, "; ".join(problems)
        )


# --- combinatorial faces of a certified product ------------------------------


@dataclass(frozen=True)
class ProductFace:
    face_id: str | None
    factor: int | None
    vertices: tuple[int, ...]


def product_polygons(n: int, r: int) -> list[ProductFace]:
    """The polygon 2-faces of a product of r n-gons, each with its vertex
    codes in cycle order.

    A polygon is one polygon factor k taken with one vertex of every other
    factor: it runs through all n values of coordinate k, so each
    consecutive pair of its vertices, the last with the first, is an edge.
    """
    strides = [n**k for k in range(r)]
    faces: list[ProductFace] = []
    for k in range(r):
        for fixed in iter_product(range(n), repeat=r - 1):
            head, tail = fixed[:k], fixed[k:]
            base = sum(map(mul, head + (0,) + tail, strides))
            cycle = tuple(range(base, base + n * strides[k], strides[k]))
            coords = ".".join(map(str, head + ("*",) + tail))
            faces.append(ProductFace(f"polygon[k={k + 1}]t={coords}", k + 1, cycle))
    return faces
