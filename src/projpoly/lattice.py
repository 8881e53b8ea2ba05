"""Face lattices from vertex-facet incidences, f-vectors and flag numbers.

Faces are vertex-index bitmasks.  The lattice and its grading are fixed by
the incidences alone (Kaibel-Pfetsch 2002), so no coordinate is read: the
facets of a face F are the inclusion-maximal sets among F & s over the
facet vertex sets s, and walking down from the polytope one level at a
time gives every face its dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

from .polytope import VPolytope


class LatticeError(Exception):
    pass


class FaceLattice:
    """All faces of a polytope, including the empty face (dim -1) and the
    full polytope (dim d), keyed by vertex-index bitmask."""

    def __init__(self, dim: int, n_vertices: int, face_dims: dict[int, int]):
        self.dim = dim
        self.n_vertices = n_vertices
        self._dims = dict(face_dims)
        self.faces: tuple[tuple[int, int], ...] = tuple(
            sorted(self._dims.items(), key=lambda item: (item[1], item[0]))
        )

    def __contains__(self, mask: int) -> bool:
        return mask in self._dims

    def __len__(self) -> int:
        return len(self._dims)

    def dim_of(self, mask: int) -> int:
        return self._dims[mask]

    def faces_of_dim(self, k: int) -> list[int]:
        return [mask for mask, d in self.faces if d == k]

    def f_vector(self) -> tuple[int, ...]:
        counts = [0] * self.dim
        for _, d in self.faces:
            if 0 <= d < self.dim:
                counts[d] += 1
        return tuple(counts)


def face_lattice(v: VPolytope) -> FaceLattice:
    """Grade the faces level by level, top down, from the incidences.

    Redundant tight rows only add candidates that are not maximal, so they
    change nothing.
    """
    n = v.nvertices
    d = v.dim
    max_row = max((max(t) for t in v.incidence if t), default=-1)
    row_masks = [0] * (max_row + 1)
    for vert_idx, tight in enumerate(v.incidence):
        bit = 1 << vert_idx
        for row in tight:
            row_masks[row] |= bit

    full = (1 << n) - 1
    face_dims = {full: d}
    # Each face carries the facet sets that meet it properly: only these
    # cut out a nonempty facet of it or of any face below it.  A vertex
    # meets none, and its one facet is the empty face.
    level = [(full, list(set(row_masks) - {full}))]
    for k in range(d - 1, -2, -1):
        below: list[tuple[int, list[int]]] = []
        for face, pool in level:
            candidates = sorted({face & s for s in pool} or [0], key=int.bit_count, reverse=True)
            facets: list[int] = []
            for g in candidates:
                for f in facets:
                    if g & f == g:
                        break
                else:
                    facets.append(g)
                    if g not in face_dims:
                        face_dims[g] = k
                        below.append((g, [s for s in pool if s & g not in (0, g)] if k else []))
        level = below
    if face_dims.get(0) != -1:
        raise LatticeError("vertex set is not full-dimensional")
    return FaceLattice(d, n, face_dims)


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


@dataclass(frozen=True)
class FlagVector4:
    """(f0, f1, f2, f3; f03) of a 4-polytope."""

    f0: int
    f1: int
    f2: int
    f3: int
    f03: int

    @property
    def euler_ok(self) -> bool:
        return self.f0 - self.f1 + self.f2 - self.f3 == 0

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.f0, self.f1, self.f2, self.f3, self.f03)

    @classmethod
    def from_lattice(cls, lattice: FaceLattice) -> "FlagVector4":
        if lattice.dim != 4:
            raise LatticeError("flag vector needs a 4-polytope lattice")
        f0, f1, f2, f3 = lattice.f_vector()
        # f03 counts vertex-facet incidences: the facets' vertex counts.
        f03 = sum(mask.bit_count() for mask in lattice.faces_of_dim(3))
        return cls(f0, f1, f2, f3, f03)
