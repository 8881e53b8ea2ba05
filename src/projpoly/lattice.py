"""Face lattices from vertex-facet incidences, f-vectors and flag numbers.

Faces are vertex-index bitmasks.  The lattice is generated by closing the
facet vertex sets under intersection; each face's dimension is the affine
rank of its vertex coordinates (computed geometrically, not by lattice
height, so it stays meaningful for projected polytopes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .linalg import affine_rank_int, clear_denominators
from .polytope import VPolytope, _bits


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

    def iter_proper(self) -> Iterator[tuple[int, int]]:
        for mask, d in self.faces:
            if 0 <= d < self.dim:
                yield mask, d

    def f_vector(self) -> tuple[int, ...]:
        counts = [0] * self.dim
        for _, d in self.iter_proper():
            counts[d] += 1
        return tuple(counts)

    def euler_ok(self) -> bool:
        """Euler's relation: the alternating f-vector sum telescopes to
        1 - (-1)^d."""
        total = 0
        for i, f in enumerate(self.f_vector()):
            total += f if i % 2 == 0 else -f
        return total == 1 - (-1) ** self.dim


def face_lattice(v: VPolytope) -> FaceLattice:
    """Close the facet vertex sets under intersection and grade by dimension."""
    n = v.nvertices
    d = v.dim
    max_row = max((max(t) for t in v.incidence if t), default=-1)
    row_masks = [0] * (max_row + 1)
    for vert_idx, tight in enumerate(v.incidence):
        bit = 1 << vert_idx
        for row in tight:
            row_masks[row] |= bit

    seed_masks = sorted(set(row_masks), reverse=True)
    full = (1 << n) - 1
    found: set[int] = {full}
    frontier = [full]
    while frontier:
        fresh: list[int] = []
        for face in frontier:
            for seed in seed_masks:
                g = face & seed
                if g not in found:
                    found.add(g)
                    fresh.append(g)
        frontier = fresh
    found.add(0)

    hpoints = [clear_denominators((1,) + p) for p in v.vertices]
    face_dims = {mask: affine_rank_int([hpoints[i] for i in _bits(mask)]) for mask in found}
    if face_dims[full] != d:
        raise LatticeError("vertex set is not full-dimensional")
    return FaceLattice(d, n, face_dims)


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def flag_f03(lattice: FaceLattice) -> int:
    """Vertex-facet incidence count of a 4-polytope: sum of vertex counts
    over the facets."""
    if lattice.dim != 4:
        raise LatticeError(f"f03 needs a 4-polytope lattice, got dimension {lattice.dim}")
    return sum(mask.bit_count() for mask in lattice.faces_of_dim(3))


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
        return cls(f0, f1, f2, f3, flag_f03(lattice))
