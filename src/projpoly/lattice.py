"""Face lattices from vertex-facet incidences, f-vectors and flag numbers.

Faces are vertex-index bitmasks.  The lattice, its grading and its cover
relation are fixed by the incidences alone (Kaibel-Pfetsch, "Computing the
face lattice of a polytope from its vertex-facet incidences", 2002), so no
coordinate is read.  The facets of a face F are the inclusion-maximal sets
among F & s over the facet vertex sets s, and walking down from the
polytope one level at a time gives every face its dimension.  Each face
keeps the facets its scan found, so a face's facets are read, not searched
for (``FaceLattice.covers``).

The polytope's own facets come from a closure test instead of that scan:
with T(v) the set of distinct row vertex sets through vertex v, a row set s
is a facet iff the intersection of T(v) over the vertices v of s is {s}
alone, that is, iff no other row set contains s.  The union of those T(v)
minus their intersection is the pool that s passes down: the row sets that
meet s without containing it.  This costs one pass over the incidences
instead of a comparison of every facet with every other.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from .polytope import VPolytope, _bits


class LatticeError(Exception):
    pass


class FaceLattice:
    """All faces of a polytope, including the empty face (dim -1) and the
    full polytope (dim d), keyed by vertex-index bitmask, with the cover
    relation: the facets of each face."""

    def __init__(self, dim: int, ids: dict[int, int], dims: array, cover_ids: array,
                 cover_bounds: array):
        # Face i is the i-th key of ``ids``, which maps it to i.  dims[i] is
        # its dimension and cover_ids[cover_bounds[i]:cover_bounds[i + 1]]
        # are the ids of its facets.
        self.dim = dim
        self._ids = ids
        self._masks = list(ids)
        self._dims = dims
        self._cover_ids = cover_ids
        self._cover_bounds = cover_bounds

    def __contains__(self, mask: int) -> bool:
        return mask in self._ids

    def __len__(self) -> int:
        return len(self._ids)

    def dim_of(self, mask: int) -> int:
        return self._dims[self._ids[mask]]

    def covers(self, mask: int) -> list[int]:
        """The facets of a face: the faces one dimension lower inside it."""
        i = self._ids[mask]
        masks = self._masks
        return [masks[j] for j in self._cover_ids[self._cover_bounds[i]:self._cover_bounds[i + 1]]]

    def faces_of_dim(self, k: int) -> list[int]:
        """The faces of dimension k, in increasing mask order."""
        return sorted(mask for mask, d in zip(self._masks, self._dims) if d == k)

    def f_vector(self) -> tuple[int, ...]:
        return tuple(map(self._dims.count, range(self.dim)))


def _facets_of_polytope(v: VPolytope) -> list[tuple[int, list[int]]]:
    """The polytope's facets by the closure test, each with its pool: the
    distinct row vertex sets that meet it without containing it.

    Rows tight at no vertex or at every vertex are not candidates.  With no
    candidate left the empty face is the one facet, as in the level scan.
    """
    full = (1 << v.nvertices) - 1
    # The largest mask has the highest tight row as its top bit.
    row_masks = [0] * max(v.incidence, default=0).bit_length()
    for vert_idx, tight in enumerate(v.incidence):
        bit = 1 << vert_idx
        for row in _bits(tight):
            row_masks[row] |= bit
    set_ids: dict[int, int] = {}
    for s in row_masks:
        if s and s != full:
            set_ids.setdefault(s, len(set_ids))
    sets = list(set_ids)
    # through[u] has bit j set iff sets[j] holds vertex u.
    through = [0] * v.nvertices
    for j, s in enumerate(sets):
        for u in _bits(s):
            through[u] |= 1 << j
    facets = []
    for j, s in enumerate(sets):
        within, meet = -1, 0
        for u in _bits(s):
            t = through[u]
            within &= t
            meet |= t
        if within == 1 << j:
            facets.append((s, [sets[i] for i in _bits(meet ^ within)]))
    return facets or [(0, [])]


def face_lattice(v: VPolytope) -> FaceLattice:
    """Grade the faces level by level, top down, from the incidences, and
    keep each face's facets.

    Redundant tight rows only add candidates that are not maximal, so they
    change nothing.
    """
    d = v.dim
    ids = {(1 << v.nvertices) - 1: 0}
    dims = array("i", [d])
    # Faces are numbered as they are found and scanned in that order, so
    # each scanned face's facet ids are appended in order.  Flat arrays hold
    # the dimensions, the facet ids and where each face's ids start: the
    # covers keep no list per face and no second copy of a mask.  Each face
    # carries the facet sets that meet it properly: only these cut out a
    # nonempty facet of it or of any face below it.  A vertex meets none,
    # and its one facet is the empty face.
    cover_ids = array("I")
    level: list[tuple[int, list[int]]] = []
    for g, pool in _facets_of_polytope(v):
        cover_ids.append(len(dims))
        ids[g] = len(dims)
        dims.append(d - 1)
        level.append((g, pool if d > 1 else []))
    cover_bounds = array("I", [0, len(cover_ids)])
    for k in range(d - 2, -2, -1):
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
                    g_id = ids.get(g)
                    if g_id is None:
                        g_id = ids[g] = len(dims)
                        dims.append(k)
                        below.append((g, [s for s in pool if 0 != s & g != g] if k else []))
                    cover_ids.append(g_id)
            cover_bounds.append(len(cover_ids))
        level = below
    if 0 not in ids or dims[ids[0]] != -1:
        raise LatticeError("vertex set is not full-dimensional")
    # The empty face, found last, is the one face never scanned.
    cover_bounds.append(len(cover_ids))
    return FaceLattice(d, ids, dims, cover_ids, cover_bounds)


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
