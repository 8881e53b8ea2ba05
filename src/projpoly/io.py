"""Deterministic JSON and cdd-style text serialization.

All scalars travel as canonical rational strings ("p/q", lowest terms,
"/1" omitted), so files round-trip bit-exactly.  The text format is the
classic inequality layout: ``b -a_1 ... -a_d`` rows between ``begin`` and
``end`` under an ``H-representation`` header.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from pathlib import Path

from .linalg import QMatrix
from .polytope import HPolytope, VPolytope, h_to_v, product_labeling, product_vertices
from .projection import ProjectionChecker
from .rational import format_rational, parse_rational

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class AdaptationAttempt:
    """One rejected round of the parameter search, as the file records it."""

    eps: Fraction
    big_m: Fraction
    reason: str


@dataclass(frozen=True)
class SystemFile:
    """An inequality system plus the construction metadata that produced it.

    Its geometry is computed once, on first use, and kept on the instance:
    ``certified``, ``vertices``, ``product``, then ``checker``.  A step
    that raises is not kept, so asking again raises again.  ``vertices``
    and ``product`` are ``certified`` when it holds.  Otherwise the
    vertices come from the double description method, and ``product`` is
    them sorted into code order by ``product_labeling``.  The construction
    gates run on the system they return, so a system that passed them
    already holds its certified vertices.
    """

    h: HPolytope
    n: int | None = None
    r: int | None = None
    eps: Fraction | None = None
    big_m: Fraction | None = None
    validated: bool | None = None
    adaptation: tuple[AdaptationAttempt, ...] = field(default_factory=tuple)

    def require_nr(self) -> tuple[int, int]:
        """(n, r) as the row labels describe them; stored metadata and the
        dimension must agree."""
        if not self.h.labels:
            raise ValueError("system has no row labels")
        blocks: dict[int, int] = {}
        for k, _ in self.h.labels:
            blocks[k] = blocks.get(k, 0) + 1
        r = max(blocks)
        sizes = set(blocks.values())
        if sorted(blocks) != list(range(1, r + 1)) or len(sizes) != 1:
            raise ValueError("row labels do not form uniform blocks")
        n = sizes.pop()
        if n < 3 or r < 2:
            raise ValueError(f"labels describe n={n}, r={r}; not a polygon-product system")
        if self.n not in (None, n) or self.r not in (None, r):
            raise ValueError(f"n={self.n}, r={self.r} contradicts the row labels (n={n}, r={r})")
        if self.h.dim != 2 * r:
            raise ValueError(f"dimension {self.h.dim} does not match r={r}")
        return n, r

    @cached_property
    def certified(self) -> VPolytope | None:
        """The vertices in code order, solved from the block-triangular
        system by ``product_vertices``; None when its certificate fails, or
        the labels describe no polygon product."""
        try:
            n, r = self.require_nr()
        except ValueError:
            return None
        return product_vertices(self.h, n, r)

    @cached_property
    def vertices(self) -> VPolytope:
        """The certified vertices, else vertex enumeration of the system
        (raises ``PolytopeError``)."""
        return self.certified or h_to_v(self.h)

    @cached_property
    def product(self) -> VPolytope | None:
        """The vertices in code order: vertex c is the one with code c =
        sum(t_k * n^(k-1)).  None when they are not a product of r n-gons."""
        return self.certified or product_labeling(self.vertices, self.h.labels, *self.require_nr())

    @cached_property
    def checker(self) -> ProjectionChecker:
        """The projection to the last four coordinates: its hull and face
        lattice (raises ``PolytopeError``).  The hull is read from the
        product's 3-faces when ``product`` exists and the local certificate
        holds, and computed by the double description method otherwise."""
        if self.product is None:
            return ProjectionChecker(self.h, self.vertices)
        return ProjectionChecker(self.h, self.product, self.require_nr())


def system_to_dict(system: SystemFile) -> dict:
    h = system.h
    out: dict = {
        "schema": SCHEMA_VERSION,
        "dim": h.dim,
        "rows": [[format_rational(x) for x in row] for row in h.A.entries],
        "rhs": [format_rational(x) for x in h.b],
    }
    if h.labels is not None:
        out["labels"] = [list(lab) for lab in h.labels]
    if system.n is not None:
        out["n"] = system.n
    if system.r is not None:
        out["r"] = system.r
    if system.eps is not None:
        out["eps"] = format_rational(system.eps)
    if system.big_m is not None:
        out["big_m"] = format_rational(system.big_m)
    if system.validated is not None:
        out["validated"] = system.validated
    if system.adaptation:
        out["adaptation"] = [
            {"eps": format_rational(a.eps), "big_m": format_rational(a.big_m), "reason": a.reason}
            for a in system.adaptation
        ]
    return out


def _required(data: dict, key: str, kind: type):
    value = data[key]
    if type(value) is not kind:
        raise ValueError(f"{key!r} must be {kind.__name__}, got {value!r}")
    return value


def _optional(data: dict, key: str, kind: type):
    return None if data.get(key) is None else _required(data, key, kind)


def system_from_dict(data: dict) -> SystemFile:
    """Parse a system; raises ``ValueError`` on anything malformed."""
    if not isinstance(data, dict):
        raise ValueError("a system file must hold a JSON object")
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema {data.get('schema')!r}, expected {SCHEMA_VERSION}")
    try:
        rows = tuple(tuple(parse_rational(x) for x in row) for row in data["rows"])
        rhs = tuple(parse_rational(x) for x in data["rhs"])
        labels = None
        if "labels" in data:
            labels = data["labels"]
            if type(labels) is not list or not all(
                type(label) is list and [type(x) for x in label] == [int, int] for label in labels
            ):
                raise ValueError("row labels must be pairs of ints")
            labels = tuple(map(tuple, labels))
        h = HPolytope(QMatrix(rows), rhs, labels)
        if h.dim != _required(data, "dim", int):
            raise ValueError("declared dimension does not match the rows")
        adaptation = tuple(
            AdaptationAttempt(
                parse_rational(a["eps"]), parse_rational(a["big_m"]), _required(a, "reason", str)
            )
            for a in data.get("adaptation", ())
        )
        return SystemFile(
            h,
            n=_optional(data, "n", int),
            r=_optional(data, "r", int),
            eps=parse_rational(data["eps"]) if "eps" in data else None,
            big_m=parse_rational(data["big_m"]) if "big_m" in data else None,
            validated=_optional(data, "validated", bool),
            adaptation=adaptation,
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed system file: {exc!r}") from None


def dumps_json(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def save_system(path: str | Path, system: SystemFile) -> None:
    Path(path).write_text(dumps_json(system_to_dict(system)))


def load_system(path: str | Path) -> SystemFile:
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    return system_from_dict(data)


# --- cdd-style inequality text -----------------------------------------------


def to_ine_text(h: HPolytope) -> str:
    """H-representation text: each row is ``b -a_1 ... -a_d``."""
    lines = ["H-representation", "begin", f" {h.nrows} {h.dim + 1} rational"]
    for row, b in zip(h.A.entries, h.b):
        tokens = [format_rational(b)] + [format_rational(-x) for x in row]
        lines.append(" " + " ".join(tokens))
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_ine_text(text: str) -> HPolytope:
    lines = [line.strip() for line in text.splitlines()]
    lines = [line for line in lines if line and not line.startswith("*")]
    try:
        start = lines.index("H-representation")
    except ValueError:
        raise ValueError("missing H-representation header") from None
    if start + 1 >= len(lines) or lines[start + 1] != "begin":
        raise ValueError("missing begin line")
    if start + 2 >= len(lines):
        raise ValueError("missing size line")
    counts = lines[start + 2].split()
    # Counts in ASCII digits only, as rational tokens are.
    if len(counts) != 3 or counts[2] != "rational" or not all(
        c.isascii() and c.isdigit() for c in counts[:2]
    ):
        raise ValueError(f"malformed size line: {lines[start + 2]!r}")
    m, cols = int(counts[0]), int(counts[1])
    if cols < 1:
        raise ValueError(f"malformed size line: {lines[start + 2]!r}")
    if len(lines) < start + 4 + m:
        raise ValueError("truncated file")
    rows = []
    rhs = []
    for line in lines[start + 3 : start + 3 + m]:
        tokens = line.split()
        if len(tokens) != cols:
            raise ValueError(f"row has {len(tokens)} tokens, expected {cols}")
        rhs.append(parse_rational(tokens[0]))
        rows.append(tuple(-parse_rational(t) for t in tokens[1:]))
    if lines[start + 3 + m] != "end":
        raise ValueError("missing end line")
    return HPolytope(QMatrix(tuple(rows)), tuple(rhs))


def load_ine(path: str | Path) -> HPolytope:
    return parse_ine_text(Path(path).read_text())
