"""Nested timing spans recorded from outside the package.

Entering a ``Tracer`` replaces each traced function at every module
attribute of ``projpoly`` that holds it (``polytope.convex_hull`` and
``projection.convex_hull`` are the same object, so both are wrapped), and
each traced method on its class.  Leaving it puts the originals back.  The package itself is not modified on disk and never sees a tracer
in an untimed run.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

# Public functions traced, by defining module.
TRACED_FUNCTIONS = {
    "construction": ("choose_parameters", "check_parameters"),
    "polytope": ("h_to_v", "convex_hull", "product_labeling"),
    "linalg": ("rank_int_rows", "positively_spans", "nonneg_solution"),
    "lattice": ("face_lattice",),
    "metrics": ("counting_identities",),
    "io": ("save_system", "load_system"),
    "pipeline": ("construct_system", "verify_system", "analyze_system"),
}
# Traced methods, by defining module and class; ``__init__`` is reported
# under the class name.
TRACED_METHODS = {
    "projection": {"ProjectionChecker": ("__init__", "check_face")},
}
# Spans whose return values (facet and face counts) or arguments (distinct
# positive-span inputs) the per-layer metrics read.
KEEP_RESULTS = ("polytope.convex_hull", "lattice.face_lattice")
KEEP_ARGS = ("linalg.positively_spans",)


@dataclass
class Totals:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Records one span per call of a traced function, with its parent.

    Span ``i`` is ``names[i]``, ``parents[i]`` (an index, or -1 at top
    level), ``starts[i]`` and ``ends[i]``; ``child_s[i]`` is the summed
    duration of its direct children.  Parallel lists of numbers keep the
    cyclic garbage collector from walking one object per span.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.child_s: list[float] = []
        self.results: dict[str, list] = {name: [] for name in KEEP_RESULTS}
        self.arguments: dict[str, list] = {name: [] for name in KEEP_ARGS}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, func):
        names, parents, starts, ends, child_s = (
            self.names, self.parents, self.starts, self.ends, self.child_s)
        stack = self._stack
        results = self.results.get(name)
        arguments = self.arguments.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(names)
            names.append(name)
            parents.append(parent)
            ends.append(0.0)
            child_s.append(0.0)
            stack.append(index)
            starts.append(time.perf_counter())
            try:
                out = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                ends[index] = end
                stack.pop()
                if parent >= 0:
                    child_s[parent] += end - starts[index]
            if results is not None:
                results.append(out)
            if arguments is not None:
                arguments.append(args)
            return out

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "projpoly" or key.startswith("projpoly."))]
        for mod_name, names in TRACED_FUNCTIONS.items():
            home = sys.modules.get(f"projpoly.{mod_name}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{mod_name}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        for mod_name, classes in TRACED_METHODS.items():
            home = sys.modules.get(f"projpoly.{mod_name}")
            for cls_name, methods in classes.items():
                cls = getattr(home, cls_name, None)
                for meth in methods:
                    original = cls.__dict__.get(meth) if cls is not None else None
                    if original is None:
                        continue
                    label = cls_name if meth == "__init__" else meth
                    self._restore.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(f"{mod_name}.{label}", original))
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, Totals]:
        """Calls, inclusive time and self time per span name.

        Inclusive time counts only the outermost span of a name, so a
        function nested inside itself is not counted twice.
        """
        out: dict[str, Totals] = {}
        for i, name in enumerate(self.names):
            tot = out.setdefault(name, Totals())
            tot.calls += 1
            duration = self.ends[i] - self.starts[i]
            tot.self_s += duration - self.child_s[i]
            if not self._has_ancestor_named(i):
                tot.s += duration
        return out

    def _has_ancestor_named(self, index: int) -> bool:
        parent = self.parents[index]
        while parent >= 0:
            if self.names[parent] == self.names[index]:
                return True
            parent = self.parents[parent]
        return False
