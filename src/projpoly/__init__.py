"""Exact polyhedral computation for projected products of polygons.

Everything runs in exact rational arithmetic: construction of (deformed)
polygon-product inequality systems, double-description conversions between
inequality and vertex form, face lattices with f- and flag vectors, strict
face-preservation checks under projection to four coordinates, and the
fatness/complexity metrics of the resulting 4-polytopes.

Callers import from the modules (``projpoly.pipeline``,
``projpoly.construction``, ...); the package namespace holds only
``__version__``.
"""

__version__ = "0.1.0"
