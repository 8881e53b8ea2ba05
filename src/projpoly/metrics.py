"""Flag-vector metrics of 4-polytopes: fatness, complexity, cone membership.

The projective coordinates, fatness, complexity, and the predicted flag
vector of the projected products are implemented in their Euler-consistent
forms:

* phi0 and phi3 share the denominator f1 + f2 - 20,
* fatness is (f1 + f2 - 20)/(f0 + f3 - 10) = 1/(phi0 + phi3),
* complexity is (f03 - 20)/(f0 + f3 - 10), which equals the toric form
  g2/(g1 + g1*) + 3 identically and makes the factor-two bounds against
  fatness exact,
* the predicted f2 carries the coefficient -(3/2) n^r forced by Euler's
  relation.

``*_paper_literal`` variants evaluate the commonly printed (Euler-violating)
index transpositions so diagnostics can show the exact discrepancy; they are
never used for verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Collection

from .construction import require_even_ngon, require_r
from .lattice import FaceLattice, FlagVector4
from .rational import QQ, format_rational, rational_to_decimal


class MetricsError(Exception):
    pass


class CountingError(Exception):
    pass


def _denominator(flag: FlagVector4) -> int:
    den = flag.f0 + flag.f3 - 10
    if den == 0:
        raise MetricsError("apex of cone")
    return den


@dataclass(frozen=True)
class Phi:
    """Projective flag coordinates with the shared denominator f1+f2-20."""

    phi0: Fraction
    phi3: Fraction


def phi_coords(flag: FlagVector4) -> Phi:
    den = flag.f1 + flag.f2 - 20
    if den == 0:
        raise MetricsError("apex of cone")
    return Phi(QQ(flag.f0 - 5, den), QQ(flag.f3 - 5, den))


def fatness(flag: FlagVector4) -> Fraction:
    """(f1 + f2 - 20)/(f0 + f3 - 10), the reciprocal of phi0 + phi3."""
    return QQ(flag.f1 + flag.f2 - 20, _denominator(flag))


def fatness_paper_literal(flag: FlagVector4) -> Fraction:
    """The transposed-index variant (f1+f3-20)/(f0+f2-10); diagnostic only."""
    den = flag.f0 + flag.f2 - 10
    if den == 0:
        raise MetricsError("apex of cone")
    return QQ(flag.f1 + flag.f3 - 20, den)


@dataclass(frozen=True)
class GVector:
    """Toric g-entries g1, g1 of the dual, and g2."""

    g1: int
    g1_dual: int
    g2: int


def gvector(flag: FlagVector4) -> GVector:
    return GVector(
        flag.f0 - 5,
        flag.f3 - 5,
        flag.f03 - 3 * flag.f0 - 3 * flag.f3 + 10,
    )


def complexity(flag: FlagVector4) -> Fraction:
    """(f03 - 20)/(f0 + f3 - 10); asserts agreement with the g-based form."""
    den = _denominator(flag)
    value = QQ(flag.f03 - 20, den)
    g = gvector(flag)
    g_form = QQ(g.g2, g.g1 + g.g1_dual) + 3
    if value != g_form:
        raise MetricsError("complexity forms disagree (inconsistent flag vector)")
    return value


def complexity_paper_literal(flag: FlagVector4) -> Fraction:
    """f03/(f0 + f3 - 10) without the -20; diagnostic only.

    Differs from the g-based form by exactly 20/(f0 + f3 - 10).
    """
    return QQ(flag.f03, _denominator(flag))


@dataclass(frozen=True)
class ConeReport:
    """The five linear conditions on (phi0, phi3) known to hold for
    4-polytopes."""

    phi0_nonneg: bool
    phi3_nonneg: bool
    simplicial_bound: bool  # phi0 + 3*phi3 <= 1
    simple_bound: bool  # 3*phi0 + phi3 <= 1
    g2_bound: bool  # phi0 + phi3 <= 2/5

    @property
    def all_hold(self) -> bool:
        return (
            self.phi0_nonneg
            and self.phi3_nonneg
            and self.simplicial_bound
            and self.simple_bound
            and self.g2_bound
        )

    def as_dict(self) -> dict[str, bool]:
        return {
            "phi0 >= 0": self.phi0_nonneg,
            "phi3 >= 0": self.phi3_nonneg,
            "phi0 + 3*phi3 <= 1": self.simplicial_bound,
            "3*phi0 + phi3 <= 1": self.simple_bound,
            "phi0 + phi3 <= 2/5": self.g2_bound,
        }


def cone_membership(flag: FlagVector4) -> ConeReport:
    phi = phi_coords(flag)
    return ConeReport(
        phi.phi0 >= 0,
        phi.phi3 >= 0,
        phi.phi0 + 3 * phi.phi3 <= 1,
        3 * phi.phi0 + phi.phi3 <= 1,
        phi.phi0 + phi.phi3 <= QQ(2, 5),
    )


def predicted_flag(n: int, r: int) -> FlagVector4:
    """Flag vector of the projected product of r n-gons (closed form)."""
    require_even_ngon(n)
    require_r(r)
    nr = n**r
    f0 = nr
    f1 = r * nr
    f2 = 5 * r * nr // 4 - 3 * nr // 2 + r * nr // n
    f3 = r * nr // 4 - nr // 2 + r * nr // n
    f03 = 4 * r * nr - 4 * nr
    flag = FlagVector4(f0, f1, f2, f3, f03)
    if not flag.euler_ok:
        raise MetricsError(f"predicted flag vector violates Euler's relation: {flag}")
    return flag


def predicted_flag_paper_literal(n: int, r: int) -> FlagVector4:
    """The commonly printed variant with f2 coefficient -(3/4) n^r.

    Violates Euler's relation and overcounts the identity-projection case;
    kept for diagnostics.
    """
    require_even_ngon(n)
    require_r(r)
    nr = n**r
    return FlagVector4(
        nr,
        r * nr,
        5 * r * nr // 4 - 3 * nr // 4 + r * nr // n,
        r * nr // 4 - nr // 2 + r * nr // n,
        4 * r * nr - 4 * nr,
    )


def limit_claims(n: int, r: int) -> tuple[Fraction, Fraction]:
    """(fatness, complexity) of the predicted flag vector, exactly.

    Both quantities stay strictly below 9 and 16 and approach them as n
    and r grow.
    """
    flag = predicted_flag(n, r)
    return fatness(flag), complexity(flag)


@dataclass(frozen=True)
class CountingReport:
    """Prism/cube facet classification of a projected product and the
    double-counting identities it must satisfy."""

    prisms: int
    cubes: int
    identities: dict[str, bool]

    @property
    def ok(self) -> bool:
        return all(self.identities.values())


def counting_identities(
    lattice: FaceLattice, n: int, r: int, polygon_masks: Collection[int]
) -> CountingReport:
    """Classify facets into prisms and cubes and check the ridge and
    vertex-facet counting identities.

    A prism facet has 2n vertices, n+2 two-dimensional subfaces of which
    exactly two are polygon images; a cube facet has 8 vertices and six
    quadrilaterals.  Any other facet shape falsifies the counting argument
    and raises.
    """
    flag = FlagVector4.from_lattice(lattice)
    faces2 = lattice.faces_of_dim(2)
    facets = lattice.faces_of_dim(3)
    polygons = set(polygon_masks)
    if not polygons.issubset(set(faces2)):
        raise CountingError("a polygon image is not a 2-face of the lattice")

    prisms = 0
    cubes = 0
    polygon_facet_count: dict[int, int] = {mask: 0 for mask in polygons}
    for facet in facets:
        sub2 = [m for m in faces2 if m & facet == m]
        own_polygons = [m for m in sub2 if m in polygons]
        quads = [m for m in sub2 if m not in polygons]
        nverts = facet.bit_count()
        if own_polygons:
            if (
                len(own_polygons) != 2
                or nverts != 2 * n
                or len(sub2) != n + 2
                or any(q.bit_count() != 4 for q in quads)
            ):
                raise CountingError("facet with polygon 2-faces is not a prism over the polygon")
            prisms += 1
            for m in own_polygons:
                polygon_facet_count[m] += 1
        else:
            if nverts != 8 or len(sub2) != 6 or any(q.bit_count() != 4 for q in quads):
                raise CountingError("facet without polygon 2-faces is not a combinatorial cube")
            cubes += 1

    identities = {
        "prisms == r*n^(r-1)": prisms == r * n ** (r - 1),
        "cubes == (r-2)*n^r/4": 4 * cubes == (r - 2) * n**r,
        "6C + (n+2)P == 2*f2": 6 * cubes + (n + 2) * prisms == 2 * flag.f2,
        "f03 == 8C + 2nP": flag.f03 == 8 * cubes + 2 * n * prisms,
        "each polygon in two prism facets": all(
            count == 2 for count in polygon_facet_count.values()
        ),
    }
    return CountingReport(prisms, cubes, identities)


def metrics_report(flag: FlagVector4, paper_literal: bool = False) -> dict:
    """JSON-ready metrics summary; decimal fields are marked approximations."""
    phi = phi_coords(flag)
    fat = fatness(flag)
    comp = complexity(flag)
    g = gvector(flag)
    report = {
        "f": list(flag.as_tuple()[:4]),
        "f03": flag.f03,
        "phi0": format_rational(phi.phi0),
        "phi3": format_rational(phi.phi3),
        "fatness": format_rational(fat),
        "fatness_decimal_approx": rational_to_decimal(fat),
        "complexity": format_rational(comp),
        "complexity_decimal_approx": rational_to_decimal(comp),
        "g1": g.g1,
        "g1_dual": g.g1_dual,
        "g2": g.g2,
        "cone": cone_membership(flag).as_dict(),
    }
    if paper_literal:
        lit_fat = fatness_paper_literal(flag)
        lit_comp = complexity_paper_literal(flag)
        report["paper_literal"] = {
            "fatness": format_rational(lit_fat),
            "fatness_discrepancy": format_rational(fat - lit_fat),
            "complexity": format_rational(lit_comp),
            "complexity_discrepancy": format_rational(comp - lit_comp),
        }
    return report
