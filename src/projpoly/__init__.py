"""Exact polyhedral computation for projected products of polygons.

Everything runs in exact rational arithmetic: construction of (deformed)
polygon-product inequality systems, double-description conversions between
inequality and vertex form, face lattices with f- and flag vectors, strict
face-preservation checks under projection to four coordinates, and the
fatness/complexity metrics of the resulting 4-polytopes.
"""

from .construction import (
    AdaptationAttempt,
    ConstructionError,
    ConstructionParams,
    InvalidParameterError,
    build_deformed_product,
    build_plain_product,
    choose_parameters,
    v_eps_block,
    validate_polygon,
)
from .lattice import FaceLattice, FlagVector4, face_lattice, flag_f03
from .linalg import (
    PositiveCertificate,
    QMatrix,
    determinant,
    positive_dependence,
    positively_spans,
    rank,
)
from .metrics import (
    ConeReport,
    CountingReport,
    GVector,
    Phi,
    complexity,
    cone_membership,
    counting_identities,
    fatness,
    limit_claims,
    phi_coords,
    predicted_flag,
)
from .polytope import (
    DegeneratePolytopeError,
    EmptyPolytopeError,
    HPolytope,
    PolytopeError,
    UnboundedPolytopeError,
    VPolytope,
    convex_hull,
    h_to_v,
    product_isomorphic,
    v_to_h,
)
from .projection import (
    AlphaBeta,
    PreservationReport,
    ProjectionChecker,
    alpha_beta,
    deletion_certificates,
    enumerate_polygon_faces,
    project,
    reduced_matrix,
    zero_sum_check,
)
from .rational import QQ, format_rational, parse_rational

__version__ = "0.1.0"
