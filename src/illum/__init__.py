"""m-fold illumination numbers of convex bodies.

Exact solvers for convex polygons (via m-fold piercing of the vertex
direction arcs), explicit direction constructions for balls and cap
bodies of balls, exact verifiers with strictness margin for balls, smooth
planar bodies and cap bodies of the 2- and 3-ball, and an executable
ledger of the supporting structure lemmas.
"""

from .balls import (
    b3_direction_multiset,
    ball_upper_bound,
    inverse_stereographic,
    lift_directions,
    recursive_ball_construction,
)
from .capbody import (
    CapBodySpec,
    SphericalCap,
    b2_single_spike_directions,
    b3_capbody_directions,
    b3_prism_apexes,
    cap_body_number_top_bottom,
    cap_body_number_top_only,
    closed_cap_of_ball,
    in_open_cap,
    in_spike,
    incompatible_apexes,
    validate_cap_body,
)
from .errors import (
    ConstructionFailure,
    DomainError,
    GeometryInternalError,
    IllumError,
    PreconditionViolation,
    UnsupportedBody,
)
from .geometry import (
    Ball,
    ConvexPolygon,
    Direction,
    DirectionMultiset,
    IlluminationReport,
    SupportFunctionBody,
    Tolerance,
    ellipse_body,
    illuminates_by_direction,
    unit_circle_body,
    verify_mfold,
)
from .lemmas import run_lemma_suite
from .piercing import (
    Arc,
    ArcSystem,
    PiercingSolution,
    certificate_lower_bound,
    min_mfold_pierce,
    min_mfold_pierce_bruteforce,
    verify_piercing,
)
from .polygons import (
    check_consecutive_angle_condition,
    check_grouped_angle_condition,
    equiangular_tangent_polygon,
    find_valid_grouping,
    illumination_number_polygon,
    lower_bound,
    polygon_piercing_solution,
    regular_polygon_number,
    regular_polygon_rational,
    smooth_2d_directions,
    vertex_arcs,
)

__version__ = "0.1.0"
