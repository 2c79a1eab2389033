"""Snapshot of the names ``illum`` exports.

A name added to or removed from ``illum/__init__.py`` fails this test until
the snapshot below is edited too, so every change of the public API shows
in the diff of a change that makes it.
"""

import types

import illum

PUBLIC_NAMES = """
Arc ArcSystem Ball CapBodySpec ConstructionFailure ConvexPolygon Direction
DirectionMultiset DomainError GeometryInternalError IllumError
IlluminationReport PiercingSolution PreconditionViolation SphericalCap
SupportFunctionBody Tolerance UnsupportedBody b2_single_spike_directions
b3_capbody_directions b3_direction_multiset b3_prism_apexes ball_upper_bound
cap_body_number_top_bottom cap_body_number_top_only certificate_lower_bound
check_consecutive_angle_condition check_grouped_angle_condition
closed_cap_of_ball ellipse_body equiangular_tangent_polygon
find_valid_grouping illuminates_by_direction illumination_number_polygon
in_open_cap in_spike incompatible_apexes inverse_stereographic
lift_directions lower_bound min_mfold_pierce min_mfold_pierce_bruteforce
polygon_piercing_solution recursive_ball_construction regular_polygon_number
regular_polygon_rational run_lemma_suite smooth_2d_directions
unit_circle_body validate_cap_body verify_mfold verify_piercing vertex_arcs
""".split()


def test_public_names_match_the_snapshot():
    # submodules become attributes of the package as they are imported, so
    # only the names that are not modules are compared
    names = sorted(
        name
        for name, value in vars(illum).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == sorted(PUBLIC_NAMES)
