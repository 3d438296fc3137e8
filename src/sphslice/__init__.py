"""Integrals of functions on the sphere over plane cross-sections.

The package computes the transform that assigns to a function on the
n-sphere its integrals over cross-sections by k-dimensional planes through
the north pole, factors that transform through stereographic projection into
a classical flat integral transform, and inverts it, either through a radial
profile when the function is rotation-invariant about the pole axis, or in
general through a hypersingular derivative of the backprojected flat data.

Modules:
    geometry    flats, planes through the pole, cross-section parameters and rules
    stereo      stereographic projection and its Jacobian weights
    quadrature  Gauss-Legendre panels and product rules on spheres and flats
    transforms  the slice transform, the flat transform, and the conjugation
    zonal       forward and inverse transform of rotation-invariant fields
    inversion   hypersingular inversion of the backprojected data
    analysis    existence, integrability and support-vanishing experiments
    scenes      named test fields and the scene-file format of the CLI
    cli         the `sphslice` command-line driver
"""

from .analysis import (
    CapSpec,
    KPlaneProbeReport,
    SupportReport,
    VerdictReport,
    existence_check,
    kplane_support_probe,
    lp_weight_check,
    power_growth_field,
    support_experiment,
)
from .geometry import (
    Dimensions,
    FlatSpec,
    SlicePlane,
    make_flat,
    random_flat,
    sample_sphere_cross_section,
)
from .inversion import (
    InversionReport,
    RefinementTrace,
    RieszParams,
    coeff_B_l,
    coeff_B_l_prime,
    coeff_c,
    coeff_d,
    invert_radon,
    invert_slice,
    make_dual_field,
    reconstruction_report,
    riesz_derivative,
    riesz_refinement_report,
)
from .quadrature import (
    QuadratureSpec,
    composite_gauss,
    flat_rule,
    gauss_legendre,
    panel_edges,
    sphere_rule,
)
from .scenes import (
    FAMILIES,
    SceneError,
    SceneSpec,
    build_field,
    parse_scene,
    scene_profile,
    suggested_cutoff,
)
from .stereo import (
    POLE_GUARD,
    PlanePoint,
    SpherePoint,
    nu,
    nu_inverse,
    plane_to_sphere_weight,
    sphere_to_plane_weight,
)
from .transforms import (
    FactorizationReport,
    PlaneField,
    SphereField,
    dual_transform,
    factorization_check,
    flat_through,
    op_B,
    op_B_inverse,
    orientation_set,
    radon_john,
    section_to_plane,
    slice_transform,
)
from .zonal import (
    ZonalProfile,
    load_profile_csv,
    profile_to_sphere_field,
    save_profile_csv,
    sigma,
    sphere_field_to_profile,
    zonal_forward,
    zonal_invert,
)

__version__ = "0.1.0"

__all__ = [
    "CapSpec",
    "Dimensions",
    "FAMILIES",
    "FactorizationReport",
    "FlatSpec",
    "InversionReport",
    "KPlaneProbeReport",
    "POLE_GUARD",
    "PlaneField",
    "PlanePoint",
    "QuadratureSpec",
    "RefinementTrace",
    "RieszParams",
    "SceneError",
    "SceneSpec",
    "SlicePlane",
    "SpherePoint",
    "SphereField",
    "SupportReport",
    "VerdictReport",
    "ZonalProfile",
    "build_field",
    "coeff_B_l",
    "coeff_B_l_prime",
    "coeff_c",
    "coeff_d",
    "composite_gauss",
    "dual_transform",
    "existence_check",
    "factorization_check",
    "flat_rule",
    "flat_through",
    "gauss_legendre",
    "invert_radon",
    "invert_slice",
    "kplane_support_probe",
    "load_profile_csv",
    "lp_weight_check",
    "make_dual_field",
    "make_flat",
    "nu",
    "nu_inverse",
    "op_B",
    "op_B_inverse",
    "orientation_set",
    "panel_edges",
    "parse_scene",
    "plane_to_sphere_weight",
    "power_growth_field",
    "profile_to_sphere_field",
    "radon_john",
    "random_flat",
    "reconstruction_report",
    "riesz_derivative",
    "riesz_refinement_report",
    "sample_sphere_cross_section",
    "save_profile_csv",
    "scene_profile",
    "section_to_plane",
    "sigma",
    "slice_transform",
    "sphere_field_to_profile",
    "sphere_rule",
    "sphere_to_plane_weight",
    "suggested_cutoff",
    "support_experiment",
    "zonal_forward",
    "zonal_invert",
]
