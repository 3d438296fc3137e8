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
)
from .inversion import (
    RieszParams,
    coeff_B_l,
    coeff_c,
    coeff_d,
    invert_radon,
    invert_slice,
    riesz_derivative,
)
from .quadrature import (
    QuadratureSpec,
    composite_gauss,
    flat_rule,
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
    nu,
    nu_inverse,
    plane_to_sphere_weight,
)
from .transforms import (
    PlaneField,
    SphereField,
    dual_transform,
    factorization_check,
    op_B,
    op_B_inverse,
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
    zonal_forward,
    zonal_invert,
)

__version__ = "0.1.0"

__all__ = [
    "CapSpec",
    "Dimensions",
    "FAMILIES",
    "FlatSpec",
    "PlaneField",
    "QuadratureSpec",
    "RieszParams",
    "SceneError",
    "SceneSpec",
    "SlicePlane",
    "SphereField",
    "ZonalProfile",
    "build_field",
    "coeff_B_l",
    "coeff_c",
    "coeff_d",
    "composite_gauss",
    "dual_transform",
    "existence_check",
    "factorization_check",
    "flat_rule",
    "invert_radon",
    "invert_slice",
    "kplane_support_probe",
    "load_profile_csv",
    "lp_weight_check",
    "make_flat",
    "nu",
    "nu_inverse",
    "op_B",
    "op_B_inverse",
    "parse_scene",
    "plane_to_sphere_weight",
    "power_growth_field",
    "profile_to_sphere_field",
    "radon_john",
    "random_flat",
    "riesz_derivative",
    "save_profile_csv",
    "scene_profile",
    "section_to_plane",
    "sigma",
    "slice_transform",
    "sphere_rule",
    "suggested_cutoff",
    "support_experiment",
    "zonal_forward",
    "zonal_invert",
]
