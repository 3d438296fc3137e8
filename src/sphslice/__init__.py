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

from . import analysis, geometry, inversion, quadrature, scenes, stereo, transforms, zonal
from .analysis import *
from .geometry import *
from .inversion import *
from .quadrature import *
from .scenes import *
from .stereo import *
from .transforms import *
from .zonal import *

__version__ = "0.1.0"

# A name is public where its module lists it in __all__; the package exports
# exactly those names.
__all__ = sorted(
    name
    for module in (analysis, geometry, inversion, quadrature, scenes, stereo, transforms, zonal)
    for name in module.__all__
)
