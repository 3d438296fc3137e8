"""Stereographic projection from the pole, and the measure weights it induces.

The sphere is the unit sphere in R^{n+1}, the plane is R^n embedded as the
first n coordinates, and the projection center is the pole e_{n+1}.  A plane
point x maps to

    nu(x) = (2 x + (|x|^2 - 1) e_{n+1}) / (|x|^2 + 1),

which sends 0 to the antipode of the pole, fixes the equator, and pushes
|x| -> infinity onto the pole itself.  Pulling surface measure back and forth
introduces powers of (|x|^2 + 1)/2 = 1/(1 - eta_{n+1}); those conversion
factors are exposed here as weight functions with a free integer exponent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "POLE_GUARD",
    "SpherePoint",
    "PlanePoint",
    "nu",
    "nu_inverse",
    "sphere_to_plane_weight",
    "plane_to_sphere_weight",
]

# Refuse to invert the projection closer to the pole than this in 1 - eta_last.
POLE_GUARD = 1e-15

_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class SpherePoint:
    """A point on the unit sphere in R^{n+1}."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.ndim != 1 or c.size < 3:
            raise ValueError("sphere point must be a vector in R^{n+1}, n >= 2")
        if abs(np.dot(c, c) - 1.0) > 2.0 * _UNIT_TOL:
            raise ValueError("sphere point must have unit norm")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    @property
    def eta_last(self) -> float:
        return float(self.coords[-1])


@dataclass(frozen=True)
class PlanePoint:
    """A point of R^n, the equatorial plane of the projection."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.ndim != 1 or c.size < 2:
            raise ValueError("plane point must be a vector in R^n, n >= 2")
        if not np.all(np.isfinite(c)):
            raise ValueError("plane point must be finite")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)


def _coords(p) -> np.ndarray:
    return np.asarray(getattr(p, "coords", p), dtype=float)


def nu(x):
    """Project plane points onto the punctured sphere.

    Accepts a PlanePoint or an array of shape (..., n); returns a SpherePoint
    for PlanePoint input, otherwise an array of shape (..., n+1).
    """
    arr = _coords(x)
    s2 = np.sum(arr * arr, axis=-1, keepdims=True)
    out = np.concatenate([2.0 * arr, s2 - 1.0], axis=-1) / (s2 + 1.0)
    if isinstance(x, PlanePoint):
        return SpherePoint(out)
    return out

def nu_inverse(eta):
    """Invert the projection on the punctured sphere.

    On the upper hemisphere uses x = eta_perp (1 + eta_last) / |eta_perp|^2,
    which is algebraically the usual eta_perp / (1 - eta_last) but stays
    accurate near the pole, where 1 - eta_last has already lost most of its
    digits to rounding; on the lower hemisphere the usual form is the stable
    one.  Points with eta_last >= 1 - POLE_GUARD are refused.
    """
    arr = _coords(eta)
    last = arr[..., -1]
    if np.any(last >= 1.0 - POLE_GUARD):
        raise ValueError("pole singularity: nu_inverse undefined at the projection center")
    perp = arr[..., :-1]
    denom = np.sum(perp * perp, axis=-1, keepdims=True)
    upper = np.where(denom > 0.0, (1.0 + last[..., None]) / np.where(denom > 0.0, denom, 1.0), 0.0)
    lower = 1.0 / (1.0 - last[..., None])
    out = perp * np.where(last[..., None] >= 0.0, upper, lower)
    if isinstance(eta, SpherePoint):
        return PlanePoint(out)
    return out


def sphere_to_plane_weight(x, exponent: int) -> np.ndarray:
    """Conversion factor 2^m (|x|^2 + 1)^{-m} carried by the projection.

    The exponent m is the power of the conformal factor an integrand picks up:
    the ambient dimension for full surface measure, k - 1 for the measure on a
    k-plane cross-section.
    """
    arr = _coords(x)
    s2 = np.sum(arr * arr, axis=-1)
    return (2.0 / (s2 + 1.0)) ** exponent


def plane_to_sphere_weight(eta, exponent: int, dims=None) -> np.ndarray:
    """Inverse conversion factor (1 - eta_last)^{-m}; refuses the pole."""
    arr = _coords(eta)
    if dims is not None and arr.shape[-1] != dims.n + 1:
        raise ValueError("dimension mismatch between point and dims")
    last = arr[..., -1]
    if np.any(last >= 1.0 - POLE_GUARD):
        raise ValueError("pole singularity: weight diverges at the projection center")
    return (1.0 - last) ** (-exponent)
