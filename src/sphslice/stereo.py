"""Stereographic projection from the pole, and the measure weights it induces.

The sphere is the unit sphere in R^{n+1}, the plane is R^n embedded as the
first n coordinates, and the projection center is the pole e_{n+1}.  A plane
point x maps to

    nu(x) = (2 x + (|x|^2 - 1) e_{n+1}) / (|x|^2 + 1),

which sends 0 to the antipode of the pole, fixes the equator, and pushes
|x| -> infinity onto the pole itself.  Pulling surface measure back and forth
introduces powers of (|x|^2 + 1)/2 = 1/(1 - eta_{n+1}); the sphere-side
factor is exposed here as a weight function with a free integer exponent.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "POLE_GUARD",
    "nu",
    "nu_inverse",
    "plane_to_sphere_weight",
]

# Refuse to invert the projection closer to the pole than this in 1 - eta_last.
POLE_GUARD = 1e-15


def nu(x):
    """Project plane points onto the punctured sphere.

    Maps an array of shape (..., n) to an array of shape (..., n+1).
    """
    arr = np.asarray(x, dtype=float)
    s2 = np.sum(arr * arr, axis=-1, keepdims=True)
    return np.concatenate([2.0 * arr, s2 - 1.0], axis=-1) / (s2 + 1.0)


def nu_inverse(eta):
    """Invert the projection on the punctured sphere.

    On the upper hemisphere uses x = eta_perp (1 + eta_last) / |eta_perp|^2,
    which is algebraically the usual eta_perp / (1 - eta_last) but stays
    accurate near the pole, where 1 - eta_last has already lost most of its
    digits to rounding; on the lower hemisphere the usual form is the stable
    one.  Points with eta_last >= 1 - POLE_GUARD are refused.
    """
    arr = np.asarray(eta, dtype=float)
    last = arr[..., -1]
    if np.any(last >= 1.0 - POLE_GUARD):
        raise ValueError("pole singularity: nu_inverse undefined at the projection center")
    perp = arr[..., :-1]
    denom = np.sum(perp * perp, axis=-1, keepdims=True)
    upper = np.where(denom > 0.0, (1.0 + last[..., None]) / np.where(denom > 0.0, denom, 1.0), 0.0)
    lower = 1.0 / (1.0 - last[..., None])
    return perp * np.where(last[..., None] >= 0.0, upper, lower)


def plane_to_sphere_weight(eta, exponent: int, dims=None) -> np.ndarray:
    """Inverse conversion factor (1 - eta_last)^{-m}; refuses the pole."""
    arr = np.asarray(eta, dtype=float)
    if dims is not None and arr.shape[-1] != dims.n + 1:
        raise ValueError("dimension mismatch between point and dims")
    last = arr[..., -1]
    if np.any(last >= 1.0 - POLE_GUARD):
        raise ValueError("pole singularity: weight diverges at the projection center")
    return (1.0 - last) ** (-exponent)
