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
    "nu",
    "nu_inverse",
    "plane_to_sphere_weight",
]

# Refuse to invert the projection closer to the pole than this in 1 - eta_last.
POLE_GUARD = 1e-15

# Widest last axis that numpy's sum adds strictly left to right; from 8
# columns on it switches to pairwise summation.
_COLUMNWISE_MAX = 7


def _sq_norm(arr: np.ndarray) -> np.ndarray:
    """|x|^2 over the last axis, bit-identical to np.sum(arr * arr, axis=-1).

    Up to _COLUMNWISE_MAX columns the squares are added column by column,
    left to right, which is numpy's own order and avoids its slow reduction
    over a short axis; wider points use np.sum itself.
    """
    width = arr.shape[-1]
    if width == 0 or width > _COLUMNWISE_MAX:
        return np.sum(arr * arr, axis=-1)
    s2 = arr[..., 0] * arr[..., 0]
    for i in range(1, width):
        s2 += arr[..., i] * arr[..., i]
    return s2


def nu(x):
    """Project plane points onto the punctured sphere.

    Maps an array of shape (..., n) to an array of shape (..., n+1), which is
    coordinate-major (Fortran order): each coordinate is one contiguous block.
    """
    arr = np.asarray(x, dtype=float)
    n = arr.shape[-1]
    s2 = _sq_norm(arr)
    denom = s2 + 1.0
    out = np.empty(arr.shape[:-1] + (n + 1,), order="F")
    for i in range(n):
        np.divide(2.0 * arr[..., i], denom, out=out[..., i])
    np.divide(s2 - 1.0, denom, out=out[..., n])
    return out


def nu_inverse(eta):
    """Invert the projection on the punctured sphere.

    On the upper hemisphere uses x = eta_perp (1 + eta_last) / |eta_perp|^2,
    which is algebraically the usual eta_perp / (1 - eta_last) but stays
    accurate near the pole, where 1 - eta_last has already lost most of its
    digits to rounding; on the lower hemisphere the usual form is the stable
    one.  Points with eta_last >= 1 - POLE_GUARD are refused.  The output is
    coordinate-major, as in nu.
    """
    arr = np.asarray(eta, dtype=float)
    last = arr[..., -1]
    if np.any(last >= 1.0 - POLE_GUARD):
        raise ValueError("pole singularity: nu_inverse undefined at the projection center")
    n = arr.shape[-1] - 1
    s2 = _sq_norm(arr[..., :-1])
    off_axis = s2 > 0.0
    upper = np.where(off_axis, (1.0 + last) / np.where(off_axis, s2, 1.0), 0.0)
    factor = np.where(last >= 0.0, upper, 1.0 / (1.0 - last))
    out = np.empty(arr.shape[:-1] + (n,), order="F")
    for i in range(n):
        np.multiply(arr[..., i], factor, out=out[..., i])
    return out


def plane_to_sphere_weight(eta, exponent: int, dims=None) -> np.ndarray:
    """Inverse conversion factor (1 - eta_last)^{-m}; refuses the pole."""
    arr = np.asarray(eta, dtype=float)
    if dims is not None and arr.shape[-1] != dims.n + 1:
        raise ValueError("dimension mismatch between point and dims")
    last = arr[..., -1]
    if np.any(last >= 1.0 - POLE_GUARD):
        raise ValueError("pole singularity: weight diverges at the projection center")
    return (1.0 - last) ** (-exponent)
