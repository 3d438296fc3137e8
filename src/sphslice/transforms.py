"""Forward transforms and the conjugation operators that link them.

The slice transform integrates a sphere function over the cross-section cut
by a k-plane through the pole.  Composing with stereographic projection turns
it into the classical integral transform over affine (k-1)-flats of the plane
function

    (B f)(x) = 2^{k-1} f(nu(x)) / (|x|^2 + 1)^{k-1},

and both routes are implemented here independently so the identity can be
checked numerically rather than assumed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import (
    Dimensions,
    FlatSpec,
    SlicePlane,
    _complete_orthonormal,
    _haar_columns,
    make_flat,
    sample_sphere_cross_section,
)
# sphere_rule is unused here but stays importable as transforms.sphere_rule:
# the traced benchmark (bench/tracer.py) replaces it.
from .quadrature import QuadratureSpec, flat_rule, sphere_rule
from .stereo import _sq_norm, nu, nu_inverse, plane_to_sphere_weight

__all__ = [
    "SphereField",
    "PlaneField",
    "slice_transform",
    "radon_john",
    "op_B",
    "op_B_inverse",
    "section_to_plane",
    "factorization_check",
    "dual_transform",
]

# Fields are evaluated on consecutive blocks of at most this many quadrature
# nodes (see _quadrature_sum).
_BLOCK_POINTS = 16384


@dataclass(frozen=True)
class SphereField:
    """A function on the unit sphere in R^{n+1}.

    eval must accept coordinate arrays of shape (..., n+1) and return values of
    shape (...).  It must be pointwise: the value at a point may not depend on
    the other points of the batch, because slice_transform evaluates the
    quadrature nodes in blocks.  pole_exponent mu is growth metadata:
    (1 - eta_last)^mu |f| stays bounded near the pole.  The slice transform of
    f is finite on every plane exactly when mu < (k-1)/2.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    pole_exponent: float = 0.0

    def __call__(self, coords) -> np.ndarray:
        return np.asarray(self.eval(np.asarray(coords, dtype=float)), dtype=float)


@dataclass(frozen=True)
class PlaneField:
    """A function on R^n; decay_exponent lam means |x|^lam |g(x)| stays bounded.

    eval must accept coordinate arrays of shape (..., n), return values of
    shape (...) and be pointwise (radon_john evaluates the nodes in blocks).
    """

    eval: Callable[[np.ndarray], np.ndarray]
    decay_exponent: float | None = None

    def __call__(self, coords) -> np.ndarray:
        return np.asarray(self.eval(np.asarray(coords, dtype=float)), dtype=float)


@dataclass(frozen=True)
class FactorizationReport:
    lhs: float       # slice transform, computed on the sphere
    rhs: float       # Radon-John transform of the conjugated field, computed in the plane
    abs_diff: float

    @property
    def rel_diff(self) -> float:
        return self.abs_diff / (1.0 + abs(self.lhs))


def slice_transform(f: SphereField, tau: SlicePlane, spec: QuadratureSpec) -> float:
    """Integral of f over the sphere cross-section cut by tau."""
    k = tau.section.dim + 1
    if f.pole_exponent >= 0.5 * (k - 1):
        warnings.warn(
            "pole growth exponent meets or exceeds (k-1)/2; the slice transform may diverge",
            stacklevel=2,
        )
    nodes, weights = sample_sphere_cross_section(tau, spec.sphere_order)
    return _quadrature_sum(f, nodes, weights, "the cross-section")


def radon_john(g: PlaneField, zeta: FlatSpec, spec: QuadratureSpec) -> float:
    """Integral of g over the affine flat zeta, truncated at spec.radial_cutoff."""
    if g.decay_exponent is not None and g.decay_exponent <= zeta.dim:
        warnings.warn(
            "decay exponent does not exceed the flat dimension; the integral may diverge",
            stacklevel=2,
        )
    nodes, weights = flat_rule(zeta, spec)
    return _quadrature_sum(g, nodes, weights, "the flat")


def _quadrature_sum(field, nodes: np.ndarray, weights: np.ndarray, where: str) -> float:
    """sum(field(nodes) * weights), with the field evaluated block by block.

    Blocks of at most _BLOCK_POINTS nodes keep the temporaries of nu and op_B
    in cache; the values are pointwise and the sum runs over all of them at
    once, so the result does not depend on the block size.  A rule of one
    block is evaluated in one call, without the copy into a value array,
    which would cost a line integral of a few hundred nodes about 4%.
    """
    if len(nodes) <= _BLOCK_POINTS:
        vals = field(nodes)
    else:
        vals = np.empty(len(nodes))
        for lo in range(0, len(nodes), _BLOCK_POINTS):
            vals[lo : lo + _BLOCK_POINTS] = field(nodes[lo : lo + _BLOCK_POINTS])
    total = float((vals * weights).sum())
    # The weights are finite, so a non-finite value makes the sum non-finite:
    # the values are scanned only then.  A sum that overflows from finite
    # values stays inf.
    if not math.isfinite(total) and not np.isfinite(vals).all():
        raise ValueError(f"integrand blowup: field is not finite on {where}")
    return total


def op_B(f: SphereField, dims: Dimensions) -> PlaneField:
    """Conjugation sending a sphere field to its plane-side counterpart."""
    k = dims.k
    scale = 2.0 ** (k - 1)

    def geval(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        # nu is looked up in this module at each call: the traced benchmark
        # counts stereo.points by replacing transforms.nu.
        return scale * f(nu(x)) / (_sq_norm(x) + 1.0) ** (k - 1)

    return PlaneField(eval=geval, decay_exponent=2.0 * (k - 1) - 2.0 * f.pole_exponent)


def op_B_inverse(g: PlaneField, dims: Dimensions) -> SphereField:
    """Inverse conjugation; evaluation at the pole itself is refused."""
    k = dims.k

    def feval(eta: np.ndarray) -> np.ndarray:
        eta = np.asarray(eta, dtype=float)
        w = plane_to_sphere_weight(eta, k - 1, dims)
        return w * g(nu_inverse(eta))

    lam = g.decay_exponent
    mu = k - 1.0 if lam is None else (k - 1.0) - 0.5 * lam
    return SphereField(eval=feval, pole_exponent=mu)


def section_to_plane(zeta: FlatSpec) -> SlicePlane:
    """The plane through the pole whose trace in the equatorial plane is zeta."""
    return SlicePlane(zeta)


def factorization_check(f: SphereField, tau: SlicePlane, spec: QuadratureSpec) -> FactorizationReport:
    """Compare the slice transform of f with the flat transform of its conjugate.

    The two sides follow fully independent quadrature routes: the left side
    samples the sphere cross-section, the right side integrates B f over the
    trace flat.  Agreement is evidence that geometry, projection and both
    transforms are consistent; the report never collapses the two routes.
    """
    lhs = slice_transform(f, tau, spec)
    g = op_B(f, tau.dims)
    rhs = radon_john(g, tau.section, spec)
    return FactorizationReport(lhs=lhs, rhs=rhs, abs_diff=abs(lhs - rhs))


def _fibonacci_hemisphere(count: int) -> np.ndarray:
    # Low-discrepancy directions on the upper hemisphere (lines in R^3).
    i = np.arange(count)
    z = (i + 0.5) / count
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    ang = 2.0 * np.pi * i / golden
    s = np.sqrt(1.0 - z * z)
    return np.column_stack([s * np.cos(ang), s * np.sin(ang), z])


def _seeded_rotation(n: int, seed: int) -> np.ndarray:
    q = _haar_columns(np.random.default_rng(seed), n, n)
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def orientation_set(flat_dim: int, n: int, count: int, seed: int) -> np.ndarray:
    """Deterministic orientation sample on the manifold of flat directions.

    Returns an array of shape (count, flat_dim, n) of orthonormal direction
    rows.  Lines in the plane use exactly uniform angles; lines and hyperplane
    normals in R^3 use a seeded rotation of a Fibonacci lattice; remaining
    cases fall back to seeded Haar frames.
    """
    if not 1 <= flat_dim <= n - 1:
        raise ValueError("flat dimension must lie in [1, n-1]")
    if n == 2:
        ang = np.pi * (np.arange(count) + 0.5) / count
        return np.column_stack([np.cos(ang), np.sin(ang)])[:, None, :]
    if n == 3 and flat_dim in (1, 2):
        dirs = _fibonacci_hemisphere(count) @ _seeded_rotation(3, seed).T
        if flat_dim == 1:
            return dirs[:, None, :]
        frames = np.empty((count, 2, 3))
        for i, normal in enumerate(dirs):
            frames[i] = _complete_orthonormal(normal[None, :], 3)[1:]
        return frames
    rng = np.random.default_rng(seed)
    frames = np.empty((count, flat_dim, n))
    for i in range(count):
        frames[i] = _haar_columns(rng, n, n)[:, :flat_dim].T
    return frames


def flat_through(basis: np.ndarray, x: np.ndarray) -> FlatSpec:
    """The flat with the given orthonormal direction rows passing through x."""
    return make_flat(basis, np.asarray(x, dtype=float))


def dual_transform(phi, x, flat_dim: int, dims: Dimensions, spec: QuadratureSpec) -> float:
    """Average of phi over flats of dimension flat_dim through the point x.

    phi is a callable taking a FlatSpec; the average is taken with respect to
    the rotation-invariant distribution of orientations, realized by the
    deterministic sample of orientation_set, so results are reproducible for a
    fixed spec.seed.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (dims.n,):
        raise ValueError("dimension mismatch between point and dims")
    frames = orientation_set(flat_dim, dims.n, spec.orientation_samples, spec.seed)
    vals = np.empty(len(frames))
    for i, basis in enumerate(frames):
        vals[i] = phi(flat_through(basis, x))
    if not np.all(np.isfinite(vals)):
        raise ValueError("integrand blowup: flat function not finite")
    return float(np.mean(vals))
