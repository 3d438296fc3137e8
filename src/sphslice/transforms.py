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
from functools import lru_cache
from typing import Callable

import numpy as np

# flat_rule, make_flat and sample_sphere_cross_section are unused here but
# stay importable as transforms.<name>: the traced benchmark (bench/tracer.py)
# replaces them.
from .geometry import (Dimensions, FlatSpec, SlicePlane, _complete_orthonormal, _haar_frames, _section_nodes,
                       _unchecked_flat, flat_through, make_flat, sample_sphere_cross_section)
from .quadrature import QuadratureSpec, _flat_nodes, _flat_span, _flat_template, flat_rule, sphere_rule
from .stereo import _nu_and_denominator as nu, nu_inverse, plane_to_sphere_weight

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

# The package's one block budget: fields are evaluated on blocks of at most
# this many points.  Every loop over it takes its blocks from _blocks.
_BLOCK_POINTS = 16384


def _blocks(count: int, size: int) -> list[slice]:
    """Consecutive slices of count items of size values each: at most _BLOCK_POINTS values, but one item at least."""
    step = max(1, _BLOCK_POINTS // max(1, size))
    return [slice(lo, lo + step) for lo in range(0, count, step)]


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
    _warn_on_pole_growth(f, tau.section.dim + 1)
    nodes, weights = _section_nodes(tau.section.basis[None], tau.section.offset[None], spec.sphere_order)
    return _chunk_sums(f, nodes[:, 0], weights[0], "the cross-section")


def radon_john(g: PlaneField, zeta: FlatSpec, spec: QuadratureSpec) -> float:
    """Integral of g over the affine flat zeta, truncated at spec.radial_cutoff."""
    _warn_on_slow_decay(g, zeta.dim)
    # span + offset is _flat_nodes' arithmetic for a stack of one: the same bits
    span, weights = _span_of(zeta.basis.tobytes(), zeta.basis.shape, spec)
    return _chunk_sums(g, span + zeta.offset[:, None], weights, "the flat")


@lru_cache(maxsize=1)
def _span_of(basis: bytes, shape: tuple, spec: QuadratureSpec):
    """_flat_span of the basis (d, n) whose bytes and shape are given: read-only (n, m) nodes, and the weights.

    The lines of one orientation of the inversion's table share their basis,
    so after the first line each costs one add of its offset, one field call
    and one sum.  The span is built from its own key, so it cannot belong to
    another basis, and a basis changed in place has other bytes.
    """
    span, weights = _flat_span(np.frombuffer(basis).reshape(shape)[None], spec)
    span = span[:, 0]
    span.setflags(write=False)
    return span, weights


def _slice_sums(f: SphereField, bases: np.ndarray, offsets: np.ndarray, spec: QuadratureSpec) -> list[float]:
    """slice_transform of f over each plane whose trace is a flat of the (C, d, n), (C, n) stack."""
    k = bases.shape[1] + 1
    _warn_on_pole_growth(f, k)
    size = len(sphere_rule(k - 1, spec.sphere_order)[1])
    return _stack_sums(f, bases, offsets, lambda b, v: _section_nodes(b, v, spec.sphere_order), size,
                       "the cross-section")


def _flat_sums(g: PlaneField, bases: np.ndarray, offsets: np.ndarray, spec: QuadratureSpec) -> list[float]:
    """radon_john of g over each flat of the (C, d, n), (C, n) stack."""
    d = bases.shape[1]
    _warn_on_slow_decay(g, d)
    size = len(_flat_template(d, spec.radial_cutoff, spec.radial_order, spec.sphere_order)[1])
    return _stack_sums(g, bases, offsets, lambda b, v: _flat_nodes(b, v, spec), size, "the flat")


def _warn_on_pole_growth(f: SphereField, k: int):
    if f.pole_exponent >= 0.5 * (k - 1):
        warnings.warn(
            "pole growth exponent meets or exceeds (k-1)/2; the slice transform may diverge",
            stacklevel=3,
        )


def _warn_on_slow_decay(g: PlaneField, d: int):
    if g.decay_exponent is not None and g.decay_exponent <= d:
        warnings.warn(
            "decay exponent does not exceed the flat dimension; the integral may diverge",
            stacklevel=3,
        )


def _stack_sums(field, bases: np.ndarray, offsets: np.ndarray, rule, size: int, where: str) -> list[float]:
    """The sums of a stack of planes whose rules have size nodes each, chunk by chunk.

    rule(bases, offsets) gives the nodes and weights of a part of the stack.
    A chunk is one of _blocks(len(bases), size), so that the field sees at
    most _BLOCK_POINTS nodes per call, unless one plane's rule is larger.
    """
    totals = []
    for block in _blocks(len(bases), size):
        totals += _chunk_sums(field, *rule(bases[block], offsets[block]), where)
    return totals


def _chunk_sums(field, nodes: np.ndarray, weights: np.ndarray, where: str) -> list[float] | float:
    """sum(field(nodes) * weights) of each plane of a chunk.

    nodes (dim, C, m) hold the C planes' rules, as the node builders lay
    them out, with weights (m,) or (C, m), and give the list of C sums;
    nodes (dim, m) hold one plane's rule, with weights (m,), and give its
    sum.  The field is called once on all C * m nodes, or, for one plane
    whose rule is larger than _BLOCK_POINTS, once per consecutive block of
    _BLOCK_POINTS nodes.  The values are pointwise and each plane's sum runs
    over its own contiguous row of values at once, so the sums depend
    neither on the chunk nor on the blocks.
    """
    one = nodes.ndim == 2
    points = (nodes if one else nodes.reshape(len(nodes), -1)).T
    if len(points) <= _BLOCK_POINTS:
        vals = field(points)
    else:
        vals = np.empty(len(points))
        for block in _blocks(len(points), 1):
            vals[block] = field(points[block])
    if one:
        sums = float(np.add.reduce(vals * weights))
        finite = math.isfinite(sums)
    else:
        sums = np.add.reduce(vals.reshape(nodes.shape[1:]) * weights, axis=1).tolist()
        finite = all(map(math.isfinite, sums))
    # The weights are finite, so a non-finite value makes its plane's sum
    # non-finite: the values are scanned only then.  A sum that overflows
    # from finite values stays inf.
    if not finite and not np.isfinite(vals).all():
        raise ValueError(f"integrand blowup: field is not finite on {where}")
    return sums


def op_B(f: SphereField, dims: Dimensions) -> PlaneField:
    """Conjugation sending a sphere field to its plane-side counterpart."""
    k = dims.k
    scale = 2.0 ** (k - 1)

    def geval(x: np.ndarray) -> np.ndarray:
        # nu is stereo._nu_and_denominator, so |x|^2 is computed once per
        # point.  It is looked up in this module at each call under the name
        # nu: the traced benchmark counts stereo.points by replacing
        # transforms.nu.
        eta, denom = nu(x)
        return scale * f(eta) / denom ** (k - 1)

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
    return _factorization_checks(f, tau.section.basis[None], tau.section.offset[None], spec)[0]


def _factorization_checks(f: SphereField, bases: np.ndarray, offsets: np.ndarray,
                          spec: QuadratureSpec) -> list[FactorizationReport]:
    """factorization_check of f on each plane whose trace is a flat of the (C, d, n), (C, n) stack."""
    lhs = _slice_sums(f, bases, offsets, spec)
    rhs = _flat_sums(op_B(f, Dimensions(bases.shape[2], bases.shape[1] + 1)), bases, offsets, spec)
    return [FactorizationReport(lhs=a, rhs=b, abs_diff=abs(a - b)) for a, b in zip(lhs, rhs)]


def _fibonacci_hemisphere(count: int) -> np.ndarray:
    # Low-discrepancy directions on the upper hemisphere (lines in R^3).
    i = np.arange(count)
    z = (i + 0.5) / count
    golden = (1.0 + np.sqrt(5.0)) / 2.0
    ang = 2.0 * np.pi * i / golden
    s = np.sqrt(1.0 - z * z)
    return np.column_stack([s * np.cos(ang), s * np.sin(ang), z])


def _seeded_rotation(n: int, seed: int) -> np.ndarray:
    q = _haar_frames(np.random.default_rng(seed).standard_normal((1, n, n)))[0]
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
        return np.array([_complete_orthonormal(normal[None, :], 3)[1:] for normal in dirs])
    q = _haar_frames(np.random.default_rng(seed).standard_normal((count, n, n)))
    return np.ascontiguousarray(q[:, :, :flat_dim].transpose(0, 2, 1))


def dual_transform(phi, x, flat_dim: int, dims: Dimensions, spec: QuadratureSpec) -> float:
    """Average of phi over flats of dimension flat_dim through the point x.

    phi is a callable taking a FlatSpec, called once per flat of the stack
    _dual_transforms builds.  The average is taken with respect to the
    rotation-invariant distribution of orientations, realized by the
    deterministic sample of orientation_set, so results are reproducible for a
    fixed spec.seed.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (dims.n,):
        raise ValueError("dimension mismatch between point and dims")
    return _dual_transforms(_per_flat(phi), [x], flat_dim, dims, spec)[0]


def _per_flat(phi):
    """values(bases, offsets) of a callable phi taking a FlatSpec: one call per flat of the read-only stack."""
    return lambda bases, offsets: [phi(_unchecked_flat(b, v)) for b, v in zip(bases, offsets)]


def _dual_transforms(values, points, flat_dim: int, dims: Dimensions, spec: QuadratureSpec) -> list[float]:
    """dual_transform at each of points, where values(bases, offsets) gives the data on one point's stack of flats."""
    means = []
    for bases, offsets in flat_through(orientation_set(flat_dim, dims.n, spec.orientation_samples, spec.seed), points):
        vals = np.asarray(values(bases, offsets), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("integrand blowup: flat function not finite")
        means.append(float(np.mean(vals)))
    return means
