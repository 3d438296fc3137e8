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
import os
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

# sphere_rule and make_flat are unused here but stay importable as
# transforms.<name>: the traced benchmark (bench/tracer.py) replaces them.
from .geometry import (Dimensions, FlatSpec, SlicePlane, _complete_orthonormal, _haar_frames, _section_frames,
                       _section_points, _unchecked_flat, flat_through, make_flat, sample_sphere_cross_section)
from .quadrature import (QuadratureSpec, _as_integer, _build_flat_template, _build_sphere_rule, _flat_points,
                         _flat_span, _flat_template, _template_key, flat_rule, sphere_rule)
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

    zonal declares that eval reads only the last coordinate eta[..., -1]: it
    may then be given that coordinate alone, as an (..., 1) array, and must
    return the same values as on the whole points.  The stacked slice sums
    and op_B's conjugate then build only that coordinate.  The flag is not
    checked: a field declared zonal that reads other coordinates gives wrong
    values, or fails on the (..., 1) array.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    pole_exponent: float = 0.0
    zonal: bool = False

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


# The per-call integrals sum their public rules, not stacks of one: through
# _slice_sums and _flat_sums one line of the inversion's table took 18.8
# instead of 15.4 us, with the same bits.
def slice_transform(f: SphereField, tau: SlicePlane, spec: QuadratureSpec) -> float:
    """Integral of f over the sphere cross-section cut by tau."""
    _warn_on_pole_growth(f, tau.section.dim + 1)
    nodes, weights = sample_sphere_cross_section(tau, spec.sphere_order)
    return _plane_sum(f, nodes.T, weights, "the cross-section")


def radon_john(g: PlaneField, zeta: FlatSpec, spec: QuadratureSpec) -> float:
    """Integral of g over the affine flat zeta, truncated at spec.radial_cutoff."""
    _warn_on_slow_decay(g, zeta.dim)
    span, weights = _span_of(zeta.basis.tobytes(), zeta.basis.shape, spec)
    if span is None:
        nodes, weights = flat_rule(zeta, spec)
        return _plane_sum(g, nodes.T, weights, "the flat")
    # span + offset is _flat_points' arithmetic for a stack of one: the same bits
    return _plane_sum(g, span + zeta.offset[:, None], weights, "the flat")


@lru_cache(maxsize=1)
def _span_of(basis: bytes, shape: tuple, spec: QuadratureSpec):
    """_flat_span of the basis (d, n) whose bytes and shape are given: read-only (n, m) nodes, and the weights.

    The lines of one orientation of the inversion's table share their basis,
    so after the first line each costs one add of its offset, one field call
    and one sum.  The span is built from its own key, so it cannot belong to
    another basis, and a basis changed in place has other bytes.  A rule
    larger than _BLOCK_POINTS keeps no span, as a stack keeps no rule:
    the span is None.
    """
    intrinsic, weights = _flat_template(*_template_key(shape[0], spec))
    if len(weights) > _BLOCK_POINTS:
        return None, weights
    span = _flat_span(np.frombuffer(basis).reshape(shape)[None], intrinsic)[:, 0]
    span.setflags(write=False)
    return span, weights


def _slice_sums(f: SphereField, bases: np.ndarray, offsets: np.ndarray, spec: QuadratureSpec, *,
                check: bool = True) -> list[float]:
    """slice_transform of f over each plane whose trace is a flat of the (C, d, n), (C, n) stack.

    The cross-section rule is built for the stack and dropped on return.  A
    field declared zonal is given only the nodes' last coordinates.
    check=False skips the pole-growth warning, for a caller that checked
    once for all its stacks.
    """
    k = bases.shape[1] + 1
    if check:
        _warn_on_pole_growth(f, k)
    if spec.sphere_order < k:
        raise ValueError("cross-section rule needs order >= k")
    sigma_nodes, sigma_w = _build_sphere_rule(k - 1, spec.sphere_order)
    last_only = f.zonal

    def place(b, v):
        frames, scales = _section_frames(b, v)
        return (lambda run: _section_points(frames, sigma_nodes[run], last_only)), sigma_w * scales

    return _stack_sums(f, bases, offsets, place, len(sigma_w), "the cross-section")


def _flat_sums(g: PlaneField, bases: np.ndarray, offsets: np.ndarray, spec: QuadratureSpec, *,
               check: bool = True) -> list[float]:
    """radon_john of g over each flat of the (C, d, n), (C, n) stack.

    The flat template is built for the stack and dropped on return.
    check=False skips the decay warning, for a caller that checked once for
    all its stacks.
    """
    d = bases.shape[1]
    if check:
        _warn_on_slow_decay(g, d)
    intrinsic, weights = _build_flat_template(*_template_key(d, spec))

    def place(b, v):
        return (lambda run: _flat_points(b, v, intrinsic[run])), weights

    return _stack_sums(g, bases, offsets, place, len(weights), "the flat")


def _warn(message: str):
    """Warn with message at the first frame outside the package: the line of the user's call."""
    package = os.path.dirname(__file__)
    frame, level = sys._getframe(1), 2
    while frame is not None and os.path.dirname(frame.f_code.co_filename) == package:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


def _warn_on_pole_growth(f: SphereField, k: int):
    if f.pole_exponent >= 0.5 * (k - 1):
        _warn("pole growth exponent meets or exceeds (k-1)/2; the slice transform may diverge")


def _warn_on_slow_decay(g: PlaneField, d: int):
    if g.decay_exponent is not None and g.decay_exponent <= d:
        _warn("decay exponent does not exceed the flat dimension; the integral may diverge")


def _stack_sums(field, bases: np.ndarray, offsets: np.ndarray, place, size: int, where: str) -> list[float]:
    """The sums of a stack of planes whose rules have size nodes each.

    place(bases, offsets) takes a block of _blocks(len(bases), size) and
    gives a function nodes(run), the nodes of a run (a slice) of the rule on
    each of the block's planes, (dim, C, len), and their weights, which
    _run_sums sums.  So a block of several planes is one run, and a plane
    whose rule is larger than _BLOCK_POINTS is a block of one, streamed run
    by run: the field sees at most _BLOCK_POINTS nodes per call.
    """
    totals = []
    for block in _blocks(len(bases), size):
        nodes, weights = place(bases[block], offsets[block])
        totals += _run_sums(field, nodes, weights, len(offsets[block]), size, where)
    return totals


def _run_sums(field, nodes, weights: np.ndarray, count: int, size: int, where: str) -> list[float]:
    """sum(field(nodes) * weights) of each of count planes whose rules have size nodes, built run by run.

    nodes(run) gives the planes' nodes of a run of their rules, (dim, count,
    len), and weights are (size,) or (count, size).  The field's values on
    the runs _blocks(size, count) fill one (count, size) array, checked run
    by run before the weights overwrite them in place; each plane's row is
    then summed at once.  The values are pointwise, so the sums depend
    neither on the block nor on the runs.
    Every rule has an even node count (its circle or 0-sphere factor) and
    _BLOCK_POINTS is even, so no run holds a single node, whose coordinates
    numpy's matmul would compute with gemv instead of gemm, and other bits.
    """
    vals = np.empty((count, size))
    for run in _blocks(size, count):
        points = nodes(run)
        vals[:, run] = field(points.reshape(len(points), -1).T).reshape(count, -1)
        if not np.isfinite(vals[:, run]).all():
            raise ValueError(f"integrand blowup: field is not finite on {where}")
    vals *= weights
    return np.add.reduce(vals, axis=1).tolist()


def _plane_sum(field, nodes: np.ndarray, weights: np.ndarray, where: str) -> float:
    """sum(field(nodes) * weights) of one plane's rule, nodes (dim, m) and weights (m,).

    The field is called once on all m nodes; a rule larger than
    _BLOCK_POINTS is summed by _run_sums, as a chunk of one.
    """
    size = nodes.shape[1]
    if size > _BLOCK_POINTS:
        return _run_sums(field, lambda run: nodes[:, None, run], weights, 1, size, where)[0]
    vals = field(nodes.T)
    total = float(np.add.reduce(vals * weights))
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
    # a field declared zonal is given only the projected points' last coordinates
    last_only = {"last_only": True} if f.zonal else {}

    def geval(x: np.ndarray) -> np.ndarray:
        # nu is stereo._nu_and_denominator, so |x|^2 is computed once per
        # point.  It is looked up in this module at each call under the name
        # nu: the traced benchmark counts stereo.points by replacing
        # transforms.nu.
        eta, denom = nu(x, **last_only)
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
    lhs = slice_transform(f, tau, spec)
    rhs = radon_john(op_B(f, tau.dims), tau.section, spec)
    return FactorizationReport(lhs=lhs, rhs=rhs, abs_diff=abs(lhs - rhs))


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
    if _as_integer(flat_dim) is None:
        raise TypeError(f"flat dimension must be an integer, got {flat_dim!r}")
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
