"""Quadrature rules: Gauss-Legendre segments, product rules on spheres, truncated flats.

Radial integrals over half-lines are handled by composite Gauss-Legendre on
dyadically widening panels.  That keeps nodes dense near the origin (where
integrands vary on scale one) while reaching very large truncation radii with
a node count that grows only logarithmically in the cutoff, which matters for
slowly decaying integrands pulled back from the sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_gegenbauer

__all__ = [
    "QuadratureSpec",
    "composite_gauss",
    "sphere_rule",
    "flat_rule",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Discretization knobs shared by every operator in the package.

    sphere_order        nodes per angular dimension in product sphere rules
    radial_order        Gauss-Legendre order per radial panel
    radial_cutoff       truncation radius for integrals over flats
    orientation_samples flats per point in dual-transform averages, and the
                        number of line orientations in the line-data table
                        that invert_radon and invert_slice filter and
                        backproject
    seed                seeds orientation sampling and random plane draws
    """

    sphere_order: int = 64
    radial_order: int = 128
    radial_cutoff: float = 40.0
    orientation_samples: int = 256
    seed: int = 0

    def __post_init__(self):
        if min(self.sphere_order, self.radial_order, self.orientation_samples) < 1:
            raise ValueError("orders and sample counts must be positive")
        if not math.isfinite(self.radial_cutoff) or self.radial_cutoff < 1.0:
            raise ValueError("radial_cutoff must be finite and at least 1")


# Rules are built once per process for each key and returned read-only, so
# every caller shares one copy.  The flat templates are the largest entries
# (one node per pair of radial and angular nodes), hence their smaller cache.
_RULE_CACHE_SIZE = 64
_TEMPLATE_CACHE_SIZE = 16


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def _leggauss(order: int):
    # Cached reference rule on [-1, 1]; callers rescale, never mutate.
    return _read_only(*leggauss(order))


def gauss_legendre(order: int, a: float, b: float):
    """Gauss-Legendre nodes and weights on [a, b], exact through degree 2*order - 1."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if not a < b:
        raise ValueError(f"empty interval [{a}, {b}]")
    x, w = _leggauss(int(order))
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid + half * x, half * w


def panel_edges(lo: float, hi: float) -> np.ndarray:
    """Dyadic panel boundaries covering [lo, hi].

    From lo = 0 the first panel ends at min(1, hi); afterwards each panel is
    twice as wide as its predecessor, the last one clipped at hi.
    """
    if not hi > lo or lo < 0.0:
        raise ValueError(f"bad radial range [{lo}, {hi}]")
    edges = [lo]
    cur = 1.0 if lo == 0.0 else 2.0 * lo
    while cur < hi * (1.0 - 1e-12):
        edges.append(cur)
        cur *= 2.0
    edges.append(hi)
    return np.asarray(edges)


@lru_cache(maxsize=_RULE_CACHE_SIZE)
def composite_gauss(lo: float, hi: float, order: int):
    """Composite Gauss-Legendre on dyadic panels spanning [lo, hi] (cached, read-only)."""
    edges = panel_edges(lo, hi)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        x, w = gauss_legendre(order, a, b)
        nodes.append(x)
        weights.append(w)
    return _read_only(np.concatenate(nodes), np.concatenate(weights))


def sphere_rule(d: int, order: int):
    """Quadrature on the unit sphere of dimension d (surface in R^{d+1}).

    Returns (nodes, weights) with nodes of shape (m, d+1) and positive weights
    summing to the sphere area.  d = 0 is the two-point set {+1, -1}; d = 1 is
    the uniform circle rule; d >= 2 is a product of a Gauss-Gegenbauer rule in
    the polar cosine with a recursive rule on the equatorial sphere.  Exact for
    spherical polynomials of degree up to the requested order.  The arrays are
    cached per (d, order) and read-only.
    """
    if d < 0:
        raise ValueError("sphere dimension must be >= 0")
    if order < 1:
        raise ValueError("order must be >= 1")
    return _sphere_rule(d, order)


@lru_cache(maxsize=_RULE_CACHE_SIZE)
def _sphere_rule(d: int, order: int):
    if d == 0:
        return _read_only(np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
    if d == 1:
        m = order if order % 2 == 0 else order + 1  # even count keeps the rule antipodal
        ang = 2.0 * np.pi * (np.arange(m) + 0.5) / m
        nodes = np.column_stack([np.cos(ang), np.sin(ang)])
        return _read_only(nodes, np.full(m, 2.0 * np.pi / m))
    # Polar weight (1 - z^2)^{(d-2)/2} corresponds to Gegenbauer alpha = (d-1)/2.
    z, wz = roots_gegenbauer(order, 0.5 * (d - 1))
    sub_nodes, sub_w = _sphere_rule(d - 1, order)
    sin_pol = np.sqrt(np.clip(1.0 - z**2, 0.0, None))
    nodes = np.concatenate(
        [
            (sin_pol[:, None, None] * sub_nodes[None, :, :]).reshape(-1, d),
            np.repeat(z, len(sub_nodes))[:, None],
        ],
        axis=1,
    )
    weights = (wz[:, None] * sub_w[None, :]).ravel()
    return _read_only(nodes, weights)


def flat_rule(zeta, spec: QuadratureSpec):
    """Nodes and weights on an affine flat, truncated at radius radial_cutoff.

    The rule is polar in the flat's intrinsic coordinates about its closest
    point to the origin: composite dyadic Gauss-Legendre radially, a sphere
    rule in the angular factor.  Weights are positive and sum to the volume of
    the truncated ball of dimension d = zeta.dim.

    Tail error is the caller's responsibility: for an integrand decaying like
    r^{-lam} the neglected mass scales like radial_cutoff^{d - lam}.

    The nodes have shape (m, n) and are coordinate-major (Fortran order):
    each coordinate is one contiguous column.
    """
    nodes, weights = _flat_nodes(zeta.basis[None], zeta.offset[None], spec)
    return nodes[:, 0].T, weights


def _flat_nodes(bases: np.ndarray, offsets: np.ndarray, spec: QuadratureSpec):
    """flat_rule for a stack of flats: bases (C, d, n) and offsets (C, n).

    Returns nodes of shape (n, C, m), so that reshape(n, C * m).T holds flat
    i's nodes in rows i*m to (i+1)*m, coordinate-major, and the weights (m,)
    that every flat of the stack shares.  Flat i's values are the stack of
    one's bits.
    """
    d = bases.shape[1]
    if d < 1:
        raise ValueError("flat must have dimension >= 1")
    intrinsic, weights = _flat_template(d, spec.radial_cutoff, spec.radial_order, spec.sphere_order)
    # offset + intrinsic @ basis, built with one contiguous row per
    # coordinate and flat, so the offset is added in one contiguous pass per
    # coordinate.  A line's product has one term: a broadcast product gives
    # the matmul's values without a BLAS call.
    nodes = np.empty((bases.shape[2], len(bases), len(weights)))
    if d == 1:
        np.multiply(bases.transpose(2, 0, 1), intrinsic[:, 0], out=nodes)
    else:
        np.matmul(bases.transpose(0, 2, 1), intrinsic.T, out=nodes.transpose(1, 0, 2))
    nodes += offsets.T[:, :, None]
    return nodes, weights


@lru_cache(maxsize=_TEMPLATE_CACHE_SIZE)
def _flat_template(d: int, radial_cutoff: float, radial_order: int, sphere_order: int):
    """Intrinsic nodes rho * omega, (m, d) coordinate-major, and weights of every d-flat's rule."""
    rho, w_rho = composite_gauss(0.0, radial_cutoff, radial_order)
    dirs, w_dir = sphere_rule(d - 1, sphere_order)
    intrinsic = np.asfortranarray((rho[:, None, None] * dirs[None, :, :]).reshape(-1, d))
    weights = (w_rho * rho ** (d - 1))[:, None] * w_dir[None, :]
    return _read_only(intrinsic, weights.ravel())
