"""Quadrature rules: Gauss-Legendre segments, product rules on spheres, truncated flats.

Every 1-D Gauss rule comes from one numpy builder, _gauss_gegenbauer: the
Gauss-Legendre rules are its alpha = 1/2 case, and the polar factors of the
sphere rules its alpha = (d - 1)/2 cases.

Radial integrals over half-lines are handled by composite Gauss-Legendre on
dyadically widening panels.  That keeps nodes dense near the origin (where
integrands vary on scale one) while reaching very large truncation radii with
a node count that grows only logarithmically in the cutoff, which matters for
slowly decaying integrands pulled back from the sphere.

The module also holds the package's one interpolating spline (_interp_spline),
which the inversion fits to its line-data rows and zonal_invert to its
profile grid.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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

    The orders, the sample count and the seed must be Python or numpy
    integers; any float, even 8.0, is refused rather than truncated, and so
    is a bool.  The seed must not be negative.
    """

    sphere_order: int = 64
    radial_order: int = 128
    radial_cutoff: float = 40.0
    orientation_samples: int = 256
    seed: int = 0

    def __post_init__(self):
        for name in ("sphere_order", "radial_order", "orientation_samples", "seed"):
            if _as_integer(getattr(self, name)) is None:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if min(self.sphere_order, self.radial_order, self.orientation_samples) < 1:
            raise ValueError("orders and sample counts must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not math.isfinite(self.radial_cutoff) or self.radial_cutoff < 1.0:
            raise ValueError("radial_cutoff must be finite and at least 1")


# Rules are built once per process for each key and returned read-only, so
# every per-call integral shares one copy.  The flat templates are the
# largest entries (one node per pair of radial and angular nodes), hence
# their smaller cache.  A stack of planes builds its product rule itself,
# from the cached rules it is a product of, and drops it on return.
_RULE_CACHE_SIZE = 64
_TEMPLATE_CACHE_SIZE = 16


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _as_integer(value) -> int | None:
    """value as an int if it is a Python or numpy integer, else None: a float, even 8.0, or a bool is not."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def _rule_order(order) -> int:
    """order as an int: a Python or numpy integer of at least 1, never a truncated float or a bool."""
    index = _as_integer(order)
    if index is None:
        raise TypeError(f"order must be an integer, got {order!r}")
    if index < 1:
        raise ValueError("order must be >= 1")
    return index


@lru_cache(maxsize=None, typed=True)  # typed: the order 8.0 misses 8's entry and is refused
def _gauss_gegenbauer(order: int, alpha: float):
    """Gauss-Gegenbauer nodes and weights on [-1, 1] for the weight (1 - x^2)^(alpha - 1/2), alpha > 0.

    Cached and read-only; callers rescale, never mutate.  The nodes are the
    eigenvalues of the Jacobi matrix (Golub and Welsch 1969), refined by two
    Newton steps on the Gegenbauer polynomial C of degree order.  The
    weights are 1/((1 - x^2) C'(x)^2), symmetrized with the nodes and scaled
    to sum to the weight's integral sqrt(pi) Gamma(alpha + 1/2) / Gamma(alpha + 1).
    """
    m = _rule_order(order)
    n = np.arange(1.0, m)
    # the Jacobi matrix's subdiagonal: the orthonormal polynomials' recurrence coefficients
    subdiagonal = np.sqrt(n * (n + 2.0 * alpha - 1.0) / (4.0 * (n + alpha) * (n + alpha - 1.0)))
    x = np.linalg.eigvalsh(np.diag(subdiagonal, -1))
    for _ in range(2):
        c, dc = _gegenbauer_values(x, m, alpha)
        x = x - c / dc
    c, dc = _gegenbauer_values(x, m, alpha)
    # The Newton step left, -c / dc, is below the nodes' resolution.  By the
    # Gegenbauer equation, (1 - x^2) C'(x)^2 has the logarithmic derivative
    # 4 alpha x / (1 - x^2) at a root, so the weights take that step to
    # first order.
    sin2 = 1.0 - x * x
    w = (1.0 + 4.0 * alpha * x * (c / dc) / sin2) / (sin2 * dc * dc)
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    w *= math.sqrt(math.pi) * math.gamma(alpha + 0.5) / math.gamma(alpha + 1.0) / w.sum()
    return _read_only(x, w)


def _gegenbauer_values(x: np.ndarray, m: int, alpha: float):
    """C and C' at x, C the Gegenbauer polynomial of degree m and parameter alpha.

    The three-term recurrence (j + 1) C_{j+1} = 2 (j + alpha) x C_j - (j + 2 alpha - 1) C_{j-1}
    has coefficients that are exact in floating point for the half-integer
    alpha of the sphere rules, which is what keeps the Newton steps' roots
    within about an ulp of the true nodes.
    """
    c_prev, c = np.zeros_like(x), np.ones_like(x)
    dc_prev, dc = np.zeros_like(x), np.zeros_like(x)
    for j in range(m):
        a, b = 2.0 * (j + alpha), j + 2.0 * alpha - 1.0
        c_prev, c = c, (a * x * c - b * c_prev) / (j + 1.0)
        dc_prev, dc = dc, (a * (c_prev + x * dc) - b * dc_prev) / (j + 1.0)
    return c, dc


def gauss_legendre(order: int, a: float, b: float):
    """Gauss-Legendre nodes and weights on [a, b], exact through degree 2*order - 1."""
    order = _rule_order(order)
    if not -math.inf < a < b < math.inf:
        raise ValueError(f"interval [{a}, {b}] must be finite and nonempty")
    x, w = _gauss_gegenbauer(order, 0.5)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid + half * x, half * w


def panel_edges(lo: float, hi: float) -> np.ndarray:
    """Dyadic panel boundaries covering [lo, hi].

    From lo = 0 the first panel ends at min(1, hi); afterwards each panel is
    twice as wide as its predecessor, the last one clipped at hi, which
    must be finite.
    """
    if not 0.0 <= lo < hi < math.inf:
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
    the polar cosine (_gauss_gegenbauer, alpha = (d - 1)/2) with a recursive
    rule on the equatorial sphere.  Exact for spherical polynomials of degree
    up to the requested order.  The arrays are cached per (d, order) and
    read-only.
    """
    dim = _as_integer(d)
    if dim is None:
        raise TypeError(f"sphere dimension must be an integer, got {d!r}")
    if dim < 0:
        raise ValueError("sphere dimension must be >= 0")
    return _sphere_rule(dim, _rule_order(order))


def _build_sphere_rule(d: int, order: int):
    """sphere_rule's arrays, read-only, built anew; only the rules they are a product of come from caches.

    A product rule's nodes are written into one preallocated array: the
    equatorial nodes scaled by each polar sine, then the polar cosine.
    """
    if d == 0:
        return _read_only(np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))
    if d == 1:
        m = order if order % 2 == 0 else order + 1  # even count keeps the rule antipodal
        ang = 2.0 * np.pi * (np.arange(m) + 0.5) / m
        nodes = np.column_stack([np.cos(ang), np.sin(ang)])
        return _read_only(nodes, np.full(m, 2.0 * np.pi / m))
    # Polar weight (1 - z^2)^{(d-2)/2} corresponds to Gegenbauer alpha = (d-1)/2.
    z, wz = _gauss_gegenbauer(order, 0.5 * (d - 1))
    sub_nodes, sub_w = _sphere_rule(d - 1, order)
    sin_pol = np.sqrt(np.clip(1.0 - z**2, 0.0, None))
    nodes = np.empty((len(z), len(sub_w), d + 1))
    for c in range(d):
        np.multiply(sin_pol[:, None], sub_nodes[:, c], out=nodes[:, :, c])
    nodes[:, :, d] = z[:, None]
    weights = (wz[:, None] * sub_w[None, :]).ravel()
    return _read_only(nodes.reshape(-1, d + 1), weights)


_sphere_rule = lru_cache(maxsize=_RULE_CACHE_SIZE)(_build_sphere_rule)


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
    intrinsic, weights = _flat_template(*_template_key(zeta.dim, spec))
    return _flat_points(zeta.basis[None], zeta.offset[None], intrinsic)[:, 0].T, weights


def _flat_points(bases: np.ndarray, offsets: np.ndarray, intrinsic: np.ndarray) -> np.ndarray:
    """offset + intrinsic @ basis on each flat of a (C, d, n), (C, n) stack, for template nodes (m, d).

    Returns nodes of shape (n, C, m), so that reshape(n, C * m).T holds flat
    i's nodes in rows i*m to (i+1)*m, coordinate-major; flat i's values are
    the stack of one's bits.  intrinsic may be a run of a template's rows
    (see _flat_span).
    """
    nodes = _flat_span(bases, intrinsic)
    # the offset is added in one contiguous pass per coordinate
    nodes += offsets.T[:, :, None]
    return nodes


def _template_key(d: int, spec: QuadratureSpec) -> tuple:
    """The arguments of the d-flat template under spec."""
    if d < 1:
        raise ValueError("flat must have dimension >= 1")
    return d, spec.radial_cutoff, spec.radial_order, spec.sphere_order


def _flat_span(bases: np.ndarray, intrinsic: np.ndarray) -> np.ndarray:
    """intrinsic @ basis for each basis of a (C, d, n) stack and template nodes (m, d), before any offset.

    Returns nodes (n, C, m), one contiguous row per coordinate and flat.
    intrinsic may be a run of a template's rows: each node's coordinates
    are the same products, with the same BLAS call, as in the whole template
    unless the run is a single node, which numpy hands to gemv instead of
    gemm.
    """
    # A line's product has one term: a broadcast product gives the matmul's
    # values without a BLAS call.
    nodes = np.empty((bases.shape[2], len(bases), len(intrinsic)))
    if bases.shape[1] == 1:
        np.multiply(bases.transpose(2, 0, 1), intrinsic[:, 0], out=nodes)
    else:
        np.matmul(bases.transpose(0, 2, 1), intrinsic.T, out=nodes.transpose(1, 0, 2))
    return nodes


def _build_flat_template(d: int, radial_cutoff: float, radial_order: int, sphere_order: int):
    """Intrinsic nodes rho * omega, (m, d) coordinate-major, and weights of every d-flat's rule, built anew."""
    rho, w_rho = composite_gauss(0.0, radial_cutoff, radial_order)
    dirs, w_dir = sphere_rule(d - 1, sphere_order)
    # written straight into its coordinate-major layout, one contiguous (radius, direction) block per coordinate
    intrinsic = np.empty((len(rho) * len(dirs), d), order="F")
    for c in range(d):
        np.multiply(rho[:, None], dirs[:, c], out=intrinsic[:, c].reshape(len(rho), len(dirs)))
    weights = (w_rho * rho ** (d - 1))[:, None] * w_dir[None, :]
    return _read_only(intrinsic, weights.ravel())


_flat_template = lru_cache(maxsize=_TEMPLATE_CACHE_SIZE)(_build_flat_template)


# Rows per diagonal block of the spline systems (see _banded_solve).
_SOLVE_BLOCK = 32


class _Spline:
    """A piecewise polynomial on the breakpoints x (n,), with coefficients c (k + 1, n - 1, ...).

    Piece j is sum_r c[r, j] (s - x[j])^(k - r), highest power first; the
    axes after the second are channels.  Calls evaluate every channel at once
    and extend the end pieces beyond [x[0], x[-1]].
    """

    def __init__(self, x: np.ndarray, c: np.ndarray):
        self.x, self.c = x, c

    def __call__(self, s) -> np.ndarray:
        """Values at s, shaped s.shape + the channel shape."""
        s = np.asarray(s, dtype=float)
        piece = np.clip(np.searchsorted(self.x, s, side="right") - 1, 0, len(self.x) - 2)
        channels = self.c.shape[2:]
        # ds is repeated over the channels and each power's coefficients are
        # gathered row by row, so that Horner's rule runs over contiguous arrays
        ds = np.repeat(s - self.x[piece], math.prod(channels)).reshape(s.shape + channels)
        acc = self.c[0].take(piece, axis=0)
        for cr in self.c[1:]:
            acc *= ds
            acc += cr.take(piece, axis=0)
        return acc

    def channel(self, i: int) -> _Spline:
        """Channel i alone, sharing this spline's memory."""
        return _Spline(self.x, self.c[:, :, i])


def _interp_spline(x: np.ndarray, y: np.ndarray, k: int) -> _Spline:
    """The not-a-knot interpolating spline of odd degree k through (x, y), y of shape (n, ...).

    The knots are the not-a-knot choice (de Boor, A Practical Guide to
    Splines, XIII(12)): x[0] k + 1 times, x[m + 1:-m - 1] with
    m = (k - 1) / 2, then x[-1] k + 1 times; at k = 3 this is the cubic
    not-a-knot spline.  x must be strictly increasing with
    n >= k + 1 points.  The B-spline collocation matrix is totally positive,
    so it is solved without pivoting between blocks (see _banded_solve), and
    the spline is returned in piecewise-polynomial form on the pieces
    [x[j], x[j + 1]].
    """
    n = len(x)
    m = (k - 1) // 2
    t = np.concatenate([np.full(k + 1, x[0]), x[m + 1:n - m - 1], np.full(k + 1, x[-1])])
    # interval l of each point, t[l] <= x < t[l + 1], the last point in the last one
    left = np.minimum(np.searchsorted(t, x, side="right") - 1, n - 1)
    basis = _bspline_basis(t, left, x, k)
    y2 = y.reshape(n, -1)
    pieces = np.empty((k + 1, n - 1, y2.shape[1]))
    # Piece j's Taylor coefficients at x[j]: the value there is y[j], and the
    # r-th derivative, divided by r!, follows from the derivative's B-spline
    # coefficients (degree p = k - r, held from index r on); those of the
    # p + 1 B-splines nonzero at x[j] sit at left[j] - k + a, a = 0, ..., p.
    pieces[k] = y2[:-1]
    coef = _banded_solve(left - k, basis[k], y2)
    first = left[:-1] - k
    scale = 1.0
    for r in range(1, k + 1):
        p = k - r
        coef = (p + 1) * (coef[1:] - coef[:-1]) / (t[r + p + 1:n + p + 1] - t[r:n])[:, None]
        scale *= r
        acc = pieces[k - r]
        np.multiply(basis[p][:-1, :1], coef[first], out=acc)
        for a in range(1, p + 1):
            acc += basis[p][:-1, a:a + 1] * coef[first + a]
        acc /= scale
    return _Spline(x, pieces.reshape((k + 1, n - 1) + y.shape[1:]))


def _bspline_basis(t: np.ndarray, left: np.ndarray, x: np.ndarray, k: int) -> list[np.ndarray]:
    """The B-splines of each degree p <= k nonzero at x: p + 1 values (len(x), p + 1) per degree.

    Point i lies in the knot interval left[i]; its values are those of the
    B-splines with first knots left[i] - p, ..., left[i] (Cox-de Boor).
    """
    values = [np.ones((len(x), 1))]
    right = [t[left + 1 + r] - x for r in range(k)]
    below = [x - t[left - r] for r in range(k)]
    for p in range(1, k + 1):
        prev = values[-1]
        cur = np.zeros((len(x), p + 1))
        for r in range(p):
            term = prev[:, r] / (right[r] + below[p - 1 - r])
            cur[:, r] += right[r] * term
            cur[:, r + 1] = below[p - 1 - r] * term
        values.append(cur)
    return values


def _banded_solve(start: np.ndarray, rows: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve A z = rhs (n, C), where row i of A holds rows[i] at columns start[i], start[i] + 1, ...

    The band must be narrower than _SOLVE_BLOCK.  The rows are cut into
    blocks of _SOLVE_BLOCK, so A is block tridiagonal, and block elimination
    runs down it: each diagonal block, less the previous block's coupling,
    is solved against its coupling to the next block and its data, and the
    unknowns then follow upwards by matmuls alone.  LAPACK pivots within a
    block, nothing between blocks: a collocation matrix is totally positive,
    so elimination without pivoting is stable (de Boor).
    """
    n, width = rows.shape
    b = _SOLVE_BLOCK
    nb = -(-n // b)
    blk, ri = np.divmod(np.arange(n)[:, None], b)
    # each block's rows: their columns in blocks p - 1, p and p + 1, then their data
    a = np.zeros((nb, b, 3 * b + rhs.shape[1]))
    a[blk, ri, start[:, None] + np.arange(width) - (blk - 1) * b] = rows
    pad = np.arange(n - (nb - 1) * b, b)
    a[nb - 1, pad, b + pad] = 1.0  # the padding's identity
    a.reshape(nb * b, -1)[:n, 3 * b:] = rhs
    for p in range(nb):
        if p:
            update = a[p, :, :b] @ a[p - 1, :, 2 * b:]
            a[p, :, b:2 * b] -= update[:, :b]
            a[p, :, 3 * b:] -= update[:, b:]
        a[p, :, 2 * b:] = np.linalg.solve(a[p, :, b:2 * b], a[p, :, 2 * b:])
    z = a[:, :, 3 * b:]
    for p in range(nb - 2, -1, -1):
        z[p] -= a[p, :, 2 * b:3 * b] @ z[p + 1]
    return z.reshape(nb * b, -1)[:n]
