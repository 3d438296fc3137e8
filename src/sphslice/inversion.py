"""Inversion of the flat transform and of the sphere slice transform.

The flat transform of order k' is undone in two steps: backprojection (the
dual transform, averaging data over all flats through a point) followed by a
fractional derivative of order k' that removes the smoothing the
backprojection introduced.  The derivative is hypersingular and is realized
with finite differences,

    D^k h (x) = (1/d) lim_{eps -> 0} int_{|y| > eps}
                  sum_j (-1)^j C(ell, j) h(x - j y)  |y|^{-n-k} dy,

where ell is the difference order and d a normalizing constant depending on
(n, ell, k).  Truncations in eps are removed by Richardson extrapolation over
eps, eps/2, eps/4; truncation at an outer radius is compensated by a decay
model for h (see riesz_derivative).  Slice data is inverted by carrying it to
flat data over the plane correspondence, inverting there, and conjugating
back to the sphere.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import RectBivariateSpline

from .geometry import Dimensions, FlatSpec, _unchecked_flat
from .quadrature import QuadratureSpec, gauss_legendre, sphere_rule
from .transforms import PlaneField, SphereField, flat_through, op_B_inverse, orientation_set, section_to_plane
from .zonal import sigma

__all__ = [
    "RieszParams",
    "InversionReport",
    "RefinementTrace",
    "coeff_B_l",
    "coeff_B_l_prime",
    "coeff_d",
    "coeff_c",
    "riesz_derivative",
    "riesz_refinement_report",
    "make_dual_field",
    "invert_radon",
    "invert_slice",
    "reconstruction_report",
]

# Fine sampling of the line-data table, and its half-width; beyond it the
# table continues at the coarse step and grows on demand.
TABLE_FINE_STEP = 0.02
TABLE_FINE_SPAN = 10.0
TABLE_COARSE_STEP = 0.2

# Cached-field zones: a fine quintic patch around the requested points and a
# coarse cubic patch covering everything the truncated singular integral and
# its tail correction can touch.
NEAR_STEP = 0.04
NEAR_SPAN = 4.0
FAR_STEP = 0.25
FAR_PAD = 2.0

# Each zone's spline is evaluated through a SPLINE_TILES x SPLINE_TILES grid
# of windows onto its knot spans (see _SplineZone), SPLINE_BLOCK points at a
# time, which bounds the scratch memory of sorting points by tile.
SPLINE_TILES = 16
SPLINE_BLOCK = 1 << 17

# Relative gap between the two Richardson stages above which the refinement
# is reported as not settled.
REFINEMENT_GAP_TOL = 0.05

# Non-decreasing eps-halving differences are reported only above this
# fraction of the largest value, so sign changes at noise level stay silent.
NONCONV_TOL = 1e-3

_CHUNK_POINTS = 2_000_000


@dataclass(frozen=True)
class RieszParams:
    """Settings of the hypersingular derivative.

    k_order is the derivative order (the flat dimension when inverting).
    ell is the finite-difference order: for odd k_order it must equal
    k_order (higher differences annihilate the needed moment), for even
    k_order it must exceed it; None picks the smallest valid choice.
    eps is the largest inner cutoff of the Richardson ladder, outer_R the
    truncation radius, and tail_decay the power with which the field decays
    beyond outer_R (None means n - k_order, the rate of a backprojection;
    0 models a field that stays flat, and makes constants differentiate to
    exactly zero).
    """

    k_order: int
    ell: int | None = None
    eps: float = 0.05
    outer_R: float = 30.0
    tail_decay: float | None = None

    def __post_init__(self):
        if not isinstance(self.k_order, int) or self.k_order < 1:
            raise ValueError("k_order must be an integer >= 1")
        if self.ell is not None:
            if not isinstance(self.ell, int) or self.ell < 1:
                raise ValueError("ell must be an integer >= 1")
            if self.k_order % 2 == 1 and self.ell != self.k_order:
                raise ValueError("odd k_order requires ell == k_order")
            if self.k_order % 2 == 0 and self.ell <= self.k_order:
                raise ValueError("even k_order requires ell > k_order")
        if self.eps <= 0.0:
            raise ValueError("eps must be positive")
        if self.outer_R < 4.0 * self.eps:
            raise ValueError("outer_R must be at least 4 * eps")
        if self.tail_decay is not None and self.tail_decay < 0.0:
            raise ValueError("tail_decay must be >= 0")

    @property
    def resolved_ell(self) -> int:
        if self.ell is not None:
            return self.ell
        return self.k_order if self.k_order % 2 == 1 else self.k_order + 1


@dataclass(frozen=True)
class RefinementTrace:
    """Refinement diagnostics of one hypersingular evaluation."""

    levels: tuple[float, float, float]   # truncated values at eps, eps/2, eps/4
    stage_one: tuple[float, float]       # first Richardson stage
    value: float                         # second-stage extrapolation
    gap: float                           # |difference of the first-stage pair|

    @property
    def settled(self) -> bool:
        return self.gap <= REFINEMENT_GAP_TOL * (abs(self.value) + 1e-300)


@dataclass(frozen=True)
class InversionReport:
    """Reconstruction together with its residuals against a reference."""

    reconstruction: object               # SphereField or PlaneField
    residual_linf: float
    residual_l2: float
    settings: dict

    def __post_init__(self):
        if self.residual_linf < 0.0 or self.residual_l2 < 0.0:
            raise ValueError("residuals must be nonnegative")


def reconstruction_report(reconstruction, reference, points, settings: dict | None = None) -> InversionReport:
    """Evaluate a reconstruction against a reference field on sample points.

    Both fields are called on the (N, d) point array; the sup and root mean
    square differences become the report residuals.
    """
    pts = np.asarray(points, dtype=float)
    got = np.asarray(reconstruction(pts), dtype=float)
    want = np.asarray(reference(pts), dtype=float)
    diff = got - want
    return InversionReport(
        reconstruction=reconstruction,
        residual_linf=float(np.max(np.abs(diff))) if diff.size else 0.0,
        residual_l2=float(np.sqrt(np.mean(diff**2))) if diff.size else 0.0,
        settings=dict(settings or {}),
    )


def coeff_B_l(ell: int, alpha: float) -> float:
    """Alternating binomial moment sum_{j=1..ell} (-1)^j C(ell,j) j^alpha."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    return sum((-1) ** j * math.comb(ell, j) * float(j) ** alpha for j in range(1, ell + 1))


def coeff_B_l_prime(ell: int, alpha: float) -> float:
    """Derivative in alpha of coeff_B_l: adds a factor log j to each term."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    return sum(
        (-1) ** j * math.comb(ell, j) * float(j) ** alpha * math.log(j) for j in range(1, ell + 1)
    )


def coeff_d(n: int, ell: int, k_order: int) -> float:
    """Normalizer of the finite-difference hypersingular integral in R^n.

    For odd k_order this is pi^{n/2} Gamma(-k/2) B_ell(k) / (2^k Gamma((n+k)/2)).
    At even k_order the Gamma factor has a pole and B_ell(k) a matching zero
    (ell > k there), and the limit value replaces their product.
    """
    k = k_order
    front = math.pi ** (0.5 * n) / (2.0**k * math.gamma(0.5 * (n + k)))
    if k % 2 == 1:
        return front * math.gamma(-0.5 * k) * coeff_B_l(ell, k)
    sign = 2.0 * (-1.0) ** (k // 2 - 1) / math.factorial(k // 2)
    return front * sign * coeff_B_l_prime(ell, k)


def coeff_c(k_order: int, n: int) -> float:
    """Constant relating backprojected flat data to the smoothed field."""
    if not 1 <= k_order < n:
        raise ValueError("need 1 <= k_order < n")
    return 2.0**k_order * math.pi ** (0.5 * k_order) * math.gamma(0.5 * n) / math.gamma(0.5 * (n - k_order))


def _evenized(ell: int) -> int:
    return ell if ell % 2 == 0 else ell + 1


def _radial_panels(eps: float, outer_R: float, order: int):
    """Shared node ladder on [eps/4, outer_R] with panel breaks at eps/2 and eps.

    Returns nodes, weights and, for each refinement level (eps, eps/2, eps/4),
    a boolean mask selecting the nodes above that level.
    """
    edges = [eps / 4.0, eps / 2.0, eps]
    while edges[-1] < outer_R * (1.0 - 1e-12):
        edges.append(min(2.0 * edges[-1], outer_R))
    nodes, weights, starts = [], [], []
    for a, b in zip(edges[:-1], edges[1:]):
        x, w = gauss_legendre(order, a, b)
        starts.append(len(nodes))
        nodes.extend(x)
        weights.extend(w)
    nodes = np.asarray(nodes)
    weights = np.asarray(weights)
    masks = []
    for level in range(3):  # eps, eps/2, eps/4
        start = starts[2 - level]
        mask = np.zeros(len(nodes), dtype=bool)
        mask[start:] = True
        masks.append(mask)
    return nodes, weights, masks


def _difference_signs(ell: int) -> np.ndarray:
    return np.array([(-1.0) ** j * math.comb(ell, j) for j in range(1, ell + 1)])


def _richardson(levels, p: int):
    """Two Richardson stages over the truncated values at eps, eps/2, eps/4.

    The truncation error of the difference integral is a series in eps^p,
    eps^(p+2), ...; the first stage removes the eps^p term from each adjacent
    pair, the second removes eps^(p+2).  Returns (a1, a2, value).
    """
    denom = 2.0**p - 1.0
    a1 = levels[1] + (levels[1] - levels[0]) / denom
    a2 = levels[2] + (levels[2] - levels[1]) / denom
    return a1, a2, a2 + (a2 - a1) / (2.0 ** (p + 2) - 1.0)


def _riesz_batch(h, X: np.ndarray, params: RieszParams, spec: QuadratureSpec):
    """Hypersingular derivative of h at a batch of points X of shape (B, n).

    Returns (values, nonconv, scale, levels): the extrapolated derivative per
    point, the largest eps-halving difference at a point where the differences
    failed to decrease (0.0 when they decreased everywhere), the largest
    absolute result (for judging whether the failure matters), and the
    truncated values at eps, eps/2 and eps/4 as a (3, B) array.
    """
    n = X.shape[1]
    k = params.k_order
    ell = params.resolved_ell
    gamma = params.tail_decay if params.tail_decay is not None else max(n - k, 0)
    d_norm = coeff_d(n, ell, k)
    omega, w_omega = sphere_rule(n - 1, spec.sphere_order)
    rho, w_rho, level_masks = _radial_panels(params.eps, params.outer_R, max(8, spec.radial_order // 8))
    signs = _difference_signs(ell)
    p = _evenized(ell) - k

    if hasattr(h, "reserve") and len(X):
        lo, hi = X.min(axis=0), X.max(axis=0)
        reach = ell * params.outer_R + FAR_PAD
        h.reserve((lo - NEAR_SPAN, hi + NEAR_SPAN), (lo - reach, hi + reach))

    # Difference offsets j * rho_i * omega_a, shared by every evaluation point.
    j_arange = np.arange(1, ell + 1, dtype=float)
    offsets = rho[:, None, None, None] * omega[None, :, None, :] * j_arange[None, None, :, None]
    radial_factor = w_rho * rho ** (-k - 1.0)
    surface = sigma(n - 1)

    out = np.empty(len(X))
    out_levels = np.empty((3, len(X)))
    nonconv = 0.0
    chunk = max(1, _CHUNK_POINTS // max(1, len(rho) * len(omega) * ell))
    for lo_i in range(0, len(X), chunk):
        xs = X[lo_i : lo_i + chunk]
        h_at_x = np.asarray(h(xs), dtype=float)
        pts = xs[:, None, None, None, :] - offsets[None, :, :, :, :]
        vals = np.asarray(h(pts.reshape(-1, n)), dtype=float).reshape(
            len(xs), len(rho), len(omega), ell
        )
        diff = vals @ signs + h_at_x[:, None, None]
        angular = diff @ w_omega
        # Tail beyond outer_R: the j = 0 term integrates exactly; for j >= 1
        # the field is replaced by its angular average at radius j * outer_R
        # decaying like r^{-gamma}.
        tail_pts = xs[:, None, None, :] - params.outer_R * _tail_offsets(omega, ell)
        tail_vals = np.asarray(h(tail_pts.reshape(-1, n)), dtype=float).reshape(
            len(xs), len(omega), ell
        )
        tail_avg = np.tensordot(tail_vals, w_omega, axes=([1], [0])) / surface
        tail = surface * params.outer_R ** (-k) * (
            h_at_x / k + (tail_avg @ signs) / (k + gamma)
        )
        levels = [(angular @ (radial_factor * m) + tail) / d_norm for m in level_masks]
        out_levels[:, lo_i : lo_i + chunk] = levels
        out[lo_i : lo_i + chunk] = _richardson(levels, p)[2]
        d1 = np.abs(levels[1] - levels[0])
        d2 = np.abs(levels[2] - levels[1])
        # smooth fields shrink the halving differences by 2^p or better; a
        # ratio near one (log divergence gives exactly one, minus rounding)
        # or above means the refinement is not converging
        bad = d2 >= 0.9 * d1
        if bad.any():
            nonconv = max(nonconv, float(np.max(d2[bad])))
    if not np.all(np.isfinite(out)):
        raise ValueError("integrand blowup in hypersingular integral")
    return out, nonconv, float(np.max(np.abs(out))) if len(out) else 0.0, out_levels


def _tail_offsets(omega: np.ndarray, ell: int) -> np.ndarray:
    """Offsets j * omega_a of shape (n_ang, ell, n) used by the tail model."""
    j_arange = np.arange(1, ell + 1, dtype=float)
    return omega[:, None, :] * j_arange[None, :, None]


def riesz_derivative(h, x, params: RieszParams, dims: Dimensions, spec: QuadratureSpec):
    """Fractional derivative of order params.k_order of h at x.

    h must accept arrays of shape (N, n) and return (N,) values, n = dims.n.
    x may be a single point of shape (n,) or any batch of shape (..., n); the
    result has the batch shape.  When the eps-halving differences fail to
    decrease at a level that matters against the largest value, the
    refinement is reported with a "hypersingular non-convergent" warning,
    which usually means eps is too coarse or h is rough at the eps scale.
    """
    arr = np.asarray(getattr(x, "coords", x), dtype=float)
    if arr.shape[-1] != dims.n:
        raise ValueError("point dimension does not match dims.n")
    single = arr.ndim == 1
    flat = arr.reshape(-1, arr.shape[-1])
    values, nonconv, scale, _ = _riesz_batch(h, flat, params, spec)
    _warn_if_nonconvergent(nonconv, scale)
    if single:
        return float(values[0])
    return values.reshape(arr.shape[:-1])


def _warn_if_nonconvergent(nonconv: float, scale: float):
    if nonconv > NONCONV_TOL * (scale + 1e-300):
        warnings.warn(
            f"hypersingular non-convergent: eps-halving difference {nonconv:.3e} "
            f"did not decrease (scale {scale:.3e}); decrease eps or smooth the field",
            stacklevel=3,
        )


def riesz_refinement_report(h, x, params: RieszParams, spec: QuadratureSpec) -> RefinementTrace:
    """Single-point variant of riesz_derivative keeping the refinement trace."""
    X = np.asarray(getattr(x, "coords", x), dtype=float).reshape(1, -1)
    *_, levels = _riesz_batch(h, X, params, spec)
    levels = tuple(float(v) for v in levels[:, 0])
    a1, a2, value = _richardson(levels, _evenized(params.resolved_ell) - params.k_order)
    return RefinementTrace(levels=levels, stage_one=(a1, a2), value=value, gap=abs(a2 - a1))


class _LineDualField:
    """Backprojection of line data in the plane, from a cached data table.

    Data over lines is tabulated on a grid of orientations (half-turn,
    midpoint angles) and signed offsets; the offset grid is fine near zero
    and coarse outside, and grows on demand when queries reach beyond it.
    The value at a point is the average over orientations of the tabulated
    data on the line through the point, interpolated in offset.

    The growth cannot move to construction: how far the table must reach
    depends on the points evaluated, through the ell*outer_R + FAR_PAD reach
    of the far spline zone around their bounding box, which is known only
    when the reconstruction is called.  One evaluation grows the table once.
    """

    def __init__(self, data, spec: QuadratureSpec):
        self._data = data
        count = spec.orientation_samples
        theta = (np.arange(count) + 0.5) * (math.pi / count)
        self._normals = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        directions = np.stack([-np.sin(theta), np.cos(theta)], axis=1)
        # Each orientation's line is validated once; the lines at offsets
        # p * normal share its basis and skip the checks.
        self._unit_lines = [
            FlatSpec(basis=d[None, :], offset=normal) for d, normal in zip(directions, self._normals)
        ]
        half = round(TABLE_FINE_SPAN / TABLE_FINE_STEP)
        self._p = np.arange(-half, half + 1) * TABLE_FINE_STEP
        self._table = self._fill(self._p)

    def _fill(self, p_values: np.ndarray) -> np.ndarray:
        block = np.empty((len(self._unit_lines), len(p_values)))
        for i, line in enumerate(self._unit_lines):
            for j, p in enumerate(p_values):
                block[i, j] = self._data(_unchecked_flat(line.basis, p * line.offset))
        return block

    def _ensure(self, p_needed: float):
        cur = self._p[-1]
        if p_needed <= cur:
            return
        step = TABLE_COARSE_STEP
        target = max(p_needed + step, 2.0 * cur)
        fresh = np.arange(cur + step, target + step, step)
        right = self._fill(fresh)
        left = self._fill(-fresh[::-1])
        self._p = np.concatenate([-fresh[::-1], self._p, fresh])
        self._table = np.concatenate([left, self._table, right], axis=1)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        radius = float(np.max(np.linalg.norm(X, axis=-1))) if X.size else 0.0
        self._ensure(radius)
        acc = np.zeros(len(X))
        for i in range(len(self._normals)):
            p = X @ self._normals[i]
            acc += np.interp(p, self._p, self._table[i])
        return acc / len(self._normals)


def _tile_cuts(knots: np.ndarray, degree: int) -> np.ndarray:
    """Knot indices cutting the spans of a spline axis into up to SPLINE_TILES runs."""
    spans = len(knots) - 2 * degree - 1
    return degree + np.unique(np.round(np.linspace(0, spans, SPLINE_TILES + 1)).astype(int))


class _SplineZone:
    """An interpolating spline of a field over a rectangle, evaluated by tiles.

    The one fit is cut along its knot spans into a grid of tiles.  Each tile
    is a window of the same spline: the knots of its spans plus degree knots
    on either side, and the coefficients those spans use.  FITPACK computes a
    point's value from the knots and coefficients of the span holding it and
    clamps to the outer knots, which the edge tiles share with the fit, so a
    tile returns bit for bit what the whole spline would.  What changes is
    FITPACK's linear search for the span, which starts at the first knot for
    every point and now runs over a tile's knots instead of the zone's.
    """

    def __init__(self, lo, hi, step: float, degree: int, base):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        counts = np.maximum(np.ceil((self.hi - self.lo) / step).astype(int) + 1, degree + 2)
        ax0 = np.linspace(self.lo[0], self.hi[0], counts[0])
        ax1 = np.linspace(self.lo[1], self.hi[1], counts[1])
        grid = np.stack(np.meshgrid(ax0, ax1, indexing="ij"), axis=-1).reshape(-1, 2)
        vals = np.asarray(base(grid), dtype=float).reshape(len(ax0), len(ax1))
        spline = RectBivariateSpline(ax0, ax1, vals, kx=degree, ky=degree)
        tx, ty, c = spline.tck
        k = degree
        cuts_x, cuts_y = _tile_cuts(tx, k), _tile_cuts(ty, k)
        coeffs = c.reshape(len(tx) - k - 1, len(ty) - k - 1)
        self._edges = (tx[cuts_x[1:-1]], ty[cuts_y[1:-1]])
        # type(spline), not the module name, which a caller may have replaced
        self._tiles = [
            type(spline)._from_tck(
                (tx[a0 - k : a1 + k + 1], ty[b0 - k : b1 + k + 1], coeffs[a0 - k : a1, b0 - k : b1].ravel(), k, k)
            )
            for a0, a1 in zip(cuts_x[:-1], cuts_x[1:])
            for b0, b1 in zip(cuts_y[:-1], cuts_y[1:])
        ]

    def covers(self, lo, hi) -> bool:
        return bool(np.all(lo >= self.lo - 1e-9) and np.all(hi <= self.hi + 1e-9))

    def contains(self, X: np.ndarray) -> np.ndarray:
        return np.all((X >= self.lo - 1e-9) & (X <= self.hi + 1e-9), axis=1)

    def eval(self, X: np.ndarray) -> np.ndarray:
        edges_x, edges_y = self._edges
        out = np.empty(len(X))
        for lo in range(0, len(X), SPLINE_BLOCK):
            x, y = X[lo : lo + SPLINE_BLOCK].T
            # side="right" is FITPACK's span rule: a point on a knot belongs to
            # the span that starts there
            tile = (
                np.searchsorted(edges_x, x, side="right") * (len(edges_y) + 1)
                + np.searchsorted(edges_y, y, side="right")
            ).astype(np.int16)
            order = np.argsort(tile, kind="stable")  # a radix sort on int16
            x, y = x[order], y[order]
            vals = np.empty(len(order))
            start = 0
            for spline, stop in zip(self._tiles, np.cumsum(np.bincount(tile, minlength=len(self._tiles)))):
                if stop > start:
                    vals[start:stop] = spline.ev(x[start:stop], y[start:stop])
                start = stop
            out[lo : lo + SPLINE_BLOCK][order] = vals
        return out


class _CachedField2D:
    """Two-zone spline cache over a planar field.

    A fine quintic zone resolves the neighborhood of the requested points,
    where the finite differences of the hypersingular integral need smooth
    high-order behavior; a coarse cubic zone covers the long-range queries of
    the truncated integral and the tail correction.  Zones are built on the
    first reserve and rebuilt when a later reservation or query escapes them.
    """

    def __init__(self, base):
        self._base = base
        self._near: _SplineZone | None = None
        self._far: _SplineZone | None = None

    def reserve(self, near_bbox, far_bbox):
        near_lo, near_hi = (np.asarray(v, dtype=float) for v in near_bbox)
        far_lo, far_hi = (np.asarray(v, dtype=float) for v in far_bbox)
        if self._near is None or not self._near.covers(near_lo, near_hi):
            if self._near is not None:
                near_lo = np.minimum(near_lo, self._near.lo)
                near_hi = np.maximum(near_hi, self._near.hi)
            self._near = _SplineZone(near_lo, near_hi, NEAR_STEP, 5, self._base)
        if self._far is None or not self._far.covers(far_lo, far_hi):
            if self._far is not None:
                far_lo = np.minimum(far_lo, self._far.lo)
                far_hi = np.maximum(far_hi, self._far.hi)
            self._far = _SplineZone(far_lo, far_hi, FAR_STEP, 3, self._base)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if self._far is None and len(X):
            lo, hi = X.min(axis=0), X.max(axis=0)
            self._far = _SplineZone(lo - FAR_PAD, hi + FAR_PAD, FAR_STEP, 3, self._base)
        out = np.empty(len(X))
        near_mask = self._near.contains(X) if self._near is not None else np.zeros(len(X), dtype=bool)
        far_part = X[~near_mask]
        if len(far_part):
            lo, hi = far_part.min(axis=0), far_part.max(axis=0)
            if not self._far.covers(lo, hi):
                self._far = _SplineZone(
                    np.minimum(lo - FAR_PAD, self._far.lo),
                    np.maximum(hi + FAR_PAD, self._far.hi),
                    FAR_STEP,
                    3,
                    self._base,
                )
            out[~near_mask] = self._far.eval(far_part)
        if near_mask.any():
            out[near_mask] = self._near.eval(X[near_mask])
        return out


class _GenericDualField:
    """Direct orientation average of flat data; slow, any dimension."""

    def __init__(self, data, flat_dim: int, n: int, spec: QuadratureSpec):
        self._data = data
        self._bases = orientation_set(flat_dim, n, spec.orientation_samples, spec.seed)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.empty(len(X))
        for i, x in enumerate(X):
            total = 0.0
            for basis in self._bases:
                total += self._data(flat_through(basis, x))
            out[i] = total / len(self._bases)
        return out


def make_dual_field(phi, flat_dim: int, dims: Dimensions, spec: QuadratureSpec):
    """Backprojection h = average of the flat data phi over flats through x.

    phi is called with a FlatSpec and must return a float.  The result is a
    batched callable on (N, n) arrays.  For lines in the plane the data is
    tabulated once and interpolated, and the field is wrapped in a two-zone
    spline cache (see _CachedField2D); other dimensions fall back to direct
    orientation averaging, which is orders of magnitude slower and meant for
    cross-checks at small sizes.
    """
    if flat_dim == 1 and dims.n == 2:
        base = _LineDualField(phi, spec)
        return _CachedField2D(base)
    return _GenericDualField(phi, flat_dim, dims.n, spec)


def invert_radon(phi, dims: Dimensions, params: RieszParams, spec: QuadratureSpec) -> PlaneField:
    """Recover a plane field from its flat-integral data phi.

    phi(zeta) must return the integral over the flat zeta of the unknown
    field, for flats of dimension params.k_order in R^{dims.n}.  The result
    evaluates the backprojection of phi and applies the matching fractional
    derivative and constant.
    """
    if not 1 <= params.k_order < dims.n:
        raise ValueError("flat order must satisfy 1 <= k_order < n")
    h = make_dual_field(phi, params.k_order, dims, spec)
    constant = coeff_c(params.k_order, dims.n)

    def eval_field(x):
        arr = np.asarray(x, dtype=float)
        flat = arr.reshape(-1, arr.shape[-1])
        values, nonconv, scale, _ = _riesz_batch(h, flat, params, spec)
        _warn_if_nonconvergent(nonconv, scale)
        return (values / constant).reshape(arr.shape[:-1])

    return PlaneField(eval=eval_field, decay_exponent=None)


def invert_slice(F, dims: Dimensions, params: RieszParams | None, spec: QuadratureSpec) -> SphereField:
    """Recover a sphere field from its slice data F.

    F(tau) must return the cross-section integral of the unknown field over
    the slice plane tau.  The data is carried to flat data over the plane
    correspondence, inverted there, and conjugated back; the reconstruction
    degrades towards the pole, where the conjugation weight blows up.
    """
    if params is None:
        params = RieszParams(k_order=dims.k - 1)
    if params.k_order != dims.k - 1:
        raise ValueError("params.k_order must equal dims.k - 1 for slice inversion")

    def flat_data(zeta: FlatSpec) -> float:
        return F(section_to_plane(zeta))

    g = invert_radon(flat_data, dims, params, spec)
    return op_B_inverse(g, dims)
