"""Inversion of the flat transform and of the sphere slice transform.

The flat transform of order k' is undone in two steps: backprojection (the
dual transform, averaging data over all flats through a point) and a
fractional derivative of order k' that removes the smoothing the
backprojection introduced.  The derivative is hypersingular and is realized
with finite differences,

    D^k h (x) = (1/d) lim_{eps -> 0} int_{|y| > eps}
                  sum_j (-1)^j C(ell, j) h(x - j y)  |y|^{-n-k} dy,

where ell is the difference order and d a normalizing constant depending on
(n, ell, k).  Truncations in eps are removed by Richardson extrapolation over
eps, eps/2, eps/4; truncation at an outer radius is compensated by a decay
model for h (see RieszParams).  For lines in the plane the derivative
commutes with backprojection, D R* g = R*(D_p g), where D_p acts on the line
offset p: invert_radon filters every row of the tabulated line data with the
kernel at n = 1 and backprojects the filtered rows (filtered backprojection),
while riesz_derivative keeps the kernel in the plane as an independent route.
Slice data is inverted by carrying it to flat data over the plane
correspondence, inverting there, and conjugating back to the sphere.  Only
lines in the plane (n = 2) are inverted; other dimensions are refused.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Dimensions, _check_flats, _distances, _freeze
from .quadrature import QuadratureSpec, _as_integer, _interp_spline, composite_gauss, gauss_legendre, sphere_rule
# gauss_legendre, flat_through and orientation_set are unused here but stay
# importable as inversion.<name>: the traced benchmark (bench/tracer.py)
# replaces them.  So does RectBivariateSpline, which module __getattr__ below
# gives, so that importing this module does not load scipy.interpolate.
from .transforms import (PlaneField, SphereField, _blocks, _flat_sums, _per_flat, _slice_sums, _warn,
                         _warn_on_pole_growth, _warn_on_slow_decay, flat_through, op_B_inverse,
                         orientation_set, section_to_plane)
from .zonal import sigma

__all__ = [
    "RieszParams",
    "coeff_B_l",
    "coeff_d",
    "coeff_c",
    "riesz_derivative",
    "invert_radon",
    "invert_slice",
]


def __getattr__(name: str):
    """scipy's RectBivariateSpline as inversion.RectBivariateSpline, for the traced benchmark only."""
    if name == "RectBivariateSpline":
        from scipy.interpolate import RectBivariateSpline

        return RectBivariateSpline
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Fine sampling of the line-data table, and its half-width; beyond it the
# table continues at the coarse step and grows on demand.
TABLE_FINE_STEP = 0.02
TABLE_FINE_SPAN = 10.0
TABLE_COARSE_STEP = 0.2

# The row filter runs at the table nodes within ROW_PAD of the farthest
# evaluation point, so that the filtered rows are interpolated away from the
# ends of their spline.
ROW_PAD = 0.5

# Non-decreasing eps-halving differences are reported only above this
# fraction of the largest value, so sign changes at noise level stay silent.
NONCONV_TOL = 1e-3

# ... and only above this many rounding units of the sampled |h|, carried
# through the kernel at the finest cutoff (see _riesz_batch), so that a
# result that is zero up to rounding (constant data) stays silent too.
ROUNDING_ULPS = 16


@dataclass(frozen=True)
class RieszParams:
    """Settings of the hypersingular derivative.

    k_order is the derivative order (the flat dimension when inverting); it
    fixes the finite-difference order ell (see the ell property).  eps is the
    largest inner cutoff of the Richardson ladder and outer_R the truncation
    radius; both must be finite.  Beyond outer_R the field is
    modelled as decaying like r^{-(n - k_order)}, the rate of a backprojection.
    The rows of line data that invert_radon filters have n = 1 and k_order 1,
    so there the rate is 0: each row is continued by its value at outer_R.
    """

    k_order: int
    eps: float = 0.05
    outer_R: float = 30.0

    def __post_init__(self):
        if _as_integer(self.k_order) is None or self.k_order < 1:
            raise ValueError("k_order must be an integer >= 1")
        if not math.isfinite(self.eps) or self.eps <= 0.0:
            raise ValueError("eps must be finite and positive")
        if not math.isfinite(self.outer_R) or self.outer_R < 4.0 * self.eps:
            raise ValueError("outer_R must be finite and at least 4 * eps")

    @property
    def ell(self) -> int:
        """Finite-difference order: k_order if it is odd, else k_order + 1.

        Odd k_order needs ell == k_order (higher differences annihilate the
        needed moment); even k_order needs ell > k_order, and k_order + 1 is
        the smallest such order.
        """
        return self.k_order if self.k_order % 2 == 1 else self.k_order + 1


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


def _richardson(levels, p: int):
    """Two Richardson stages over the truncated values at eps, eps/2, eps/4.

    The truncation error of the difference integral is a series in eps^p,
    eps^(p+2), ...; the first stage removes the eps^p term from each adjacent
    pair, the second removes eps^(p+2).  Returns the extrapolated value.
    """
    denom = 2.0**p - 1.0
    a1 = levels[1] + (levels[1] - levels[0]) / denom
    a2 = levels[2] + (levels[2] - levels[1]) / denom
    return a2 + (a2 - a1) / (2.0 ** (p + 2) - 1.0)


def _riesz_batch(h, X: np.ndarray, params: RieszParams, spec: QuadratureSpec) -> np.ndarray:
    """Hypersingular derivative of h at a batch of points X of shape (B, n), as (B, C) values.

    h returns (B, C) values: C channels derived at once.  h is not called for
    an empty batch, which gives (0, 1) values.  When the eps-halving
    differences fail to decrease at a point, above the rounding floor and at
    a level that matters against the largest result, the refinement is
    reported with a "hypersingular non-convergent" warning, attributed to the
    first caller outside the package.
    """
    n = X.shape[1]
    k = params.k_order
    ell = params.ell
    gamma = max(n - k, 0)
    d_norm = coeff_d(n, ell, k)
    omega, w_omega = sphere_rule(n - 1, spec.sphere_order)
    # Dyadic panels from eps/4 break at eps/2 and eps, and no Gauss node sits
    # on a break, so each refinement level keeps the nodes above its cutoff.
    rho, w_rho = composite_gauss(params.eps / 4.0, params.outer_R, max(8, spec.radial_order // 8))
    level_masks = [rho > params.eps, rho > params.eps / 2.0, rho > params.eps / 4.0]
    signs = np.array([(-1.0) ** j * math.comb(ell, j) for j in range(1, ell + 1)])
    p = _evenized(ell) - k

    # Difference offsets j * r * omega_a, shared by every evaluation point, at
    # the radii r = rho_i and last at outer_R, where the tail samples h.
    j_arange = np.arange(1, ell + 1, dtype=float)
    radii = np.append(rho, params.outer_R)
    offsets = radii[:, None, None, None] * omega[None, :, None, :] * j_arange[None, None, :, None]
    radial_factor = w_rho * rho ** (-k - 1.0)
    surface = sigma(n - 1)
    # Rounding noise of one level per unit of sampled |h|: the differences
    # add 2^ell terms with one rounding unit each, and the kernel weighs them
    # by at most surface * int_{eps/4}^inf r^{-k-1} dr = surface (4/eps)^k / k.
    kernel_bound = surface * (4.0 / params.eps) ** k / (k * abs(d_norm))
    noise_per_h = ROUNDING_ULPS * np.finfo(float).eps * 2.0**ell * kernel_bound

    # The arithmetic runs with the channel axis first, so that every product
    # below contracts the trailing axes, those of one channel.
    h_all = np.asarray(h(X), dtype=float) if len(X) else np.empty((0, 1))
    out = np.empty((h_all.shape[1], len(X)))
    nonconv = 0.0
    # A block's stencils hold at most _BLOCK_POINTS values, unless one
    # point's stencil alone is larger; h_all, as many values as the result,
    # is sampled at once.
    for block in _blocks(len(X), offsets[..., 0].size * h_all.shape[1]):
        xs = X[block]
        h_at_x = h_all[block].T
        # h is sampled offset-major: for each offset, all of xs in order, so
        # that a spline queried at ascending points resumes its interval
        # search where the last query stopped.  The values are then copied
        # point-major with channels first, so that the products over them do
        # not depend on the order of sampling.
        pts = xs - offsets.reshape(-1, 1, n)
        sampled = np.asarray(h(pts.reshape(-1, n)), dtype=float)
        sampled = sampled.reshape(len(pts), len(xs), -1).swapaxes(0, 1).copy()
        sampled = np.moveaxis(sampled.reshape((len(xs),) + offsets.shape[:-1] + sampled.shape[-1:]), -1, 0)
        vals, tail_vals = sampled[:, :, :-1], sampled[:, :, -1]
        diff = vals @ signs + h_at_x[..., None, None]
        angular = diff @ w_omega
        # Tail beyond outer_R: the j = 0 term integrates exactly; for j >= 1
        # the field is replaced by its angular average at radius j * outer_R
        # decaying like r^{-gamma}.
        tail_avg = np.tensordot(tail_vals, w_omega, axes=([-2], [0])) / surface
        tail = surface * params.outer_R ** (-k) * (
            h_at_x / k + (tail_avg @ signs) / (k + gamma)
        )
        levels = [(angular @ (radial_factor * m) + tail) / d_norm for m in level_masks]
        out[..., block] = _richardson(levels, p)
        d1 = np.abs(levels[1] - levels[0])
        d2 = np.abs(levels[2] - levels[1])
        # smooth fields shrink the halving differences by 2^p or better; a
        # ratio near one (log divergence gives exactly one, minus rounding)
        # or above means the refinement is not converging, unless the
        # differences are rounding noise
        bad = d2 >= 0.9 * d1
        if bad.any():
            h_max = float(max(vals.max(), -vals.min(), np.abs(h_at_x).max()))
            bad &= d2 > noise_per_h * h_max
        if bad.any():
            nonconv = max(nonconv, float(np.max(d2[bad])))
    if not np.all(np.isfinite(out)):
        raise ValueError("integrand blowup in hypersingular integral")
    scale = float(np.max(np.abs(out))) if out.size else 0.0
    if nonconv > NONCONV_TOL * (scale + 1e-300):
        _warn(f"hypersingular non-convergent: eps-halving difference {nonconv:.3e} "
              f"did not decrease (scale {scale:.3e}); decrease eps or smooth the field")
    return out.T


def riesz_derivative(h, x, params: RieszParams, dims: Dimensions, spec: QuadratureSpec):
    """Fractional derivative of order params.k_order of h at x.

    h must accept arrays of shape (N, n) and return (N,) values, n = dims.n.
    It must be pointwise: the value at a point may not depend on the other
    points of the batch, because the kernel groups and orders the points it
    samples itself.  x may be a single point of shape (n,) or any batch of
    shape (..., n); the result has the batch shape.  When the eps-halving
    differences fail to decrease at a level that matters against the largest
    value, the refinement is reported with a "hypersingular non-convergent"
    warning, which usually means eps is too coarse or h is rough at the eps
    scale.
    """
    arr = _as_points(x, dims.n)
    values = _riesz_batch(lambda P: np.asarray(h(P), dtype=float)[:, None], arr.reshape(-1, dims.n), params, spec)
    return _batch_shaped(values[:, 0], arr)


def _as_points(x, n: int) -> np.ndarray:
    """x as a float array of finite points of dimension n."""
    arr = np.asarray(x, dtype=float)
    if arr.shape[-1] != n:
        raise ValueError("point dimension does not match dims.n")
    if not np.all(np.isfinite(arr)):
        raise ValueError("evaluation points must be finite")
    return arr


def _batch_shaped(values: np.ndarray, arr: np.ndarray):
    """Values at the flattened points of arr, as a float for one point or in arr's batch shape."""
    return float(values[0]) if arr.ndim == 1 else values.reshape(arr.shape[:-1])


class _LineDualField:
    """Backprojection of line data in the plane, from a cached data table.

    Data over lines is tabulated on a grid of orientations (half-turn,
    midpoint angles) and signed offsets; the offset grid is fine near zero
    and coarse outside, and grows on demand when queries reach beyond it.
    The value at a point is the average over orientations of the tabulated
    data on the line through the point, interpolated in offset.

    The table is filled through values(bases, offsets), which gives the data
    on each line of a read-only stack of bases (P, 1, 2) and offsets (P, 2)
    as P values (see _line_values and _slice_values): one call per
    orientation and fill, whose lines all share the orientation's basis.

    The growth cannot move to construction: how far the table must reach
    depends on the points evaluated (the row filter of invert_radon samples
    each row up to ell*outer_R beyond the farthest of them), which are known
    only when the reconstruction is called.  One evaluation grows the table
    once.
    """

    def __init__(self, values, spec: QuadratureSpec):
        self._values = values
        count = spec.orientation_samples
        theta = (np.arange(count) + 0.5) * (math.pi / count)
        self._directions = _freeze(np.stack([-np.sin(theta), np.cos(theta)], axis=1)[:, None, :])
        self._normals = _freeze(np.stack([np.cos(theta), np.sin(theta)], axis=1))
        # The unit lines are validated once, as one stack; the lines at
        # offsets p * normal share their orientation's basis and skip the checks.
        _check_flats(self._directions, self._normals)
        half = round(TABLE_FINE_SPAN / TABLE_FINE_STEP)
        self._p = np.arange(-half, half + 1) * TABLE_FINE_STEP
        self._table = self._fill(self._p)
        self._filtered_radius, self._filtered_rows = -1.0, []

    def _fill(self, p_values: np.ndarray) -> np.ndarray:
        block = np.empty((len(self._normals), len(p_values)))
        for i, (basis, normal) in enumerate(zip(self._directions, self._normals)):
            # One orientation's stack at a time, so memory stays that of one
            # row: the read-only offsets p * normal and the basis broadcast.
            offsets = np.multiply.outer(p_values, normal)
            offsets.setflags(write=False)
            block[i] = self._values(np.broadcast_to(basis, offsets.shape[:1] + basis.shape), offsets)
        return block

    def _ensure(self, p_needed: float):
        cur = self._p[-1]
        if p_needed <= cur:
            return
        step = TABLE_COARSE_STEP
        target = max(p_needed + step, 2.0 * cur)
        fresh = np.arange(cur + step, target + step, step)
        # both sides in one fill, in ascending offset
        sides = self._fill(np.concatenate([-fresh[::-1], fresh]))
        self._p = np.concatenate([-fresh[::-1], self._p, fresh])
        self._table = np.concatenate([sides[:, :len(fresh)], self._table, sides[:, len(fresh):]], axis=1)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        X = _as_points(X, 2)
        self._ensure(float(np.max(_distances(X))) if len(X) else 0.0)
        return self._mean(X, [lambda p, row=row: np.interp(p, self._p, row) for row in self._table])

    def filtered(self, X: np.ndarray, params: RieszParams, spec: QuadratureSpec) -> np.ndarray:
        """Mean over orientations theta of D_p applied to each row, at X . theta (see invert_radon).

        The rows are filtered for one params and spec, kept, and filtered
        again only when X reaches farther than every earlier call.
        """
        radius = float(np.max(_distances(X))) if len(X) else -1.0
        if radius > self._filtered_radius:
            reach = radius + ROW_PAD
            self._ensure(reach + params.ell * params.outer_R)
            rows = _interp_spline(self._p, self._table.T, 5)
            nodes = self._p[np.abs(self._p) <= reach]
            values = _riesz_batch(lambda P: rows(P[:, 0]), nodes[:, None], params, spec)
            del rows  # one spline's coefficients at a time
            fit = _interp_spline(nodes, values, 5)
            self._filtered_rows = [fit.channel(i) for i in range(len(self._normals))]
            self._filtered_radius = radius
        return self._mean(X, self._filtered_rows)

    def _mean(self, X: np.ndarray, rows) -> np.ndarray:
        """Mean over orientations i of rows[i], a function of the offset, at X . normal_i."""
        acc = np.zeros(len(X))
        for row, normal in zip(rows, self._normals):
            acc += row(X @ normal)
        return acc / len(self._normals)


def _require_lines_in_plane(flat_dim: int, n: int):
    if (flat_dim, n) != (1, 2):
        raise NotImplementedError(
            "inversion is implemented only for lines in the plane (flat dimension 1, n = 2); "
            f"got flat dimension {flat_dim}, n = {n}"
        )


def _line_values(phi, spec: QuadratureSpec):
    """The table's values(bases, offsets) for line data phi.

    phi is a PlaneField, whose values are the radon_john integrals of one
    _flat_sums stack, or a callable taking a FlatSpec, called once per line
    in stack order.  Both give the bits of one radon_john call per line.  A
    PlaneField's decay is checked here, once for the whole table, and not
    by each fill.
    """
    if isinstance(phi, PlaneField):
        _warn_on_slow_decay(phi, 1)
        return functools.partial(_flat_sums, phi, spec=spec, check=False)
    return _per_flat(phi)


def _slice_values(F, spec: QuadratureSpec):
    """The table's values(bases, offsets) for slice data F, on the planes whose traces are the lines.

    F is a SphereField, whose values are the slice_transform integrals of one
    _slice_sums stack, or a callable taking a SlicePlane, called once per
    line in stack order.  Both give the bits of one slice_transform call per
    plane.  A SphereField's pole growth is checked here, once for the whole
    table, and not by each fill.
    """
    if isinstance(F, SphereField):
        _warn_on_pole_growth(F, 2)
        return functools.partial(_slice_sums, F, spec=spec, check=False)
    return _per_flat(lambda zeta: F(section_to_plane(zeta)))


def make_dual_field(phi, flat_dim: int, dims: Dimensions, spec: QuadratureSpec):
    """Backprojection h = average of the line data phi over lines through x in the plane.

    phi is called with a FlatSpec and must return a float, or is a
    PlaneField whose line integrals are the data.  The data is tabulated
    once and interpolated linearly in offset (see _LineDualField); the
    result is a batched callable on (N, 2) arrays of finite points.
    Lines in the plane (flat_dim 1, dims.n 2) are the only case backprojected
    at practical cost: any other case raises NotImplementedError before phi
    is called.
    """
    _require_lines_in_plane(flat_dim, dims.n)
    return _LineDualField(_line_values(phi, spec), spec)


def invert_radon(phi, dims: Dimensions, params: RieszParams, spec: QuadratureSpec) -> PlaneField:
    """Recover a plane field from its flat-integral data phi.

    phi(zeta) must return the integral over the flat zeta of the unknown
    field, for flats of dimension params.k_order in R^{dims.n}.  phi may
    also be the PlaneField itself: its data are then radon_john(phi, zeta,
    spec), computed one stack of lines per orientation, with the same bits.
    The data is tabulated over lines (see _LineDualField), each row (one
    orientation, as a function of the offset p) is filtered by the
    derivative in p, and the result at x is the mean over orientations theta
    of the filtered rows at x . theta, divided by coeff_c(1, 2).  Only lines
    in the plane (dims.n 2, k_order 1) are supported; other dimensions raise
    NotImplementedError here, before any data is computed.
    """
    return _backprojected(_line_values, phi, dims, params, spec)


def _backprojected(table_values, data, dims: Dimensions, params: RieszParams,
                   spec: QuadratureSpec) -> PlaneField:
    """invert_radon of the line data that table_values(data, spec) gives (see _LineDualField).

    The dimensions are checked before table_values checks the data.
    """
    if not 1 <= params.k_order < dims.n:
        raise ValueError("flat order must satisfy 1 <= k_order < n")
    _require_lines_in_plane(params.k_order, dims.n)
    table = _LineDualField(table_values(data, spec), spec)
    constant = coeff_c(params.k_order, dims.n)

    def eval_field(x):
        arr = _as_points(x, dims.n)
        return _batch_shaped(table.filtered(arr.reshape(-1, dims.n), params, spec) / constant, arr)

    return PlaneField(eval=eval_field, decay_exponent=None)


def invert_slice(F, dims: Dimensions, params: RieszParams, spec: QuadratureSpec) -> SphereField:
    """Recover a sphere field from its slice data F.

    F(tau) must return the cross-section integral of the unknown field over
    the slice plane tau.  F may also be the SphereField itself: its data are
    then slice_transform(F, tau, spec), computed one stack of planes per
    orientation, with the same bits.  The data is carried to flat data over
    the plane correspondence, inverted there, and conjugated back; the
    reconstruction degrades towards the pole, where the conjugation weight
    blows up.  Only S^2 sliced by 2-planes (Dimensions(2, 2)) is supported;
    other dimensions raise NotImplementedError before F is called (see
    invert_radon).
    """
    if params.k_order != dims.k - 1:
        raise ValueError("params.k_order must equal dims.k - 1 for slice inversion")
    return op_B_inverse(_backprojected(_slice_values, F, dims, params, spec), dims)
