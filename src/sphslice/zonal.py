"""Rotation-invariant fields: one-dimensional forward integral and its inversion.

For a zonal sphere field with profile f0 (as a function of s = cot(phi/2),
the stereographic radius), the slice transform depends only on t = |offset|
and reduces to a weighted Abel-type integral

    F0(t) = 2^{k-1} sigma_{k-2} int_t^inf f0(s) (1+s^2)^{1-k} (s^2-t^2)^{(k-3)/2} s ds.

The substitution s^2 = t^2 + q^2 removes the endpoint singularity for every k,
which is how the forward integral is evaluated here.  In the squared variables
u = t^2, U = s^2 the integral is a one-sided fractional integral of order
(k-1)/2, so inversion is an integer derivative followed by a complementary
half-order integration, discretized on a logarithmic grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline

from .geometry import Dimensions
from .quadrature import QuadratureSpec, composite_gauss, gauss_legendre, panel_edges
# gauss_legendre, panel_edges and nu are unused here but stay importable as
# zonal.<name>: the traced benchmark (bench/tracer.py) replaces them.
from .stereo import nu
from .transforms import _BLOCK_POINTS, SphereField

__all__ = [
    "ZonalProfile",
    "sigma",
    "zonal_forward",
    "zonal_invert",
    "profile_to_sphere_field",
    "save_profile_csv",
    "load_profile_csv",
]

# Dyadic panels whose mass stops decaying signal a divergent tail.
_TAIL_RATIO = 0.95

# Logarithmic inversion grid in the stereographic radius s.
S_MIN = 1e-3
S_MAX = 1e3
GRID_POINTS = 800


def sigma(d: int) -> float:
    """Surface measure of the unit sphere of dimension d (sigma_0 = 2)."""
    if d < 0:
        raise ValueError("sphere dimension must be >= 0")
    return 2.0 * math.pi ** (0.5 * (d + 1)) / math.gamma(0.5 * (d + 1))


@dataclass(frozen=True)
class ZonalProfile:
    """Radial profile of a zonal field, as a function of the stereographic radius.

    f0 must accept arrays of s >= 0 of any shape and be pointwise: the value
    at a point may not depend on the other points, because zonal_forward
    evaluates (offset, node) blocks.  Profiles are expected to decay at
    infinity (that is, towards the pole); grid optionally records the samples
    the profile was built from, as a (s, values) pair.
    """

    f0: Callable[[np.ndarray], np.ndarray]
    grid: tuple[np.ndarray, np.ndarray] | None = None

    def __call__(self, s) -> np.ndarray:
        return np.asarray(self.f0(np.asarray(s, dtype=float)), dtype=float)


def zonal_forward(profile: ZonalProfile, t: float | np.ndarray, dims: Dimensions, spec: QuadratureSpec):
    """Slice transform of a zonal field over any plane with offset length t.

    t may be a scalar, which gives a float, or an array of offsets, which
    gives an array of the same shape; each value equals the scalar call's bit
    for bit.  The radial integral is truncated at spec.radial_cutoff in the
    substituted variable q; for a profile decaying like s^{-a} the neglected
    tail scales like cutoff^{1-k-a}.  A tail whose dyadic panel masses stop
    decaying at any offset raises, since then the defining integral cannot
    converge there.
    """
    offsets = np.asarray(t, dtype=float)
    if np.any(offsets < 0.0):
        raise ValueError("offset length t must be >= 0")
    k = dims.k
    front = 2.0 ** (k - 1) * sigma(k - 2)
    rule = composite_gauss(0.0, spec.radial_cutoff, spec.radial_order)
    q, w = (a.reshape(-1, spec.radial_order) for a in rule)  # one row per dyadic panel
    panels = list(zip(q, w, q ** (k - 2)))
    flat = offsets.ravel()
    total = np.empty(flat.shape)
    # Offsets are taken in chunks of at most _BLOCK_POINTS (t, q) nodes per
    # panel, so the temporaries stay small however many offsets there are.
    chunk = max(1, _BLOCK_POINTS // spec.radial_order)
    for lo in range(0, len(flat), chunk):
        total[lo : lo + chunk] = _panel_totals(profile, flat[lo : lo + chunk], panels, k)
    values = front * total
    return float(values[0]) if offsets.ndim == 0 else values.reshape(offsets.shape)


def _panel_totals(profile, t: np.ndarray, panels, k: int) -> np.ndarray:
    """Sum over the dyadic panels of each offset's integral, with the tail check per offset.

    Row i of every (len(t), m) panel block is the scalar route's integrand
    at t[i]; its row sum and the panel order are the scalar route's too.
    """
    total = np.zeros(len(t))
    masses = []
    for q, w, q_power in panels:
        s = np.hypot(t[:, None], q)
        vals = profile(s) * (1.0 + s * s) ** (1 - k) * q_power
        contrib = np.sum(vals * w, axis=-1)
        # The weights are finite, so a non-finite value makes its row's sum
        # non-finite: the values are scanned only then.
        if not np.isfinite(contrib).all() and not np.isfinite(vals).all():
            raise ValueError("integrand blowup in zonal forward integral")
        masses.append(np.abs(contrib))
        total += contrib
    if len(masses) >= 3:
        diverging = (
            (masses[-1] > 1e-12 * (sum(masses) + 1e-300))
            & (masses[-1] >= _TAIL_RATIO * masses[-2])
            & (masses[-2] >= _TAIL_RATIO * masses[-3])
        )
        if diverging.any():
            raise ValueError("existence condition failed: zonal integrand tail does not decay")
    return total


def _deriv5(vals: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order finite differences on a uniform grid, one-sided at the ends."""
    n = len(vals)
    if n < 5:
        raise ValueError("need at least 5 samples for 5-point differences")
    v = vals
    d = np.empty(n)
    d[2:-2] = (-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * h)
    d[0] = (-25.0 * v[0] + 48.0 * v[1] - 36.0 * v[2] + 16.0 * v[3] - 3.0 * v[4]) / (12.0 * h)
    d[1] = (-3.0 * v[0] - 10.0 * v[1] + 18.0 * v[2] - 6.0 * v[3] + v[4]) / (12.0 * h)
    d[-1] = (25.0 * v[-1] - 48.0 * v[-2] + 36.0 * v[-3] - 16.0 * v[-4] + 3.0 * v[-5]) / (12.0 * h)
    d[-2] = (3.0 * v[-1] + 10.0 * v[-2] - 18.0 * v[-3] + 6.0 * v[-4] - v[-5]) / (12.0 * h)
    return d


def _half_integral(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Product-trapezoidal evaluation of int_u^inf w(U) (U - u)^{-1/2} dU on the grid.

    w is approximated linearly on each grid interval and the kernel integrated
    exactly, which keeps the rule stable up to the integrable endpoint
    singularity.  Mass beyond the last grid point is neglected; callers choose
    the grid wide enough for the profile's decay.
    """
    n = len(u)
    out = np.zeros(n)
    for i in range(n):
        a = u[i:-1] - u[i]
        b = u[i + 1 :] - u[i]
        h = b - a
        sa, sb = np.sqrt(a), np.sqrt(b)
        i0 = 2.0 * (sb - sa)
        i1 = (2.0 / 3.0) * (b * sb - a * sa) - 2.0 * a * (sb - sa)
        wj = w[i:-1]
        wj1 = w[i + 1 :]
        out[i] = np.sum(wj * i0 + (wj1 - wj) / h * i1)
    return out


def zonal_invert(F0: Callable[[float], float], dims: Dimensions, spec: QuadratureSpec) -> ZonalProfile:
    """Recover the zonal profile from its forward transform.

    Works in the squared variable u = t^2 on a logarithmic grid: the forward
    map is a one-sided fractional integral of order (k-1)/2 of the weighted
    profile, so the inverse is ceil((k-1)/2) integer derivatives (5-point
    differences) composed, for even k, with a complementary half-order
    integration (product-trapezoidal rule).  Accuracy degrades within a few
    nodes of the grid ends; evaluate the result well inside [S_MIN, S_MAX].
    F0 is called once with the whole grid array.  A callback that refuses
    arrays with a TypeError, as float(t) and math functions do, is called
    once per grid point instead; any other error, such as the forward
    integral's existence error, propagates.
    """
    k = dims.k
    s = np.geomspace(S_MIN, S_MAX, GRID_POINTS)
    xi = np.log(s)
    h = xi[1] - xi[0]
    u = s * s
    try:
        G = np.asarray(F0(s), dtype=float)
        if G.shape != s.shape:
            raise TypeError
    except TypeError:
        G = np.asarray([float(F0(float(si))) for si in s])
    if not np.all(np.isfinite(G)):
        raise ValueError("forward data is not finite on the inversion grid")

    beta = 0.5 * (k - 1)
    m1 = math.ceil(beta)
    W = G
    for _ in range(m1):
        # d/du = (d/dxi) / (2u) on the logarithmic grid.
        W = -_deriv5(W, h) / (2.0 * u)
    if m1 > beta:
        H = _half_integral(u, W) / (math.gamma(m1 - beta) * math.gamma(beta))
    else:
        H = W / math.gamma(beta)
    values = H * (1.0 + u) ** (k - 1) / (2.0 ** (k - 2) * sigma(k - 2))

    spline = CubicSpline(xi, values)
    lo, hi = float(s[0]), float(s[-1])

    def f0(sq: np.ndarray) -> np.ndarray:
        sq = np.asarray(sq, dtype=float)
        return spline(np.log(np.clip(sq, lo, hi)))

    return ZonalProfile(f0=f0, grid=(s, values))


def profile_to_sphere_field(profile: ZonalProfile, dims: Dimensions):
    """Zonal sphere field with the given radial profile.

    The stereographic radius at a sphere point is s = sqrt((1+eta_last)/(1-eta_last));
    the profile must decay at infinity for the field to extend to the pole.
    """
    def feval(eta: np.ndarray) -> np.ndarray:
        eta = np.asarray(eta, dtype=float)
        last = np.clip(eta[..., -1], -1.0, 1.0)
        with np.errstate(divide="ignore"):
            sq = np.sqrt((1.0 + last) / (1.0 - last))
        vals = np.asarray(profile(sq), dtype=float)
        return np.where(np.isfinite(sq), vals, 0.0)

    return SphereField(eval=feval)


def save_profile_csv(path, s: np.ndarray, values: np.ndarray):
    """Write a two-column (s, f0) profile under an `s,f0` header line."""
    s = np.asarray(s, dtype=float)
    values = np.asarray(values, dtype=float)
    if s.shape != values.shape or s.ndim != 1:
        raise ValueError("profile grid and values must be matching vectors")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("s,f0\n")
        for si, vi in zip(s, values):
            fh.write(f"{si:.17g},{vi:.17g}\n")


def load_profile_csv(path) -> ZonalProfile:
    """Load a (s, f0) profile; interpolates linearly in log s, clamped at the ends.

    The file holds one `s,f0` pair per line, read by `_read_table`'s rule (the
    one plane files follow too).  Below the first grid point the profile is
    held constant; beyond the last it is set to zero, matching the decay
    expected of admissible profiles.
    """
    rows = _read_table(path)
    if not rows:
        raise ValueError(f"{path}: profile CSV holds no data rows")
    for lineno, values in rows:
        if len(values) < 2:
            raise ValueError(f"{path}:{lineno}: profile CSV needs columns s,f0")
    s, vals = np.array([values[:2] for _, values in rows]).T
    if np.any(s <= 0) or np.any(np.diff(s) <= 0):
        raise ValueError(f"{path}: profile grid must be positive and strictly increasing")
    xi = np.log(s)

    def f0(sq: np.ndarray) -> np.ndarray:
        sq = np.asarray(sq, dtype=float)
        with np.errstate(divide="ignore"):
            q = np.log(np.clip(sq, s[0], None))
        return np.interp(q, xi, vals, right=0.0)

    return ZonalProfile(f0=f0, grid=(s, vals))


def _read_table(path) -> list[tuple[int, list[float]]]:
    """The numeric rows of a text table, each with its line number.

    Text after a `#` and blank lines are dropped wherever they appear; values
    are separated by commas, whitespace or both.  The first remaining line is
    a header, and skipped, only if it is not numeric; any later non-numeric
    line is a ValueError naming `path:line`.
    """
    rows = []
    first = True
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            try:
                rows.append((lineno, [float(token) for token in text.replace(",", " ").split()]))
            except ValueError:
                if not first:
                    raise ValueError(f"{path}:{lineno}: could not convert {text!r} to numbers") from None
            first = False
    return rows
