import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphslice import quadrature
from sphslice import (
    QuadratureSpec,
    composite_gauss,
    flat_rule,
    make_flat,
    random_flat,
    sigma,
    sphere_rule,
)
from sphslice.quadrature import gauss_legendre, panel_edges

SURFACE_AREAS = {0: 2.0, 1: 2.0 * math.pi, 2: 4.0 * math.pi, 3: 2.0 * math.pi**2}


def test_gauss_legendre_exactness():
    # degree 2*order - 1 polynomials are integrated exactly
    x, w = gauss_legendre(6, -1.0, 2.0)
    assert len(x) == 6
    for deg in range(11):
        exact = (2.0 ** (deg + 1) - (-1.0) ** (deg + 1)) / (deg + 1)
        assert np.sum(w * x**deg) == pytest.approx(exact, rel=1e-13)


@given(st.floats(min_value=-5.0, max_value=5.0), st.floats(min_value=0.1, max_value=5.0))
@settings(max_examples=30, deadline=None)
def test_gauss_legendre_interval(a, width):
    x, w = gauss_legendre(12, a, a + width)
    assert np.all(x >= a) and np.all(x <= a + width)
    assert np.sum(w) == pytest.approx(width, rel=1e-13)


def test_composite_gauss_gaussian_moment():
    x, w = composite_gauss(0.0, 8.0, 64)
    assert np.sum(w * np.exp(-(x**2)) * x) == pytest.approx(0.5, abs=1e-14)


def test_composite_gauss_large_cutoff():
    # dyadic panels keep the node count logarithmic in the cutoff
    x, w = composite_gauss(0.0, 1e7, 32)
    assert len(x) < 32 * 30
    # integral of 1/(1+s^2) out to R approaches pi/2
    val = np.sum(w / (1.0 + x**2))
    assert val == pytest.approx(math.pi / 2.0, abs=2e-7)


def test_panel_edges_monotone():
    edges = panel_edges(0.0, 100.0)
    assert edges[0] == 0.0
    assert edges[-1] == 100.0
    assert np.all(np.diff(edges) > 0)


def test_panel_edges_clip():
    edges = panel_edges(0.0, 0.3)
    assert edges[-1] == pytest.approx(0.3)


@pytest.mark.parametrize("hi", [math.inf, math.nan])
def test_a_non_finite_upper_bound_is_a_bad_radial_range(hi):
    # an infinite bound would double the panels until they overflow
    for build in (lambda: panel_edges(0.0, hi), lambda: composite_gauss(0.0, hi, 4)):
        with pytest.raises(ValueError, match="bad radial range"):
            build()


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_sphere_rule_total_mass(d):
    pts, w = sphere_rule(d, 24)
    assert np.sum(w) == pytest.approx(SURFACE_AREAS[d], rel=1e-12)
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-14
    assert np.sum(w) == pytest.approx(sigma(d), rel=1e-12)


def test_sphere_rule_zero_dim():
    pts, w = sphere_rule(0, 8)
    assert sorted(pts[:, 0].tolist()) == [-1.0, 1.0]
    assert np.all(w == 1.0)


def test_sphere_rule_second_moment():
    # integral of eta_3^2 over S^2 is 4*pi/3
    pts, w = sphere_rule(2, 32)
    assert np.sum(w * pts[:, 2] ** 2) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sphere_rule_antipodal_cancellation(d):
    # rules are antipodally symmetric, so odd monomials drop out exactly
    pts, w = sphere_rule(d, 16)
    odd = pts[:, 0] * pts[:, -1] ** 2
    assert abs(np.sum(w * odd)) < 1e-13
    assert abs(np.sum(w * pts[:, -1] ** 3)) < 1e-13


def test_flat_rule_line_gaussian():
    spec = QuadratureSpec(radial_order=64, radial_cutoff=12.0)
    for d in (0.0, 0.5, 1.0):
        zeta = make_flat(np.array([[1.0, 0.0]]), d * np.array([0.0, 1.0]))
        pts, w = flat_rule(zeta, spec)
        val = np.sum(w * np.exp(-np.sum(pts**2, axis=1)))
        assert val == pytest.approx(math.sqrt(math.pi) * math.exp(-(d**2)), abs=1e-12)


def test_flat_rule_plane_in_r3():
    # full-plane Gaussian integral is pi
    spec = QuadratureSpec(radial_order=64, radial_cutoff=12.0)
    zeta = make_flat(np.eye(3)[:2], np.zeros(3))
    pts, w = flat_rule(zeta, spec)
    assert pts.shape[1] == 3
    val = np.sum(w * np.exp(-np.sum(pts**2, axis=1)))
    assert val == pytest.approx(math.pi, rel=1e-12)


def test_spec_is_frozen():
    spec = QuadratureSpec()
    with pytest.raises(AttributeError):
        spec.sphere_order = 12


@pytest.mark.parametrize("name", ["sphere_order", "radial_order", "orientation_samples", "seed"])
@pytest.mark.parametrize("value", [4.5, 8.0, np.float64(8.0), "8", None, True, False, -1])
def test_spec_refuses_a_count_that_is_not_an_integer(name, value):
    # orientation_samples=4.5 built 5 orientations spaced pi/4.5, an
    # anisotropic table; radial_order=8.5 was truncated to 8 on lines.  A
    # bool is refused although operator.index(True) is 1.  A negative seed
    # failed only inside dual_transform, in numpy's default_rng, without
    # naming the seed.
    message = f"{name} must be an integer"
    if value == -1 and not isinstance(value, bool):
        message = "seed must be a non-negative integer" if name == "seed" else "must be positive"
    with pytest.raises(ValueError, match=message):
        QuadratureSpec(**{name: value})


def test_spec_takes_numpy_integers():
    spec = QuadratureSpec(sphere_order=np.int64(16), radial_order=np.int32(16),
                          orientation_samples=np.uint8(4), seed=np.int64(3))
    assert flat_rule(make_flat(np.eye(3)[:2], np.zeros(3)), spec)[1] is \
        flat_rule(make_flat(np.eye(3)[:2], np.zeros(3)), QuadratureSpec(sphere_order=16, radial_order=16))[1]


@pytest.mark.parametrize("build", [lambda order: gauss_legendre(order, 0.0, 1.0),
                                   lambda order: sphere_rule(1, order),
                                   lambda order: sphere_rule(2, order),
                                   lambda order: quadrature._gauss_gegenbauer(order, 1.0)],
                         ids=["gauss_legendre", "circle", "sphere", "gauss_gegenbauer"])
def test_rules_refuse_an_order_that_is_not_an_integer(build):
    nodes = build(8)[0]  # 8.0 must not reach the cached rule of 8
    for order in (8.5, 7.5, 8.0, True, False):  # sphere_rule(2, True) gave the 2-node rule of order 1
        with pytest.raises(TypeError, match="order must be an integer"):
            build(order)
    with pytest.raises(ValueError, match="order must be >= 1"):
        build(0)
    assert np.array_equal(build(np.int64(8))[0], nodes)


def test_sphere_rule_refuses_a_dimension_that_is_not_an_integer():
    # True gave the 8-node circle rule, 1.5 failed in the eigensolver and 2.0 inside np.empty
    for d in (True, False, 1.5, 2.0, np.float64(2.0)):
        with pytest.raises(TypeError, match="sphere dimension must be an integer"):
            sphere_rule(d, 8)
    assert sphere_rule(np.int64(2), 8)[0] is sphere_rule(2, 8)[0]


@pytest.mark.parametrize("a,b", [(0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (0.0, math.nan),
                                 (1.0, 1.0), (2.0, 1.0)])
def test_gauss_legendre_refuses_an_interval_that_is_not_finite_and_nonempty(a, b):
    # [0, inf] gave NaN nodes under an "invalid value" warning
    with pytest.raises(ValueError, match="must be finite and nonempty"):
        gauss_legendre(4, a, b)


# -- the 1-D Gauss rules -----------------------------------------------------
# quadrature._gauss_gegenbauer builds every 1-D Gauss rule: Gauss-Legendre is
# its alpha = 1/2 case, the polar factor of the rule on S^d its
# alpha = (d - 1)/2 case.  The reference refines each float node by one
# Newton step taken to about 60 digits.  The Gegenbauer recurrence (exact
# integer coefficients for half-integer alpha) runs on Python integers in
# 200-bit fixed point, which is far faster than mpmath numbers; mpmath takes
# the rest: the step, the weights 1/((1 - x^2) C'(x)^2) and their sum.

_FIXED_BITS = 200

# Largest relative weight error against the reference, at most twice what
# this builder measured (over alpha = 1/2, 1, 3/2, 2: 1.3e-15, 4.0e-14,
# 6.7e-14, 6.7e-13, 2.7e-12 on a 2-CPU Xeon with numpy 2.4.6).  Each ceiling
# sits below the errors the earlier builders measured on the same host:
# numpy's leggauss 1.3e-12, 1.4e-11, 2.1e-11, 1.1e-10 at m = 64 to 512, and
# scipy's roots_gegenbauer 3.9e-12, 1.3e-11, 1.3e-10, 4.9e-10 (1.1e-9 at alpha = 1/2).
_WEIGHT_CEILINGS = {8: 2.5e-15, 64: 7.9e-14, 128: 1.3e-13, 256: 1.3e-12, 512: 5e-12}


def _reference_rule(x, alpha):
    """The Gauss-Gegenbauer rule whose nodes lie nearest the floats x, as mpmath numbers."""
    import mpmath

    m, two_alpha = len(x), int(2 * alpha)
    one = 1 << _FIXED_BITS
    # exact: every node's ulp is above 2^-_FIXED_BITS
    fixed = np.array([int(math.ldexp(v, _FIXED_BITS)) for v in x.tolist()], dtype=object)
    c_prev, c = np.zeros(m, dtype=object), np.full(m, one, dtype=object)
    dc_prev, dc = np.zeros(m, dtype=object), np.zeros(m, dtype=object)
    for j in range(m):
        # (2j + 2) C_{j+1} = (4j + 4 alpha) x C_j - (2j + 4 alpha - 2) C_{j-1}
        a, b = 4 * j + 2 * two_alpha, 2 * j + 2 * two_alpha - 2
        c_prev, c = c, (a * ((fixed * c) >> _FIXED_BITS) - b * c_prev) // (2 * j + 2)
        dc_prev, dc = dc, (a * (c_prev + ((fixed * dc) >> _FIXED_BITS)) - b * dc_prev) // (2 * j + 2)
    with mpmath.workprec(_FIXED_BITS - 20):
        nodes, weights = [], []
        for xi, ci, dci in zip(x, c, dc):
            xi, ci, dci = mpmath.mpf(float(xi)), mpmath.mpf(int(ci)), mpmath.mpf(int(dci))
            step = -ci / dci
            assert abs(step) < 1e-14  # every float node is next to its own root
            # C'' from the Gegenbauer equation at xi carries C' to the root
            ddc = ((2 * alpha + 1) * xi * dci - m * (m + 2 * alpha) * ci) / (1 - xi * xi)
            root = xi + step
            nodes.append(root)
            weights.append(1 / ((1 - root * root) * (dci + ddc * step) ** 2))
        total = mpmath.sqrt(mpmath.pi) * mpmath.gamma(mpmath.mpf(alpha) + 0.5) / mpmath.gamma(alpha + 1)
        scale = total / mpmath.fsum(weights)
        return nodes, [w * scale for w in weights]


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("order", sorted(_WEIGHT_CEILINGS))
def test_gauss_gegenbauer_against_a_high_precision_rule(order, alpha):
    x, w = quadrature._gauss_gegenbauer(order, alpha)
    nodes, weights = _reference_rule(x, alpha)
    assert all(a < b for a, b in zip(nodes, nodes[1:]))  # m distinct roots: all of them
    rounded = np.array([float(v) for v in nodes])
    # Within 2 ulps (measured: 1).  Below 1/8 the ulp is 1/8's: there the
    # recurrence's rounding, about 1e-18, exceeds a node's own ulp (the
    # innermost nodes measured 3 to 4 of their ulps, under 0.2 of 1/8's).
    assert np.max(np.abs(x - rounded) / np.spacing(np.maximum(np.abs(rounded), 0.125))) <= 2.0
    assert max(abs(wi / r - 1) for wi, r in zip(w, weights)) <= _WEIGHT_CEILINGS[order]
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])


def test_gauss_gegenbauer_is_cached_read_only():
    first = quadrature._gauss_gegenbauer(24, 1.5)
    second = quadrature._gauss_gegenbauer(24, 1.5)
    _assert_cached(first, second, quadrature._gauss_gegenbauer.__wrapped__(24, 1.5))


@pytest.mark.parametrize("order", [1, 2, 3, 7, 64, 192, 320, 512])
def test_sphere_polar_factor_is_the_gauss_legendre_rule(order):
    # one builder: the polar rule of S^2 is the Legendre rule, bit for bit
    nodes, weights = sphere_rule(2, order)
    circle = sphere_rule(1, order)[1]
    x, w = gauss_legendre(order, -1.0, 1.0)
    assert np.array_equal(nodes[:, 2].reshape(order, len(circle))[:, 0], x)
    assert np.array_equal(weights, (w[:, None] * circle[None, :]).ravel())


# -- cached rules ------------------------------------------------------------


def _uncached_flat_rule(zeta, spec):
    """flat_rule built from scratch, with no cache on any level."""
    d = zeta.dim
    rho, w_rho = composite_gauss.__wrapped__(0.0, spec.radial_cutoff, spec.radial_order)
    quadrature._sphere_rule.cache_clear()
    dirs, w_dir = quadrature._sphere_rule.__wrapped__(d - 1, spec.sphere_order)
    intrinsic = rho[:, None, None] * dirs[None, :, :]
    nodes = zeta.offset[None, :] + intrinsic.reshape(-1, d) @ zeta.basis
    weights = (w_rho * rho ** (d - 1))[:, None] * w_dir[None, :]
    return nodes, weights.ravel()


def _assert_cached(first, second, fresh):
    for a, b, c in zip(first, second, fresh, strict=True):
        assert b is a
        assert np.array_equal(a, c)
        with pytest.raises(ValueError):
            a[0] = 0.0


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_sphere_rule_is_cached_read_only(d):
    sphere_rule(d + 1, 13)  # the recursion fills the d-dimensional entry first
    first = sphere_rule(d, 13)
    second = sphere_rule(d, 13)
    quadrature._sphere_rule.cache_clear()
    _assert_cached(first, second, quadrature._sphere_rule.__wrapped__(d, 13))


def test_sphere_rule_takes_an_order_only():
    with pytest.raises(TypeError):
        sphere_rule(2, QuadratureSpec())


def test_composite_gauss_is_cached_read_only():
    first = composite_gauss(0.0, 40.0, 128)
    second = composite_gauss(0.0, 40.0, 128)
    _assert_cached(first, second, composite_gauss.__wrapped__(0.0, 40.0, 128))


@pytest.mark.parametrize("flat_dim, ambient", [(1, 2), (1, 3), (2, 3)])
def test_flat_rule_matches_uncached_build(flat_dim, ambient):
    spec = QuadratureSpec(sphere_order=24, radial_order=32, radial_cutoff=12.0)
    rng = np.random.default_rng(flat_dim + ambient)
    q, _ = np.linalg.qr(rng.standard_normal((ambient, ambient)))
    zeta = make_flat(q[:, :flat_dim].T, 0.7 * q[:, flat_dim])
    other = make_flat(q[:, 1 : flat_dim + 1].T, 0.3 * q[:, 0])
    nodes, weights = flat_rule(zeta, spec)
    other_nodes, other_weights = flat_rule(other, spec)
    fresh_nodes, fresh_weights = _uncached_flat_rule(zeta, spec)
    assert np.array_equal(nodes, fresh_nodes)
    assert np.array_equal(other_nodes, _uncached_flat_rule(other, spec)[0])
    # Every flat of one dimension shares the template's weights.
    _assert_cached((weights,), (other_weights,), (fresh_weights,))


# -- coordinate-major nodes --------------------------------------------------


@pytest.mark.parametrize("flat_dim", [1, 2, 3])
def test_flat_rule_is_bit_identical_to_the_broadcast_formula(flat_dim):
    # the nodes hold the values of offset + intrinsic @ basis computed
    # row-major, bit for bit, but each coordinate is one contiguous column
    spec = QuadratureSpec(sphere_order=8, radial_order=8, radial_cutoff=12.0)
    rho, _ = composite_gauss(0.0, spec.radial_cutoff, spec.radial_order)
    dirs, _ = sphere_rule(flat_dim - 1, spec.sphere_order)
    intrinsic = (rho[:, None, None] * dirs[None, :, :]).reshape(-1, flat_dim)
    rng = np.random.default_rng(flat_dim)
    for n in range(flat_dim + 1, 7):
        for distance in (0.0, 1e-3, 0.7, 31.0, 1e4):
            zeta = random_flat(rng, n, flat_dim, distance)
            nodes, _ = flat_rule(zeta, spec)
            assert nodes.shape == (len(intrinsic), n)
            assert nodes.flags.f_contiguous
            assert np.array_equal(nodes, zeta.offset[None, :] + intrinsic @ zeta.basis)


# The inversion's and zonal_invert's splines: quadrature._interp_spline, a
# numpy not-a-knot interpolant, against scipy's (imported by the tests only).
def _assert_agrees(spline, reference, s):
    want = reference(s)
    got = spline(s)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _beyond_both_ends(x, reach):
    """Points from reach spacings before x[0] to reach spacings after x[-1], and every node and midpoint."""
    lo, hi = x[0] - reach * (x[1] - x[0]), x[-1] + reach * (x[-1] - x[-2])
    return np.concatenate([np.linspace(lo, hi, 4001), x, 0.5 * (x[1:] + x[:-1])])


def _table_offsets():
    """The offsets of a line table grown as the benchmark's reconstruction grows it: 0.02 to 10, then 0.2 steps."""
    from sphslice.inversion import _LineDualField

    table = _LineDualField(lambda bases, offsets: np.zeros(len(offsets)), QuadratureSpec(orientation_samples=2))
    table._ensure(2.0 * math.sqrt(2.0) + 0.5 + 30.0)
    return table._p


def test_quintic_agrees_with_scipy_on_the_table_offsets():
    from scipy.interpolate import make_interp_spline

    p = _table_offsets()
    steps = np.round(np.diff(p), 12)
    assert set(steps) == {0.02, 0.2}
    rng = np.random.default_rng(5)
    y = np.exp(-np.outer(p * p, rng.uniform(0.2, 2.0, 8))) + 1e-3 * rng.standard_normal((len(p), 8))
    _assert_agrees(quadrature._interp_spline(p, y, 5), make_interp_spline(p, y, k=5), _beyond_both_ends(p, 2))


def test_cubic_agrees_with_cubic_spline_on_the_zonal_grid():
    from scipy.interpolate import CubicSpline

    from sphslice.zonal import GRID_POINTS, S_MAX, S_MIN

    xi = np.log(np.geomspace(S_MIN, S_MAX, GRID_POINTS))
    values = np.exp(-0.25 * xi * xi) * np.cos(xi)
    _assert_agrees(quadrature._interp_spline(xi, values, 3), CubicSpline(xi, values), _beyond_both_ends(xi, 2))


@given(st.sampled_from([3, 5]), st.integers(0, 60), st.integers(1, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_agrees_with_scipy_on_nonuniform_grids(k, extra, channels, seed):
    from scipy.interpolate import make_interp_spline

    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(0.1, 1.0, k + 1 + extra)) - 3.0
    y = rng.uniform(-1.0, 1.0, (len(x), channels))
    _assert_agrees(quadrature._interp_spline(x, y, k), make_interp_spline(x, y, k=k), _beyond_both_ends(x, 1))


@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("n_extra", [0, 1, 200])
def test_polynomials_of_degree_up_to_k_are_reproduced(k, n_extra):
    x = np.cumsum(np.random.default_rng(k + n_extra).uniform(0.05, 0.3, k + 1 + n_extra))
    s = _beyond_both_ends(x, 1)
    for degree in range(k + 1):
        coefs = np.arange(1.0, degree + 2.0) * (-1.0) ** np.arange(degree + 1)
        y = np.polynomial.polynomial.polyval(x, coefs)
        want = np.polynomial.polynomial.polyval(s, coefs)
        assert np.max(np.abs(quadrature._interp_spline(x, y, k)(s) - want)) <= 1e-12 * np.max(np.abs(want))


def test_spline_evaluates_every_channel_and_one_at_a_time():
    x = np.linspace(-1.0, 2.0, 30)
    y = np.stack([np.sin(x), np.cos(x), x**2], axis=1).reshape(30, 3, 1)
    spline = quadrature._interp_spline(x, y, 5)
    s = np.array([[-1.5, 0.3], [1.99, 2.5]])
    values = spline(s)
    assert values.shape == (2, 2, 3, 1)
    row = quadrature._interp_spline(x, y[:, :, 0], 5)
    for i in range(3):
        assert np.array_equal(row.channel(i)(s), row(s)[..., i])
    assert np.array_equal(values[..., 0], row(s))


@pytest.mark.parametrize("channels", [1, 8])
@pytest.mark.parametrize("k", [3, 5])
@pytest.mark.parametrize("n", ["k + 1", 31, 32, 33, 127, 128, 129, 1241])
def test_banded_solve_matches_a_dense_solve(n, k, channels):
    # one block, a padded last block and many blocks, on both sides of each block boundary
    n = k + 1 if n == "k + 1" else n
    rng = np.random.default_rng(n + 10 * k + channels)
    x = np.cumsum(rng.uniform(0.05, 1.0, n))
    m = (k - 1) // 2
    t = np.concatenate([np.full(k + 1, x[0]), x[m + 1:n - m - 1], np.full(k + 1, x[-1])])
    left = np.minimum(np.searchsorted(t, x, side="right") - 1, n - 1)
    rows = quadrature._bspline_basis(t, left, x, k)[k]
    matrix = np.zeros((n, n))
    np.put_along_axis(matrix, left[:, None] - k + np.arange(k + 1), rows, axis=1)
    rhs = rng.standard_normal((n, channels))
    want = np.linalg.solve(matrix, rhs)
    got = quadrature._banded_solve(left - k, rows, rhs)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
