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


def test_sphere_rule_spec_and_order_share_an_entry():
    spec = QuadratureSpec(sphere_order=15)
    info = quadrature._sphere_rule.cache_info
    first = sphere_rule(2, spec)
    hits, misses = info().hits, info().misses
    second = sphere_rule(2, spec.sphere_order)
    assert (info().hits, info().misses) == (hits + 1, misses)
    assert second[0] is first[0] and second[1] is first[1]


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
