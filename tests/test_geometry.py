import math

import numpy as np
import pytest

from sphslice import (
    Dimensions,
    FlatSpec,
    SlicePlane,
    make_flat,
    random_flat,
)
from sphslice.geometry import _unchecked_flat, sample_sphere_cross_section
from sphslice.quadrature import sphere_rule

# cotangent offset 3 puts the section at distance 3/sqrt(10) from the origin
DIST_AT_T3 = 0.9486832980505138


def test_dimensions_validation():
    Dimensions(2, 2)
    Dimensions(5, 3)
    with pytest.raises(ValueError):
        Dimensions(3, 1)
    with pytest.raises(ValueError):
        Dimensions(2, 3)


def test_make_flat_orthonormalizes():
    basis = np.array([[2.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    zeta = make_flat(basis, np.array([0.0, 0.0, 4.0]))
    gram = zeta.basis @ zeta.basis.T
    assert np.allclose(gram, np.eye(2), atol=1e-12)
    assert np.allclose(zeta.basis @ zeta.offset, 0.0, atol=1e-12)
    assert zeta.dim == 2
    assert zeta.distance == pytest.approx(4.0)


def test_flat_spec_rejects_skew_offset():
    with pytest.raises(ValueError):
        FlatSpec(basis=np.array([[1.0, 0.0]]), offset=np.array([1.0, 1.0]))


def test_slice_plane_distance():
    zeta = make_flat(np.array([[1.0, 0.0]]), 3.0 * np.array([0.0, 1.0]))
    tau = SlicePlane(zeta)
    assert tau.t == pytest.approx(3.0)
    assert tau.dist == pytest.approx(DIST_AT_T3, abs=1e-15)
    assert tau.radius == pytest.approx(1.0 / math.sqrt(10.0))
    # center sits at distance dist from the origin, orthogonality of the split
    assert np.linalg.norm(tau.center) == pytest.approx(tau.dist)
    assert np.linalg.norm(tau.span_direction) == pytest.approx(1.0)


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("n,dim", [(2, 1), (3, 1), (3, 2), (5, 3)])
def test_random_flat_properties(seed, n, dim):
    rng = np.random.default_rng(seed)
    zeta = random_flat(rng, n, dim, 1.7)
    assert zeta.basis.shape == (dim, n)
    assert np.allclose(zeta.basis @ zeta.basis.T, np.eye(dim), atol=1e-12)
    assert np.allclose(zeta.basis @ zeta.offset, 0.0, atol=1e-12)
    assert np.linalg.norm(zeta.offset) == pytest.approx(1.7)


@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("n,dim", [(2, 1), (3, 2), (5, 3)])
def test_random_flat_keeps_the_inline_qr_bits(seed, n, dim):
    # the QR of a Gaussian matrix with the sign fix, as random_flat spelled it inline
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, dim + 1)))
    q = q * np.sign(np.diag(r))
    zeta = random_flat(np.random.default_rng(seed), n, dim, 1.3)
    assert np.array_equal(zeta.basis, q[:, :dim].T)
    assert np.array_equal(zeta.offset, 1.3 * q[:, dim])


def test_random_flat_deterministic():
    a = random_flat(np.random.default_rng(5), 3, 2, 0.4)
    b = random_flat(np.random.default_rng(5), 3, 2, 0.4)
    assert np.array_equal(a.basis, b.basis)
    assert np.array_equal(a.offset, b.offset)


@pytest.mark.parametrize("n,k,t", [(2, 2, 0.0), (2, 2, 3.0), (3, 2, 1.2), (3, 3, 0.7)])
def test_cross_section_nodes(n, k, t):
    rng = np.random.default_rng(11)
    zeta = random_flat(rng, n, k - 1, t)
    tau = SlicePlane(zeta)
    pts, w = sample_sphere_cross_section(tau, 32)
    assert pts.shape[1] == n + 1
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-13
    # constant weight mass is the section's sphere area
    area = np.sum(w)
    d = k - 1
    expect = tau.radius**d * (2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0))
    assert area == pytest.approx(expect, rel=1e-12)


def test_cross_section_lowest_point():
    # the section's smallest last coordinate is 2*dist^2 - 1, attained sharply
    zeta = make_flat(np.array([[1.0, 0.0]]), 2.0 * np.array([0.0, 1.0]))
    tau = SlicePlane(zeta)
    pts, _ = sample_sphere_cross_section(tau, 256)
    floor = 2.0 * tau.dist**2 - 1.0
    assert np.min(pts[:, -1]) >= floor - 1e-12
    assert np.min(pts[:, -1]) == pytest.approx(floor, abs=1e-3)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_cross_section_is_bit_identical_to_the_broadcast_formula(k):
    # the nodes hold the values of center + r * (sigma_nodes @ dirs) computed
    # row-major, bit for bit, but each coordinate is one contiguous column
    sigma_nodes, sigma_w = sphere_rule(k - 1, 12)
    rng = np.random.default_rng(k)
    for n in range(k, 6):
        for t in (0.0, 1e-3, 0.6, 25.0, 1e3):
            tau = SlicePlane(random_flat(rng, n, k - 1, t))
            nodes, weights = sample_sphere_cross_section(tau, 12)
            dirs = np.zeros((k, n + 1))
            dirs[: k - 1, :n] = tau.section.basis
            dirs[k - 1] = tau.span_direction
            assert nodes.shape == (len(sigma_nodes), n + 1)
            assert nodes.flags.f_contiguous
            assert np.array_equal(nodes, tau.center[None, :] + tau.radius * (sigma_nodes @ dirs))
            assert np.array_equal(weights, sigma_w * tau.radius ** (k - 1))


def test_cross_section_reads_the_offset_norm_once(monkeypatch):
    # radius, center and span_direction all share the cached t = |offset|
    calls = []
    distance = FlatSpec.distance
    monkeypatch.setattr(FlatSpec, "distance", property(lambda self: calls.append(1) or distance.fget(self)))
    tau = SlicePlane(random_flat(np.random.default_rng(3), 3, 1, 0.7))
    sample_sphere_cross_section(tau, 8)
    assert len(calls) == 1
    assert tau.t == float(np.linalg.norm(tau.section.offset))


def test_unchecked_flats_share_read_only_arrays_only():
    line = FlatSpec(np.array([[1.0, 0.0]]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="read-only"):
        _unchecked_flat(line.basis, np.array([0.0, 2.0]))
    flat = _unchecked_flat(line.basis, line.offset)
    assert flat.basis is line.basis and flat.offset is line.offset
