import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sphslice import (
    QuadratureSpec,
    SlicePlane,
    flat_rule,
    nu,
    nu_inverse,
    plane_to_sphere_weight,
    random_flat,
)
from sphslice.geometry import sample_sphere_cross_section


def test_known_image():
    assert np.allclose(nu(np.array([3.0, 0.0])), [0.6, 0.0, 0.8], atol=1e-15)


def test_origin_maps_to_south_pole():
    eta = nu(np.zeros(4))
    assert np.allclose(eta, [0, 0, 0, 0, -1.0])


def test_south_pole_maps_to_origin():
    x = nu_inverse(np.array([0.0, 0.0, -1.0]))
    assert np.allclose(x, 0.0)


coords = hnp.arrays(
    np.float64,
    st.integers(min_value=2, max_value=4),
    elements=st.floats(min_value=-1e3, max_value=1e3),
)


@given(coords)
@settings(max_examples=100, deadline=None)
def test_roundtrip(x):
    eta = nu(x)
    assert abs(np.linalg.norm(eta) - 1.0) < 1e-14
    back = nu_inverse(eta)
    assert np.allclose(back, x, rtol=1e-12, atol=1e-12)


def test_roundtrip_far_out():
    # the stable inverse keeps relative accuracy at radius 1e6
    x = np.array([1e6, 2e5, -3e4])
    back = nu_inverse(nu(x))
    assert np.max(np.abs(back - x)) / 1e6 < 1e-12


def test_pole_rejected():
    pole = np.zeros(3)
    pole[-1] = 1.0
    with pytest.raises(ValueError, match="pole"):
        nu_inverse(pole)
    near = np.array([1e-9, 0.0, 1.0])
    near /= np.linalg.norm(near)
    with pytest.raises(ValueError, match="pole"):
        nu_inverse(near)


@given(coords, st.integers(min_value=1, max_value=3))
@settings(max_examples=50, deadline=None)
def test_weights_are_inverse(x, m):
    # the plane-side factor is 2^m / (|x|^2 + 1)^m; 1 - eta_last loses
    # ~|x|^2 * ulp to cancellation, so the bound scales
    eta = nu(x)
    product = 2.0**m / (np.sum(x**2) + 1.0) ** m * plane_to_sphere_weight(eta, m)
    assert product == pytest.approx(1.0, rel=3e-15 * m * (1.0 + np.sum(x**2)))



def nu_by_numpy_sums(x):
    # the projection as numpy's own reduction and concatenation compute it
    arr = np.asarray(x, dtype=float)
    s2 = np.sum(arr * arr, axis=-1, keepdims=True)
    return np.concatenate([2.0 * arr, s2 - 1.0], axis=-1) / (s2 + 1.0)


def nu_inverse_by_numpy_sums(eta):
    arr = np.asarray(eta, dtype=float)
    last = arr[..., -1]
    perp = arr[..., :-1]
    denom = np.sum(perp * perp, axis=-1, keepdims=True)
    upper = np.where(denom > 0.0, (1.0 + last[..., None]) / np.where(denom > 0.0, denom, 1.0), 0.0)
    lower = 1.0 / (1.0 - last[..., None])
    return perp * np.where(last[..., None] >= 0.0, upper, lower)


@pytest.mark.parametrize("width", range(1, 11))
def test_projection_is_bit_identical_to_numpy_sums(width):
    # nu and nu_inverse add the squares column by column; numpy's sum adds
    # them in that order up to 7 columns and pairwise from 8 on, where the
    # projection must fall back to it.  Magnitudes spread over 8 decades make
    # any other order show in the last bits.
    rng = np.random.default_rng(width)
    for batch in [(300,), (4, 6), (0,), ()]:
        x = rng.standard_normal(batch + (width,)) * 10.0 ** rng.uniform(-4, 4, batch + (width,))
        for points in (x, np.asfortranarray(x)):
            eta = nu(points)
            assert eta.shape == batch + (width + 1,)
            assert np.array_equal(eta, nu_by_numpy_sums(points))
            back = nu_inverse(eta)
            assert back.shape == batch + (width,)
            assert np.array_equal(back, nu_inverse_by_numpy_sums(eta))


@pytest.mark.parametrize("width", range(1, 9))
def test_nu_inverse_is_bit_identical_to_the_broadcast_formula(width):
    # points on both hemispheres, on the axis (eta_perp = 0) and off it, with
    # magnitudes over 8 decades; width 1 has no perpendicular coordinates
    rng = np.random.default_rng(100 + width)
    for batch in [(300,), (4, 6), (0,), ()]:
        eta = rng.standard_normal(batch + (width,)) * 10.0 ** rng.uniform(-4, 4, batch + (width,))
        eta[..., -1] = rng.uniform(-1.0, 0.999, batch)
        if batch:
            eta.reshape(-1, width)[::3, :-1] = 0.0
        for points in (eta, np.asfortranarray(eta)):
            back = nu_inverse(points)
            assert back.shape == batch + (width - 1,)
            assert back.flags.f_contiguous
            assert np.array_equal(back, nu_inverse_by_numpy_sums(points))
            assert nu(back).flags.f_contiguous


def _library_points(width, rng):
    """Coordinate-major arrays of the given width that the library builds."""
    x = rng.standard_normal((300, width)) * 10.0 ** rng.uniform(-4, 4, (300, width))
    eta = nu(x)
    arrays = [nu_inverse(eta)]
    if width >= 2:
        spec = QuadratureSpec(sphere_order=8, radial_order=8, radial_cutoff=12.0)
        arrays += [nu(x[:, 1:]), flat_rule(random_flat(rng, width, min(width - 1, 2), 3.7), spec)[0]]
    if width >= 3:
        tau = SlicePlane(random_flat(rng, width - 1, min(width - 2, 2), 0.4))
        arrays.append(sample_sphere_cross_section(tau, 8)[0])
    return arrays


@pytest.mark.parametrize("width", range(1, 8))
def test_coordinate_major_points_reduce_like_row_major_ones(width):
    # fields may sum squares or take norms over the coordinate axis; up to 7
    # coordinates numpy adds them left to right in either memory order
    rng = np.random.default_rng(width)
    for arr in _library_points(width, rng):
        assert arr.flags.f_contiguous
        row_major = np.ascontiguousarray(arr)
        assert np.array_equal(np.sum(arr * arr, axis=-1), np.sum(row_major * row_major, axis=-1))
        assert np.array_equal(np.linalg.norm(arr, axis=-1), np.linalg.norm(row_major, axis=-1))
