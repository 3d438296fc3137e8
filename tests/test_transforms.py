import math

import numpy as np
import pytest

from sphslice import (
    Dimensions,
    PlaneField,
    QuadratureSpec,
    SphereField,
    dual_transform,
    factorization_check,
    make_flat,
    op_B,
    op_B_inverse,
    radon_john,
    section_to_plane,
    sigma,
    slice_transform,
)
from sphslice.transforms import flat_through, orientation_set

SPEC = QuadratureSpec(radial_order=64, radial_cutoff=12.0)

# circumference of the section circle at distance 0.6: 2*pi*sqrt(1 - 0.36)
SLICE_CONST_D06 = 5.026548245743669
# line integral of exp(-|x|^2) at distance 1: sqrt(pi)/e
LINE_GAUSS_D1 = 0.6520493321732922


def constant_field():
    return SphereField(lambda eta: np.ones(len(np.atleast_2d(eta))))


def gaussian_plane_field():
    return PlaneField(lambda x: np.exp(-np.sum(np.asarray(x) ** 2, axis=-1)))


def line_at(t, direction=None):
    d = np.array([1.0, 0.0]) if direction is None else np.asarray(direction, dtype=float)
    normal = np.array([-d[1], d[0]])
    return make_flat(d[None, :], t * normal)


def test_slice_constant_offset_line():
    tau = section_to_plane(line_at(0.6 / math.sqrt(1.0 - 0.36)))
    assert tau.dist == pytest.approx(0.6)
    value = slice_transform(constant_field(), tau, SPEC)
    assert value == pytest.approx(SLICE_CONST_D06, abs=1e-12)


def test_slice_constant_central_k3():
    zeta = make_flat(np.eye(3)[:2], np.zeros(3))
    value = slice_transform(constant_field(), section_to_plane(zeta), SPEC)
    assert value == pytest.approx(4.0 * math.pi, rel=1e-13)


@pytest.mark.parametrize("n,k,dist", [(2, 2, 0.0), (2, 2, 0.35), (3, 2, 0.8), (3, 3, 0.5), (4, 3, 0.9)])
def test_slice_constant_closed_form(n, k, dist):
    # the constant gives the section area: sigma_{k-1} (1 - dist^2)^{(k-1)/2}
    rng = np.random.default_rng(n * 10 + k)
    t = dist / math.sqrt(1.0 - dist**2) if dist > 0 else 0.0
    from sphslice import random_flat

    zeta = random_flat(rng, n, k - 1, t)
    value = slice_transform(constant_field(), section_to_plane(zeta), SPEC)
    expect = sigma(k - 1) * (1.0 - dist**2) ** ((k - 1) / 2.0)
    assert value == pytest.approx(expect, rel=1e-12)


def test_slice_odd_function_central_plane():
    # eta_3 is odd across a central vertical plane, so its slice integral vanishes
    f = SphereField(lambda eta: np.atleast_2d(eta)[:, -1])
    tau = section_to_plane(line_at(0.0))
    assert abs(slice_transform(f, tau, SPEC)) < 1e-14


def test_op_B_pointwise():
    dims = Dimensions(2, 2)
    g = op_B(constant_field(), dims)
    assert g(np.zeros((1, 2)))[0] == pytest.approx(2.0)
    assert g(np.array([[1.0, 0.0]]))[0] == pytest.approx(1.0)
    g3 = op_B(constant_field(), Dimensions(3, 3))
    assert g3(np.array([[3.0, 0.0, 0.0]]))[0] == pytest.approx(0.04)


def test_op_B_inverse_roundtrip():
    dims = Dimensions(3, 2)
    f = SphereField(
        lambda eta: np.exp(-(1.0 + np.atleast_2d(eta)[:, -1]) / (1.0 - np.atleast_2d(eta)[:, -1])),
    )
    back = op_B_inverse(op_B(f, dims), dims)
    from sphslice import sphere_rule

    pts, _ = sphere_rule(3, 8)
    pts = pts[pts[:, -1] < 0.999]
    assert np.allclose(back(pts), f(pts), rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("d", [0.0, 0.5, 1.0, 2.0])
def test_radon_gaussian_line(d):
    value = radon_john(gaussian_plane_field(), line_at(d), SPEC)
    assert value == pytest.approx(math.sqrt(math.pi) * math.exp(-(d**2)), abs=1e-12)


def test_radon_gaussian_frozen_value():
    assert radon_john(gaussian_plane_field(), line_at(1.0), SPEC) == pytest.approx(
        LINE_GAUSS_D1, abs=1e-12
    )


def test_radon_orientation_invariance():
    val_a = radon_john(gaussian_plane_field(), line_at(0.7), SPEC)
    s = 1.0 / math.sqrt(2.0)
    val_b = radon_john(gaussian_plane_field(), line_at(0.7, direction=[s, s]), SPEC)
    assert val_a == pytest.approx(val_b, rel=1e-12)


@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (3, 3)])
def test_factorization_random_planes(n, k):
    rng = np.random.default_rng(17)
    f = SphereField(
        lambda eta: np.exp(-2.0 * (1.0 + np.atleast_2d(eta)[:, -1]) / (1.0 - np.atleast_2d(eta)[:, -1])),
    )
    from sphslice import random_flat

    worst = 0.0
    for _ in range(8):
        t = math.tan(rng.uniform(0.0, math.pi / 2.0 - 0.01))
        zeta = random_flat(rng, n, k - 1, t)
        report = factorization_check(f, section_to_plane(zeta), SPEC)
        worst = max(worst, report.rel_diff)
    assert worst < 1e-10


def test_factorization_report_fields():
    f = constant_field()
    spec = QuadratureSpec(radial_order=64, radial_cutoff=1e7)
    report = factorization_check(f, section_to_plane(line_at(1.0)), spec)
    assert report.abs_diff == abs(report.lhs - report.rhs)
    assert report.rel_diff == report.abs_diff / (1.0 + abs(report.lhs))


def test_slice_linearity():
    f1 = constant_field()
    f2 = SphereField(lambda eta: np.atleast_2d(eta)[:, 0] ** 2)
    tau = section_to_plane(line_at(0.8))
    combo = SphereField(lambda eta: 2.0 * f1(eta) - 3.0 * f2(eta))
    lhs = slice_transform(combo, tau, SPEC)
    rhs = 2.0 * slice_transform(f1, tau, SPEC) - 3.0 * slice_transform(f2, tau, SPEC)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_orientation_set_properties():
    bases = orientation_set(1, 2, 16, seed=0)
    assert bases.shape == (16, 1, 2)
    assert np.allclose(np.linalg.norm(bases[:, 0, :], axis=1), 1.0, atol=1e-13)
    again = orientation_set(1, 2, 16, seed=0)
    assert np.array_equal(bases, again)
    other = orientation_set(2, 3, 8, seed=1)
    for b in other:
        assert np.allclose(b @ b.T, np.eye(2), atol=1e-12)


def test_flat_through_contains_point():
    basis = np.array([[1.0, 0.0, 0.0]])
    x = np.array([2.0, 1.0, -1.0])
    zeta = flat_through(basis, x)
    # x - offset must lie in the span
    rel = x - zeta.offset
    assert np.allclose(rel - (rel @ zeta.basis.T) @ zeta.basis, 0.0, atol=1e-12)


def test_dual_transform_center_value():
    # every line through the origin sees the same radial data value
    spec = QuadratureSpec(radial_order=64, radial_cutoff=12.0, orientation_samples=64)

    def data(zeta):
        return radon_john(gaussian_plane_field(), zeta, spec)

    value = dual_transform(data, np.zeros(2), 1, Dimensions(2, 2), spec)
    assert value == pytest.approx(math.sqrt(math.pi), rel=1e-12)
