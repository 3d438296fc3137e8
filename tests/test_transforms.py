import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sphslice.cli as cli
import sphslice.geometry as geometry
import sphslice.quadrature as quadrature
import sphslice.stereo as stereo
import sphslice.transforms as transforms
from sphslice import (
    Dimensions,
    FlatSpec,
    PlaneField,
    QuadratureSpec,
    SphereField,
    dual_transform,
    factorization_check,
    make_flat,
    op_B,
    op_B_inverse,
    radon_john,
    random_flat,
    section_to_plane,
    sigma,
    slice_transform,
)
from sphslice.scenes import SceneSpec, build_field, suggested_cutoff
from sphslice.transforms import _BLOCK_POINTS, flat_through, orientation_set
from test_inversion import dual_of_gaussian_2d, dual_of_gaussian_3d

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


def test_factorization_check_warns_at_the_callers_line():
    # the pole check runs inside the stacked sums, and op_B's field decays
    # only like r^-1 on lines: both warnings name this line
    f = SphereField(lambda eta: np.ones(len(np.atleast_2d(eta))), pole_exponent=0.5)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        factorization_check(f, section_to_plane(line_at(1.0)), SPEC)
    assert {str(w.message).split(";")[0] for w in record} == {
        "pole growth exponent meets or exceeds (k-1)/2", "decay exponent does not exceed the flat dimension"}
    assert {w.filename for w in record} == {__file__}


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


@pytest.mark.parametrize("seed", [0, 4, 9])
def test_orientation_set_keeps_the_inline_qr_bits(seed):
    # seeded Haar frames, as orientation_set spelled the QR with the sign fix inline
    rng = np.random.default_rng(seed)
    frames = np.empty((6, 2, 4))
    for i in range(6):
        q, r = np.linalg.qr(rng.standard_normal((4, 4)))
        q *= np.sign(np.diag(r))
        frames[i] = q[:, :2].T
    assert np.array_equal(orientation_set(2, 4, 6, seed), frames)
    # a seeded rotation of the Fibonacci lattice, likewise
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    dirs = transforms._fibonacci_hemisphere(10) @ q.T
    assert np.array_equal(orientation_set(1, 3, 10, seed), dirs[:, None, :])


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("flat_dim,n", [(1, 4), (2, 4), (3, 5), (2, 6)])
def test_haar_orientations_are_the_frame_by_frame_draws(seed, flat_dim, n):
    # one Gaussian stack and one batched QR give each frame's bits
    rng = np.random.default_rng(seed)
    frames = np.empty((7, flat_dim, n))
    for i in range(7):
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        q *= np.sign(np.diag(r))
        frames[i] = q[:, :flat_dim].T
    got = orientation_set(flat_dim, n, 7, seed)
    assert np.array_equal(got, frames) and got.flags.c_contiguous


def test_flat_through_contains_point():
    frames = np.array([[[1.0, 0.0, 0.0]], [[1.0, 2.0, 0.0]]])
    points = np.array([[2.0, 1.0, -1.0], [0.0, 0.0, 0.0], [-0.5, 3.0, 0.25]])
    for x, (bases, offsets) in zip(points, flat_through(frames, points)):
        assert len(bases) == len(offsets) == len(frames)
        assert not bases.flags.writeable and not offsets.flags.writeable
        for frame, basis, offset in zip(frames, bases, offsets):
            # x - offset must lie in the span, and the flat has the one-frame formula's bits
            rel = x - offset
            assert np.allclose(rel - (rel @ basis.T) @ basis, 0.0, atol=1e-12)
            ortho = geometry._orthonormalize(frame)
            assert np.array_equal(basis, ortho)
            assert np.array_equal(offset, x - (x @ ortho.T) @ ortho)


def test_dual_transform_center_value():
    # every line through the origin sees the same radial data value
    spec = QuadratureSpec(radial_order=64, radial_cutoff=12.0, orientation_samples=64)

    def data(zeta):
        return radon_john(gaussian_plane_field(), zeta, spec)

    value = dual_transform(data, np.zeros(2), 1, Dimensions(2, 2), spec)
    assert value == pytest.approx(math.sqrt(math.pi), rel=1e-12)


def test_dual_transform_refuses_a_non_finite_flat_value():
    spec = QuadratureSpec(orientation_samples=8)
    values = iter([1.0] * 5 + [math.inf] + [1.0] * 2)
    with pytest.raises(ValueError, match="flat function not finite"):
        dual_transform(lambda zeta: next(values), np.ones(2), 1, Dimensions(2, 2), spec)


@pytest.mark.parametrize("flat_dim,n", [(1.0, 2), (True, 2), (2.0, 3), (1.5, 3)])
def test_dual_transform_refuses_a_flat_dimension_that_is_not_an_integer(flat_dim, n):
    # 1.0 and True at (2, 2) and 2.0 at (3, 3) ran; 1.5 failed inside numpy's slicing
    def refuse(zeta):
        raise AssertionError("the flat function was evaluated")

    with pytest.raises(TypeError, match="flat dimension must be an integer"):
        dual_transform(refuse, np.zeros(n), flat_dim, Dimensions(n, n), QuadratureSpec(orientation_samples=4))
    assert np.array_equal(orientation_set(np.int64(n - 1), n, 4, 0), orientation_set(n - 1, n, 4, 0))


# Lines in the plane use uniform midpoint angles, which integrate the smooth
# periodic data to rounding: the largest relative error at the points below is
# 4.4e-16, so 1e-14 leaves a margin of 22.  Lines in space use 256 directions
# of a rotated Fibonacci lattice, a quasi-Monte Carlo sample: its largest
# error there is 3.5e-3 (at |x| = 1.96), so 1e-2 leaves a margin of 2.8.
@pytest.mark.parametrize("points,closed_form,rel", [
    ([[0.3, 0.0], [-0.6, 0.5], [1.0, 1.0], [-0.4, 1.9], [2.5, -0.5]], dual_of_gaussian_2d(), 1e-14),
    ([[0.3, 0.0, 0.0], [0.0, -0.6, 0.5], [1.0, 1.0, 0.2], [-0.4, 1.2, -1.5], [2.5, 0.0, -0.5]],
     dual_of_gaussian_3d(), 1e-2),
])
def test_dual_transform_matches_the_closed_form_off_center(points, closed_form, rel):
    # the backprojection of the line data sqrt(pi) exp(-p^2) of exp(-|x|^2)
    spec = QuadratureSpec(radial_order=32, radial_cutoff=8.0)
    dims = Dimensions(len(points[0]), 2)

    def data(zeta):
        return radon_john(gaussian_plane_field(), zeta, spec)

    for x in np.array(points):
        assert dual_transform(data, x, 1, dims, spec) == pytest.approx(float(closed_form(x)), rel=rel)


def zonal_decaying_field():
    # exp(eta_last): op_B of it depends on every bit of nu(x) and of |x|^2
    return SphereField(lambda eta: np.exp(np.asarray(eta)[..., -1]))


@pytest.mark.parametrize("width", range(1, 8))
def test_op_B_is_bit_identical_to_numpy_sums(width):
    # the conjugated field as numpy's own reductions compute it, for every
    # k from 2 to n = max(width, 2): k >= 4 reaches the general power
    # denom ** (k - 1) rather than numpy's square and identity fast paths
    f = zonal_decaying_field()
    n = max(width, 2)
    for k in range(2, n + 1):
        g = op_B(f, Dimensions(n, k))
        rng = np.random.default_rng(width)
        for batch in [(300,), (4, 6), (0,), ()]:
            x = rng.standard_normal(batch + (width,)) * 10.0 ** rng.uniform(-3, 3, batch + (width,))
            s2 = np.sum(x * x, axis=-1, keepdims=True)
            eta = np.concatenate([2.0 * x, s2 - 1.0], axis=-1) / (s2 + 1.0)
            want = 2.0 ** (k - 1) * f(eta) / (np.sum(x * x, axis=-1) + 1.0) ** (k - 1)
            got = g(x)
            assert np.shape(got) == batch
            assert np.array_equal(got, want)


def test_op_B_sends_each_point_through_transforms_nu_once(monkeypatch):
    # the traced benchmark counts stereo.points by replacing transforms.nu
    seen = []
    real_nu = transforms.nu

    def counting_nu(x):
        seen.append(len(np.asarray(x).reshape(-1, np.shape(x)[-1])))
        return real_nu(x)

    monkeypatch.setattr(transforms, "nu", counting_nu)
    squared = []
    real_sq_norm = stereo._sq_norm

    def counting_sq_norm(arr):
        squared.append(len(np.asarray(arr).reshape(-1, np.shape(arr)[-1])))
        return real_sq_norm(arr)

    # |x|^2 is computed once per point, inside the projection
    monkeypatch.setattr(stereo, "_sq_norm", counting_sq_norm)
    monkeypatch.setattr(transforms, "_sq_norm", counting_sq_norm, raising=False)
    g = op_B(zonal_decaying_field(), Dimensions(3, 2))
    g(np.ones((37, 3)))
    assert sum(seen) == 37
    assert sum(squared) == 37
    seen.clear()
    zeta = line_at(0.4)
    nodes, _ = transforms.flat_rule(zeta, SPEC)
    radon_john(op_B(zonal_decaying_field(), Dimensions(2, 2)), zeta, SPEC)
    assert sum(seen) == len(nodes)


def declared(f):
    """f declared zonal, recording the width of every batch it is called with."""
    widths = []
    return SphereField(lambda eta: widths.append(np.shape(eta)[-1]) or f(eta), f.pole_exponent, zonal=True), widths


def test_op_B_gives_a_declared_field_the_last_coordinate_through_transforms_nu_once(monkeypatch):
    # the declared path calls the same name with last_only, so the traced
    # benchmark still counts every projected point once
    seen = []
    real_nu = transforms.nu

    def counting_nu(x, **kwargs):
        seen.append((len(np.asarray(x).reshape(-1, np.shape(x)[-1])), kwargs))
        return real_nu(x, **kwargs)

    monkeypatch.setattr(transforms, "nu", counting_nu)
    f, widths = declared(zonal_decaying_field())
    x = np.random.default_rng(3).standard_normal((37, 3))
    assert np.array_equal(op_B(f, Dimensions(3, 2))(x), op_B(zonal_decaying_field(), Dimensions(3, 2))(x))
    assert seen == [(37, {"last_only": True}), (37, {})] and widths == [1]
    seen.clear()
    zeta = line_at(0.4)
    nodes, _ = transforms.flat_rule(zeta, SPEC)
    radon_john(op_B(f, Dimensions(2, 2)), zeta, SPEC)
    assert seen == [(len(nodes), {"last_only": True})] and widths == [1, 1]


@pytest.mark.parametrize("width", range(0, 8))
def test_op_B_of_a_declared_field_keeps_the_undeclared_bits(width):
    # the last coordinate alone is the whole projection's last coordinate, bit for bit
    f = zonal_decaying_field()
    n = max(width, 2)
    rng = np.random.default_rng(width)
    for k in range(2, n + 1):
        g, g_declared = op_B(f, Dimensions(n, k)), op_B(declared(f)[0], Dimensions(n, k))
        for batch in [(300,), (4, 6), (0,), ()]:
            x = rng.standard_normal(batch + (width,)) * 10.0 ** rng.uniform(-3, 3, batch + (width,))
            got = g_declared(x)
            assert np.shape(got) == batch
            assert np.array_equal(got, g(x))
            eta, denom = stereo._nu_and_denominator(x)
            last, last_denom = stereo._nu_and_denominator(x, last_only=True)
            assert last.shape == batch + (1,) and np.array_equal(last[..., 0], eta[..., -1])
            assert np.array_equal(last_denom, denom)


@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (3, 3), (4, 3), (5, 4)])
def test_the_last_row_of_the_section_nodes_is_the_whole_builds(n, k):
    # one row of the stacked product, on chunks of 1, 3 and 17 planes at
    # offsets from 0 to 1e3, and on runs of the rule from several starts
    rng = np.random.default_rng(10 * n + k)
    sigma = quadrature.sphere_rule(k - 1, 12)[0]
    m = len(sigma)
    runs = [slice(0, m), slice(0, 2), slice(2, 8), slice(m // 2, m // 2 + 6), slice(m - 4, m)]
    for count in (1, 3, 17):
        bases, offsets = cli._random_planes(Dimensions(n, k), count, count)
        offsets = offsets * np.geomspace(1e-3, 1e3, count)[:, None]
        offsets[0] = 0.0
        frames, _ = geometry._section_frames(bases, offsets)
        for run in runs:
            whole = geometry._section_points(frames, sigma[run])
            last = geometry._section_points(frames, sigma[run], last_only=True)
            assert last.shape == (1, count, len(sigma[run]))
            assert np.array_equal(last[0], whole[n])
            dirs, centers, radii = frames
            by_hand = np.matmul(dirs[:, n:n + 1, :], sigma[run].T)[:, 0]
            by_hand *= radii
            by_hand += centers[n]
            assert np.array_equal(by_hand, whole[n])


@pytest.mark.parametrize("block", [64, _BLOCK_POINTS])
@pytest.mark.parametrize("family", ["constant", "zonal_gaussian", "cap_bump"])
@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (3, 3), (4, 3)])
def test_declared_stacks_keep_the_undeclared_bits(monkeypatch, family, n, k, block):
    # the slice and flat sums of a declared scene field against the same
    # field undeclared: the same bits, with one-coordinate batches only, on
    # chunks of planes and, at a block of 64 nodes, on streamed planes
    scene = SceneSpec(family=family, dims=Dimensions(n, k))
    spec = QuadratureSpec(sphere_order=12, radial_order=16, radial_cutoff=suggested_cutoff(scene))
    f = build_field(scene)
    assert f.zonal
    undeclared = SphereField(f.eval, f.pole_exponent)
    bases, offsets = cli._random_planes(scene.dims, 9, 5)
    monkeypatch.setattr(transforms, "_BLOCK_POINTS", block)
    counted, widths = declared(f)
    assert transforms._slice_sums(counted, bases, offsets, spec) == transforms._slice_sums(undeclared, bases,
                                                                                             offsets, spec)
    assert transforms._flat_sums(op_B(counted, scene.dims), bases, offsets, spec) == \
        transforms._flat_sums(op_B(undeclared, scene.dims), bases, offsets, spec)
    assert widths and set(widths) == {1}


class CountingField:
    """A pointwise field that records every batch it is called with."""

    def __init__(self):
        self.batches = []

    def __call__(self, x):
        x = np.asarray(x)
        self.batches.append(x.copy())
        return np.exp(-0.5 * np.sum(x * x, axis=-1)) * np.cos(3.0 * x[..., 0])


@pytest.mark.parametrize(
    "count", [_BLOCK_POINTS - 1, _BLOCK_POINTS, _BLOCK_POINTS + 1, 2 * _BLOCK_POINTS + 3]
)
@pytest.mark.parametrize("which", ["radon_john", "slice_transform"])
def test_block_evaluation_is_bit_identical(monkeypatch, count, which):
    # fields are evaluated in blocks of at most _BLOCK_POINTS nodes; every
    # node is seen once, in order, and the sum is the unblocked one bit for bit
    rng = np.random.default_rng(count)
    width = 3 if which == "radon_john" else 4
    nodes = rng.standard_normal((count, width))
    weights = rng.uniform(0.1, 1.0, count)
    counting = CountingField()
    if which == "radon_john":
        # the kept span's layout, (dim, m)
        span = np.ascontiguousarray(nodes.T)
        monkeypatch.setattr(transforms, "_span_of", lambda basis, shape, spec: (span, weights))
        got = radon_john(PlaneField(counting), make_flat(np.eye(3)[:1], np.zeros(3)), SPEC)
    else:
        # sample_sphere_cross_section's layout, (m, dim) coordinate-major
        rule = np.asfortranarray(nodes), weights
        monkeypatch.setattr(transforms, "sample_sphere_cross_section", lambda tau, order: rule)
        zeta = make_flat(np.eye(3)[:2], np.zeros(3))
        got = slice_transform(SphereField(counting), section_to_plane(zeta), SPEC)
    assert max(len(b) for b in counting.batches) <= _BLOCK_POINTS
    assert np.array_equal(np.concatenate(counting.batches), nodes)
    assert got == float(np.sum(CountingField()(nodes) * weights))


@pytest.mark.parametrize("sphere_order,radial_order", [(8, 16), (160, 64)])
def test_per_call_integrals_sum_the_public_rules(sphere_order, radial_order):
    # slice_transform and radon_john integrate the nodes and weights that
    # sample_sphere_cross_section and flat_rule return, bit for bit.  At
    # orders 160/64 both rules are larger than a block: the slice and flat
    # are summed run by run, and radon_john keeps no span.
    scene = SceneSpec(family="cap_bump", dims=Dimensions(3, 3))
    spec = QuadratureSpec(sphere_order=sphere_order, radial_order=radial_order,
                          radial_cutoff=suggested_cutoff(scene))
    f = build_field(scene)
    g = op_B(f, scene.dims)
    bases, offsets = cli._random_planes(scene.dims, 3, 5)
    large = sphere_order > 100
    for basis, offset in zip(bases, offsets):
        tau = section_to_plane(FlatSpec(basis, offset))
        nodes, weights = transforms.sample_sphere_cross_section(tau, spec.sphere_order)
        assert (len(weights) > _BLOCK_POINTS) == large
        assert slice_transform(f, tau, spec) == float(np.add.reduce(f(nodes) * weights))
        nodes, weights = transforms.flat_rule(tau.section, spec)
        assert (len(weights) > _BLOCK_POINTS) == large
        assert radon_john(g, tau.section, spec) == float(np.add.reduce(g(nodes) * weights))


@given(
    dims=st.integers(2, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n))),
    seed=st.integers(0, 2**32 - 1),
    t=st.floats(0.0, 5.0),
)
@settings(max_examples=15, deadline=None)
def test_factorization_holds_for_random_dimensions(dims, seed, t):
    # (1 - eta_last)^4 is a polynomial on the sphere, so modest sphere orders
    # integrate it exactly, and B f decays like |x|^{-2(k+3)}, so the radial
    # tail beyond 60 is below 1e-15; over 400 random draws rel_diff stayed
    # below 1.7e-15
    n, k = dims
    f = SphereField(lambda eta: (1.0 - np.asarray(eta)[..., -1]) ** 4)
    spec = QuadratureSpec(sphere_order=6, radial_order=16, radial_cutoff=60.0)
    zeta = random_flat(np.random.default_rng(seed), n, k - 1, t)
    report = factorization_check(f, section_to_plane(zeta), spec)
    assert report.rel_diff < 1e-12


SCENE_FAMILY = st.sampled_from(["constant", "zonal_gaussian", "cap_bump", "first_harmonic_weighted"])


@given(
    dims=st.integers(2, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n))),
    families=st.tuples(SCENE_FAMILY, SCENE_FAMILY),
    coefficients=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
    seed=st.integers(0, 2**32 - 1),
    t=st.floats(0.0, 5.0),
)
# Subnormal coefficients make the transforms subnormal too (about 2.6e-318
# here), where one rounding moves a value by more than 1e-12 of it.
@example(dims=(2, 2), families=("zonal_gaussian", "constant"), coefficients=(1.1125369292536007e-308, 0.0),
         seed=0, t=4.5)
@settings(max_examples=20, deadline=None)
def test_slice_transform_is_linear(dims, families, coefficients, seed, t):
    # The error is measured against the transform of |a f| + |b g|, which
    # bounds the cancellation in either sum; over 400 random draws it stayed
    # below 4.7e-16.  The bound is floored at the smallest normal float, as
    # below it the spacing of floats exceeds 1e-12 of the value.
    n, k = dims
    f, g = (build_field(SceneSpec(family=name, dims=Dimensions(n, k))) for name in families)
    a, b = coefficients
    spec = QuadratureSpec(sphere_order=8)
    tau = section_to_plane(random_flat(np.random.default_rng(seed), n, k - 1, t))
    combined = slice_transform(SphereField(lambda eta: a * f(eta) + b * g(eta)), tau, spec)
    separate = a * slice_transform(f, tau, spec) + b * slice_transform(g, tau, spec)
    scale = slice_transform(SphereField(lambda eta: np.abs(a * f(eta)) + np.abs(b * g(eta))), tau, spec)
    assert abs(combined - separate) <= max(1e-12 * scale, np.finfo(float).tiny)


def _one_node(value):
    """A plane field that is 1 everywhere except value at the first node of a batch."""
    def evaluate(x):
        out = np.ones(len(x))
        out[0] = value
        return out
    return PlaneField(evaluate)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_one_non_finite_node_raises(value):
    zeta = make_flat([[1.0, 0.0]], [0.0, 0.5])
    with pytest.raises(ValueError, match="integrand blowup: field is not finite on the flat"):
        radon_john(_one_node(value), zeta, SPEC)
    tau = section_to_plane(zeta)
    with pytest.raises(ValueError, match="integrand blowup: field is not finite on the cross-section"):
        slice_transform(SphereField(_one_node(value).eval), tau, SPEC)


def test_finite_values_whose_sum_overflows_give_inf():
    # Every value is finite, so nothing is refused; the sum itself overflows.
    huge = PlaneField(lambda x: np.full(len(x), 1e308))
    with np.errstate(over="ignore"):
        assert radon_john(huge, make_flat([[1.0, 0.0]], [0.0, 0.5]), SPEC) == math.inf


# -- planes integrated as one stack ---------------------------------------------

# Orders per slice-plane dimension k whose rules fall below _BLOCK_POINTS with
# one chunk for up to 40 planes, below it with chunks of about 16 planes, and
# above it (one plane per chunk, evaluated block by block).  The sphere orders
# size the cross-section rules; with them the radial orders size the flat
# rules (cutoff 10 has five dyadic panels).
STACK_ORDERS = {
    2: [(8, 3), (1000, 100), (17000, 1700)],
    3: [(4, 2), (32, 50), (130, 900)],
    4: [(3, 2), (10, 25), (26, 450)],
    5: [(2, 1), (6, 25), (12, 450)],
}


@given(
    dims=st.integers(2, 5).flatmap(lambda n: st.tuples(st.just(n), st.integers(2, n))),
    size_class=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    count=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(["zonal_gaussian", "first_harmonic_weighted"]),
)
@settings(max_examples=25, deadline=None)
def test_stacked_sums_equal_stacks_of_one(dims, size_class, count, seed, family):
    # The batched slice and flat sums equal one call per plane bit for bit,
    # whether the planes share one chunk, split into uneven chunks or each
    # have a rule larger than one block.
    n, k = dims
    sphere_order = STACK_ORDERS[k][size_class[0]][0]
    radial_order = STACK_ORDERS[k][size_class[1]][1]
    spec = QuadratureSpec(sphere_order=max(sphere_order, k), radial_order=radial_order, radial_cutoff=10.0)
    slice_spec = spec
    if k > 2:
        # the flat rule of a d-flat takes a sphere rule of dimension d - 1;
        # a low order there keeps its size set by the radial order
        spec = QuadratureSpec(sphere_order=2, radial_order=radial_order, radial_cutoff=10.0)
    # the draw's stack, whose bases are a transposed view, against FlatSpec's contiguous copies
    rng = np.random.default_rng(seed)
    bases, offsets = geometry._draw_flats(rng, n, k - 1, count, lambda rng: rng.uniform(0.0, 4.0))
    zetas = [FlatSpec(basis, offset) for basis, offset in zip(bases, offsets)]
    f = build_field(SceneSpec(family=family, dims=Dimensions(n, k)))
    g = op_B(f, Dimensions(n, k))
    assert transforms._slice_sums(f, bases, offsets, slice_spec) == [
        slice_transform(f, section_to_plane(zeta), slice_spec) for zeta in zetas]
    assert transforms._flat_sums(g, bases, offsets, spec) == [radon_john(g, zeta, spec) for zeta in zetas]


@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (3, 3), (5, 4)])
def test_stacked_nodes_are_the_stacks_of_one_in_a_coordinate_major_view(n, k):
    spec = QuadratureSpec(sphere_order=6, radial_order=8, radial_cutoff=10.0)
    rng = np.random.default_rng(n * 10 + k)
    zetas = [random_flat(rng, n, k - 1, t) for t in (0.0, 0.4, 3.0, 250.0)]
    # and one basis broadcast (stride 0) over offsets t * unit, as the inversion's table rows stack their lines
    unit = random_flat(rng, n, k - 1, 1.0)
    ts = np.array([0.0, 1e-3, 25.0, 1e3])
    stacks = [(np.array([z.basis for z in zetas]), np.array([z.offset for z in zetas])),
              (np.broadcast_to(unit.basis, (len(ts),) + unit.basis.shape), np.multiply.outer(ts, unit.offset))]
    assert stacks[1][0].strides[0] == 0
    for bases, offsets in stacks:
        flats = [FlatSpec(basis, offset) for basis, offset in zip(bases, offsets)]
        taus = [section_to_plane(zeta) for zeta in flats]
        intrinsic, flat_weights = quadrature._flat_template(*quadrature._template_key(k - 1, spec))
        flat_nodes = quadrature._flat_points(bases, offsets, intrinsic)
        frames, scales = geometry._section_frames(bases, offsets)
        sigma_nodes, sigma_weights = quadrature.sphere_rule(k - 1, spec.sphere_order)
        section_nodes, section_weights = geometry._section_points(frames, sigma_nodes), sigma_weights * scales
        for stacked, weights, singles, width in [
            (flat_nodes, flat_weights, [transforms.flat_rule(z, spec) for z in flats], n),
            (section_nodes, section_weights, [transforms.sample_sphere_cross_section(t, 6) for t in taus], n + 1),
        ]:
            m = len(singles[0][1])
            assert stacked.shape == (width, len(flats), m)
            points = stacked.reshape(width, -1).T
            assert np.shares_memory(points, stacked) and points.flags.f_contiguous
            for i, (nodes, w) in enumerate(singles):
                assert np.array_equal(points[i * m : (i + 1) * m], nodes)
                assert np.array_equal(np.broadcast_to(weights, (len(flats), m))[i], w)


# -- planes whose rule is larger than a block -------------------------------------

# (n, k) -> (sphere order, radial order).  With a block budget of 64 nodes
# every cross-section and flat rule here is larger than a block, so the
# stacked sums stream each plane run by run.
STREAMED_ORDERS = {(2, 2): (70, 24), (3, 2): (70, 24), (3, 3): (33, 12), (4, 3): (33, 12)}


def _factor_rows(path):
    """The lhs and rhs columns of a factor-check CSV, as floats."""
    rows = [line.split(",") for line in path.read_text().splitlines() if line and not line.startswith("#")]
    header = rows[0]
    return ([float(r[header.index("lhs")]) for r in rows[1:]], [float(r[header.index("rhs")]) for r in rows[1:]])


@pytest.mark.parametrize("family", ["cap_bump", "first_harmonic_weighted"])
@pytest.mark.parametrize("n,k", list(STREAMED_ORDERS))
def test_streamed_planes_keep_the_per_call_bits(monkeypatch, tmp_path, family, n, k):
    # The per-call integrals, at the package's block budget, against the
    # stacked sums and the factor-check rows at a budget of 64 nodes: the
    # same bits, and no field call on more than 64 points.
    sphere_order, radial_order = STREAMED_ORDERS[n, k]
    scene = SceneSpec(family=family, dims=Dimensions(n, k))
    spec = QuadratureSpec(sphere_order=sphere_order, radial_order=radial_order,
                          radial_cutoff=suggested_cutoff(scene))
    f = build_field(scene)
    g = op_B(f, scene.dims)
    bases, offsets = cli._random_planes(scene.dims, 3, 7)
    taus = [section_to_plane(FlatSpec(basis, offset)) for basis, offset in zip(bases, offsets)]
    lhs = [slice_transform(f, tau, spec) for tau in taus]
    rhs = [radon_john(g, tau.section, spec) for tau in taus]
    assert min(len(transforms.sample_sphere_cross_section(taus[0], sphere_order)[1]),
               len(transforms.flat_rule(taus[0].section, spec)[1])) > 64

    monkeypatch.setattr(transforms, "_BLOCK_POINTS", 64)
    sizes = []
    counted_f = SphereField(lambda eta: sizes.append(len(eta)) or f(eta), f.pole_exponent)
    counted_g = PlaneField(lambda x: sizes.append(len(x)) or g(x), g.decay_exponent)
    assert transforms._slice_sums(counted_f, bases, offsets, spec) == lhs
    assert transforms._flat_sums(counted_g, bases, offsets, spec) == rhs
    # the per-call integrals sum through the same streamed loop, and
    # radon_john keeps no span of a rule larger than a block
    transforms._span_of.cache_clear()
    assert [slice_transform(counted_f, tau, spec) for tau in taus] == lhs
    assert [radon_john(counted_g, tau.section, spec) for tau in taus] == rhs
    last = taus[-1].section.basis
    assert transforms._span_of(last.tobytes(), last.shape, spec)[0] is None
    assert max(sizes) <= 64
    scene_file = tmp_path / "scene.txt"
    scene_file.write_text(f"family = {family}\nn = {n}\nk = {k}\n")
    out = tmp_path / "factor.csv"
    # low orders: cap_bump misses the default tolerance, which is not what is checked here
    assert cli.main(["factor-check", str(scene_file), "3", "--seed", "7", "--sphere-order", str(sphere_order),
                     "--radial-order", str(radial_order), "--tol", "1", "--out", str(out)]) == 0
    assert _factor_rows(out) == (lhs, rhs)


@pytest.mark.parametrize("n", [3, 4])
def test_streamed_runs_rebuild_the_whole_rules_nodes(monkeypatch, n):
    # Node coordinates built run by run are the whole rule's, bit for bit,
    # on 20 planes.  A run of a single node would not be: numpy's matmul
    # computes it with gemv, and its last bits differ in about half of the
    # planes.  Every rule has an even node count and the block budget is
    # even, so no run is a single node.
    spec = QuadratureSpec(sphere_order=33, radial_order=12, radial_cutoff=5.0)
    bases, offsets = cli._random_planes(Dimensions(n, 3), 20, 8)
    frames, _ = geometry._section_frames(bases, offsets)
    sigma = quadrature.sphere_rule(2, spec.sphere_order)[0]
    intrinsic = quadrature._flat_template(*quadrature._template_key(2, spec))[0]
    monkeypatch.setattr(transforms, "_BLOCK_POINTS", 64)
    for whole, part in [(geometry._section_points(frames, sigma),
                         lambda run: geometry._section_points(frames, sigma[run])),
                        (quadrature._flat_points(bases, offsets, intrinsic),
                         lambda run: quadrature._flat_points(bases, offsets, intrinsic[run]))]:
        m = whole.shape[2]
        assert m % 2 == 0 and _BLOCK_POINTS % 2 == 0
        assert np.array_equal(np.concatenate([part(run) for run in transforms._blocks(m, 1)], axis=2), whole)


def test_a_streamed_plane_refuses_non_finite_values_and_keeps_an_overflow(monkeypatch):
    # The values are checked before they are weighted in place: a NaN is
    # refused, finite values whose weighted sum overflows give inf.
    monkeypatch.setattr(transforms, "_BLOCK_POINTS", 64)
    spec = QuadratureSpec(sphere_order=8, radial_order=16, radial_cutoff=40.0)
    bases, offsets = cli._random_planes(Dimensions(3, 3), 2, 3)

    def last_node_nan(x):
        out = np.ones(len(x))
        out[-1] = np.nan
        return out

    huge = lambda x: np.full(len(x), 1e308)  # noqa: E731
    with np.errstate(over="ignore"):
        assert transforms._flat_sums(PlaneField(huge), bases, offsets, spec) == [math.inf, math.inf]
        assert transforms._slice_sums(SphereField(huge), bases, offsets, spec) == [math.inf, math.inf]
    with pytest.raises(ValueError, match="integrand blowup: field is not finite on the flat"):
        transforms._flat_sums(PlaneField(last_node_nan), bases, offsets, spec)
    with pytest.raises(ValueError, match="integrand blowup: field is not finite on the cross-section"):
        transforms._slice_sums(SphereField(last_node_nan), bases, offsets, spec)


def test_a_chunk_of_planes_refuses_non_finite_values_and_keeps_an_overflow():
    # The same checks at the package's block budget, where both planes share
    # one chunk and so one field call: a NaN on the second plane is refused,
    # finite values whose weighted sums overflow give inf.
    spec = QuadratureSpec(sphere_order=8, radial_order=16, radial_cutoff=40.0)
    bases, offsets = cli._random_planes(Dimensions(3, 3), 2, 3)
    sizes = []

    def last_node_nan(x):
        sizes.append(len(x))
        out = np.ones(len(x))
        out[-1] = np.nan
        return out

    def huge(x):
        sizes.append(len(x))
        return np.full(len(x), 1e308)

    with np.errstate(over="ignore"):
        assert transforms._flat_sums(PlaneField(huge), bases, offsets, spec) == [math.inf, math.inf]
        assert transforms._slice_sums(SphereField(huge), bases, offsets, spec) == [math.inf, math.inf]
    with pytest.raises(ValueError, match="integrand blowup: field is not finite on the flat"):
        transforms._flat_sums(PlaneField(last_node_nan), bases, offsets, spec)
    with pytest.raises(ValueError, match="integrand blowup: field is not finite on the cross-section"):
        transforms._slice_sums(SphereField(last_node_nan), bases, offsets, spec)
    flat_size = len(transforms.flat_rule(FlatSpec(bases[0], offsets[0]), spec)[1])
    section_size = len(quadrature.sphere_rule(2, spec.sphere_order)[1])
    assert sizes == [2 * flat_size, 2 * section_size] * 2


def _clear_rule_caches():
    quadrature._sphere_rule.cache_clear()
    quadrature._flat_template.cache_clear()
    transforms._span_of.cache_clear()


def test_a_streamed_factorization_keeps_no_rule_and_one_plane_at_a_time():
    # forward_sweep's largest run, cap_bump (3, 3) at orders 320/192, on 4
    # planes: the S^2 rule has 102,400 nodes, the flat template 122,880.
    # The stacked call keeps nothing it built (the 1-D rules it caches are a
    # few kB), and at its peak it holds the S^2 rule, arrays of one plane's
    # values and weights and one block's nodes and temporaries.  Before
    # streaming it kept 6.25 MB and peaked at 11.4 MB.
    scene = SceneSpec(family="cap_bump", dims=Dimensions(3, 3))
    spec = QuadratureSpec(sphere_order=320, radial_order=192, radial_cutoff=suggested_cutoff(scene))
    bases, offsets = cli._random_planes(scene.dims, 4, 330)
    f = build_field(scene)
    _clear_rule_caches()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        reports = transforms._factorization_checks(f, bases, offsets, spec)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(reports) == 4
    rule, plane, block = 320**2 * 4 * 8, 320**2 * 8, _BLOCK_POINTS * 8
    assert after - before <= 100_000
    assert peak - before <= rule + 3 * plane + 8 * block


@pytest.mark.parametrize("n,k,orders", [(3, 3, (9, 8)), (4, 4, (5, 4))])
def test_stacks_cache_only_the_rules_that_fit_a_block(monkeypatch, n, k, orders):
    # A stack owns its product rules, the cross-section rule and the flat
    # template, whether they fit a block (the package's budget) or not (a
    # budget of 64 nodes): a stacked factorization caches neither and gives
    # the per-call bits.  Only the smaller rules they are products of enter
    # the caches.  A later per-call factorization_check caches both.
    scene = SceneSpec(family="zonal_gaussian", dims=Dimensions(n, k))
    spec = QuadratureSpec(sphere_order=orders[0], radial_order=orders[1], radial_cutoff=suggested_cutoff(scene))
    f = build_field(scene)
    bases, offsets = cli._random_planes(scene.dims, 3, 1)
    taus = [section_to_plane(FlatSpec(basis, offset)) for basis, offset in zip(bases, offsets)]
    assert 64 < min(len(transforms.sample_sphere_cross_section(taus[0], spec.sphere_order)[1]),
                    len(transforms.flat_rule(taus[0].section, spec)[1]))
    per_call = [factorization_check(f, tau, spec) for tau in taus]

    def cached_sphere_rule():
        misses = quadrature._sphere_rule.cache_info().misses
        quadrature.sphere_rule(k - 1, spec.sphere_order)
        return quadrature._sphere_rule.cache_info().misses == misses

    for block in (_BLOCK_POINTS, 64):
        monkeypatch.setattr(transforms, "_BLOCK_POINTS", block)
        _clear_rule_caches()
        assert transforms._factorization_checks(f, bases, offsets, spec) == per_call
        assert quadrature._flat_template.cache_info().currsize == 0
        assert not cached_sphere_rule()
    _clear_rule_caches()
    assert factorization_check(f, taus[0], spec) == per_call[0]
    assert quadrature._flat_template.cache_info().currsize == 1
    assert cached_sphere_rule()


@pytest.mark.parametrize("planes,block", [(400, _BLOCK_POINTS), (3, 64)])
def test_a_stacked_call_builds_each_product_rule_once(monkeypatch, planes, block):
    # 400 planes at the package's budget are summed in several chunks per
    # side; 3 planes at a budget of 64 nodes are streamed, run by run.
    # Either way the call builds its cross-section rule and its flat
    # template once and shares them.
    scene = SceneSpec(family="zonal_gaussian", dims=Dimensions(3, 3))
    spec = QuadratureSpec(sphere_order=9, radial_order=8, radial_cutoff=suggested_cutoff(scene))
    f = build_field(scene)
    bases, offsets = cli._random_planes(scene.dims, planes, 2)
    builds = []
    for name in ("_build_sphere_rule", "_build_flat_template"):
        build = getattr(transforms, name)
        monkeypatch.setattr(transforms, name, lambda *args, _name=name, _build=build:
                            builds.append(_name) or _build(*args))
    monkeypatch.setattr(transforms, "_BLOCK_POINTS", block)
    sizes = []
    counted = SphereField(lambda eta: sizes.append(len(eta)) or f(eta), f.pole_exponent)
    assert len(transforms._factorization_checks(counted, bases, offsets, spec)) == planes
    assert sorted(builds) == ["_build_flat_template", "_build_sphere_rule"]
    # more than one field call per plane and side when streamed, per side when chunked
    assert len(sizes) > 2 * (planes if block == 64 else 1)
    assert max(sizes) <= block


def _radon_john_unshared(g, zeta, spec):
    """radon_john through the stacked builder, which keeps no span."""
    return transforms._flat_sums(g, zeta.basis[None], zeta.offset[None], spec)[0]


def test_kept_span_gives_the_stacked_bits(monkeypatch):
    # Two offsets on each basis under each of three rule settings, over two
    # bases of each flat dimension: the second offset hits the kept span,
    # every other call misses it and builds one.  Every value is the bits of _flat_sums
    # of the stack of one, which keeps nothing.
    g = PlaneField(lambda x: np.exp(-np.sum(x * x, axis=-1)) * (1.0 + 0.3 * x[..., 0]))
    specs = [QuadratureSpec(sphere_order=8, radial_order=16, radial_cutoff=6.0),
             QuadratureSpec(sphere_order=8, radial_order=16, radial_cutoff=9.0),
             QuadratureSpec(sphere_order=12, radial_order=24, radial_cutoff=6.0)]
    rng = np.random.default_rng(11)
    bases = [random_flat(rng, 3, d, t) for d in (1, 2) for t in (0.7, 1.5)]
    builds = []
    build = transforms._flat_span
    transforms._span_of.cache_clear()
    monkeypatch.setattr(transforms, "_flat_span", lambda b, s: builds.append(b.shape) or build(b, s))
    for zeta in bases:
        for spec in specs:
            for flat, fresh in [(zeta, True), (FlatSpec(zeta.basis, 2.0 * zeta.offset), False)]:
                before = len(builds)
                got = radon_john(g, flat, spec)
                assert len(builds) - before == fresh
                assert got == _radon_john_unshared(g, flat, spec)


def test_a_basis_changed_in_place_gets_a_fresh_span():
    # even in x[1], so the two lines through the origin below have different
    # integrals, not only different rounding
    g = PlaneField(lambda x: np.exp(-np.sum(x * x, axis=-1)) * (1.0 + 0.5 * x[..., 1] ** 2))
    spec = QuadratureSpec(sphere_order=8, radial_order=16, radial_cutoff=6.0)
    zeta = FlatSpec(np.array([[0.6, 0.8]]), np.zeros(2))  # owns its frozen basis
    first = radon_john(g, zeta, spec)
    assert first == _radon_john_unshared(g, zeta, spec)
    zeta.basis.setflags(write=True)
    zeta.basis[0] = [0.8, -0.6]
    turned = FlatSpec(np.array([[0.8, -0.6]]), np.zeros(2))
    # its new bytes miss the span kept for the old ones, writable or frozen again
    assert radon_john(g, zeta, spec) == _radon_john_unshared(g, turned, spec) != first
    zeta.basis.setflags(write=False)
    assert radon_john(g, zeta, spec) == _radon_john_unshared(g, turned, spec)


def test_threads_racing_on_the_kept_span_get_their_own_bits():
    # Threads alternate between two bases and two rule settings, so they
    # rebuild the kept span under one another; a span read with another
    # key's would give another line's value.
    g = PlaneField(lambda x: np.exp(-np.sum(x * x, axis=-1)) * (1.0 + 0.3 * x[..., 0]))
    specs = [QuadratureSpec(sphere_order=4, radial_order=8, radial_cutoff=6.0),
             QuadratureSpec(sphere_order=4, radial_order=12, radial_cutoff=6.0)]
    zetas = [make_flat(np.array([[math.cos(a), math.sin(a)]]), np.array([-math.sin(a), math.cos(a)]) * 0.3)
             for a in (0.2, 1.3)]
    cases = [(zeta, spec) for zeta in zetas for spec in specs]
    want = [_radon_john_unshared(g, zeta, spec) for zeta, spec in cases]
    wrong = []

    def worker(start):
        for i in range(300):
            j = (start + i) % len(cases)
            if radon_john(g, *cases[j]) != want[j]:
                wrong.append(j)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not wrong
