import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from scipy.special import dawsn, i0e

from sphslice import (
    Dimensions,
    FlatSpec,
    PlaneField,
    QuadratureSpec,
    RieszParams,
    coeff_B_l,
    coeff_c,
    coeff_d,
    invert_radon,
    invert_slice,
    radon_john,
    riesz_derivative,
    section_to_plane,
    slice_transform,
    sphere_rule,
)
import sphslice.inversion as inversion
import sphslice.transforms as transforms
from sphslice.geometry import _unchecked_flat
from sphslice.inversion import coeff_B_l_prime, make_dual_field
from sphslice.quadrature import composite_gauss, gauss_legendre
from sphslice.scenes import SceneSpec, build_field


def mp_B(ell, alpha):
    return mpmath.fsum(
        (-1) ** j * mpmath.binomial(ell, j) * mpmath.mpf(j) ** alpha for j in range(1, ell + 1)
    )


def mp_d(n, ell, alpha):
    return (
        mpmath.pi ** (mpmath.mpf(n) / 2)
        / (2**alpha * mpmath.gamma((n + alpha) / 2))
        * mpmath.gamma(-alpha / 2)
        * mp_B(ell, alpha)
    )


class TestCoefficients:
    def test_difference_sums(self):
        assert coeff_B_l(1, 1.0) == pytest.approx(-1.0, abs=1e-14)
        assert coeff_B_l(2, 2.0) == pytest.approx(2.0, abs=1e-13)
        # B_l vanishes at integer orders below l
        assert coeff_B_l(2, 1.0) == pytest.approx(0.0, abs=1e-13)
        assert coeff_B_l(3, 2.0) == pytest.approx(0.0, abs=1e-12)

    def test_difference_sums_against_mpmath(self):
        mpmath.mp.dps = 40
        for ell, alpha in [(1, 0.5), (2, 1.7), (3, 2.3), (4, 3.9)]:
            assert coeff_B_l(ell, alpha) == pytest.approx(float(mp_B(ell, alpha)), rel=1e-13)

    def test_log_weighted_sums_against_mpmath(self):
        mpmath.mp.dps = 40
        for ell, k in [(2, 1), (3, 2), (5, 4)]:
            want = mpmath.fsum(
                (-1) ** j * mpmath.binomial(ell, j) * mpmath.mpf(j) ** k * mpmath.log(j)
                for j in range(1, ell + 1)
            )
            assert coeff_B_l_prime(ell, k) == pytest.approx(float(want), rel=1e-13)

    def test_normalizer_odd_order(self):
        mpmath.mp.dps = 40
        assert coeff_d(2, 1, 1) == pytest.approx(2.0 * math.pi, rel=1e-14)
        for n, k in [(2, 1), (3, 1), (3, 3), (4, 3)]:
            want = float(mp_d(n, k, mpmath.mpf(k)))
            assert coeff_d(n, k, k) == pytest.approx(want, rel=1e-13)

    def test_normalizer_even_order_is_the_limit(self):
        # at even k the gamma pole and the vanishing difference sum cancel;
        # the implemented closed form must match the two-sided limit
        mpmath.mp.dps = 60
        h = mpmath.mpf("1e-8")
        for n, ell, k in [(2, 3, 2), (3, 3, 2), (5, 5, 4)]:
            want = (mp_d(n, ell, k - h) + mp_d(n, ell, k + h)) / 2
            assert coeff_d(n, ell, k) == pytest.approx(float(want), rel=1e-10)

    def test_inversion_constant(self):
        mpmath.mp.dps = 40
        assert coeff_c(1, 2) == pytest.approx(2.0, rel=1e-14)
        assert coeff_c(1, 3) == pytest.approx(math.pi, rel=1e-14)
        assert coeff_c(2, 3) == pytest.approx(2.0 * math.pi, rel=1e-14)
        for k, n in [(1, 2), (1, 3), (2, 3), (2, 5), (3, 6)]:
            want = float(
                2**k
                * mpmath.pi ** (mpmath.mpf(k) / 2)
                * mpmath.gamma(mpmath.mpf(n) / 2)
                / mpmath.gamma(mpmath.mpf(n - k) / 2)
            )
            assert coeff_c(k, n) == pytest.approx(want, rel=1e-13)


class TestRieszParams:
    # ell is derived from k_order; it is neither a field nor an argument
    def test_odd_order_requires_matching_ell(self):
        for k_order in (1, 3, 5):
            assert RieszParams(k_order=k_order).ell == k_order

    def test_even_order_requires_larger_ell(self):
        for k_order in (2, 4, 6):
            assert RieszParams(k_order=k_order).ell == k_order + 1

    def test_defaults(self):
        assert [f.name for f in dataclasses.fields(RieszParams)] == ["k_order", "eps", "outer_R"]
        params = RieszParams(k_order=1)
        assert (params.eps, params.outer_R) == (0.05, 30.0)
        with pytest.raises(TypeError):
            RieszParams(k_order=1, ell=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.ell = 3

    def test_truncation_window(self):
        with pytest.raises(ValueError):
            RieszParams(k_order=1, eps=1.0, outer_R=2.0)


# orientation average of the line integrals of exp(-|x|^2) has a closed form
# in the plane and in space; both give quadrature-only probes of the
# hypersingular derivative, which must return c_{1,n} * exp(-|x|^2).

def dual_of_gaussian_2d(width=1.0):
    def h(X):
        X = np.asarray(X, dtype=float)
        r2 = np.sum(X**2, axis=-1) / width**2
        return math.sqrt(math.pi) * width * i0e(r2 / 2.0)

    return h


def dual_of_gaussian_3d():
    # exp(-r^2) erfi(r) written through the Dawson function, which neither
    # overflows nor cancels at large radius
    def h(X):
        X = np.asarray(X, dtype=float)
        r = np.sqrt(np.sum(X**2, axis=-1))
        small = r < 1e-8
        rs = np.where(small, 1.0, r)
        out = math.sqrt(math.pi) * dawsn(rs) / rs
        return np.where(small, math.sqrt(math.pi) * np.ones_like(out), out)

    return h


SPEC = QuadratureSpec(radial_order=64, radial_cutoff=12.0)
PARAMS = RieszParams(k_order=1, eps=0.05, outer_R=30.0)


def test_riesz_derivative_plane():
    # the field is smooth, so the eps-halving differences must shrink: a
    # "hypersingular non-convergent" warning fails the test
    dims = Dimensions(2, 2)
    h = dual_of_gaussian_2d()
    for x in (np.zeros(2), np.array([0.5, 0.3]), np.array([1.5, -1.2])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = riesz_derivative(h, x, PARAMS, dims, SPEC)
        assert got == pytest.approx(2.0 * math.exp(-np.sum(x**2)), abs=5e-6)


def test_riesz_derivative_space():
    dims = Dimensions(3, 2)
    h = dual_of_gaussian_3d()
    spec = QuadratureSpec(radial_order=64, sphere_order=32)
    for x in (np.zeros(3), np.array([0.7, -0.3, 0.4])):
        got = riesz_derivative(h, x, PARAMS, dims, spec)
        want = math.pi * math.exp(-np.sum(x**2))
        assert got == pytest.approx(want, abs=5e-5)


def test_riesz_derivative_batch_shape():
    dims = Dimensions(2, 2)
    h = dual_of_gaussian_2d()
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, -1.0]])
    got = riesz_derivative(h, pts, PARAMS, dims, SPEC)
    assert got.shape == (3,)
    assert np.allclose(got, 2.0 * np.exp(-np.sum(pts**2, axis=1)), atol=5e-6)


def test_riesz_derivative_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        riesz_derivative(dual_of_gaussian_2d(), np.zeros(3), PARAMS, Dimensions(2, 2), SPEC)


def test_riesz_linearity():
    dims = Dimensions(2, 2)
    h1 = dual_of_gaussian_2d(1.0)
    h2 = dual_of_gaussian_2d(0.6)

    def combo(X):
        return 2.5 * h1(X) - 0.75 * h2(X)

    x = np.array([0.4, -0.2])
    lhs = riesz_derivative(combo, x, PARAMS, dims, SPEC)
    rhs = 2.5 * riesz_derivative(h1, x, PARAMS, dims, SPEC) - 0.75 * riesz_derivative(
        h2, x, PARAMS, dims, SPEC
    )
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_nonconvergence_warning():
    # a cone tip makes the difference integral log-divergent at its apex
    def cone(X):
        X = np.asarray(X, dtype=float)
        return np.sqrt(np.sum(X**2, axis=-1))

    with pytest.warns(UserWarning, match="hypersingular non-convergent") as record:
        riesz_derivative(cone, np.zeros(2), PARAMS, Dimensions(2, 2), SPEC)
    # the kernel warns on behalf of riesz_derivative's caller
    assert {w.filename for w in record} == {__file__}


@pytest.mark.parametrize("amplitude", [1.0, 1e6])
def test_constant_data_does_not_warn(amplitude):
    # the derivative of a constant is zero up to rounding; eps-halving
    # differences at that level are below the rounding floor, which scales
    # with the data, and must not be reported as non-convergence
    F = invert_slice(
        lambda tau: amplitude,
        Dimensions(2, 2),
        RieszParams(1, eps=0.1, outer_R=20.0),
        QuadratureSpec(orientation_samples=4),
    )
    pts = np.array([[0.0, 0.0, -1.0], [math.sqrt(0.75), 0.0, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = F(pts)
    assert np.all(np.abs(values) < 1e-12 * amplitude)


def test_invert_radon_rejects_bad_order():
    with pytest.raises(ValueError):
        invert_radon(lambda z: 0.0, Dimensions(2, 2), RieszParams(k_order=2), SPEC)


CENTER = np.array([0.55, -0.2])


@pytest.fixture(scope="module")
def recovered_gaussian():
    """Line data of a shifted Gaussian pushed through the full inversion."""
    dims = Dimensions(2, 2)
    spec = QuadratureSpec(
        sphere_order=32, radial_order=48, radial_cutoff=10.0, orientation_samples=96
    )
    params = RieszParams(k_order=1, eps=0.1, outer_R=20.0)
    g = PlaneField(lambda x: np.exp(-np.sum((np.asarray(x) - CENTER) ** 2, axis=-1)))

    def data(zeta):
        return radon_john(g, zeta, spec)

    return invert_radon(data, dims, params, spec)


def test_pipeline_values(recovered_gaussian):
    pts = np.array([[0.55, -0.2], [0.0, 0.0], [-0.5, 0.75]])
    got = recovered_gaussian(pts)
    want = np.exp(-np.sum((pts - CENTER) ** 2, axis=1))
    assert np.allclose(got, want, atol=1e-2)


def test_pipeline_argmax_lands_on_center(recovered_gaussian):
    axis = np.linspace(-1.5, 2.5, 9)
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    pts = np.stack([X.ravel(), Y.ravel()], axis=-1)
    vals = recovered_gaussian(pts)
    best = pts[np.argmax(vals)]
    step = axis[1] - axis[0]
    assert np.max(np.abs(best - CENTER)) <= step


# A cheap plane reconstruction: the line integrals of exp(-|x|^2) are known in
# closed form, sqrt(pi) exp(-p^2) at distance p, so no quadrature is needed.
SMALL_SPEC = QuadratureSpec(orientation_samples=16)
SMALL_POINTS = np.array([[0.0, 0.0], [0.7, -0.4]])


def gaussian_lines(zeta):
    return math.sqrt(math.pi) * math.exp(-zeta.distance**2)


def small_reconstruction():
    return invert_radon(gaussian_lines, Dimensions(2, 2), PARAMS, SMALL_SPEC)


def shifted_gaussian_lines(center):
    """Closed-form line data of exp(-|x - center|^2): sqrt(pi) exp(-dist(center, line)^2)."""
    def data(zeta):
        normal = np.array([-zeta.basis[0, 1], zeta.basis[0, 0]])
        return math.sqrt(math.pi) * math.exp(-(((center - zeta.offset) @ normal) ** 2))

    return data


PROPERTY_POINTS = np.random.default_rng(5).uniform(-1.2, 1.2, size=(12, 2))
centers = st.tuples(st.floats(-0.8, 0.8), st.floats(-0.8, 0.8)).map(np.array)
weights = st.floats(-2.0, 2.0)
# Each example runs two or three reconstructions of about 0.25 s; shrinking a
# failure would rerun them for minutes, so a failure is reported as found.
property_settings = settings(max_examples=6, deadline=None,
                             phases=[Phase.explicit, Phase.reuse, Phase.generate])


@given(centers, centers, weights, weights)
@example(np.zeros(2), np.zeros(2), -0.0, 5e-324)
@property_settings
def test_invert_radon_is_linear(c1, c2, a, b):
    phi1, phi2 = shifted_gaussian_lines(c1), shifted_gaussian_lines(c2)
    rec1, rec2, both = (
        invert_radon(phi, Dimensions(2, 2), PARAMS, SMALL_SPEC)(PROPERTY_POINTS)
        for phi in (phi1, phi2, lambda zeta: a * phi1(zeta) + b * phi2(zeta))
    )
    scale = abs(a) * np.max(np.abs(rec1)) + abs(b) * np.max(np.abs(rec2))
    # The bound is floored at the smallest normal float, as below it the
    # spacing of floats exceeds 1e-12 of the value (a subnormal weight such as
    # b = 5e-324 makes 1e-12 * scale underflow to 0).
    assert np.max(np.abs(both - (a * rec1 + b * rec2))) <= max(1e-12 * scale, np.finfo(float).tiny)


@given(centers, st.integers(1, 2 * SMALL_SPEC.orientation_samples - 1))
@property_settings
def test_invert_radon_rotates_with_the_field(center, j):
    # a rotation by a multiple of pi / orientation_samples maps the orientation
    # set to itself (the last orientations wrap onto the first with their
    # normals negated, which the symmetric offset grid absorbs)
    angle = j * math.pi / SMALL_SPEC.orientation_samples
    rotation = np.array([[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]])
    rec = invert_radon(shifted_gaussian_lines(center), Dimensions(2, 2), PARAMS, SMALL_SPEC)
    turned = invert_radon(shifted_gaussian_lines(rotation @ center), Dimensions(2, 2), PARAMS, SMALL_SPEC)
    want = rec(PROPERTY_POINTS)
    got = turned(PROPERTY_POINTS @ rotation.T)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("dims", [Dimensions(3, 2), Dimensions(3, 3), Dimensions(4, 2)])
def test_inversion_beyond_the_plane_fails_before_any_data(dims):
    # only lines in the plane are backprojected at practical cost; the rest
    # must refuse at construction instead of running for hours
    calls = []

    def data(arg):
        calls.append(arg)
        return 0.0

    params = RieszParams(k_order=dims.k - 1)
    builds = {
        "make_dual_field": lambda: make_dual_field(data, dims.k - 1, dims, SMALL_SPEC),
        "invert_radon": lambda: invert_radon(data, dims, params, SMALL_SPEC),
        "invert_slice": lambda: invert_slice(data, dims, params, SMALL_SPEC),
    }
    for name, build in builds.items():
        with pytest.raises(NotImplementedError, match=r"lines in the plane \(flat dimension 1, n = 2\)"):
            build()
        assert not calls, name


@pytest.mark.parametrize(
    "point, message",
    [
        (np.zeros(3), "point dimension does not match dims.n"),
        (np.array([np.nan, 0.0]), "evaluation points must be finite"),
        (np.array([np.inf, 0.0]), "evaluation points must be finite"),
    ],
    ids=["3-coordinates", "nan", "inf"],
)
def test_plane_reconstruction_rejects_a_point_of_another_dimension(monkeypatch, point, message):
    # a bad point is refused up front, before the line table grows for it
    rec = small_reconstruction()
    field = make_dual_field(gaussian_lines, 1, Dimensions(2, 2), SMALL_SPEC)
    fills = []
    monkeypatch.setattr(inversion._LineDualField, "_fill", lambda self, p_values: fills.append(p_values))
    with pytest.raises(ValueError, match=message):
        rec(point)
    with pytest.raises(ValueError, match=message):
        field(point[None, :])
    assert not fills


def test_filtered_backprojection_and_plane_kernel_agree():
    # two independent routes to the inversion identity for exp(-|x|^2): the
    # row filter followed by backprojection of closed-form line data, and the
    # plane kernel applied to the closed-form backprojection
    axis = np.linspace(-2.0, 2.0, 9)
    pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    truth = np.exp(-np.sum(pts**2, axis=1))
    filtered = small_reconstruction()(pts)
    plane = riesz_derivative(dual_of_gaussian_2d(), pts, PARAMS, Dimensions(2, 2), SPEC) / coeff_c(1, 2)
    assert np.max(np.abs(filtered - truth)) <= 1e-6
    assert np.max(np.abs(plane - truth)) <= 5e-6


ROW_OFFSETS = np.linspace(-3.0, 3.0, 61)


def row_derivative(row, params):
    """The kernel at n = 1 applied to a row given as a function of the offset."""
    values = inversion._riesz_batch(
        lambda P: row(P[:, 0])[:, None], ROW_OFFSETS[:, None], params, QuadratureSpec()
    )
    return values[:, 0]


def test_row_filter_of_the_gaussian_row():
    p = ROW_OFFSETS
    want = 2.0 / math.sqrt(math.pi) * (1.0 - 2.0 * p * dawsn(p))
    got = row_derivative(lambda q: np.exp(-q**2), PARAMS)
    assert np.max(np.abs(got - want)) <= 1e-8


def test_row_tail_bounds_a_slowly_decaying_row():
    # 1/(1+p^2) decays only like p^-2, so what lies beyond outer_R matters;
    # the row tail (each row continued by its value at outer_R, the rate
    # n - k = 0) keeps the error small, and the error shrinks as outer_R grows
    p = ROW_OFFSETS
    want = (1.0 - p**2) / (1.0 + p**2) ** 2

    def error(outer_R):
        params = RieszParams(k_order=1, eps=0.1, outer_R=outer_R)
        return np.max(np.abs(row_derivative(lambda q: 1.0 / (1.0 + q**2), params) - want))

    near, far = error(10.0), error(20.0)
    assert far <= 1e-4
    assert far < near


@pytest.mark.parametrize("n", [1, 2])
def test_kernel_channels_equal_scalar_calls(monkeypatch, n):
    # a field of C channels is derived as C scalar fields would be; a small
    # block budget makes the batch run in several chunks
    monkeypatch.setattr(transforms, "_BLOCK_POINTS", 2_000)
    widths = np.array([0.6, 1.0, 1.7])
    X = np.random.default_rng(n).uniform(-1.5, 1.5, size=(7, n))
    spec = QuadratureSpec(sphere_order=16, radial_order=64)

    def channels(P):
        return np.exp(-np.sum(P**2, axis=-1)[:, None] / widths**2)

    values = inversion._riesz_batch(channels, X, PARAMS, spec)
    assert values.shape == (len(X), len(widths))
    for c, width in enumerate(widths):
        want = inversion._riesz_batch(
            lambda P: np.exp(-np.sum(P**2, axis=-1) / width**2)[:, None], X, PARAMS, spec
        )[:, 0]
        scale = np.max(np.abs(want))
        assert np.max(np.abs(values[:, c] - want)) <= 1e-13 * scale


@pytest.mark.parametrize("shape", [(0, 2), (3, 0, 2)])
def test_empty_batch_gives_empty_result(shape):
    rec = small_reconstruction()
    assert rec(np.zeros(shape)).shape == shape[:-1]
    field = make_dual_field(gaussian_lines, 1, Dimensions(2, 2), SMALL_SPEC)
    assert field(np.zeros((0, 2))).shape == (0,)
    sphere = invert_slice(lambda tau: 1.0, Dimensions(2, 2), RieszParams(k_order=1), SMALL_SPEC)
    assert sphere(np.zeros(shape[:-1] + (3,))).shape == shape[:-1]

    def h(P):
        raise AssertionError("h was called on an empty batch")

    assert riesz_derivative(h, np.zeros(shape), PARAMS, Dimensions(2, 2), SPEC).shape == shape[:-1]


def test_one_evaluation_grows_the_line_table_once(monkeypatch):
    fills = []
    fill = inversion._LineDualField._fill

    def counting_fill(self, p_values):
        fills.append(len(p_values))
        return fill(self, p_values)

    monkeypatch.setattr(inversion._LineDualField, "_fill", counting_fill)
    rec = small_reconstruction()
    assert len(fills) == 1
    rec(SMALL_POINTS)
    assert len(fills) == 2  # one growth is one fill, of both sides of the offset grid
    rec(SMALL_POINTS)
    assert len(fills) == 2


def test_line_table_flats_are_valid_and_read_only():
    seen = []

    def data(zeta):
        FlatSpec(zeta.basis, zeta.offset)
        seen.append(zeta)
        return gaussian_lines(zeta)

    field = make_dual_field(data, 1, Dimensions(2, 2), QuadratureSpec(orientation_samples=4))
    field(np.array([[25.0, 0.0]]))  # grows the table
    assert len(seen) > 4 * 1001
    for zeta in seen:
        assert not zeta.basis.flags.writeable and not zeta.offset.flags.writeable


def test_line_table_flats_share_their_orientation_basis():
    seen = []

    def data(zeta):
        seen.append(zeta)
        return 0.0

    field = make_dual_field(data, 1, Dimensions(2, 2), QuadratureSpec(orientation_samples=3))
    per_line = len(field._p)
    assert len(seen) == 3 * per_line
    for i, normal in enumerate(field._normals):
        flats = seen[i * per_line : (i + 1) * per_line]
        assert all(np.shares_memory(zeta.basis, field._directions[i]) for zeta in flats)
        # the offsets are the products p * normal of one flat per offset
        offsets = np.array([zeta.offset for zeta in flats])
        assert np.array_equal(offsets, np.array([p * normal for p in field._p]))


@pytest.mark.parametrize("form", ["invert_radon", "invert_slice"])
def test_the_data_callback_sees_each_table_line_once_in_offset_order(monkeypatch, form):
    # The contract a one-line callback relies on, at construction and at
    # growth: one call per line of the table, the lines of each orientation
    # in ascending offset, each flat read-only and sharing its orientation's
    # basis array.
    seen, fills = [], []
    fill = inversion._LineDualField._fill

    def recording_fill(self, p_values):
        fills.append((self, p_values, len(seen)))
        return fill(self, p_values)

    monkeypatch.setattr(inversion._LineDualField, "_fill", recording_fill)
    if form == "invert_radon":
        rec = invert_radon(lambda zeta: seen.append(zeta) or gaussian_lines(zeta), Dimensions(2, 2), PARAMS,
                           SMALL_SPEC)
        points = SMALL_POINTS
    else:
        rec = invert_slice(lambda tau: seen.append(tau.section) or gaussian_lines(tau.section), Dimensions(2, 2),
                           PARAMS, SMALL_SPEC)
        points = CAP_POINTS[:5]
    assert len(fills) == 1
    rec(points)
    assert len(fills) == 2  # one growth is one fill, of both sides of the offset grid
    assert len(seen) == sum(SMALL_SPEC.orientation_samples * len(p) for _, p, _ in fills)
    for table, p_values, start in fills:
        assert np.all(np.diff(p_values) > 0)
        for i, normal in enumerate(table._normals):
            lo = start + i * len(p_values)
            flats = seen[lo : lo + len(p_values)]
            assert all(np.shares_memory(zeta.basis, table._directions[i]) for zeta in flats)
            assert not any(zeta.basis.flags.writeable or zeta.offset.flags.writeable for zeta in flats)
            assert np.array_equal([zeta.offset for zeta in flats], np.multiply.outer(p_values, normal))


# radon_john data of the plane Gaussian on a cheap rule, for the scalar and
# the field form of the line table (its orientation count is SMALL_SPEC's)
FIELD_SPEC = QuadratureSpec(sphere_order=8, radial_order=16, radial_cutoff=6.0, orientation_samples=16)
GAUSS = PlaneField(lambda x: np.exp(-np.sum(x * x, axis=-1)))
# acceptance 06's settings and evaluation points
SECTION_SPEC = QuadratureSpec(sphere_order=32, radial_order=48, radial_cutoff=10.0)
SECTION_PARAMS = RieszParams(k_order=1, eps=0.1, outer_R=20.0)
CAP_POINTS = sphere_rule(2, 16)[0]
CAP_POINTS = CAP_POINTS[CAP_POINTS[:, -1] <= 0.99]
SECTION_FAMILIES = ("zonal_gaussian", "first_harmonic_weighted")


def sphere_scene_field(family):
    return build_field(SceneSpec(family=family, parameters={}, dims=Dimensions(2, 2)))


def test_the_table_builds_one_span_per_orientation_and_fill(monkeypatch):
    # The lines of one orientation share their basis, so radon_john line
    # data build each row's span once; the field form, which integrates each
    # row as stacks, gives the same bits.
    builds, fills = [], []
    build, fill = transforms._flat_span, inversion._LineDualField._fill
    monkeypatch.setattr(transforms, "_flat_span", lambda b, s: builds.append(len(b)) or build(b, s))
    monkeypatch.setattr(inversion._LineDualField, "_fill", lambda self, p: fills.append(len(p)) or fill(self, p))
    rec = invert_radon(lambda zeta: radon_john(GAUSS, zeta, FIELD_SPEC), Dimensions(2, 2), PARAMS, FIELD_SPEC)
    values = rec(SMALL_POINTS)
    assert len(fills) == 2
    assert 0 < len(builds) <= FIELD_SPEC.orientation_samples * len(fills)
    assert np.array_equal(invert_radon(GAUSS, Dimensions(2, 2), PARAMS, FIELD_SPEC)(SMALL_POINTS), values)


@pytest.mark.parametrize("form", ["plane", "sphere"])
def test_one_evaluation_grows_the_field_table_once(monkeypatch, form):
    fills = []
    fill = inversion._LineDualField._fill
    monkeypatch.setattr(inversion._LineDualField, "_fill", lambda self, p: fills.append(len(p)) or fill(self, p))
    if form == "plane":
        rec, points = invert_radon(GAUSS, Dimensions(2, 2), PARAMS, FIELD_SPEC), SMALL_POINTS
    else:
        spec = dataclasses.replace(SECTION_SPEC, sphere_order=8, orientation_samples=8)
        rec = invert_slice(sphere_scene_field("zonal_gaussian"), Dimensions(2, 2), SECTION_PARAMS, spec)
        points = CAP_POINTS[:5]
    assert len(fills) == 1
    rec(points)
    assert len(fills) == 2  # one growth is one fill, of both sides of the offset grid
    rec(points)
    assert len(fills) == 2


def test_reconstruction_agrees_across_block_budgets(monkeypatch):
    # The block budget sets how many points one kernel chunk derives (and how
    # many lines one table stack holds); the contractions then run on other
    # row counts, so the last bits may move, but not beyond 1e-13 of the peak.
    points = np.random.default_rng(3).uniform(-1.2, 1.2, size=(20, 2))
    values = []
    for block in (640, 4096, 16384, 2_000_000):
        monkeypatch.setattr(transforms, "_BLOCK_POINTS", block)
        values.append(invert_radon(GAUSS, Dimensions(2, 2), PARAMS, FIELD_SPEC)(points))
    peak = np.max(np.abs(values[0]))
    for other in values[1:]:
        assert np.max(np.abs(other - values[0])) <= 1e-13 * peak


def test_kernel_calls_stay_within_the_block_budget(monkeypatch):
    # plane_invert's settings: acceptance 05's rule and kernel, 8 orientations
    # and a 21 x 21 grid, whose 333 table nodes are filtered as 8 channels.
    # Every call of the row function carries at most _BLOCK_POINTS values
    # (points x channels), or one evaluation point's stencil when that alone
    # is larger.
    spec = QuadratureSpec(sphere_order=64, radial_order=64, radial_cutoff=12.0, orientation_samples=8)
    rho, _ = composite_gauss(PARAMS.eps / 4.0, PARAMS.outer_R, 8)
    stencil = len(rho) * len(sphere_rule(0, 64)[0]) * PARAMS.ell
    calls, batches = [], []
    kernel = inversion._riesz_batch

    def counting_kernel(h, X, params, spec):
        batches.append(len(X))

        def counting(P):
            values = h(P)
            calls.append((len(P), math.prod(values.shape[1:])))
            return values

        return kernel(counting, X, params, spec)

    monkeypatch.setattr(inversion, "_riesz_batch", counting_kernel)
    axis = np.linspace(-2.0, 2.0, 21)
    invert_radon(GAUSS, Dimensions(2, 2), PARAMS, spec)(np.stack(np.meshgrid(axis, axis), axis=-1))
    assert batches == [333]
    assert {channels for _, channels in calls} == {8}
    for points, channels in calls:
        assert points * channels <= transforms._BLOCK_POINTS or (
            points == stencil and stencil * channels > transforms._BLOCK_POINTS)


def table_line(angle):
    """A table orientation's unit line: basis along the line, offset the unit normal at angle."""
    normal = np.array([math.cos(angle), math.sin(angle)])
    return FlatSpec(basis=np.array([[-normal[1], normal[0]]]), offset=normal)


def table_stack(line, p):
    """The table's read-only stack of one orientation's lines at offsets p: the basis broadcast, and p * normal."""
    offsets = np.multiply.outer(np.asarray(p, dtype=float), line.offset)
    offsets.setflags(write=False)
    return np.broadcast_to(line.basis, offsets.shape[:1] + line.basis.shape), offsets


angles = st.floats(0.0, math.pi, exclude_max=True)


@given(angles, st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=300))
@settings(max_examples=25, deadline=None)
def test_field_rows_equal_the_scalar_lines(angle, p):
    # 300 lines of 128 nodes take three chunks
    line = table_line(angle)
    bases, offsets = table_stack(line, p)
    rows = inversion._line_values(GAUSS, FIELD_SPEC)(bases, offsets)
    want = [radon_john(GAUSS, _unchecked_flat(line.basis, offset), FIELD_SPEC) for offset in offsets]
    assert np.array_equal(rows, want)


@given(st.sampled_from(SECTION_FAMILIES), angles, st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=600))
@settings(max_examples=20, deadline=None)
def test_field_rows_equal_the_scalar_sections(family, angle, p):
    # 600 sections of 32 nodes take two chunks
    f = sphere_scene_field(family)
    line = table_line(angle)
    bases, offsets = table_stack(line, p)
    rows = inversion._slice_values(f, SECTION_SPEC)(bases, offsets)
    want = [slice_transform(f, section_to_plane(_unchecked_flat(line.basis, offset)), SECTION_SPEC)
            for offset in offsets]
    assert np.array_equal(rows, want)


@given(st.sampled_from(SECTION_FAMILIES), st.integers(2, 6), st.integers(0, 7))
@property_settings
def test_invert_slice_of_the_field_is_the_closure_form(family, count, seed):
    f = sphere_scene_field(family)
    spec = dataclasses.replace(SECTION_SPEC, orientation_samples=count, seed=seed)
    closure = invert_slice(lambda tau: slice_transform(f, tau, spec), Dimensions(2, 2), SECTION_PARAMS, spec)
    field = invert_slice(f, Dimensions(2, 2), SECTION_PARAMS, spec)
    assert np.array_equal(field(CAP_POINTS), closure(CAP_POINTS))



def _reference_ladder(eps, outer_R, order):
    """The kernel's radial ladder built by hand, with index masks per level, as the bit-for-bit reference."""
    edges = [eps / 4.0, eps / 2.0, eps]
    while edges[-1] < outer_R * (1.0 - 1e-12):
        edges.append(min(2.0 * edges[-1], outer_R))
    nodes, weights, starts = [], [], []
    for a, b in zip(edges[:-1], edges[1:]):
        x, w = gauss_legendre(order, a, b)
        starts.append(len(nodes))
        nodes.extend(x)
        weights.extend(w)
    masks = [np.arange(len(nodes)) >= starts[2 - level] for level in range(3)]  # eps, eps/2, eps/4
    return np.asarray(nodes), np.asarray(weights), masks


@pytest.mark.parametrize("eps,outer_R,n", [
    (0.05, 30.0, 1), (0.1, 20.0, 1), (0.2, 0.8, 2), (0.03, 7.3, 2), (0.25, 1.0, 3), (0.05, 3.2, 3),
    (0.1, 5.0, 4), (0.07, 2.0, 5),
])
def test_kernel_ladder_equals_the_hand_built_one(monkeypatch, eps, outer_R, n):
    params = RieszParams(k_order=max(1, n - 1), eps=eps, outer_R=outer_R)
    spec = QuadratureSpec(sphere_order=12, radial_order=64)
    order = max(8, spec.radial_order // 8)
    rho, w = composite_gauss(eps / 4.0, outer_R, order)
    ref_rho, ref_w, ref_masks = _reference_ladder(eps, outer_R, order)
    assert np.array_equal(rho, ref_rho) and np.array_equal(w, ref_w)
    for level, mask in zip((eps, eps / 2.0, eps / 4.0), ref_masks):
        assert np.array_equal(rho > level, mask)

    def h(P):
        r2 = np.sum(P**2, axis=-1)
        return (np.exp(-r2) / (1.0 + r2))[:, None]

    X = np.random.default_rng(n).uniform(-1.0, 1.0, size=(6, n))
    values = inversion._riesz_batch(h, X, params, spec)
    monkeypatch.setattr(inversion, "composite_gauss", lambda lo, hi, m: _reference_ladder(4.0 * lo, hi, m)[:2])
    reference = inversion._riesz_batch(h, X, params, spec)
    assert np.array_equal(values, reference)


def test_kernel_ladder_closes_at_outer_R():
    # outer_R a hair above eps * 2^4: the ladder still ends at outer_R, where
    # the tail term takes over, and its weights cover [eps/4, outer_R]
    eps = 0.05
    outer_R = 16.0 * eps * (1.0 + 5e-13)
    params = RieszParams(k_order=1, eps=eps, outer_R=outer_R)
    spec = QuadratureSpec(sphere_order=4, radial_order=64)
    rho, w = composite_gauss(eps / 4.0, outer_R, 8)
    seen = []

    def h(P):
        seen.append(P[:, 0].copy())
        return np.exp(-P[:, 0] ** 2)[:, None]

    inversion._riesz_batch(h, np.zeros((1, 1)), params, spec)
    # at x = 0 the points are -rho * omega for omega = +1, -1, node by node
    kernel_points = next(p for p in seen if len(p) == 2 * len(rho))
    assert np.array_equal(-kernel_points[0::2], rho)
    assert math.fsum(w) == pytest.approx(outer_R - eps / 4.0, rel=1e-14, abs=0.0)
