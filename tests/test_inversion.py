import math

import mpmath
import numpy as np
import pytest
from scipy.interpolate import RectBivariateSpline
from scipy.special import dawsn, i0e

from sphslice import (
    Dimensions,
    FlatSpec,
    InversionReport,
    PlaneField,
    QuadratureSpec,
    RieszParams,
    coeff_B_l,
    coeff_B_l_prime,
    coeff_c,
    coeff_d,
    invert_radon,
    invert_slice,
    make_dual_field,
    radon_john,
    reconstruction_report,
    riesz_derivative,
    riesz_refinement_report,
)
import sphslice.inversion as inversion
from sphslice.transforms import dual_transform, make_flat


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
    def test_odd_order_requires_matching_ell(self):
        RieszParams(k_order=1, ell=1)
        with pytest.raises(ValueError):
            RieszParams(k_order=1, ell=3)

    def test_even_order_requires_larger_ell(self):
        RieszParams(k_order=2, ell=3)
        with pytest.raises(ValueError):
            RieszParams(k_order=2, ell=2)

    def test_defaults(self):
        assert RieszParams(k_order=1).resolved_ell == 1
        assert RieszParams(k_order=3).resolved_ell == 3
        assert RieszParams(k_order=2).resolved_ell == 3

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
    dims = Dimensions(2, 2)
    h = dual_of_gaussian_2d()
    for x in (np.zeros(2), np.array([0.5, 0.3]), np.array([1.5, -1.2])):
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


def test_refinement_trace_monotone():
    # for a smooth field the eps-halving differences must shrink
    trace = riesz_refinement_report(dual_of_gaussian_2d(), np.zeros(2), PARAMS, SPEC)
    d1 = abs(trace.levels[1] - trace.levels[0])
    d2 = abs(trace.levels[2] - trace.levels[1])
    assert d2 < d1
    assert trace.settled
    assert trace.value == pytest.approx(2.0, abs=1e-3)


@pytest.mark.parametrize("x", [(0.0, 0.0), (0.4, -0.2), (1.1, 0.7)])
def test_refinement_report_value_is_riesz_derivative(x):
    # the trace and the derivative come from one kernel, so they agree exactly
    h = dual_of_gaussian_2d()
    x = np.array(x)
    trace = riesz_refinement_report(h, x, PARAMS, SPEC)
    assert trace.value == riesz_derivative(h, x, PARAMS, Dimensions(2, 2), SPEC)


def test_nonconvergence_warning():
    # a cone tip makes the difference integral log-divergent at its apex
    def cone(X):
        X = np.asarray(X, dtype=float)
        return np.sqrt(np.sum(X**2, axis=-1))

    with pytest.warns(UserWarning, match="hypersingular non-convergent"):
        riesz_derivative(cone, np.zeros(2), PARAMS, Dimensions(2, 2), SPEC)


def test_generic_dual_matches_direct_average():
    dims = Dimensions(3, 2)
    spec = QuadratureSpec(orientation_samples=32)

    def data(zeta):
        return math.exp(-zeta.distance**2) * (1.0 + zeta.basis[0, 0] ** 2)

    h = make_dual_field(data, 1, dims, spec)
    for x in (np.zeros(3), np.array([1.0, -0.5, 2.0])):
        direct = dual_transform(data, x, 1, dims, spec)
        assert h(x[None, :])[0] == pytest.approx(direct, rel=1e-14)


def test_invert_radon_rejects_bad_order():
    with pytest.raises(ValueError):
        invert_radon(lambda z: 0.0, Dimensions(2, 2), RieszParams(k_order=2, ell=3), SPEC)


def test_inversion_report_validation():
    with pytest.raises(ValueError):
        InversionReport(reconstruction=None, residual_linf=-1.0, residual_l2=0.0, settings={})


def test_reconstruction_report_residuals():
    rec = PlaneField(lambda x: np.sum(np.asarray(x), axis=-1))
    ref = PlaneField(lambda x: np.sum(np.asarray(x), axis=-1) + 0.5)
    pts = np.array([[0.0, 0.0], [1.0, 2.0]])
    report = reconstruction_report(rec, ref, pts, settings={"run": 1})
    assert report.residual_linf == pytest.approx(0.5)
    assert report.residual_l2 == pytest.approx(0.5)
    assert report.settings == {"run": 1}


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


@pytest.mark.parametrize("shape", [(0, 2), (3, 0, 2)])
def test_empty_batch_gives_empty_result(shape):
    rec = small_reconstruction()
    assert rec(np.zeros(shape)).shape == shape[:-1]
    field = make_dual_field(gaussian_lines, 1, Dimensions(2, 2), SMALL_SPEC)
    assert field(np.zeros((0, 2))).shape == (0,)
    sphere = invert_slice(lambda tau: 1.0, Dimensions(2, 2), None, SMALL_SPEC)
    assert sphere(np.zeros(shape[:-1] + (3,))).shape == shape[:-1]


@pytest.mark.parametrize("degree", [3, 5])
def test_spline_zone_tiles_equal_the_global_fit(monkeypatch, degree):
    # the tiles are windows onto one fit, so every value is bit for bit the fit's
    fits = []

    def capture(*args, **kwargs):
        fits.append(RectBivariateSpline(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(inversion, "RectBivariateSpline", capture)
    lo, hi = np.array([-1.3, -0.4]), np.array([2.1, 1.9])

    def field(X):
        return np.sin(2.0 * X[:, 0]) * np.cos(3.0 * X[:, 1]) + 0.1 * X[:, 0]

    zone = inversion._SplineZone(lo, hi, 0.02, degree, field)
    (fit,) = fits
    assert len(zone._tiles) == inversion.SPLINE_TILES**2
    rng = np.random.default_rng(degree)
    tx, ty = fit.tck[:2]
    cases = {
        "interior": rng.uniform(lo, hi, size=(1000, 2)),
        # every knot pair, which includes every tile edge
        "knots": np.stack(np.meshgrid(tx, ty, indexing="ij"), axis=-1).reshape(-1, 2),
        "knot lines": np.concatenate([
            np.stack([tx, rng.uniform(lo[1], hi[1], len(tx))], axis=1),
            np.stack([rng.uniform(lo[0], hi[0], len(ty)), ty], axis=1),
        ]),
        "corners": np.array([[lo[0], lo[1]], [lo[0], hi[1]], [hi[0], lo[1]], [hi[0], hi[1]]]),
        # clamped to the outer knots
        "outside": np.concatenate([
            rng.uniform(lo - 1.0, lo, size=(200, 2)),
            rng.uniform(hi, hi + 1.0, size=(200, 2)),
            np.stack([rng.uniform(lo[0], hi[0], 200), rng.uniform(hi[1], hi[1] + 1.0, 200)], axis=1),
        ]),
        "several blocks": rng.uniform(lo - 0.1, hi + 0.1, size=(inversion.SPLINE_BLOCK + 999, 2)),
    }
    for name, X in cases.items():
        assert np.array_equal(zone.eval(X), fit.ev(X[:, 0], X[:, 1])), name
    assert zone.eval(np.empty((0, 2))).shape == (0,)


def test_spline_fits_go_through_the_module_name(monkeypatch):
    # bench/tracer.py counts fits by putting a plain function in place of
    # inversion.RectBivariateSpline; the cache must not need the class there
    want = small_reconstruction()(SMALL_POINTS)
    fits = []
    fit = inversion.RectBivariateSpline

    def counting_fit(*args, **kwargs):
        fits.append(args)
        return fit(*args, **kwargs)

    monkeypatch.setattr(inversion, "RectBivariateSpline", counting_fit)
    got = small_reconstruction()(SMALL_POINTS)
    assert np.array_equal(got, want)
    assert len(fits) == 2


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
    assert len(fills) == 3  # one growth fills both sides of the offset grid
    rec(SMALL_POINTS)
    assert len(fills) == 3


def test_line_table_flats_are_valid_and_read_only():
    seen = []

    def data(zeta):
        FlatSpec(zeta.basis, zeta.offset)
        seen.append(zeta)
        return gaussian_lines(zeta)

    field = inversion._LineDualField(data, QuadratureSpec(orientation_samples=4))
    field(np.array([[25.0, 0.0]]))  # grows the table
    assert len(seen) > 4 * 1001
    for zeta in seen:
        assert not zeta.basis.flags.writeable and not zeta.offset.flags.writeable
