import math
import re
import warnings

import numpy as np
import pytest

from sphslice import (
    Dimensions,
    QuadratureSpec,
    ZonalProfile,
    load_profile_csv,
    profile_to_sphere_field,
    save_profile_csv,
    sigma,
    nu,
    slice_transform,
    sphere_rule,
    random_flat,
    section_to_plane,
    zonal_forward,
    zonal_invert,
)
import sphslice.zonal as zonal
from sphslice.quadrature import composite_gauss, gauss_legendre, panel_edges
from sphslice.scenes import SceneSpec, scene_profile
from sphslice.transforms import _BLOCK_POINTS


def gauss_profile(width=1.0):
    return ZonalProfile(lambda s: np.exp(-((np.asarray(s, dtype=float) / width) ** 2)))


def test_sigma_values():
    assert sigma(0) == pytest.approx(2.0)
    assert sigma(1) == pytest.approx(2.0 * math.pi)
    assert sigma(2) == pytest.approx(4.0 * math.pi)
    assert sigma(3) == pytest.approx(2.0 * math.pi**2)


@pytest.mark.parametrize("t", [0.0, 0.5, 1.7, 3.0])
def test_constant_profile_closed_form_k2(t):
    # for f0 = 1, k = 2 the forward value is 2*pi / sqrt(1 + t^2); the
    # integrand only decays like q^-2, so the huge cutoff earns its keep
    spec = QuadratureSpec(radial_cutoff=1e7)
    one = ZonalProfile(lambda s: np.ones_like(np.asarray(s, dtype=float)))
    value = zonal_forward(one, t, Dimensions(3, 2), spec)
    assert value == pytest.approx(2.0 * math.pi / math.hypot(1.0, t), rel=3e-7)


@pytest.mark.parametrize("t", [0.0, 0.5, 1.7, 3.0])
def test_constant_profile_closed_form_k3(t):
    # truncation tail is ~4*pi/R^2, so R = 1e6 leaves ~1e-12 relative
    spec = QuadratureSpec(radial_cutoff=1e6)
    one = ZonalProfile(lambda s: np.ones_like(np.asarray(s, dtype=float)))
    value = zonal_forward(one, t, Dimensions(3, 3), spec)
    assert value == pytest.approx(4.0 * math.pi / (1.0 + t * t), rel=1e-10)


@pytest.mark.parametrize("k", [2, 3])
def test_zonal_forward_matches_slice(k):
    # the profile route and the cross-section quadrature are independent
    spec = QuadratureSpec(radial_order=64, radial_cutoff=10.0)
    dims = Dimensions(3, k)
    profile = gauss_profile()
    field = profile_to_sphere_field(profile)
    rng = np.random.default_rng(23)
    for t in (0.0, 0.4, 1.1, 2.6):
        zeta = random_flat(rng, 3, k - 1, t)
        direct = slice_transform(field, section_to_plane(zeta), spec)
        via_profile = zonal_forward(profile, t, dims, spec)
        assert via_profile == pytest.approx(direct, rel=1e-9)


@pytest.mark.parametrize("k", [2, 3])
def test_roundtrip_gaussian(k):
    spec = QuadratureSpec(radial_order=64, radial_cutoff=10.0)
    dims = Dimensions(3, k)
    profile = gauss_profile()

    recovered = zonal_invert(lambda t: zonal_forward(profile, t, dims, spec), dims)
    s = np.geomspace(0.1, 10.0, 50)
    err = np.abs(recovered(s) - profile(s)) / (1.0 + np.abs(profile(s)))
    assert np.max(err) < 1e-3


def test_roundtrip_rational_profile():
    # slower decay than the Gaussian but still integrable for k = 2
    spec = QuadratureSpec(radial_order=64, radial_cutoff=1e4)
    dims = Dimensions(3, 2)
    profile = ZonalProfile(lambda s: (1.0 + np.asarray(s, dtype=float) ** 2) ** -2)

    recovered = zonal_invert(lambda t: zonal_forward(profile, t, dims, spec), dims)
    s = np.geomspace(0.1, 10.0, 50)
    err = np.abs(recovered(s) - profile(s)) / (1.0 + np.abs(profile(s)))
    assert np.max(err) < 1e-3


def test_forward_rejects_growing_profile():
    spec = QuadratureSpec(radial_cutoff=1e6)
    growing = ZonalProfile(lambda s: np.asarray(s, dtype=float) ** 1.5 + 1.0)
    with pytest.raises(ValueError, match="existence"):
        zonal_forward(growing, 0.5, Dimensions(3, 2), spec)


def test_forward_rejects_nan_profile():
    spec = QuadratureSpec(radial_cutoff=100.0)
    bad = ZonalProfile(lambda s: np.full_like(np.asarray(s, dtype=float), np.nan))
    with pytest.raises(ValueError, match="blowup"):
        zonal_forward(bad, 0.5, Dimensions(3, 2), spec)


def test_profile_field_conversions():
    dims = Dimensions(2, 2)
    profile = gauss_profile(width=0.7)
    field = profile_to_sphere_field(profile)
    pts, _ = sphere_rule(2, 8)
    pts = pts[pts[:, -1] < 0.99]
    s = np.sqrt((1.0 + pts[:, -1]) / (1.0 - pts[:, -1]))
    assert np.allclose(field(pts), profile(s), rtol=1e-12)

    # along the first axis of the plane the stereographic radius is |x|
    sample = np.array([0.2, 1.0, 4.0])
    x = np.zeros((len(sample), dims.n))
    x[:, 0] = sample
    assert np.allclose(field(nu(x)), profile(sample), rtol=1e-12)


def test_profile_csv_roundtrip(tmp_path):
    path = tmp_path / "profile.csv"
    grid = np.geomspace(0.05, 50.0, 120)
    profile = gauss_profile()
    save_profile_csv(path, grid, profile(grid))
    loaded = load_profile_csv(path)
    s = np.geomspace(0.1, 10.0, 37)
    # linear interpolation on a 120-point log grid carries ~5e-4 absolute error
    # where the curvature peaks; fidelity is set by the caller's grid density
    assert np.allclose(loaded(s), profile(s), rtol=1e-3, atol=1e-3)
    assert np.array_equal(loaded(grid), profile(grid))
    # beyond the stored grid the profile is extended by zero
    assert loaded(np.array([80.0]))[0] == 0.0


def test_profile_csv_skips_comments_and_blank_lines_anywhere(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text("# provenance\n\ns,f0\n0.1,1.0  # first sample\n\n# gap\n1.0,0.5\n10.0,0.25\n")
    loaded = load_profile_csv(path)
    assert np.array_equal(loaded.grid[0], [0.1, 1.0, 10.0])
    assert np.array_equal(loaded(np.array([0.1, 1.0, 10.0])), [1.0, 0.5, 0.25])


def test_profile_csv_without_header_keeps_its_first_row(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text("0.1,1.0\n1.0,0.5\n10.0,0.25\n")
    loaded = load_profile_csv(path)
    assert np.array_equal(loaded.grid[1], [1.0, 0.5, 0.25])
    assert loaded(0.1) == 1.0


@pytest.mark.parametrize("text,message", [("s,f0\n", "no data rows"),
                                          ("s,f0\n0.1,1.0\nf0,s\n", "could not convert"),
                                          ("s,f0\n1.0,0.5\n0.1,1.0\n", "strictly increasing")])
def test_profile_csv_refuses_malformed_files(tmp_path, text, message):
    path = tmp_path / "profile.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_profile_csv(path)


# A radial order of 2048 makes a chunk of _BLOCK_POINTS // 2048 = 8 offsets,
# so short offset arrays reach across chunk boundaries.
BATCH_SPEC = QuadratureSpec(radial_order=2048, radial_cutoff=12.0)
BATCH_CHUNK = _BLOCK_POINTS // BATCH_SPEC.radial_order


def _batch_profile(name, dims, tmp_path):
    """A scene profile, a load_profile_csv profile or a plain function."""
    if name == "plain_function":
        return lambda s: 1.0 / (1.0 + np.asarray(s, dtype=float) ** 2) ** 2
    if name == "profile_csv":
        path = tmp_path / "profile.csv"
        grid = np.geomspace(0.05, 50.0, 120)
        save_profile_csv(path, grid, np.exp(-grid) / (1.0 + grid))
        return load_profile_csv(path)
    return scene_profile(SceneSpec(family=name, parameters={}, dims=dims))


def _reference_forward(profile, t, dims, spec):
    """The one-offset loop zonal_forward replaced, as the bit-for-bit reference."""
    k = dims.k
    edges = panel_edges(0.0, spec.radial_cutoff)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        q, w = gauss_legendre(spec.radial_order, a, b)
        s = np.hypot(t, q)
        vals = profile(s) * (1.0 + s * s) ** (1 - k) * q ** (k - 2)
        total += float(np.sum(vals * w))
    return 2.0 ** (k - 1) * sigma(k - 2) * total


@pytest.mark.parametrize("length", [1, BATCH_CHUNK - 1, BATCH_CHUNK, BATCH_CHUNK + 1, 2 * BATCH_CHUNK + 1])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("name", ["zonal_gaussian", "cap_bump", "profile_csv", "plain_function"])
def test_batched_offsets_equal_scalar_calls(tmp_path, name, k, length):
    dims = Dimensions(max(3, k), k)
    profile = _batch_profile(name, dims, tmp_path)
    t = np.linspace(0.0, 4.0, length)
    batched = zonal_forward(profile, t, dims, BATCH_SPEC)
    scalar = np.array([zonal_forward(profile, float(ti), dims, BATCH_SPEC) for ti in t])
    reference = np.array([_reference_forward(profile, float(ti), dims, BATCH_SPEC) for ti in t])
    assert batched.shape == t.shape
    assert np.array_equal(batched, scalar)
    assert np.array_equal(batched, reference)


def test_batched_offsets_keep_their_shape():
    profile = gauss_profile()
    dims = Dimensions(3, 2)
    spec = QuadratureSpec(radial_order=16, radial_cutoff=10.0)
    t = np.array([[0.0, 0.5, 1.0], [1.5, 2.0, 2.5]])
    values = zonal_forward(profile, t, dims, spec)
    assert values.shape == t.shape
    assert np.array_equal(values.ravel(), zonal_forward(profile, t.ravel(), dims, spec))
    assert zonal_forward(profile, np.empty(0), dims, spec).shape == (0,)


@pytest.mark.parametrize("t", [0.5, np.float64(0.5), np.array(0.5)])
def test_scalar_offset_returns_a_float(t):
    spec = QuadratureSpec(radial_order=16, radial_cutoff=10.0)
    value = zonal_forward(gauss_profile(), t, Dimensions(3, 2), spec)
    assert type(value) is float


def test_batched_offsets_bound_the_profile_blocks():
    sizes = []

    def f0(s):
        sizes.append(np.size(s))
        return np.exp(-np.asarray(s, dtype=float) ** 2)

    spec = QuadratureSpec(radial_order=64, radial_cutoff=10.0)
    zonal_forward(ZonalProfile(f0), np.linspace(0.0, 3.0, 1000), Dimensions(3, 2), spec)
    assert max(sizes) <= _BLOCK_POINTS
    assert sum(sizes) == 1000 * len(composite_gauss(0.0, spec.radial_cutoff, spec.radial_order)[0])


def test_batched_offsets_check_the_tail_per_offset():
    # Far beyond the cutoff s = hypot(t, q) hardly moves along q, so the
    # panel masses grow with the panel widths: t = 100 diverges on its own.
    spec = QuadratureSpec(radial_order=32, radial_cutoff=12.0)
    dims = Dimensions(3, 2)
    rational = ZonalProfile(lambda s: (1.0 + np.asarray(s, dtype=float) ** 2) ** -2)
    zonal_forward(rational, np.array([0.0, 0.5, 2.0]), dims, spec)
    with pytest.raises(ValueError, match="existence"):
        zonal_forward(rational, 100.0, dims, spec)
    with pytest.raises(ValueError, match="existence"):
        zonal_forward(rational, np.array([0.0, 0.5, 100.0, 2.0]), dims, spec)


def test_batched_offsets_reject_a_negative_or_nan_offset():
    spec = QuadratureSpec(radial_order=16, radial_cutoff=10.0)
    dims = Dimensions(3, 2)
    with pytest.raises(ValueError, match=">= 0"):
        zonal_forward(gauss_profile(), np.array([0.0, 0.5, -0.1]), dims, spec)
    with pytest.raises(ValueError, match=">= 0"):
        zonal_forward(gauss_profile(), np.array([0.0, np.nan, 1.0]), dims, spec)


def test_a_nan_offset_is_refused_and_an_infinite_one_gives_zero():
    # NaN fails every comparison, so it is refused with the offset message
    # before any panel sees it; a plane at infinite distance cuts no section.
    spec = QuadratureSpec(radial_order=16, radial_cutoff=10.0)
    dims = Dimensions(3, 2)
    with pytest.raises(ValueError, match="offset length t must be >= 0"):
        zonal_forward(gauss_profile(), math.nan, dims, spec)
    assert zonal_forward(gauss_profile(), math.inf, dims, spec) == 0.0
    values = zonal_forward(gauss_profile(), np.array([math.inf, 0.5]), dims, spec)
    assert values[0] == 0.0 and values[1] == zonal_forward(gauss_profile(), 0.5, dims, spec)


def test_invert_propagates_an_error_of_the_batched_call():
    # The rational profile's tail does not decay for the largest grid offsets
    # at this cutoff, so the batched forward call raises the existence error.
    # That is a failure, not a refusal of arrays: no scalar calls follow.
    spec = QuadratureSpec(radial_cutoff=12.0)
    dims = Dimensions(3, 2)
    rational = ZonalProfile(lambda s: (1.0 + np.asarray(s, dtype=float) ** 2) ** -2)
    shapes = []

    def forward(t):
        shapes.append(np.shape(t))
        return zonal_forward(rational, t, dims, spec)

    with pytest.raises(ValueError, match="existence"):
        zonal_invert(forward, dims)
    assert shapes == [(800,)]



@pytest.mark.parametrize("text", [
    "s f0\n0.1 1.0\n1.0\t0.5\n10.0   0.25\n",
    "s,f0,\n0.1,1.0,\n1.0 , 0.5\n10.0,,0.25\n",
    "s,f0\n0.1,1.0,7\n1.0,0.5\n10.0,0.25,7,7\n",
], ids=["whitespace", "stray-commas", "extra-columns"])
def test_profile_csv_splits_rows_as_plane_files_do(tmp_path, text):
    # Values are separated by commas, whitespace or both, and columns beyond
    # s and f0 are ignored.
    path = tmp_path / "profile.csv"
    path.write_text(text)
    loaded = load_profile_csv(path)
    assert np.array_equal(loaded.grid[0], [0.1, 1.0, 10.0])
    assert np.array_equal(loaded.grid[1], [1.0, 0.5, 0.25])


def test_profile_csv_error_names_its_line(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text("s,f0\n# note\n0.1,1.0\nf0,s\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:4: could not convert 'f0,s'")):
        load_profile_csv(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_profile_csv_refuses_a_non_finite_value(tmp_path, value):
    path = tmp_path / "profile.csv"
    path.write_text(f"s,f0\n0.1,1.0\n0.5,{value}\n1.0,0.2\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: profile value f0 must be finite, got {value}")):
        load_profile_csv(path)


@pytest.mark.parametrize("grid,values,message", [
    ([0.1, 0.5, 1.0], [1.0, math.nan, 0.2], "profile value f0 must be finite"),
    ([0.1, 0.5, 1.0], [1.0, 0.5, -math.inf], "profile value f0 must be finite"),
    ([0.1, math.nan, 1.0], [1.0, 0.5, 0.2], "profile grid must be finite"),
    ([0.1, 0.5, math.inf], [1.0, 0.5, 0.2], "profile grid must be finite"),
    ([0.0, 0.5, 1.0], [1.0, 0.5, 0.2], "profile grid must be finite, positive"),
    ([0.1, 1.0, 0.5], [1.0, 0.5, 0.2], "strictly increasing"),
], ids=["nan-value", "inf-value", "nan-grid", "inf-grid", "zero-grid", "decreasing-grid"])
def test_save_profile_csv_refuses_what_load_profile_csv_refuses(tmp_path, grid, values, message):
    # the same rows written by hand fail to load; save_profile_csv refuses them and writes nothing
    written = tmp_path / "written.csv"
    written.write_text("s,f0\n" + "".join(f"{s!r},{v!r}\n" for s, v in zip(grid, values)))
    with pytest.raises(ValueError, match=message):
        load_profile_csv(written)
    saved = tmp_path / "saved.csv"
    with pytest.raises(ValueError, match=message):
        save_profile_csv(saved, np.array(grid), np.array(values))
    assert not saved.exists()
    save_profile_csv(saved, np.array([0.1, 0.5, 1.0]), np.array([1.0, 0.5, 0.2]))
    assert np.array_equal(load_profile_csv(saved).grid[1], [1.0, 0.5, 0.2])


@pytest.mark.parametrize("rows,line", [
    ("0.1,1.0\n0.5,1.7976931348623157e308\n0.6,0.2\n1.0,0.1\n", 4),  # the slope to 0.2 overflows
    ("0.1,1.7e308\n0.5,-1.7e308\n", 3),  # the difference itself overflows
], ids=["slope", "difference"])
def test_profile_csv_refuses_values_whose_interpolant_overflows(tmp_path, rows, line):
    path = tmp_path / "profile.csv"
    path.write_text("s,f0\n" + rows)
    with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: profile does not interpolate to finite values")):
        load_profile_csv(path)


@pytest.mark.parametrize("grid,values,row", [
    ([0.1, 0.5, 0.6, 1.0], [1.0, 1.7976931348623157e308, 0.2, 0.1], 3),  # the slope to 0.2 overflows
    ([0.1, 0.5], [1.7e308, -1.7e308], 2),  # the difference itself overflows
], ids=["slope", "difference"])
def test_save_profile_csv_refuses_values_whose_interpolant_overflows(tmp_path, grid, values, row):
    # the rows load_profile_csv refuses: save_profile_csv refuses them too and writes nothing
    path = tmp_path / "profile.csv"
    with pytest.raises(ValueError, match=f"row {row}: profile does not interpolate to finite values"):
        save_profile_csv(path, np.array(grid), np.array(values))
    assert not path.exists()


def test_save_profile_csv_keeps_huge_values_whose_interpolant_is_finite(tmp_path):
    path = tmp_path / "profile.csv"
    save_profile_csv(path, np.array([0.1, 0.5]), np.array([1e300, 1e299]))
    assert np.array_equal(load_profile_csv(path).grid[1], [1e300, 1e299])


def test_profile_csv_keeps_huge_values_whose_interpolant_is_finite(tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text("s,f0\n0.1,1e300\n0.5,1e299\n")
    values = load_profile_csv(path).f0(np.array([0.1, 0.3, 0.5]))
    assert np.all(np.isfinite(values))
    assert values[0] == 1e300 and values[-1] == 1e299


def _half_integral_by_rows(u, w):
    """The half-order integral one grid point at a time, as zonal_invert first computed it."""
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


@pytest.mark.parametrize("weights", ["decaying", "random", "derivative"])
def test_half_integral_in_row_blocks_is_bit_identical_to_the_row_loop(weights):
    s = np.geomspace(zonal.S_MIN, zonal.S_MAX, zonal.GRID_POINTS)
    u = s * s
    if weights == "decaying":
        w = 1.0 / (1.0 + u) ** 2
    elif weights == "random":
        w = np.random.default_rng(0).standard_normal(len(u))
    else:
        # what zonal_invert hands it at k = 2: -d/du of a zonal forward profile
        w = -zonal._deriv5(np.exp(-u), np.log(s[1] / s[0])) / (2.0 * u)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = zonal._half_integral(u, w)
    assert np.array_equal(got, _half_integral_by_rows(u, w))


@pytest.mark.parametrize("count", [1, 2, 63, 64, 65, 129])
def test_half_integral_row_blocks_cover_every_grid_size(count):
    u = np.geomspace(1e-3, 10.0, count) ** 2
    w = np.random.default_rng(count).standard_normal(count)
    assert np.array_equal(zonal._half_integral(u, w), _half_integral_by_rows(u, w))
