import numpy as np
import pytest

from sphslice import (
    FAMILIES,
    Dimensions,
    SceneError,
    SceneSpec,
    build_field,
    parse_scene,
    save_profile_csv,
    scene_profile,
    sphere_rule,
    suggested_cutoff,
)


def write(tmp_path, text, name="scene.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_family_roster():
    assert set(FAMILIES) == {
        "constant",
        "zonal_gaussian",
        "cap_bump",
        "first_harmonic_weighted",
        "custom_profile_csv",
    }


def test_parse_scene_with_comments(tmp_path):
    path = write(
        tmp_path,
        "# a zonal test field\n"
        "family = zonal_gaussian\n"
        "amplitude = 2.0   # doubled\n"
        "width = 0.5\n"
        "n = 3\n"
        "k = 3\n",
    )
    scene = parse_scene(path)
    assert scene.family == "zonal_gaussian"
    assert scene["amplitude"] == 2.0
    assert scene["width"] == 0.5
    assert scene.dims == Dimensions(3, 3)


def test_parse_scene_defaults(tmp_path):
    scene = parse_scene(write(tmp_path, "family = constant\n"))
    assert scene.dims == Dimensions(3, 2)
    assert scene["amplitude"] == 1.0


def test_parse_scene_error_reports_line(tmp_path):
    path = write(tmp_path, "family = constant\nwat\n")
    with pytest.raises(SceneError, match=":2"):
        parse_scene(path)


def test_parse_scene_rejects_unknown_family(tmp_path):
    with pytest.raises(SceneError, match="unknown family"):
        parse_scene(write(tmp_path, "family = wobble\n"))


def test_parse_scene_rejects_unknown_parameter(tmp_path):
    with pytest.raises(SceneError, match="does not take parameter"):
        parse_scene(write(tmp_path, "family = constant\nwobble = 3\n"))


def test_scene_validators():
    with pytest.raises(SceneError):
        SceneSpec(family="cap_bump", parameters={"b": 1.5})
    with pytest.raises(SceneError):
        SceneSpec(family="zonal_gaussian", parameters={"width": -1.0})
    with pytest.raises(SceneError):
        SceneSpec(family="custom_profile_csv", parameters={})


def sphere_sample():
    pts, _ = sphere_rule(3, 8)
    return pts[np.abs(pts[:, -1]) < 0.999]


@pytest.mark.parametrize("family", ["constant", "zonal_gaussian", "cap_bump", "first_harmonic_weighted"])
def test_build_field_evaluates(family):
    scene = SceneSpec(family=family, parameters={})
    field = build_field(scene)
    values = field(sphere_sample())
    assert np.all(np.isfinite(values))


def test_cap_bump_vanishes_above_height():
    scene = SceneSpec(family="cap_bump", parameters={"b": 0.2})
    field = build_field(scene)
    pts = sphere_sample()
    above = pts[:, -1] >= 0.2
    assert np.all(field(pts)[above] == 0.0)
    assert np.any(field(pts)[~above] > 0.0)


@pytest.mark.parametrize("b,sharpness,amplitude", [(0.0, 0.1, 1.0), (0.6, 0.3, 2.5), (-0.7, 0.05, -1.0)])
def test_cap_bump_keeps_the_inline_formula_bits(b, sharpness, amplitude):
    # build_field and scene_profile each spelled the bump inline
    scene = SceneSpec(family="cap_bump", parameters={"b": b, "sharpness": sharpness, "amplitude": amplitude})
    pts, _ = sphere_rule(3, 16)
    gap = b - pts[..., -1]
    want = np.zeros(pts.shape[:-1])
    inside = gap > 0.0
    want[inside] = amplitude * np.exp(-sharpness / gap[inside])
    assert np.array_equal(build_field(scene)(pts), want)
    s = np.geomspace(1e-3, 1e3, 97)
    gap = b - (s**2 - 1.0) / (s**2 + 1.0)
    want = np.zeros_like(s)
    inside = gap > 0.0
    want[inside] = amplitude * np.exp(-sharpness / gap[inside])
    assert np.array_equal(scene_profile(scene)(s), want)


def test_zonal_gaussian_profile_consistency():
    scene = SceneSpec(family="zonal_gaussian", parameters={"amplitude": 1.5, "width": 0.8})
    field = build_field(scene)
    profile = scene_profile(scene)
    pts = sphere_sample()
    s = np.sqrt((1.0 + pts[:, -1]) / (1.0 - pts[:, -1]))
    assert np.allclose(field(pts), profile(s), rtol=1e-12)


def test_first_harmonic_has_no_profile():
    scene = SceneSpec(family="first_harmonic_weighted", parameters={})
    with pytest.raises(SceneError):
        scene_profile(scene)


def test_custom_csv_scene(tmp_path):
    grid = np.geomspace(0.01, 30.0, 400)
    values = np.exp(-(grid**2))
    csv_path = tmp_path / "profile.csv"
    save_profile_csv(csv_path, grid, values)
    scene = SceneSpec(family="custom_profile_csv", parameters={"path": str(csv_path)})
    field = build_field(scene)
    profile = scene_profile(scene)
    pts = sphere_sample()
    s = np.sqrt((1.0 + pts[:, -1]) / (1.0 - pts[:, -1]))
    assert np.allclose(field(pts), profile(s), rtol=1e-12)
    assert np.allclose(profile(grid), values)


def test_suggested_cutoffs():
    const = SceneSpec(family="constant", parameters={}, dims=Dimensions(3, 2))
    assert suggested_cutoff(const) > 1e6
    const3 = SceneSpec(family="constant", parameters={}, dims=Dimensions(3, 3))
    assert 1e3 < suggested_cutoff(const3) < 1e5
    gauss = SceneSpec(family="zonal_gaussian", parameters={})
    assert 4.0 < suggested_cutoff(gauss) < 20.0
    bump = SceneSpec(family="cap_bump", parameters={})
    assert suggested_cutoff(bump) < 10.0
