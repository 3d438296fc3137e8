import subprocess
import sys

import numpy as np
import pytest

from sphslice import save_profile_csv
from sphslice.cli import main


GAUSS = "family = zonal_gaussian\namplitude = 1.0\nwidth = 1.0\nn = 3\nk = 2\n"
BUMP = "family = cap_bump\nb = 0.0\nsharpness = 0.1\nn = 3\nk = 2\n"


@pytest.fixture
def gauss_scene(tmp_path):
    path = tmp_path / "gauss.scene"
    path.write_text(GAUSS)
    return str(path)


@pytest.fixture
def bump_scene(tmp_path):
    path = tmp_path / "bump.scene"
    path.write_text(BUMP)
    return str(path)


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse still raises on usage errors
        return exc.code


def test_forward_deterministic_bytes(tmp_path, gauss_scene):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    base = ["forward", gauss_scene, "5", "--seed", "7", "--sphere-order", "16"]
    assert run(base + ["--out", str(out_a)]) == 0
    assert run(base + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_bytes().startswith(b"#")


def test_seed_changes_planes(tmp_path, gauss_scene):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    run(["forward", gauss_scene, "5", "--seed", "1",
         "--sphere-order", "16", "--out", str(out_a)])
    run(["forward", gauss_scene, "5", "--seed", "2",
         "--sphere-order", "16", "--out", str(out_b)])
    assert out_a.read_bytes() != out_b.read_bytes()


def test_forward_plane_file_roundtrip(tmp_path, gauss_scene):
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    run(["forward", gauss_scene, "4", "--seed", "3",
         "--sphere-order", "24", "--out", str(first)])
    assert run(["forward", gauss_scene, str(first),
                "--sphere-order", "24", "--out", str(second)]) == 0

    def values(path):
        rows = [ln for ln in path.read_text().splitlines()
                if ln and not ln.startswith("#")]
        return np.array([[float(c) for c in ln.split(",")] for ln in rows[1:]])

    a, b = values(first), values(second)
    # angles, offset and distance written with %.17g round-trip exactly
    np.testing.assert_allclose(a[:, :-1], b[:, :-1], rtol=1e-12, atol=1e-15)
    # the integral is recomputed from a basis rebuilt out of the angles, so
    # the quadrature nodes move and only the integral itself is stable
    np.testing.assert_allclose(a[:, -1], b[:, -1], rtol=1e-8, atol=1e-12)


def test_factor_check_passes(capsys, gauss_scene):
    assert run(["factor-check", gauss_scene, "8", "--seed", "11",
                "--sphere-order", "24", "--radial-order", "48"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_factor_check_impossible_tol(capsys, gauss_scene):
    assert run(["factor-check", gauss_scene, "4", "--seed", "11", "--tol", "1e-18",
                "--sphere-order", "24", "--radial-order", "48"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_factor_check_malformed_count(gauss_scene):
    assert run(["factor-check", gauss_scene, "three"]) == 2


def test_support_cap_bump_passes(bump_scene):
    assert run(["support", bump_scene, "--trials", "30", "--seed", "5",
                "--sphere-order", "24"]) == 0


def test_support_gaussian_fails(gauss_scene):
    assert run(["support", gauss_scene, "--trials", "30", "--seed", "5",
                "--sphere-order", "24"]) == 1


def test_existence_verdicts(gauss_scene):
    assert run(["existence", gauss_scene, "--mu", "0.6", "--n", "3", "--k", "2",
                "--expect", "diverges"]) == 0
    assert run(["existence", gauss_scene, "--mu", "0.6", "--n", "3", "--k", "2",
                "--expect", "converges"]) == 1
    assert run(["existence", gauss_scene, "--mu", "0.4", "--n", "3", "--k", "2",
                "--expect", "converges"]) == 0


def test_missing_scene_exits_2(tmp_path):
    assert run(["forward", str(tmp_path / "nope.scene"), "1"]) == 2


def test_unknown_family_exits_2(tmp_path):
    path = tmp_path / "bad.scene"
    path.write_text("family = wobble\n")
    assert run(["forward", str(path), "1"]) == 2


def test_bad_parameter_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.scene"
    path.write_text("family = zonal_gaussian\nwidth = -1\n")
    assert run(["forward", str(path), "1"]) == 2
    assert "width" in capsys.readouterr().err


def test_parse_error_reports_lineno(tmp_path, capsys):
    path = tmp_path / "bad.scene"
    path.write_text("family = constant\nnot an assignment\n")
    assert run(["forward", str(path), "1"]) == 2
    assert ":2" in capsys.readouterr().err


def test_numeric_failure_exits_3(tmp_path):
    grid = np.geomspace(0.1, 10.0, 50)
    values = np.exp(-grid)
    values[20] = np.nan
    csv_path = tmp_path / "bad_profile.csv"
    save_profile_csv(csv_path, grid, values)
    scene = tmp_path / "bad.scene"
    scene.write_text(f"family = custom_profile_csv\npath = {csv_path}\n")
    assert run(["zonal-forward", str(scene), "--t-count", "5"]) == 3


@pytest.mark.parametrize("flags,setting", [(["--eps", "0"], "eps"),
                                           (["--eps", "10", "--outer", "30"], "outer_R"),
                                           (["--eps", "nan"], "eps"),
                                           (["--outer", "nan"], "outer_R"),
                                           (["--outer", "inf"], "outer_R"),
                                           (["--cutoff", "nan"], "radial_cutoff")])
def test_bad_truncation_window_exits_3(capsys, gauss_scene, flags, setting):
    assert run(["forward", gauss_scene, "1", "--sphere-order", "16"] + flags) == 3
    assert setting in capsys.readouterr().err


def test_invert_beyond_the_plane_exits_2(capsys, gauss_scene):
    # the scene is S^3 with 2-planes; only S^2 (lines in the plane) inverts
    assert run(["invert", gauss_scene]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "lines in the plane" in err and "n = 3" in err


@pytest.mark.parametrize("command,flags,columns,rows", [
    ("radon", ["3"], "alpha,beta,gamma,t,dist,value", 3),
    # n = 3 keeps dual_transform's orientation sample in space exercised
    ("dual", ["--grid-size", "2", "--extent", "1.5"], "x1,x2,x3,value", 8),
    ("zonal-forward", ["--t-max", "2", "--t-count", "5"], "t,dist,value", 5),
])
def test_output_is_reproducible_with_expected_shape(tmp_path, gauss_scene, command, flags, columns, rows):
    argv = [command, gauss_scene] + flags + ["--seed", "9", "--sphere-order", "16", "--radial-order", "16"]
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert run(argv + ["--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    lines = [ln for ln in outputs[0].decode().splitlines() if not ln.startswith("#")]
    assert lines[0] == columns
    values = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    assert values.shape == (rows, len(columns.split(",")))
    assert np.all(np.isfinite(values))


def test_help_documents_plane_law(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    flattened = " ".join(capsys.readouterr().out.split())
    assert "tan(uniform(0, pi/2 - 0.01))" in flattened


def test_dimension_flags_reach_header(tmp_path, gauss_scene):
    out = tmp_path / "out.csv"
    run(["forward", gauss_scene, "2", "--n", "2", "--k", "2",
         "--sphere-order", "16", "--out", str(out)])
    header = [ln for ln in out.read_text().splitlines() if ln.startswith("#")]
    joined = "\n".join(header)
    assert "n=2" in joined and "k=2" in joined


def test_console_script_smoke(gauss_scene):
    proc = subprocess.run(
        [sys.executable, "-m", "sphslice.cli", "existence", gauss_scene,
         "--mu", "0.0", "--n", "3", "--k", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "converges" in proc.stdout
