import argparse
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import sphslice.geometry as geometry
import sphslice.transforms as transforms
from sphslice import (Dimensions, FlatSpec, PlaneField, QuadratureSpec, SphereField, op_B, radon_john,
                      save_profile_csv)
from sphslice import cli
from sphslice.cli import main
from sphslice.scenes import SceneSpec, build_field
from sphslice.transforms import _BLOCK_POINTS


GAUSS = "family = zonal_gaussian\namplitude = 1.0\nwidth = 1.0\nn = 3\nk = 2\n"
BUMP = "family = cap_bump\nb = 0.0\nsharpness = 0.1\nn = 3\nk = 2\n"
GAUSS33 = "family = zonal_gaussian\nn = 3\nk = 3\n"
GAUSS22 = "family = zonal_gaussian\nn = 2\nk = 2\n"
LOW = ["--sphere-order", "16", "--radial-order", "16"]
LOW_SPHERE = ["--sphere-order", "16"]
LOW_RADIAL = ["--radial-order", "16"]


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


def test_cli_exports_only_main():
    assert cli.__all__ == ["main"]


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


@pytest.fixture
def nan_scene(tmp_path):
    # a zonal profile with one NaN sample
    grid = np.geomspace(0.1, 10.0, 50)
    values = np.exp(-grid)
    values[20] = np.nan
    csv_path = tmp_path / "bad_profile.csv"
    save_profile_csv(csv_path, grid, values)
    scene = tmp_path / "bad.scene"
    scene.write_text(f"family = custom_profile_csv\npath = {csv_path}\n")
    return str(scene)


def test_numeric_failure_exits_3(nan_scene):
    assert run(["zonal-forward", nan_scene, "--t-count", "5"]) == 3


@pytest.mark.parametrize("argv", [["dual", "--grid-size", "2"], ["dual", "--n", "2", "--k", "2", "--grid-size", "2"],
                                  ["support", "--trials", "5"]])
def test_non_finite_stacked_data_exits_3(capsys, nan_scene, argv):
    # some node of some flat of the stack sees the profile's NaN
    assert run([argv[0], nan_scene] + argv[1:] + ["--sphere-order", "8"]) == 3
    assert "not finite" in capsys.readouterr().err


def test_profile_csv_with_leading_comments_is_read(tmp_path):
    csv_path = tmp_path / "profile.csv"
    grid = np.geomspace(0.1, 10.0, 50)
    save_profile_csv(csv_path, grid, np.exp(-grid))
    csv_path.write_text("# made by hand\n" + csv_path.read_text())
    scene = tmp_path / "custom.scene"
    scene.write_text(f"family = custom_profile_csv\npath = {csv_path}\n")
    assert run(["zonal-forward", str(scene), "--t-count", "5"]) == 0


def test_malformed_profile_csv_exits_2(tmp_path, capsys):
    csv_path = tmp_path / "profile.csv"
    csv_path.write_text("s,f0\n1.0,0.5\n0.1,1.0\n")
    scene = tmp_path / "custom.scene"
    scene.write_text(f"family = custom_profile_csv\npath = {csv_path}\n")
    assert run(["zonal-forward", str(scene), "--t-count", "5"]) == 2
    assert run(["zonal-forward", str(scene), "--t-count", "5", "--cutoff", "20"]) == 2
    assert "strictly increasing" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["s,f0\nnan,0.5\n1.0,0.2\n", "s,f0\n0.5,1.0\nnan,0.5\n2.0,0.1\n",
                                  "s,f0\n0.5,1.0\n1.0,0.5\ninf,0.1\n", "s,f0\n0.5,1.0\n-inf,0.5\n"])
@pytest.mark.parametrize("extra", [[], ["--cutoff", "20"]])
def test_non_finite_profile_grid_exits_2(tmp_path, capsys, grid, extra):
    # NaN passes every comparison of the grid and inf its ordering: both are refused as a malformed file
    csv_path = tmp_path / "profile.csv"
    csv_path.write_text(grid)
    scene = tmp_path / "custom.scene"
    scene.write_text(f"family = custom_profile_csv\npath = {csv_path}\n")
    assert run(["zonal-forward", str(scene), "--t-count", "5"] + extra) == 2
    err = capsys.readouterr().err
    assert str(csv_path) in err and "profile grid must be finite" in err


# A subcommand that reads each setting flag of test_out_of_range_setting_exits_2, at a low order.
READER = {"--eps": ["invert", "--n", "2", "--k", "2", "--sphere-order", "8"],
          "--outer": ["invert", "--n", "2", "--k", "2", "--sphere-order", "8"],
          "--cutoff": ["radon", "1", "--sphere-order", "8"], "--b": ["support", "--trials", "1", "--sphere-order", "8"],
          "--t-max": ["zonal-forward", "--radial-order", "8"], "--extent": ["dual", "--sphere-order", "8"],
          "--mu": ["existence", "--sphere-order", "8", "--radial-order", "8"]}


@pytest.mark.parametrize("flags,setting", [(["--eps", "0"], "eps"),
                                           (["--eps", "10", "--outer", "30"], "outer_R"),
                                           (["--eps", "nan"], "eps"),
                                           (["--outer", "nan"], "outer_R"),
                                           (["--outer", "inf"], "outer_R"),
                                           (["--cutoff", "nan"], "radial_cutoff"),
                                           (["--eps", "-1"], "eps must be finite and positive"),
                                           (["--cutoff", "0.5"], "radial_cutoff must be finite"),
                                           (["--b", "1.5"], "cap height b must lie in (-1, 1)"),
                                           (["--t-max", "nan"], "needs a finite t-max >= 0"),
                                           (["--t-max", "inf"], "needs a finite t-max >= 0"),
                                           (["--extent", "nan"], "needs a finite extent > 0"),
                                           (["--extent", "inf"], "needs a finite extent > 0"),
                                           (["--extent", "1e200"], "grid points have a finite norm"),
                                           (["--mu", "nan"], "existence needs a finite mu"),
                                           (["--mu", "inf"], "existence needs a finite mu")])
def test_out_of_range_setting_exits_2(capsys, gauss_scene, flags, setting):
    # each is refused by a subcommand that reads it, before any computation
    command = READER[flags[0]]
    assert run([command[0], gauss_scene] + command[1:] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and setting in err


def test_invert_beyond_the_plane_exits_2(capsys, gauss_scene):
    # the scene is S^3 with 2-planes; only S^2 (lines in the plane) inverts
    assert run(["invert", gauss_scene]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "lines in the plane" in err and "n = 3" in err


@pytest.mark.parametrize("command,flags,columns,rows", [
    ("radon", ["3", "--seed", "9"] + LOW, "alpha,beta,gamma,t,dist,value", 3),
    # n = 3 keeps dual_transform's orientation sample in space exercised
    ("dual", ["--grid-size", "2", "--extent", "1.5", "--seed", "9"] + LOW, "x1,x2,x3,value", 8),
    ("zonal-forward", ["--t-max", "2", "--t-count", "5"] + LOW_RADIAL, "t,dist,value", 5),
])
def test_output_is_reproducible_with_expected_shape(tmp_path, gauss_scene, command, flags, columns, rows):
    argv = [command, gauss_scene] + flags
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


DATA = Path(__file__).parent / "data"


def _tokens(line):
    # the words of a CSV or comment line, with every number parsed
    out = []
    for token in line.replace(",", " ").replace("=", " ").replace(":", " ").split():
        try:
            out.append(float(token))
        except ValueError:
            out.append(token)
    return out


# Differences are rounding noise, so each is compared to 1e-12 of the size of
# what it is a difference of: lhs and rhs for abs_diff, and 1 for the zonal
# round trip's errors (weighted by 1 + |reference|; far out, `recovered` is a
# cancellation residue too) and for the support violations (fields of peak
# O(1), see the `scale:` footer).  A reconstruction of invert is a residue of
# O(1) data where the field is small, so its values and errors are compared
# to 1e-12 of 1 as well (the field's scale, see the `reference_scale:` footer).
_FLOORS = {"max_rel_diff": 1.0, "max_weighted_err": 1.0, "weighted_err": 1.0, "recovered": 1.0,
           "max_violation": 1.0, "max_beyond": 1.0, "sup_abs_err": 1.0}


def _assert_matches_golden(got_lines, want_lines, *, csv=True):
    # Determinism beyond one environment: a run reproduces the committed
    # output to 1e-12 relative, differences to 1e-12 of their floor.
    got = [_tokens(line) for line in got_lines]
    want = [_tokens(line) for line in want_lines]
    assert len(got) == len(want)
    columns = next(row for row in want if row[0] != "#") if csv else None
    for got_row, want_row in zip(got, want):
        assert len(got_row) == len(want_row)
        if want_row is columns:
            names, floors = columns, {}
        elif want_row[0] == "#" or not csv:
            # a number in a comment or summary line is named by the word before it
            names, floors = [None] + want_row[:-1], _FLOORS
        else:
            row = dict(zip(columns, want_row))
            names, floors = columns, dict(_FLOORS)
            if "abs_diff" in row:
                floors["abs_diff"] = max(abs(row["lhs"]), abs(row["rhs"]))
            if "abs_error" in row:
                floors["value"] = floors["abs_error"] = 1.0
        for name, g, w in zip(names, got_row, want_row):
            if isinstance(w, str):
                assert g == w
            else:
                assert abs(g - w) <= 1e-12 * max(abs(w), floors.get(name, 0.0)), (name, g, w)


GOLDEN_RUNS = [
    ("factor_check_zonal_gaussian_n3k3", GAUSS33,
     ["factor-check", "5", "--seed", "9", "--sphere-order", "48", "--radial-order", "64"],
     "PASS max_rel_diff=2.2499503817550981e-15 tol=9.9999999999999995e-07"),
    ("forward_zonal_gaussian_n3k2", GAUSS, ["forward", "4", "--seed", "9"] + LOW_SPHERE, ""),
    ("radon_zonal_gaussian_n3k2", GAUSS, ["radon", "3", "--seed", "9"] + LOW, ""),
    ("zonal_forward_zonal_gaussian_n3k2", GAUSS,
     ["zonal-forward", "--t-max", "2", "--t-count", "5"] + LOW_RADIAL, ""),
    ("zonal_invert_zonal_gaussian_n3k3", GAUSS33, ["zonal-invert"] + LOW,
     "PASS max_weighted_err=1.0135526176360101e-07 tol=0.001"),
    ("support_cap_bump_n3k2", BUMP, ["support", "--trials", "10", "--seed", "5"] + LOW_SPHERE,
     "PASS max_beyond=0 control=1.4473326613403827"),
    ("existence_pole_power_n3k2", GAUSS, ["existence", "--mu", "0.4", "--expect", "converges"] + LOW,
     "verdict=converges"),
    ("dual_zonal_gaussian_n3k2", GAUSS, ["dual", "--grid-size", "2", "--extent", "1.5"] + LOW, ""),
    ("invert_zonal_gaussian_n2k2", GAUSS22, ["invert", "--sphere-order", "8", "--grid-order", "4"] + LOW_RADIAL,
     "PASS sup_abs_err=0.0023437062403123265 scale=0.92810322845670823 tol=0.050000000000000003"),
]


@pytest.mark.parametrize("golden,scene,argv,summary", GOLDEN_RUNS, ids=[run[0] for run in GOLDEN_RUNS])
def test_output_matches_the_golden_csv(tmp_path, capsys, golden, scene, argv, summary):
    # The CSV, the summary printed after a file write and the exit code of
    # each subcommand, as committed under tests/data.
    path = tmp_path / "s.scene"
    path.write_text(scene)
    out = tmp_path / "out.csv"
    assert run([argv[0], str(path)] + argv[1:] + ["--out", str(out)]) == 0
    _assert_matches_golden(out.read_text().splitlines(), (DATA / f"{golden}.csv").read_text().splitlines())
    _assert_matches_golden(capsys.readouterr().out.splitlines(), summary.splitlines(), csv=False)


def test_unwritable_out_exits_2(monkeypatch, capsys, gauss_scene):
    # --out is checked before the computation starts: an invert run would
    # otherwise take tens of seconds before failing to open it.
    def refuse_to_compute(path):
        raise AssertionError("the computation started")

    monkeypatch.setattr(cli, "parse_scene", refuse_to_compute)
    folder = Path(gauss_scene).parent
    for command in (["forward", gauss_scene, "1"], ["invert", gauss_scene]):
        for target in (folder / "no_such_dir" / "out.csv", folder):
            assert run(command + ["--out", str(target)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(target) in err


def test_missing_profile_file_exits_2(tmp_path, capsys):
    scene = tmp_path / "custom.scene"
    scene.write_text(f"family = custom_profile_csv\npath = {tmp_path / 'missing.csv'}\n")
    assert run(["zonal-forward", str(scene), "--t-count", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing.csv" in err


@pytest.mark.parametrize("argv", [
    ["forward", "1", "--sphere-order", "0"],
    ["radon", "1", "--radial-order", "0"],
    ["factor-check", "0"],
    ["zonal-forward", "--t-count", "0"],
    ["invert", "--grid-order", "0"],
    ["support", "--trials", "0"],
    ["dual", "--grid-size", "-1"],
], ids=["sphere-order", "radial-order", "count", "t-count", "grid-order", "trials", "grid-size"])
def test_count_below_one_is_a_usage_error(capsys, gauss_scene, argv):
    assert run([argv[0], gauss_scene] + argv[1:]) == 2
    assert "invalid positive int value" in capsys.readouterr().err


@pytest.mark.parametrize("command,flags,shape", [
    ("zonal-forward", ["--t-count", "7"] + LOW_RADIAL, (7,)),
    ("zonal-invert", LOW, (800,)),
])
def test_zonal_subcommands_call_the_forward_integral_once(monkeypatch, tmp_path, gauss_scene,
                                                          command, flags, shape):
    # zonal-invert hands its whole 800-point grid to one batched call instead
    # of an array attempt followed by 800 scalar calls.
    seen = []
    forward = cli.zonal_forward

    def counting_forward(profile, t, dims, spec):
        seen.append(np.shape(t))
        return forward(profile, t, dims, spec)

    monkeypatch.setattr(cli, "zonal_forward", counting_forward)
    assert run([command, gauss_scene, "--out", str(tmp_path / "out.csv")] + flags) == 0
    assert seen == [shape]


def test_factor_check_integrates_its_planes_in_chunks(monkeypatch, tmp_path, gauss_scene):
    # Each route of an 80-plane factor-check evaluates the field once per
    # chunk of planes, not once per plane: at most ceil(80 m / _BLOCK_POINTS)
    # calls for rules of m nodes, and every node exactly once.
    calls = {"slice": [], "flat": []}
    route = ["slice"]  # the route whose field evaluation is running
    build_field, op_B = cli.build_field, transforms.op_B

    def counting_build_field(scene):
        f = build_field(scene)
        return SphereField(lambda eta: calls[route[0]].append(len(eta)) or f(eta), f.pole_exponent)

    def counting_op_B(f, dims):
        g = op_B(f, dims)

        def flat_route(x):
            route[0] = "flat"
            try:
                return g(x)
            finally:
                route[0] = "slice"

        return PlaneField(flat_route, g.decay_exponent)

    monkeypatch.setattr(cli, "build_field", counting_build_field)
    monkeypatch.setattr(transforms, "op_B", counting_op_B)
    argv = ["factor-check", gauss_scene, "80", "--seed", "4", "--sphere-order", "48", "--radial-order", "64"]
    assert run(argv + ["--out", str(tmp_path / "out.csv")]) == 0
    for points in calls.values():
        m = sum(points) // 80
        assert m > 0 and sum(points) == 80 * m
        assert len(points) <= math.ceil(80 * m / _BLOCK_POINTS)


def _dual_one_flat_at_a_time(g, points, dims, spec):
    # dual_transform as written before it stacked: per point, one flat built
    # as make_flat did and one radon_john per orientation, then the mean
    frames = transforms.orientation_set(dims.k - 1, dims.n, spec.orientation_samples, spec.seed)
    values = []
    for x in points:
        vals = np.empty(len(frames))
        for i, basis in enumerate(frames):
            ortho = geometry._orthonormalize(basis)
            vals[i] = radon_john(g, FlatSpec(ortho, x - (x @ ortho.T) @ ortho), spec)
        values.append(float(np.mean(vals)))
    return values


@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (3, 3), (4, 3)])
def test_dual_rows_equal_the_per_flat_loop(tmp_path, n, k):
    out = tmp_path / "out.csv"
    scene = tmp_path / "s.scene"
    scene.write_text(f"family = zonal_gaussian\nn = {n}\nk = {k}\n")
    assert run(["dual", str(scene), "--grid-size", "2", "--extent", "1.5", "--cutoff", "8", "--seed", "3",
                "--sphere-order", "8", "--radial-order", "8", "--out", str(out)]) == 0
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    dims = Dimensions(n, k)
    spec = QuadratureSpec(sphere_order=8, radial_order=8, radial_cutoff=8.0, seed=3)
    g = op_B(build_field(SceneSpec(family="zonal_gaussian", dims=dims)), dims)
    # %.17g round-trips, so the grid points and values are the computed bits
    assert list(rows[:, -1]) == _dual_one_flat_at_a_time(g, rows[:, :-1], dims, spec)


@pytest.mark.parametrize("argv,stacks", [
    (["support", "--trials", "50", "--sphere-order", "8"], 2),
    (["dual", "--n", "2", "--k", "2", "--grid-size", "2", "--sphere-order", "8", "--radial-order", "8"], 4),
])
def test_flats_are_validated_once_per_stack(monkeypatch, tmp_path, bump_scene, argv, stacks):
    # support draws its 50 far and its 8 control planes as one stack each, and
    # dual builds the 256 flats through each of its 4 grid points as one stack:
    # the flat checks run once per stack, not once per flat
    calls = []
    check = geometry._check_flats
    monkeypatch.setattr(geometry, "_check_flats", lambda basis, offset: calls.append(1) or check(basis, offset))
    assert run([argv[0], bump_scene] + argv[1:] + ["--out", str(tmp_path / "out.csv")]) == 0
    assert len(calls) == stacks


def test_consecutive_runs_share_no_output_target(tmp_path, capsys, gauss_scene):
    out = tmp_path / "out.csv"
    argv = ["zonal-forward", gauss_scene, "--t-count", "3"] + LOW_RADIAL
    assert run(argv + ["--out", str(out)]) == 0
    written = out.read_text()
    capsys.readouterr()
    assert run(argv) == 0
    assert capsys.readouterr().out == written
    assert out.read_text() == written


def test_out_check_neither_truncates_nor_leaves_a_file(tmp_path, capsys):
    missing_scene = str(tmp_path / "missing.scene")
    existing = tmp_path / "existing.csv"
    existing.write_text("kept\n")
    assert run(["forward", missing_scene, "1", "--out", str(existing)]) == 2
    assert existing.read_text() == "kept\n"
    fresh = tmp_path / "fresh.csv"
    assert run(["forward", missing_scene, "1", "--out", str(fresh)]) == 2
    assert not fresh.exists()


PLANE_COUNT = {"forward": ["1"], "radon": ["1"], "factor-check": ["1"]}


@pytest.mark.parametrize("command", ["forward", "radon", "factor-check", "zonal-forward", "zonal-invert",
                                     "invert", "support", "existence", "dual"])
def test_ell_is_not_a_flag(capsys, gauss_scene, command):
    # invert needs n = 2, where the only legal difference order is the default
    assert run([command, gauss_scene] + PLANE_COUNT.get(command, []) + ["--ell", "1"]) == 2
    assert "unrecognized arguments: --ell" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["forward", "radon", "zonal-forward", "support", "existence", "dual"])
def test_tol_is_refused_where_nothing_is_judged(capsys, gauss_scene, command):
    assert run([command, gauss_scene] + PLANE_COUNT.get(command, []) + ["--tol", "1e-3"]) == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


@pytest.mark.parametrize("argv,default", [
    (["factor-check", "s.scene", "1"], 1e-6),
    (["zonal-invert", "s.scene"], 1e-3),
    (["invert", "s.scene"], 0.05),
])
def test_tol_defaults_per_subcommand(argv, default):
    parser = cli._build_parser()
    assert parser.parse_args(argv).tol == default
    assert parser.parse_args(argv + ["--tol", "0.25"]).tol == 0.25


# The setting flags each subcommand's computation reads.  zonal-invert accepts
# --sphere-order without reading it.
SETTING_FLAGS = ("--sphere-order", "--radial-order", "--cutoff", "--eps", "--outer", "--seed")
FLAT_SETTINGS = ("--sphere-order", "--radial-order", "--cutoff", "--seed")
READS = {
    "forward": ("--sphere-order", "--seed"),
    "radon": FLAT_SETTINGS,
    "factor-check": FLAT_SETTINGS,
    "dual": FLAT_SETTINGS,
    "zonal-forward": ("--radial-order", "--cutoff"),
    "zonal-invert": ("--sphere-order", "--radial-order", "--cutoff"),
    "invert": ("--sphere-order", "--radial-order", "--eps", "--outer"),
    "support": ("--sphere-order", "--seed"),
    "existence": ("--sphere-order", "--radial-order"),
}
UNREAD = [(command, flag) for command, read in READS.items() for flag in SETTING_FLAGS if flag not in read]
# Small runs of every subcommand but invert, which takes tens of seconds.
SMALL = {"forward": ["2"], "radon": ["2"], "factor-check": ["1"], "dual": ["--grid-size", "2"],
         "zonal-forward": ["--t-count", "3"], "zonal-invert": [], "support": ["--trials", "2"], "existence": []}
TWO_VALUES = {"--sphere-order": ("8", "12"), "--radial-order": ("8", "12"), "--cutoff": ("2", "3"),
              "--seed": ("1", "2")}


def test_parser_offers_exactly_the_read_settings():
    subcommands = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    offered = {name: tuple(flag for flag in SETTING_FLAGS if flag in parser._option_string_actions)
               for name, parser in subcommands.choices.items()}
    assert offered == READS
    assert sum(map(len, offered.values())) == 27


@pytest.mark.parametrize("command,flag", UNREAD, ids=[f"{c} {f}" for c, f in UNREAD])
def test_unread_setting_is_refused(capsys, gauss_scene, command, flag):
    assert run([command, gauss_scene] + PLANE_COUNT.get(command, []) + [flag, "1"]) == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def _small_run(tmp_path, scene, command, flags):
    out = tmp_path / "out.csv"
    order = [f for flag in ("--sphere-order", "--radial-order") if flag in READS[command] for f in (flag, "8")]
    assert run([command, scene] + SMALL[command] + order + flags + ["--out", str(out)]) in (0, 1)
    return out.read_text()


KEPT = [(command, flag) for command in SMALL for flag in READS[command]]


@pytest.mark.parametrize("command,flag", KEPT, ids=[f"{c} {f}" for c, f in KEPT])
def test_read_setting_changes_the_rows(tmp_path, command, flag):
    # k = 3, as the angular rule of a line (k = 2) has two nodes at any order;
    # existence runs on a field that is not zonal, whose cap integrals depend
    # on the angular order
    scene = tmp_path / "s.scene"
    scene.write_text("family = first_harmonic_weighted\n" if command == "existence" else GAUSS33)
    rows = [[line for line in _small_run(tmp_path, str(scene), command, [flag, value]).splitlines()
             if not line.startswith("#")] for value in TWO_VALUES[flag]]
    assert (rows[0] == rows[1]) is ((command, flag) == ("zonal-invert", "--sphere-order"))


@pytest.mark.parametrize("command", list(READS))
def test_profile_csv_is_read_once_per_run(monkeypatch, tmp_path, command):
    # Without --cutoff the suggested cutoff needs the profile's grid, and the
    # field or the zonal handler needs the profile itself: one read serves both.
    csv_path = tmp_path / "profile.csv"
    grid = np.geomspace(0.1, 10.0, 20)
    save_profile_csv(csv_path, grid, np.exp(-grid))
    scene = tmp_path / "custom.scene"
    scene.write_text(f"family = custom_profile_csv\npath = {csv_path}\nn = 2\nk = 2\n")
    # the reconstruction itself takes tens of seconds and never reads the file
    monkeypatch.setattr(cli, "invert_slice", lambda data, dims, riesz, spec: SphereField(lambda eta: eta[:, 0]))
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(str(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    out = tmp_path / "out.csv"
    assert run([command, str(scene)] + SMALL.get(command, ["--grid-order", "2"]) + ["--out", str(out)]) in (0, 1)
    assert opened.count(str(csv_path)) == 1


def test_plane_file_takes_one_header_line(tmp_path, gauss_scene, capsys):
    # Only the first line left after comments may be a header; a second
    # non-numeric line is an error naming its line.
    planes = tmp_path / "planes.csv"
    planes.write_text("# planes\nalpha,beta,gamma,t\nmore words\n0.5,0.5,0.5,1.0\n")
    assert run(["forward", gauss_scene, str(planes), "--sphere-order", "8"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{planes}:3" in err


@pytest.mark.parametrize("command", ["forward", "radon"])
@pytest.mark.parametrize("row", ["0.3,1e160", "0.3,-1e155", "1.0,1e300"])
def test_plane_file_offset_whose_norm_overflows_exits_2(monkeypatch, tmp_path, capsys, command, row):
    # |offset|^2 overflows, so the plane's distance would be inf and its
    # cross-section NaN: the row is refused, naming its line, before any
    # integral and without a numpy warning
    scene = tmp_path / "gauss22.scene"
    scene.write_text(GAUSS22)
    planes = tmp_path / "planes.csv"
    planes.write_text(f"theta,t\n0.3,1.0\n{row}\n")
    for name in ("_slice_sums", "_flat_sums"):
        monkeypatch.setattr(cli, name, lambda *a, **k: pytest.fail("an integral was computed"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run([command, str(scene), str(planes), "--sphere-order", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {planes}:3: offset norm is not finite\n"


def test_plane_file_offset_just_below_the_overflow_keeps_its_row(tmp_path, capsys):
    # |offset|^2 = 1e300 is finite: the row is accepted, as before, and the
    # plane lies at the pole's distance 1
    scene = tmp_path / "gauss22.scene"
    scene.write_text(GAUSS22)
    planes = tmp_path / "planes.csv"
    planes.write_text("0.3,1e150\n")
    assert run(["forward", str(scene), str(planes), "--sphere-order", "8"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if line and not line.startswith("#")]
    assert rows == ["theta,t,dist,value", "0.29999999999999999,9.9999999999999998e+149,1,0"]


HARMONIC22 = "family = first_harmonic_weighted\nn = 2\nk = 2\n"


def _factor_check_bytes(scene, out):
    assert run(["factor-check", scene, "12", "--seed", "5", "--sphere-order", "48", "--radial-order", "64",
                "--out", str(out)]) == 0
    return out.read_bytes()


def _existence_bytes(scene, out):
    assert run(["existence", scene, "--sphere-order", "48", "--radial-order", "64", "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("text", [GAUSS, GAUSS33, HARMONIC22], ids=["zonal-3-2", "zonal-3-3", "harmonic-2-2"])
def test_factor_check_bytes_do_not_depend_on_the_block_size(monkeypatch, tmp_path, text):
    # The block size sets how many planes one field call stacks and how a
    # rule larger than it is split: at 640 nodes every line rule here is
    # split, at 65,536 all 12 planes of a line or section rule are one stack.
    # existence's cap integrals call the field on blocks of whole rings of
    # directions (2,304 nodes a ring for n = 3, 48 for n = 2), so the four
    # sizes split them differently.
    scene = tmp_path / "scene.txt"
    scene.write_text(text)
    outputs = set()
    for block in (640, 4096, 16384, 65536):
        monkeypatch.setattr(transforms, "_BLOCK_POINTS", block)
        outputs.add((_factor_check_bytes(str(scene), tmp_path / f"block{block}.csv"),
                     _existence_bytes(str(scene), tmp_path / f"existence{block}.csv")))
    assert len(outputs) == 1


def test_factor_check_bytes_do_not_depend_on_the_blas_threads(tmp_path):
    # (3, 3) builds its 2-flat rules with a stacked matrix product
    scene = tmp_path / "scene.txt"
    scene.write_text(GAUSS33)
    outputs = set()
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "sphslice.cli", "factor-check", str(scene), "20", "--seed", "5",
             "--sphere-order", "48", "--radial-order", "64", "--out", str(out)],
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.add(out.read_bytes())
    assert len(outputs) == 1
