import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sphslice import save_profile_csv
from sphslice import cli
from sphslice.cli import main


GAUSS = "family = zonal_gaussian\namplitude = 1.0\nwidth = 1.0\nn = 3\nk = 2\n"
BUMP = "family = cap_bump\nb = 0.0\nsharpness = 0.1\nn = 3\nk = 2\n"
GAUSS33 = "family = zonal_gaussian\nn = 3\nk = 3\n"
LOW = ["--sphere-order", "16", "--radial-order", "16"]


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
# O(1), see the `scale:` footer).
_FLOORS = {"max_rel_diff": 1.0, "max_weighted_err": 1.0, "weighted_err": 1.0, "recovered": 1.0,
           "max_violation": 1.0, "max_beyond": 1.0}


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
        for name, g, w in zip(names, got_row, want_row):
            if isinstance(w, str):
                assert g == w
            else:
                assert abs(g - w) <= 1e-12 * max(abs(w), floors.get(name, 0.0)), (name, g, w)


GOLDEN_RUNS = [
    ("factor_check_zonal_gaussian_n3k3", GAUSS33,
     ["factor-check", "5", "--seed", "9", "--sphere-order", "48", "--radial-order", "64"],
     "PASS max_rel_diff=2.2499503817550981e-15 tol=9.9999999999999995e-07"),
    ("forward_zonal_gaussian_n3k2", GAUSS, ["forward", "4", "--seed", "9"] + LOW, ""),
    ("radon_zonal_gaussian_n3k2", GAUSS, ["radon", "3", "--seed", "9"] + LOW, ""),
    ("zonal_forward_zonal_gaussian_n3k2", GAUSS,
     ["zonal-forward", "--t-max", "2", "--t-count", "5"] + LOW, ""),
    ("zonal_invert_zonal_gaussian_n3k3", GAUSS33, ["zonal-invert"] + LOW,
     "PASS max_weighted_err=1.0135526176360101e-07 tol=0.001"),
    ("support_cap_bump_n3k2", BUMP, ["support", "--trials", "10", "--seed", "5"] + LOW,
     "PASS max_beyond=0 control=1.4473326613403827"),
    ("existence_pole_power_n3k2", GAUSS, ["existence", "--mu", "0.4", "--expect", "converges"] + LOW,
     "verdict=converges"),
    ("dual_zonal_gaussian_n3k2", GAUSS, ["dual", "--grid-size", "2", "--extent", "1.5"] + LOW, ""),
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
    ["forward", "1", "--radial-order", "0"],
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
    ("zonal-forward", ["--t-count", "7"], (7,)),
    ("zonal-invert", [], (800,)),
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
    assert run([command, gauss_scene, "--out", str(tmp_path / "out.csv")] + flags + LOW) == 0
    assert seen == [shape]


def test_consecutive_runs_share_no_output_target(tmp_path, capsys, gauss_scene):
    out = tmp_path / "out.csv"
    argv = ["zonal-forward", gauss_scene, "--t-count", "3"] + LOW
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
