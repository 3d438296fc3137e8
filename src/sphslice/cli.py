"""Command-line driver: scenes in, reproducible CSV out.

Every subcommand reads a scene file (key = value lines, see scenes.py),
computes with fixed seeds, and writes comma-separated output with a
#-prefixed provenance header, so identical configurations give byte-identical
files within one environment (the same Python, numpy and scipy); across
environments the last printed digits may differ.  A subcommand accepts, and
its header prints, only the settings its computation reads; zonal-invert
also takes --sphere-order, which it does not read.  Exit codes:

    0  success
    1  tolerance or expectation failure
    2  usage: a count below 1, a setting out of range (--eps, --outer,
       --cutoff, support's --b, zonal-forward's --t-max, existence's --mu,
       dual's --extent),
       a malformed scene, plane file or profile CSV, a file that cannot be
       read or written, or an unsupported case (invert needs n = 2)
    3  numerical error: a non-finite integrand or a divergent integral

Random planes are drawn with offset magnitude t = tan(uniform(0, pi/2 - 0.01))
and orientation from the QR factorization of a seeded Gaussian matrix, so all
offsets are finite but reach far out into the tail.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys

import numpy as np

from .analysis import CONTROL_DIST, CapSpec, existence_check, power_growth_field, support_experiment
# random_flat, factorization_check and section_to_plane are unused here but stay
# importable as cli.<name>: the traced benchmark (bench/tracer.py) replaces them.
from .geometry import Dimensions, FlatSpec, _complete_orthonormal, _distances, _draw_flats, _freeze, random_flat
from .inversion import RieszParams, invert_slice
from .quadrature import QuadratureSpec, sphere_rule
from .scenes import SceneError, SceneSpec, build_field, parse_scene, scene_profile, suggested_cutoff
from .transforms import (_dual_transforms, _factorization_checks, _flat_sums, _slice_sums, factorization_check, op_B,
                         section_to_plane)
from .zonal import _read_table, zonal_forward, zonal_invert

__all__ = ["main"]


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.out is not None:
            _check_writable(args.out)
        return args.handler(args)
    except (SceneError, NotImplementedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"invalid positive int value: {text!r}")
    return value


def _check_writable(path: str):
    """Raise OSError if path cannot be opened for writing, before any computation.

    An existing file is opened for appending, so it is not truncated, and a
    file the check creates is removed again.
    """
    existed = os.path.lexists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(path)


# Built once per process: parse_args leaves the parser unchanged and returns
# a fresh namespace on every call.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, default=None, help="sphere dimension (overrides scene)")
    common.add_argument("--k", type=int, default=None, help="slice-plane dimension (overrides scene)")
    common.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    settings = {
        "sphere_order": dict(type=_positive_int, default=64, help="order of sphere rules"),
        "radial_order": dict(type=_positive_int, default=128, help="nodes per radial panel"),
        "cutoff": dict(type=float, default=None, help="radial cutoff of plane integrals (default: per scene family)"),
        "eps": dict(type=float, default=0.05, help="inner cutoff of the hypersingular integral"),
        "outer": dict(type=float, default=30.0, help="outer truncation of the hypersingular integral"),
        "seed": dict(type=int, default=0, help="random seed; fixed seed gives identical output"),
    }

    parser = argparse.ArgumentParser(
        prog="sphslice",
        description="Integrals of sphere fields over plane cross-sections, and their inversion.",
        epilog=(
            "Random planes: orientations come from the QR factorization of a seeded "
            "Gaussian matrix; offset magnitudes are drawn as t = tan(uniform(0, pi/2 - 0.01)), "
            "covering the whole range of section distances. Fixed --seed gives byte-identical "
            "output within one environment."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, reads, about):
        # `reads` names the settings the computation reads: a flag each, but
        # orientation_samples, which keeps QuadratureSpec's default.
        p = sub.add_parser(name, parents=[common], help=about)
        p.add_argument("scene", help="scene file")
        for setting in reads.split():
            if setting in settings:
                p.add_argument("--" + setting.replace("_", "-"), **settings[setting])
        p.set_defaults(handler=handler, reads=reads.split())
        return p

    planes = "random plane count, or path to a plane parameter file"
    add("forward", _cmd_forward, "sphere_order seed",
        "slice transform of a scene over random or listed planes").add_argument("planes", help=planes)
    add("radon", _cmd_radon, "sphere_order radial_order cutoff seed",
        "flat integrals of the scene's conjugated plane field").add_argument("planes", help=planes)

    p = add("factor-check", _cmd_factor_check, "sphere_order radial_order cutoff seed",
            "slice transform vs the conjugated flat route, plane by plane")
    p.add_argument("count", type=_positive_int, help="number of random planes")
    p.add_argument("--tol", type=float, default=1e-6, help="largest relative difference that passes")

    p = add("zonal-forward", _cmd_zonal_forward, "radial_order cutoff",
            "profile of the transform of a zonal scene over plane offsets")
    p.add_argument("--t-max", type=float, default=3.0, help="largest offset magnitude")
    p.add_argument("--t-count", type=_positive_int, default=31, help="number of offsets")

    # zonal-invert does not read --sphere-order; it accepts and prints it
    # because existing command lines pass it.
    p = add("zonal-invert", _cmd_zonal_invert, "sphere_order radial_order cutoff",
            "round-trip a zonal scene through the offset-profile inversion")
    p.add_argument("--tol", type=float, default=1e-3, help="largest weighted profile error that passes")

    p = add("invert", _cmd_invert, "sphere_order radial_order orientation_samples eps outer",
            "full reconstruction of a scene from its slice data (n = 2 only)")
    p.add_argument("--grid-order", type=_positive_int, default=8, help="order of the evaluation grid on the sphere")
    p.add_argument("--cap-limit", type=float, default=0.9,
                   help="exclude evaluation points with last coordinate above this")
    p.add_argument("--tol", type=float, default=0.05,
                   help="largest error, relative to the reference's peak, that passes")

    p = add("support", _cmd_support, "sphere_order seed", "vanishing of the transform beyond the cap threshold")
    p.add_argument("--b", type=float, default=0.0, help="cap height")
    p.add_argument("--trials", type=_positive_int, default=50, help="number of sampled planes")

    p = add("existence", _cmd_existence, "sphere_order radial_order",
            "refinement study of the existence integral near the pole")
    p.add_argument("--mu", type=float, default=None,
                   help="use the pole-growth field (1 - eta_last)^(-mu) instead of the scene")
    p.add_argument("--expect", choices=["converges", "diverges"], default=None,
                   help="exit 0 only if the verdict matches")

    p = add("dual", _cmd_dual, "sphere_order radial_order cutoff orientation_samples seed",
            "backprojection of the scene's flat data on a plane grid")
    p.add_argument("--grid-size", type=_positive_int, default=5, help="points per axis")
    p.add_argument("--extent", type=float, default=2.0, help="grid half-width")

    return parser


@contextlib.contextmanager
def _usage_errors():
    """Report a ValueError, of a setting out of range or a malformed plane file, as a usage error (exit 2)."""
    try:
        yield
    except ValueError as exc:
        raise SceneError(str(exc)) from exc


def _load(args):
    """Scene (with --n and --k applied) and quadrature spec; unread settings keep QuadratureSpec's defaults."""
    scene = parse_scene(args.scene)
    n = args.n if args.n is not None else scene.dims.n
    k = args.k if args.k is not None else scene.dims.k
    with _usage_errors():
        dims = Dimensions(n, k)
        scene = SceneSpec(family=scene.family, parameters=dict(scene.parameters), dims=dims)
        fields = {name: getattr(args, name) for name in ("sphere_order", "radial_order", "seed") if name in args.reads}
        if "cutoff" in args.reads:
            fields["radial_cutoff"] = args.cutoff if args.cutoff is not None else suggested_cutoff(scene)
        spec = QuadratureSpec(**fields)
    return scene, spec


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _emit(args, scene, spec, columns, rows, *, riesz=None, header=None, footer=None,
          passed=None, criterion=None, summary=None) -> int:
    """Write one run's CSV to stdout or --out and return its exit code.

    The CSV is the provenance header (the settings args.reads names, and
    `riesz` if given) followed by `header`'s `name: value` lines, the columns
    and rows, then `footer`'s lines and, given a `criterion`, a PASS/FAIL line
    naming it.  After a file write `summary` is printed as `name=value` words,
    led by the verdict if there is one.  The run exits 1 if `passed` is False
    and 0 otherwise (None: no verdict).
    """
    params = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(scene.parameters.items()) if v is not None)
    verdict = "PASS" if passed else "FAIL"
    quadrature = {"sphere_order": spec.sphere_order, "radial_order": spec.radial_order,
                  "cutoff": spec.radial_cutoff, "orientation_samples": spec.orientation_samples}
    head = [
        f"command: {args.command}",
        f"scene: family={scene.family} {params} n={scene.dims.n} k={scene.dims.k}".rstrip(),
        "quadrature: " + " ".join(f"{name}={_fmt(v)}" for name, v in quadrature.items() if name in args.reads),
    ]
    if riesz is not None:
        head.append(f"riesz: k_order={riesz.k_order} ell={riesz.ell} eps={_fmt(riesz.eps)} "
                    f"outer={_fmt(riesz.outer_R)}")
    if "seed" in args.reads:
        head.append(f"seed: {spec.seed}")
    head += [f"{name}: {_fmt(v)}" for name, v in (header or {}).items()]
    tail = [f"{name}: {_fmt(v)}" for name, v in (footer or {}).items()]
    if criterion is not None:
        tail.append(f"{verdict} ({criterion})")
    if args.out is None:
        target = contextlib.nullcontext(sys.stdout)
    else:
        target = open(args.out, "w", encoding="utf-8", newline="")
    with target as stream:
        stream.writelines(f"# {line}\n" for line in head)
        stream.write(",".join(columns) + "\n")
        stream.writelines(",".join(_fmt(v) for v in row) + "\n" for row in rows)
        stream.writelines(f"# {line}\n" for line in tail)
    if args.out is not None and summary is not None:
        words = " ".join(f"{name}={_fmt(v)}" for name, v in summary.items())
        print(words if criterion is None else f"{verdict} {words}")
    return 1 if passed is False else 0


# ---------------------------------------------------------------------------
# Plane parameterization for CSV rows.  The supported dimension pairs carry
# compact angle schemas; other pairs fall back to flattened basis and offset.

def _plane_columns(dims: Dimensions) -> list[str]:
    if (dims.n, dims.k) == (2, 2):
        return ["theta", "t"]
    if (dims.n, dims.k) == (3, 2):
        return ["alpha", "beta", "gamma", "t"]
    if (dims.n, dims.k) == (3, 3):
        return ["alpha", "beta", "t"]
    cols = [f"b{i + 1}_{j + 1}" for i in range(dims.k - 1) for j in range(dims.n)]
    return cols + [f"v{j + 1}" for j in range(dims.n)]


def _canonical_direction(d: np.ndarray) -> np.ndarray:
    for component in reversed(d):
        if component < 0.0:
            return -d
        if component > 0.0:
            return d
    return d


def _plane_to_row(basis: np.ndarray, offset: np.ndarray, dims: Dimensions) -> list[float]:
    if (dims.n, dims.k) == (2, 2):
        d = _canonical_direction(basis[0])
        theta = math.atan2(d[1], d[0]) % math.pi
        normal = np.array([-math.sin(theta), math.cos(theta)])
        return [theta, float(offset @ normal)]
    if (dims.n, dims.k) == (3, 2):
        d = _canonical_direction(basis[0])
        alpha = math.acos(max(-1.0, min(1.0, d[2])))
        beta = math.atan2(d[1], d[0])
        p, q = _complete_orthonormal(d[None, :], 3)[1:]
        t = float(_distances(offset))
        gamma = math.atan2(offset @ q, offset @ p) if t > 0 else 0.0
        return [alpha, beta, gamma, t]
    if (dims.n, dims.k) == (3, 3):
        normal = np.cross(basis[0], basis[1])
        normal = _canonical_direction(normal / np.linalg.norm(normal))
        alpha = math.acos(max(-1.0, min(1.0, normal[2])))
        beta = math.atan2(normal[1], normal[0])
        return [alpha, beta, float(offset @ normal)]
    return list(basis.ravel()) + list(offset)


def _row_to_plane(row: list[float], dims: Dimensions) -> FlatSpec:
    if (dims.n, dims.k) == (2, 2):
        theta, t = row
        basis = np.array([[math.cos(theta), math.sin(theta)]])
        offset = t * np.array([-math.sin(theta), math.cos(theta)])
        return FlatSpec(basis=basis, offset=offset)
    if (dims.n, dims.k) == (3, 2):
        alpha, beta, gamma, t = row
        d = np.array(
            [math.sin(alpha) * math.cos(beta), math.sin(alpha) * math.sin(beta), math.cos(alpha)]
        )
        p, q = _complete_orthonormal(d[None, :], 3)[1:]
        return FlatSpec(basis=d[None, :], offset=t * (math.cos(gamma) * p + math.sin(gamma) * q))
    if (dims.n, dims.k) == (3, 3):
        alpha, beta, t = row
        normal = np.array(
            [math.sin(alpha) * math.cos(beta), math.sin(alpha) * math.sin(beta), math.cos(alpha)]
        )
        basis = _complete_orthonormal(normal[None, :], 3)[1:]
        return FlatSpec(basis=basis, offset=t * normal)
    width = dims.n * (dims.k - 1)
    basis = np.asarray(row[:width], dtype=float).reshape(dims.k - 1, dims.n)
    return FlatSpec(basis=basis, offset=np.asarray(row[width:], dtype=float))


def _random_planes(dims: Dimensions, count: int, seed: int):
    """count random_flat draws as (bases, offsets) arrays, each plane's offset t first and then its Gaussian matrix."""
    if count < 1:
        raise SceneError("plane count must be a positive integer")
    return _draw_flats(np.random.default_rng(seed), dims.n, dims.k - 1, count,
                       lambda rng: math.tan(rng.uniform(0.0, math.pi / 2.0 - 0.01)))


def _read_planes(path: str, dims: Dimensions):
    """The planes of a plane file as (bases, offsets) arrays, each row validated as a FlatSpec."""
    width = len(_plane_columns(dims))
    planes = []
    with _usage_errors():
        rows = _read_table(path)
    for lineno, values in rows:
        if len(values) < width:
            raise SceneError(f"{path}:{lineno}: expected at least {width} columns, got {len(values)}")
        try:
            planes.append(_row_to_plane(values[:width], dims))
        except ValueError as exc:
            raise SceneError(f"{path}:{lineno}: {exc}") from exc
    if not planes:
        raise SceneError(f"{path}: no planes found")
    return _freeze([zeta.basis for zeta in planes]), _freeze([zeta.offset for zeta in planes])


# ---------------------------------------------------------------------------
# Subcommands.

def _cmd_forward(args) -> int:
    scene, spec = _load(args)
    field = build_field(scene)
    return _per_plane(args, scene, spec, functools.partial(_slice_sums, field, spec=spec))


def _cmd_radon(args) -> int:
    scene, spec = _load(args)
    g = op_B(build_field(scene), scene.dims)
    return _per_plane(args, scene, spec, functools.partial(_flat_sums, g, spec=spec))


def _per_plane(args, scene, spec, values) -> int:
    """One row per random or listed plane: its parameters, dist and its entry of values(bases, offsets)."""
    try:
        count = int(args.planes)
    except ValueError:
        bases, offsets = _read_planes(args.planes, scene.dims)
    else:
        bases, offsets = _random_planes(scene.dims, count, args.seed)
    t = _distances(offsets)
    rows = [_plane_to_row(basis, offset, scene.dims) + [dist, value]
            for basis, offset, dist, value in zip(bases, offsets, t / np.hypot(1.0, t), values(bases, offsets))]
    columns = _plane_columns(scene.dims) + ["dist", "value"]
    return _emit(args, scene, spec, columns, rows, header={"planes": args.planes})


def _cmd_factor_check(args) -> int:
    scene, spec = _load(args)
    field = build_field(scene)
    bases, offsets = _random_planes(scene.dims, args.count, args.seed)
    reports = _factorization_checks(field, bases, offsets, spec)
    rows = [_plane_to_row(b, v, scene.dims) + [r.lhs, r.rhs, r.abs_diff] for b, v, r in zip(bases, offsets, reports)]
    worst = max(0.0, *(r.rel_diff for r in reports))
    columns = _plane_columns(scene.dims) + ["lhs", "rhs", "abs_diff"]
    return _emit(args, scene, spec, columns, rows, header={"tol": args.tol, "count": args.count},
                 footer={"max_rel_diff": worst}, passed=worst <= args.tol, criterion=f"tol {_fmt(args.tol)}",
                 summary={"max_rel_diff": worst, "tol": args.tol})


def _cmd_zonal_forward(args) -> int:
    scene, spec = _load(args)
    profile = scene_profile(scene)
    if not 0.0 <= args.t_max < math.inf:
        raise SceneError("offset grid needs a finite t-max >= 0")
    offsets = np.linspace(0.0, args.t_max, args.t_count)
    values = zonal_forward(profile, offsets, scene.dims, spec)
    rows = [[float(t), t / math.hypot(1.0, t), value] for t, value in zip(offsets, values)]
    return _emit(args, scene, spec, ["t", "dist", "value"], rows,
                 header={"t_max": args.t_max, "t_count": args.t_count})


def _cmd_zonal_invert(args) -> int:
    scene, spec = _load(args)
    profile = scene_profile(scene)
    recovered = zonal_invert(lambda t: zonal_forward(profile, t, scene.dims, spec), scene.dims)
    s_grid = np.geomspace(0.1, 10.0, 65)
    truth = np.asarray(profile(s_grid), dtype=float)
    rec = np.asarray(recovered(s_grid), dtype=float)
    weighted = np.abs(rec - truth) / (1.0 + np.abs(truth))
    worst = float(np.max(weighted))
    rows = zip(s_grid, truth, rec, weighted)
    return _emit(args, scene, spec, ["s", "reference", "recovered", "weighted_err"], rows,
                 header={"tol": args.tol}, footer={"max_weighted_err": worst}, passed=worst <= args.tol,
                 criterion=f"tol {_fmt(args.tol)}", summary={"max_weighted_err": worst, "tol": args.tol})


def _cmd_invert(args) -> int:
    scene, spec = _load(args)
    with _usage_errors():
        riesz = RieszParams(k_order=scene.dims.k - 1, eps=args.eps, outer_R=args.outer)
    field = build_field(scene)
    reconstruction = invert_slice(field, scene.dims, riesz, spec)
    pts, _ = sphere_rule(scene.dims.n, args.grid_order)
    pts = pts[pts[:, -1] <= args.cap_limit]
    if not len(pts):
        raise SceneError("cap-limit excludes every evaluation point")
    reference = np.asarray(field(pts), dtype=float)
    values = np.asarray(reconstruction(pts), dtype=float)
    errors = np.abs(values - reference)
    scale = float(np.max(np.abs(reference)))
    worst = float(np.max(errors))
    rows = [list(p) + [v, r, e] for p, v, r, e in zip(pts, values, reference, errors)]
    columns = [f"eta{j + 1}" for j in range(scene.dims.n + 1)] + ["value", "reference", "abs_error"]
    return _emit(args, scene, spec, columns, rows, riesz=riesz,
                 header={"tol": args.tol, "grid_order": args.grid_order, "cap_limit": args.cap_limit},
                 footer={"sup_abs_err": worst, "reference_scale": scale},
                 passed=worst <= args.tol * max(scale, 1e-300), criterion=f"tol {_fmt(args.tol)} relative",
                 summary={"sup_abs_err": worst, "scale": scale, "tol": args.tol})


def _cmd_support(args) -> int:
    scene, spec = _load(args)
    with _usage_errors():
        cap = CapSpec(args.b)
    report = support_experiment(build_field(scene), cap, scene.dims, spec, args.trials)
    rows = [
        ["beyond_threshold", f"b_star={_fmt(report.threshold)}",
         "pass" if report.vanishing_ok else "fail", report.max_beyond],
        ["control_nonzero", f"dist={_fmt(CONTROL_DIST)}", "pass" if report.control_ok else "fail",
         report.max_control],
    ]
    return _emit(args, scene, spec, ["check", "parameter", "verdict", "max_violation"], rows,
                 header={"b": args.b, "trials": args.trials}, footer={"scale": report.scale},
                 passed=report.vanishing_ok and report.control_ok,
                 criterion=f"noise floor {_fmt(report.noise_floor)}",
                 summary={"max_beyond": report.max_beyond, "control": report.max_control})


def _cmd_existence(args) -> int:
    scene, spec = _load(args)
    if args.mu is not None:
        if not math.isfinite(args.mu):
            raise SceneError("existence needs a finite mu")
        field = power_growth_field(args.mu)
        subject = f"pole_power mu={_fmt(args.mu)}"
    else:
        field = build_field(scene)
        subject = f"scene {scene.family}"
    report = existence_check(field, scene.dims, spec=spec)
    return _emit(args, scene, spec, ["level", "value"], report.trace,
                 footer={"subject": subject, "verdict": report.verdict},
                 passed=None if args.expect is None else report.verdict == args.expect,
                 summary={"verdict": report.verdict})


def _cmd_dual(args) -> int:
    scene, spec = _load(args)
    if not 0.0 < args.extent < math.inf:
        raise SceneError("dual grid needs a finite extent > 0")
    dims = scene.dims
    g = op_B(build_field(scene), dims)
    axis = np.linspace(-args.extent, args.extent, args.grid_size)
    grids = np.meshgrid(*([axis] * dims.n), indexing="ij")
    points = np.stack([g_.ravel() for g_ in grids], axis=-1)
    # the flats through a point carry offsets as long as the point's norm
    with np.errstate(over="ignore"):
        if not np.all(np.isfinite(_distances(points))):
            raise SceneError("dual grid needs an extent whose grid points have a finite norm")
    values = _dual_transforms(functools.partial(_flat_sums, g, spec=spec), points, dims.k - 1, dims, spec)
    rows = [list(x) + [value] for x, value in zip(points, values)]
    return _emit(args, scene, spec, [f"x{j + 1}" for j in range(dims.n)] + ["value"], rows,
                 header={"grid_size": args.grid_size, "extent": args.extent})


if __name__ == "__main__":
    sys.exit(main())
