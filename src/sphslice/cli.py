"""Command-line driver: scenes in, reproducible CSV out.

Every subcommand reads a scene file (key = value lines, see scenes.py),
computes with fixed seeds, and writes comma-separated output with a
#-prefixed provenance header, so identical configurations give byte-identical
files within one environment (the same Python, numpy and scipy); across
environments the last printed digits may differ.  Exit codes: 0 success,
1 tolerance failure, 2 usage, malformed input or an unsupported case (invert
needs n = 2), 3 numerical error.

Random planes are drawn with offset magnitude t = tan(uniform(0, pi/2 - 0.01))
and orientation from the QR factorization of a seeded Gaussian matrix, so all
offsets are finite but reach far out into the tail.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from .analysis import CONTROL_DIST, CapSpec, existence_check, power_growth_field, support_experiment
from .geometry import Dimensions, FlatSpec, _complete_orthonormal, random_flat
from .inversion import RieszParams, invert_slice
from .quadrature import QuadratureSpec, sphere_rule
from .scenes import SceneError, SceneSpec, build_field, parse_scene, scene_profile, suggested_cutoff
from .transforms import dual_transform, factorization_check, op_B, radon_john, section_to_plane, slice_transform
from .zonal import zonal_forward, zonal_invert

__all__ = ["RunConfig", "main"]


@dataclass(frozen=True)
class RunConfig:
    """Resolved execution settings of one CLI run."""

    quadrature: QuadratureSpec
    riesz: RieszParams
    output_path: str | None


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (SceneError, NotImplementedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, default=None, help="sphere dimension (overrides scene)")
    common.add_argument("--k", type=int, default=None, help="slice-plane dimension (overrides scene)")
    common.add_argument("--sphere-order", type=int, default=64, help="order of sphere rules")
    common.add_argument("--radial-order", type=int, default=128, help="nodes per radial panel")
    common.add_argument("--cutoff", type=float, default=None,
                        help="radial cutoff of plane integrals (default: per scene family)")
    common.add_argument("--eps", type=float, default=0.05, help="inner cutoff of the hypersingular integral")
    common.add_argument("--outer", type=float, default=30.0, help="outer truncation of the hypersingular integral")
    common.add_argument("--ell", type=int, default=None, help="finite-difference order (default per parity rule)")
    common.add_argument("--seed", type=int, default=0, help="random seed; fixed seed gives identical output")
    common.add_argument("--out", default=None, help="output CSV path (default: stdout)")
    common.add_argument("--tol", type=float, default=None, help="pass/fail tolerance where applicable")

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

    p = sub.add_parser("forward", parents=[common],
                       help="slice transform of a scene over random or listed planes")
    p.add_argument("scene", help="scene file")
    p.add_argument("planes", help="random plane count, or path to a plane parameter file")
    p.set_defaults(handler=_cmd_forward)

    p = sub.add_parser("radon", parents=[common],
                       help="flat integrals of the scene's conjugated plane field")
    p.add_argument("scene", help="scene file")
    p.add_argument("planes", help="random plane count, or path to a plane parameter file")
    p.set_defaults(handler=_cmd_radon)

    p = sub.add_parser("factor-check", parents=[common],
                       help="slice transform vs the conjugated flat route, plane by plane")
    p.add_argument("scene", help="scene file")
    p.add_argument("count", type=int, help="number of random planes")
    p.set_defaults(handler=_cmd_factor_check)

    p = sub.add_parser("zonal-forward", parents=[common],
                       help="profile of the transform of a zonal scene over plane offsets")
    p.add_argument("scene", help="scene file")
    p.add_argument("--t-max", type=float, default=3.0, help="largest offset magnitude")
    p.add_argument("--t-count", type=int, default=31, help="number of offsets")
    p.set_defaults(handler=_cmd_zonal_forward)

    p = sub.add_parser("zonal-invert", parents=[common],
                       help="round-trip a zonal scene through the offset-profile inversion")
    p.add_argument("scene", help="scene file")
    p.set_defaults(handler=_cmd_zonal_invert)

    p = sub.add_parser("invert", parents=[common],
                       help="full reconstruction of a scene from its slice data (n = 2 only)")
    p.add_argument("scene", help="scene file")
    p.add_argument("--grid-order", type=int, default=8, help="order of the evaluation grid on the sphere")
    p.add_argument("--cap-limit", type=float, default=0.9,
                   help="exclude evaluation points with last coordinate above this")
    p.set_defaults(handler=_cmd_invert)

    p = sub.add_parser("support", parents=[common],
                       help="vanishing of the transform beyond the cap threshold")
    p.add_argument("scene", help="scene file")
    p.add_argument("--b", type=float, default=0.0, help="cap height")
    p.add_argument("--trials", type=int, default=50, help="number of sampled planes")
    p.set_defaults(handler=_cmd_support)

    p = sub.add_parser("existence", parents=[common],
                       help="refinement study of the existence integral near the pole")
    p.add_argument("scene", help="scene file")
    p.add_argument("--mu", type=float, default=None,
                   help="use the pole-growth field (1 - eta_last)^(-mu) instead of the scene")
    p.add_argument("--expect", choices=["converges", "diverges"], default=None,
                   help="exit 0 only if the verdict matches")
    p.set_defaults(handler=_cmd_existence)

    p = sub.add_parser("dual", parents=[common],
                       help="backprojection of the scene's flat data on a plane grid")
    p.add_argument("scene", help="scene file")
    p.add_argument("--grid-size", type=int, default=5, help="points per axis")
    p.add_argument("--extent", type=float, default=2.0, help="grid half-width")
    p.set_defaults(handler=_cmd_dual)

    return parser


def _load(args, *, zonal=False):
    """Scene, dims, quadrature spec and riesz params resolved from flags."""
    scene = parse_scene(args.scene)
    n = args.n if args.n is not None else scene.dims.n
    k = args.k if args.k is not None else scene.dims.k
    try:
        dims = Dimensions(n, k)
    except ValueError as exc:
        raise SceneError(str(exc)) from exc
    scene = SceneSpec(family=scene.family, parameters=dict(scene.parameters), dims=dims)
    if zonal:
        scene_profile(scene)  # raises SceneError for non-zonal families
    cutoff = args.cutoff if args.cutoff is not None else suggested_cutoff(scene)
    spec = QuadratureSpec(
        sphere_order=args.sphere_order,
        radial_order=args.radial_order,
        radial_cutoff=cutoff,
        orientation_samples=256,
        seed=args.seed,
    )
    riesz = RieszParams(k_order=dims.k - 1, ell=args.ell, eps=args.eps, outer_R=args.outer)
    config = RunConfig(quadrature=spec, riesz=riesz, output_path=args.out)
    return scene, dims, spec, config


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _provenance(command: str, scene: SceneSpec, config: RunConfig, tol=None, extra=None) -> list[str]:
    params = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(scene.parameters.items()) if v is not None)
    spec, r = config.quadrature, config.riesz
    lines = [
        f"command: {command}",
        f"scene: family={scene.family} {params} n={scene.dims.n} k={scene.dims.k}".rstrip(),
        "quadrature: "
        f"sphere_order={spec.sphere_order} radial_order={spec.radial_order} "
        f"cutoff={_fmt(spec.radial_cutoff)} orientation_samples={spec.orientation_samples}",
        f"riesz: k_order={r.k_order} ell={r.resolved_ell} eps={_fmt(r.eps)} outer={_fmt(r.outer_R)}",
        f"seed: {spec.seed}",
    ]
    if tol is not None:
        lines.append(f"tol: {_fmt(tol)}")
    if extra:
        lines.extend(extra)
    return lines


def _write_csv(config: RunConfig, header: list[str], columns: list[str], rows, footer=None) -> None:
    def emit(stream):
        for line in header:
            stream.write(f"# {line}\n")
        stream.write(",".join(columns) + "\n")
        for row in rows:
            stream.write(",".join(_fmt(v) for v in row) + "\n")
        for line in footer or []:
            stream.write(f"# {line}\n")

    if config.output_path is None:
        emit(sys.stdout)
    else:
        with open(config.output_path, "w", encoding="utf-8", newline="") as handle:
            emit(handle)


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


def _plane_to_row(zeta: FlatSpec, dims: Dimensions) -> list[float]:
    if (dims.n, dims.k) == (2, 2):
        d = _canonical_direction(zeta.basis[0])
        theta = math.atan2(d[1], d[0]) % math.pi
        normal = np.array([-math.sin(theta), math.cos(theta)])
        return [theta, float(zeta.offset @ normal)]
    if (dims.n, dims.k) == (3, 2):
        d = _canonical_direction(zeta.basis[0])
        alpha = math.acos(max(-1.0, min(1.0, d[2])))
        beta = math.atan2(d[1], d[0])
        p, q = _complete_orthonormal(d[None, :], 3)[1:]
        t = float(np.linalg.norm(zeta.offset))
        gamma = math.atan2(zeta.offset @ q, zeta.offset @ p) if t > 0 else 0.0
        return [alpha, beta, gamma, t]
    if (dims.n, dims.k) == (3, 3):
        normal = np.cross(zeta.basis[0], zeta.basis[1])
        normal = _canonical_direction(normal / np.linalg.norm(normal))
        alpha = math.acos(max(-1.0, min(1.0, normal[2])))
        beta = math.atan2(normal[1], normal[0])
        return [alpha, beta, float(zeta.offset @ normal)]
    return list(zeta.basis.ravel()) + list(zeta.offset)


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


def _random_planes(dims: Dimensions, count: int, seed: int) -> list[FlatSpec]:
    if count < 1:
        raise SceneError("plane count must be a positive integer")
    rng = np.random.default_rng(seed)
    planes = []
    for _ in range(count):
        t = math.tan(rng.uniform(0.0, math.pi / 2.0 - 0.01))
        planes.append(random_flat(rng, dims.n, dims.k - 1, t))
    return planes


def _resolve_planes(args, dims: Dimensions) -> list[FlatSpec]:
    text = args.planes
    try:
        count = int(text)
    except ValueError:
        return _read_planes(text, dims)
    return _random_planes(dims, count, args.seed)


def _read_planes(path: str, dims: Dimensions) -> list[FlatSpec]:
    width = len(_plane_columns(dims))
    planes = []
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise SceneError(f"cannot read plane file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        tokens = [tok for tok in text.replace(",", " ").split() if tok]
        try:
            values = [float(tok) for tok in tokens]
        except ValueError:
            if not planes:
                continue  # header line
            raise SceneError(f"{path}:{lineno}: expected numeric plane parameters") from None
        if len(values) < width:
            raise SceneError(f"{path}:{lineno}: expected at least {width} columns, got {len(values)}")
        try:
            planes.append(_row_to_plane(values[:width], dims))
        except ValueError as exc:
            raise SceneError(f"{path}:{lineno}: {exc}") from exc
    if not planes:
        raise SceneError(f"{path}: no planes found")
    return planes


# ---------------------------------------------------------------------------
# Subcommands.

def _cmd_forward(args) -> int:
    scene, dims, spec, config = _load(args)
    field = build_field(scene)
    planes = _resolve_planes(args, dims)
    rows = []
    for zeta in planes:
        tau = section_to_plane(zeta)
        value = slice_transform(field, tau, spec)
        rows.append(_plane_to_row(zeta, dims) + [tau.dist, value])
    header = _provenance("forward", scene, config, extra=[f"planes: {args.planes}"])
    _write_csv(config, header, _plane_columns(dims) + ["dist", "value"], rows)
    return 0


def _cmd_radon(args) -> int:
    scene, dims, spec, config = _load(args)
    g = op_B(build_field(scene), dims)
    planes = _resolve_planes(args, dims)
    rows = []
    for zeta in planes:
        tau = section_to_plane(zeta)
        rows.append(_plane_to_row(zeta, dims) + [tau.dist, radon_john(g, zeta, spec)])
    header = _provenance("radon", scene, config, extra=[f"planes: {args.planes}"])
    _write_csv(config, header, _plane_columns(dims) + ["dist", "value"], rows)
    return 0


def _cmd_factor_check(args) -> int:
    scene, dims, spec, config = _load(args)
    tol = args.tol if args.tol is not None else 1e-6
    field = build_field(scene)
    planes = _random_planes(dims, args.count, args.seed)
    rows = []
    worst = 0.0
    for zeta in planes:
        tau = section_to_plane(zeta)
        report = factorization_check(field, tau, spec)
        worst = max(worst, report.rel_diff)
        rows.append(_plane_to_row(zeta, dims) + [report.lhs, report.rhs, report.abs_diff])
    verdict = "PASS" if worst <= tol else "FAIL"
    footer = [f"max_rel_diff: {_fmt(worst)}", f"{verdict} (tol {_fmt(tol)})"]
    header = _provenance("factor-check", scene, config, tol=tol, extra=[f"count: {args.count}"])
    _write_csv(config, header, _plane_columns(dims) + ["lhs", "rhs", "abs_diff"], rows, footer)
    if config.output_path is not None:
        print(f"{verdict} max_rel_diff={_fmt(worst)} tol={_fmt(tol)}")
    return 0 if verdict == "PASS" else 1


def _cmd_zonal_forward(args) -> int:
    scene, dims, spec, config = _load(args, zonal=True)
    profile = scene_profile(scene)
    if args.t_count < 1 or args.t_max < 0:
        raise SceneError("offset grid needs t-count >= 1 and t-max >= 0")
    rows = []
    for t in np.linspace(0.0, args.t_max, args.t_count):
        value = zonal_forward(profile, float(t), dims, spec)
        rows.append([float(t), t / math.hypot(1.0, t), value])
    header = _provenance("zonal-forward", scene, config,
                         extra=[f"t_max: {_fmt(args.t_max)}", f"t_count: {args.t_count}"])
    _write_csv(config, header, ["t", "dist", "value"], rows)
    return 0


def _cmd_zonal_invert(args) -> int:
    scene, dims, spec, config = _load(args, zonal=True)
    tol = args.tol if args.tol is not None else 1e-3
    profile = scene_profile(scene)

    def forward(t: float) -> float:
        return zonal_forward(profile, t, dims, spec)

    recovered = zonal_invert(forward, dims, spec)
    s_grid = np.geomspace(0.1, 10.0, 65)
    truth = np.asarray(profile(s_grid), dtype=float)
    rec = np.asarray(recovered(s_grid), dtype=float)
    weighted = np.abs(rec - truth) / (1.0 + np.abs(truth))
    worst = float(np.max(weighted))
    rows = [[s, tv, rv, w] for s, tv, rv, w in zip(s_grid, truth, rec, weighted)]
    verdict = "PASS" if worst <= tol else "FAIL"
    footer = [f"max_weighted_err: {_fmt(worst)}", f"{verdict} (tol {_fmt(tol)})"]
    header = _provenance("zonal-invert", scene, config, tol=tol)
    _write_csv(config, header, ["s", "reference", "recovered", "weighted_err"], rows, footer)
    if config.output_path is not None:
        print(f"{verdict} max_weighted_err={_fmt(worst)} tol={_fmt(tol)}")
    return 0 if verdict == "PASS" else 1


def _cmd_invert(args) -> int:
    scene, dims, spec, config = _load(args)
    tol = args.tol if args.tol is not None else 0.05
    field = build_field(scene)

    def measured(tau) -> float:
        return slice_transform(field, tau, spec)

    reconstruction = invert_slice(measured, dims, config.riesz, spec)
    pts, _ = sphere_rule(dims.n, args.grid_order)
    pts = pts[pts[:, -1] <= args.cap_limit]
    if not len(pts):
        raise SceneError("cap-limit excludes every evaluation point")
    reference = np.asarray(field(pts), dtype=float)
    values = np.asarray(reconstruction(pts), dtype=float)
    errors = np.abs(values - reference)
    scale = float(np.max(np.abs(reference)))
    worst = float(np.max(errors))
    rows = [list(p) + [v, r, e] for p, v, r, e in zip(pts, values, reference, errors)]
    verdict = "PASS" if worst <= tol * max(scale, 1e-300) else "FAIL"
    footer = [
        f"sup_abs_err: {_fmt(worst)}",
        f"reference_scale: {_fmt(scale)}",
        f"{verdict} (tol {_fmt(tol)} relative)",
    ]
    header = _provenance("invert", scene, config, tol=tol,
                         extra=[f"grid_order: {args.grid_order}", f"cap_limit: {_fmt(args.cap_limit)}"])
    columns = [f"eta{j + 1}" for j in range(dims.n + 1)] + ["value", "reference", "abs_error"]
    _write_csv(config, header, columns, rows, footer)
    if config.output_path is not None:
        print(f"{verdict} sup_abs_err={_fmt(worst)} scale={_fmt(scale)} tol={_fmt(tol)}")
    return 0 if verdict == "PASS" else 1


def _cmd_support(args) -> int:
    scene, dims, spec, config = _load(args)
    field = build_field(scene)
    cap = CapSpec(args.b)
    report = support_experiment(field, cap, dims, spec, args.trials)
    rows = [
        ["beyond_threshold", f"b_star={_fmt(report.threshold)}",
         "pass" if report.vanishing_ok else "fail", report.max_beyond],
        ["control_nonzero", f"dist={_fmt(CONTROL_DIST)}", "pass" if report.control_ok else "fail",
         report.max_control],
    ]
    verdict = "PASS" if (report.vanishing_ok and report.control_ok) else "FAIL"
    footer = [f"scale: {_fmt(report.scale)}", f"{verdict} (noise floor {_fmt(report.noise_floor)})"]
    header = _provenance("support", scene, config,
                         extra=[f"b: {_fmt(args.b)}", f"trials: {args.trials}"])
    _write_csv(config, header, ["check", "parameter", "verdict", "max_violation"], rows, footer)
    if config.output_path is not None:
        print(f"{verdict} max_beyond={_fmt(report.max_beyond)} control={_fmt(report.max_control)}")
    return 0 if verdict == "PASS" else 1


def _cmd_existence(args) -> int:
    scene, dims, spec, config = _load(args)
    if args.mu is not None:
        field = power_growth_field(args.mu)
        subject = f"pole_power mu={_fmt(args.mu)}"
    else:
        field = build_field(scene)
        subject = f"scene {scene.family}"
    report = existence_check(field, dims, spec=spec)
    rows = [[level, value] for level, value in report.trace]
    footer = [f"subject: {subject}", f"verdict: {report.verdict}"]
    header = _provenance("existence", scene, config)
    _write_csv(config, header, ["level", "value"], rows, footer)
    if config.output_path is not None:
        print(f"verdict={report.verdict}")
    if args.expect is not None:
        return 0 if report.verdict == args.expect else 1
    return 0


def _cmd_dual(args) -> int:
    scene, dims, spec, config = _load(args)
    if args.grid_size < 1 or args.extent <= 0:
        raise SceneError("dual grid needs grid-size >= 1 and extent > 0")
    g = op_B(build_field(scene), dims)

    def flat_data(zeta: FlatSpec) -> float:
        return radon_john(g, zeta, spec)

    axis = np.linspace(-args.extent, args.extent, args.grid_size)
    grids = np.meshgrid(*([axis] * dims.n), indexing="ij")
    points = np.stack([g_.ravel() for g_ in grids], axis=-1)
    rows = []
    for x in points:
        value = dual_transform(flat_data, x, dims.k - 1, dims, spec)
        rows.append(list(x) + [value])
    header = _provenance("dual", scene, config,
                         extra=[f"grid_size: {args.grid_size}", f"extent: {_fmt(args.extent)}"])
    columns = [f"x{j + 1}" for j in range(dims.n)] + ["value"]
    _write_csv(config, header, columns, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
