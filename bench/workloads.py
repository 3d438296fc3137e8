"""The benchmark's three workloads: inputs, one timed operation, accuracy gates.

Each workload is built by ``setup`` from a size preset and the workload seed
and exposes ``run(hooks)``, one operation of the closed loop.  ``hooks`` is
either ``PLAIN`` (untraced) or a ``tracer.Tracer``; the workload passes its
data callbacks and fields through it and marks its phases with it, and calls
library functions through their home modules so that the tracer's
replacements are seen.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import sphslice.cli as cli
import sphslice.inversion as inversion
import sphslice.transforms as transforms
from sphslice.geometry import Dimensions
from sphslice.quadrature import QuadratureSpec, sphere_rule
from sphslice.scenes import SceneSpec, build_field
from sphslice.transforms import PlaneField

# Size presets.  "bench" is what BENCHMARK.json runs: it keeps every
# acceptance setting except the orientation count, the evaluation grid and the
# number of planes, so that one operation takes a few seconds.  "acceptance"
# is the acceptance tests' own configuration (05, 06 and the orders and plane
# count of 01); "smoke" is the smoke test's.
SIZES = {
    "bench": {"plane_orientations": 8, "plane_grid": 21,
              "sphere_orientations": 16, "sphere_cap": 0.8, "planes": 80},
    "acceptance": {"plane_orientations": 256, "plane_grid": 41,
                   "sphere_orientations": 96, "sphere_cap": 0.99, "planes": 50},
    "smoke": {"plane_orientations": 8, "plane_grid": 5,
              "sphere_orientations": 8, "sphere_cap": 0.5, "planes": 3},
}

# Accuracy gates of the acceptance tests; an error above its gate fails the case.
GATES = {
    "plane_rel_err": 0.02,
    "zonal_rel_err": 0.02,
    "harmonic_rel_err": 0.05,
    "factor_max_rel_diff": 1e-6,
    "profile_max_err": 1e-3,
}

FAMILIES = ("constant", "zonal_gaussian", "cap_bump", "first_harmonic_weighted")
DIMS = ((2, 2), (3, 2), (3, 3))


class _Plain:
    """Untraced hooks: every wrapper is the identity."""

    @staticmethod
    def field(f):
        return f

    @staticmethod
    def data(fn):
        return fn

    @staticmethod
    def span(layer, label):
        return contextlib.nullcontext()

    @staticmethod
    def evaluating():
        return contextlib.nullcontext()


PLAIN = _Plain()


@dataclass
class Outcome:
    """Result of one operation: accuracy figures, case counts, written files."""

    figures: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    files: dict = field(default_factory=dict)

    def case(self, name: str, value: float, gate: float):
        """Record one reconstructed case; it fails when it misses its gate."""
        self.attempted += 1
        self.figures[name] = value
        if not value <= gate:
            self.failed += 1
            self.errors.append(f"{name} = {value:.4e} misses its gate {gate:g}")

    def crash(self, name: str, exc: Exception, cases: int = 1):
        """Record cases that raised; each counts as failed."""
        self.attempted += cases
        self.failed += cases
        self.errors.append(f"{name} raised {type(exc).__name__}: {exc}")


def _sup_rel_err(values, truth) -> float:
    return float(np.max(np.abs(values - truth)) / np.max(np.abs(truth)))


class PlaneInvert:
    """Acceptance 05: invert_radon of the plane Gaussian from radon_john line data."""

    def __init__(self, size: dict, seed: int, out_dir: Path):
        self.dims = Dimensions(2, 2)
        self.spec = QuadratureSpec(sphere_order=64, radial_order=64, radial_cutoff=12.0,
                                   orientation_samples=size["plane_orientations"], seed=seed)
        self.params = inversion.RieszParams(k_order=1, eps=0.05, outer_R=30.0)
        self.gauss = PlaneField(lambda x: np.exp(-np.sum(np.asarray(x) ** 2, axis=-1)))
        axis = np.linspace(-2.0, 2.0, size["plane_grid"])
        xx, yy = np.meshgrid(axis, axis)
        self.points = np.stack([xx, yy], axis=-1)
        self.truth = self.gauss(self.points)

    def run(self, hooks) -> Outcome:
        out = Outcome()
        gauss = hooks.field(self.gauss)
        spec = self.spec

        def line_data(zeta):
            return transforms.radon_john(gauss, zeta, spec)

        try:
            reconstruction = inversion.invert_radon(hooks.data(line_data), self.dims, self.params, spec)
            with hooks.evaluating():
                values = reconstruction(self.points)
        except Exception as exc:  # a case that raises is a failed case, never a skipped one
            out.crash("plane_rel_err", exc)
            return out
        out.case("plane_rel_err", _sup_rel_err(values, self.truth), GATES["plane_rel_err"])
        return out


class SphereInvert:
    """Acceptance 06: invert_slice of two sphere fields from slice_transform data."""

    CASES = (("zonal_rel_err", "zonal_gaussian"), ("harmonic_rel_err", "first_harmonic_weighted"))

    def __init__(self, size: dict, seed: int, out_dir: Path):
        self.dims = Dimensions(2, 2)
        self.params = inversion.RieszParams(k_order=1, eps=0.1, outer_R=20.0)
        pts, _ = sphere_rule(2, 16)
        self.points = pts[pts[:, -1] <= size["sphere_cap"]]
        self.cases = []
        for i, (name, family) in enumerate(self.CASES):
            sphere_field = build_field(SceneSpec(family=family, parameters={}, dims=self.dims))
            spec = QuadratureSpec(sphere_order=32, radial_order=48, radial_cutoff=10.0,
                                  orientation_samples=size["sphere_orientations"], seed=seed + i)
            self.cases.append((name, sphere_field, spec, sphere_field(self.points)))

    def run(self, hooks) -> Outcome:
        out = Outcome()
        for name, sphere_field, spec, truth in self.cases:
            traced_field = hooks.field(sphere_field)

            def data(tau, f=traced_field, spec=spec):
                return transforms.slice_transform(f, tau, spec)

            try:
                reconstruction = inversion.invert_slice(hooks.data(data), self.dims, self.params, spec)
                with hooks.evaluating():
                    values = reconstruction(self.points)
            except Exception as exc:
                out.crash(name, exc)
                continue
            out.case(name, _sup_rel_err(values, truth), GATES[name])
        return out


class ForwardSweep:
    """In-process CLI runs: factor-check on 12 scene/dimension pairs, then zonal-invert."""

    def __init__(self, size: dict, seed: int, out_dir: Path):
        self.planes = size["planes"]
        scene_dir = out_dir / "scenes"
        csv_dir = out_dir / "csv"
        scene_dir.mkdir(parents=True, exist_ok=True)
        csv_dir.mkdir(parents=True, exist_ok=True)
        self.runs = []
        for n, k in DIMS:
            for family in FAMILIES:
                scene = scene_dir / f"{family}_n{n}k{k}.txt"
                scene.write_text(f"family = {family}\nn = {n}\nk = {k}\n", encoding="utf-8")
                if family == "cap_bump":
                    orders = (512, 256) if k == 2 else (320, 192)
                else:
                    orders = (48, 64)
                csv = csv_dir / f"factor_{family}_n{n}k{k}.csv"
                argv = ["factor-check", str(scene), str(self.planes),
                        "--seed", str(seed * 1000 + n * 100 + k * 10),
                        "--sphere-order", str(orders[0]), "--radial-order", str(orders[1]),
                        "--out", str(csv)]
                self.runs.append(("factor", argv, csv))
        for k in (2, 3):
            scene = scene_dir / f"zonal_gaussian_n3k{k}.txt"
            csv = csv_dir / f"zonal_invert_n3k{k}.csv"
            argv = ["zonal-invert", str(scene), "--sphere-order", "48", "--radial-order", "64",
                    "--out", str(csv)]
            self.runs.append(("zonal", argv, csv))

    def run(self, hooks) -> Outcome:
        out = Outcome()
        factor_worst = 0.0
        profile_worst = 0.0
        for kind, argv, csv in self.runs:
            cases = self.planes if kind == "factor" else 1
            try:
                with contextlib.redirect_stdout(io.StringIO()), hooks.span("cli", "main"):
                    code = cli.main(argv)
                text = csv.read_text(encoding="utf-8")
            except Exception as exc:
                out.crash(csv.name, exc, cases)
                continue
            out.files[csv.name] = text
            if kind == "factor":
                rel = _factor_rel_diffs(text)
                bad = int(np.sum(~(rel <= GATES["factor_max_rel_diff"])))
                if code != 0 or len(rel) != cases:
                    bad = cases
                out.attempted += cases
                out.failed += bad
                if bad:
                    out.errors.append(f"{csv.name}: exit code {code}, {bad} plane rows over the gate")
                factor_worst = max(factor_worst, float(np.max(rel)) if len(rel) else math.inf)
            else:
                err = _footer_value(text, "max_weighted_err")
                out.attempted += 1
                if code != 0 or not err <= GATES["profile_max_err"]:
                    out.failed += 1
                    out.errors.append(f"{csv.name}: exit code {code}, max_weighted_err {err:.4e}")
                profile_worst = max(profile_worst, err)
        out.figures = {"factor_max_rel_diff": factor_worst, "profile_max_err": profile_worst}
        return out


def _factor_rel_diffs(text: str) -> np.ndarray:
    """Per-plane rel diff |lhs - rhs| / (1 + |lhs|) from a factor-check CSV."""
    rows = [line.split(",") for line in text.splitlines() if line and not line.startswith("#")]
    header, body = rows[0], rows[1:]
    lhs = np.array([float(r[header.index("lhs")]) for r in body])
    diff = np.array([float(r[header.index("abs_diff")]) for r in body])
    return diff / (1.0 + np.abs(lhs))


def _footer_value(text: str, key: str) -> float:
    for line in text.splitlines():
        if line.startswith(f"# {key}:"):
            return float(line.split(":", 1)[1])
    return math.inf


WORKLOADS = {
    "plane_invert": PlaneInvert,
    "sphere_invert": SphereInvert,
    "forward_sweep": ForwardSweep,
}


def setup(name: str, size: str, seed: int, out_dir: Path):
    """Inputs of one workload, ready for its first operation."""
    return WORKLOADS[name](SIZES[size], seed, out_dir)
