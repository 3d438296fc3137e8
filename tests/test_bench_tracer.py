"""The benchmark's traced mode replaces library names.

Each must still exist, and they are the only imports a module may leave unused.
"""

import ast
import importlib.util
from pathlib import Path

import numpy as np

from sphslice import Dimensions, QuadratureSpec, SceneSpec, build_field, cli, op_B, transforms

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
PACKAGE = ROOT / "src" / "sphslice"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_patches_resolve():
    tracer = _load_tracer()
    missing = [f"{module.__name__}.{name}" for module, name, _, _ in tracer.PATCHES
               if not hasattr(module, name)]
    assert not missing, f"bench/tracer.py patches names the library no longer has: {missing}"


def _unused_imports(path: Path) -> set:
    """Names a module imports at module level but never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - used


def test_every_unused_import_is_one_the_tracer_patches():
    # An import a module never uses is dead unless the tracer replaces it.
    patched = {(module.__name__.rsplit(".", 1)[-1], name) for module, name, _, _ in _load_tracer().PATCHES}
    dead = sorted(
        f"{path.stem}.{name}"
        for path in PACKAGE.glob("*.py")
        if path.name != "__init__.py"
        for name in _unused_imports(path)
        if (path.stem, name) not in patched
    )
    assert not dead, f"unused imports that bench/tracer.py does not patch: {dead}"


def test_a_traced_declared_field_keeps_its_declaration_and_counts_its_points():
    # the tracer wraps a field with dataclasses.replace, which keeps the
    # declaration, and counts the one-coordinate batches point by point
    dims = Dimensions(3, 3)
    f = build_field(SceneSpec(family="cap_bump", dims=dims))
    tracer = _load_tracer().Tracer()
    traced = tracer.field(f)
    assert traced.zonal and traced.pole_exponent == f.pole_exponent
    spec = QuadratureSpec(sphere_order=8, radial_order=8, radial_cutoff=5.0)
    bases, offsets = cli._random_planes(dims, 4, 2)
    sphere_nodes = len(transforms.sphere_rule(2, spec.sphere_order)[1])
    flat_nodes = len(transforms._flat_template(*transforms._template_key(2, spec))[1])
    with tracer.install():
        lhs = transforms._slice_sums(traced, bases, offsets, spec)
        rhs = transforms._flat_sums(op_B(traced, dims), bases, offsets, spec)
    assert lhs == transforms._slice_sums(f, bases, offsets, spec)
    assert rhs == transforms._flat_sums(op_B(f, dims), bases, offsets, spec)
    assert tracer.counts["scenes.field_points"] == 4 * (sphere_nodes + flat_nodes)
    assert tracer.counts["stereo.points"] == 4 * flat_nodes
    assert np.isfinite(lhs).all() and np.isfinite(rhs).all()
