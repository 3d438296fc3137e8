"""The benchmark's traced mode replaces library names; each must still exist."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_tracer_patches_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{module.__name__}.{name}" for module, name, _, _ in tracer.PATCHES
               if not hasattr(module, name)]
    assert not missing, f"bench/tracer.py patches names the library no longer has: {missing}"
