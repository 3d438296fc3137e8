"""Guards on the public surface: what sphslice exports, and that the README documents it."""

import ast
import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sphslice
import sphslice.inversion as inversion

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = [info.name for info in pkgutil.iter_modules(sphslice.__path__)]


def api_section() -> str:
    """The README text from the "## API" heading to the next level-2 heading."""
    match = re.search(r"^## API\n(.*?)(?=^## |\Z)", README.read_text(encoding="utf-8"), re.M | re.S)
    assert match, "README has no '## API' section"
    return match.group(1)


def test_package_all_is_unique_and_sorted():
    assert len(set(sphslice.__all__)) == len(sphslice.__all__)
    assert sphslice.__all__ == sorted(sphslice.__all__)


def test_every_exported_name_resolves():
    missing = [name for name in sphslice.__all__ if not hasattr(sphslice, name)]
    for module_name in MODULES:
        module = importlib.import_module(f"sphslice.{module_name}")
        missing += [f"{module_name}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert not missing


def test_package_exports_exactly_the_module_lists():
    # a name is public where its module lists it in __all__; the cli module's
    # list names its entry point, which the package does not re-export
    listed = {}
    for module_name in MODULES:
        if module_name != "cli":
            for name in importlib.import_module(f"sphslice.{module_name}").__all__:
                listed.setdefault(name, []).append(module_name)
    assert set(listed) == set(sphslice.__all__)
    assert all(len(modules) == 1 for modules in listed.values()), listed


def test_package_init_spells_no_exported_name():
    # the package's list is built from the module lists, never kept by hand
    tree = ast.parse(Path(sphslice.__file__).read_text(encoding="utf-8"))
    strings = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    assert not strings & set(sphslice.__all__)


def test_readme_api_section_names_every_export():
    section = api_section()
    undocumented = [name for name in sphslice.__all__ if f"`{name}`" not in section]
    assert not undocumented


# Cold start: no computation loads scipy.  Every quadrature rule and both
# splines are the package's numpy code; only the traced benchmark's
# inversion.RectBivariateSpline imports it, on access.  Each check runs in a
# fresh interpreter.
SCIPY_MODULES = "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))"


def _fresh(code: str) -> str:
    """Standard output of code, run in a fresh interpreter after `import sys`."""
    proc = subprocess.run([sys.executable, "-c", f"import sys\n{code}"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("module", ["sphslice", "sphslice.cli"])
def test_import_loads_no_scipy(module):
    assert _fresh(f"import {module}\nprint({SCIPY_MODULES})") == "[]\n"


def test_field_form_line_inversion_loads_no_scipy():
    out = _fresh("import numpy as np\n"
                 "from sphslice import Dimensions, PlaneField, QuadratureSpec, RieszParams, invert_radon\n"
                 "g = PlaneField(lambda x: np.exp(-np.sum(x * x, axis=-1)))\n"
                 "spec = QuadratureSpec(sphere_order=16, radial_order=32, orientation_samples=4)\n"
                 "F = invert_radon(g, Dimensions(2, 2), RieszParams(1), spec)\n"
                 "assert abs(F(np.zeros(2)) - 1.0) < 0.1\n"
                 f"print({SCIPY_MODULES})")
    assert out == "[]\n"


def test_zonal_invert_on_lines_loads_no_scipy():
    out = _fresh("import numpy as np\n"
                 "from sphslice import Dimensions, QuadratureSpec, ZonalProfile, zonal_forward, zonal_invert\n"
                 "dims, spec = Dimensions(3, 2), QuadratureSpec(radial_order=32)\n"
                 "profile = ZonalProfile(lambda s: np.exp(-s * s))\n"
                 "recovered = zonal_invert(lambda t: zonal_forward(profile, t, dims, spec), dims)\n"
                 "assert abs(recovered(1.0) - np.exp(-1.0)) < 1e-3\n"
                 f"print({SCIPY_MODULES})")
    assert out == "[]\n"


def test_tracer_spline_name_is_scipys_and_loads_it_on_access():
    out = _fresh("import sphslice.inversion as inversion\n"
                 "before = 'scipy.interpolate' in sys.modules\n"
                 "spline = inversion.RectBivariateSpline\n"
                 "import scipy.interpolate\n"
                 "print(before, spline is scipy.interpolate.RectBivariateSpline)")
    assert out == "False True\n"


def test_inversion_has_no_other_lazy_name():
    assert not hasattr(inversion, "no_such_name")
