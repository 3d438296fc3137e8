"""Guards on the public surface: what sphslice exports, and that the README documents it."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import sphslice

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
