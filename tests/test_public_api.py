"""Guards on the public surface: what sphslice exports, and that the README documents it."""

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


def test_readme_api_section_names_every_export():
    section = api_section()
    undocumented = [name for name in sphslice.__all__ if f"`{name}`" not in section]
    assert not undocumented
