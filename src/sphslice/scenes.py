"""Built-in field families and plain-text scene files for the command line.

A scene file holds one `key = value` pair per line with `#` comments, names a
family and its parameters, and may fix the dimensions:

    family = cap_bump
    b = 0.0
    sharpness = 0.2
    n = 3
    k = 2

Families: constant, zonal_gaussian (profile exp(-(s/width)^2) in the
stereographic radial coordinate), cap_bump (smooth, vanishing identically on
the cap above height b), first_harmonic_weighted (first coordinate times a
stereographic Gaussian; not zonal), custom_profile_csv (zonal profile loaded
from a CSV file).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Dimensions
from .transforms import SphereField
from .zonal import ZonalProfile, load_profile_csv, profile_to_sphere_field, sigma

__all__ = [
    "FAMILIES",
    "SceneError",
    "SceneSpec",
    "parse_scene",
    "build_field",
    "scene_profile",
    "suggested_cutoff",
]

# Tail mass left beyond the radial cutoff that suggested_cutoff picks.
CUTOFF_TOL = 1e-7

FAMILIES = (
    "constant",
    "zonal_gaussian",
    "cap_bump",
    "first_harmonic_weighted",
    "custom_profile_csv",
)

# Per family: parameter name -> (default, validator or None).
_PARAMETERS: dict[str, dict] = {
    "constant": {"amplitude": (1.0, None)},
    "zonal_gaussian": {
        "amplitude": (1.0, None),
        "width": (1.0, lambda v: v > 0 or "width must be positive"),
    },
    "cap_bump": {
        "amplitude": (1.0, None),
        "b": (0.0, lambda v: -1.0 < v < 1.0 or "b must lie in (-1, 1)"),
        "sharpness": (0.1, lambda v: v > 0 or "sharpness must be positive"),
    },
    "first_harmonic_weighted": {"amplitude": (1.0, None)},
    "custom_profile_csv": {"path": (None, None)},
}


class SceneError(ValueError):
    """A scene file or scene description is malformed."""


@dataclass(frozen=True)
class SceneSpec:
    """A named field family with validated parameters and dimensions."""

    family: str
    parameters: dict = field(default_factory=dict)
    dims: Dimensions = Dimensions(3, 2)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise SceneError(f"unknown family {self.family!r}; choose from {', '.join(FAMILIES)}")
        allowed = _PARAMETERS[self.family]
        merged = {name: default for name, (default, _) in allowed.items()}
        for name, value in self.parameters.items():
            if name not in allowed:
                raise SceneError(f"family {self.family} does not take parameter {name!r}")
            merged[name] = value
        for name, value in merged.items():
            check = allowed[name][1]
            if check is not None:
                verdict = check(value)
                if verdict is not True:
                    raise SceneError(f"{self.family}: {verdict}")
        if self.family == "custom_profile_csv" and not merged.get("path"):
            raise SceneError("custom_profile_csv requires a path parameter")
        object.__setattr__(self, "parameters", merged)

    def __getitem__(self, name: str):
        return self.parameters[name]

    @functools.cached_property
    def _profile(self) -> ZonalProfile:
        """The custom_profile_csv profile, read from its file once per scene."""
        try:
            return load_profile_csv(self["path"])
        except ValueError as exc:
            raise SceneError(str(exc)) from exc


def parse_scene(path: str) -> SceneSpec:
    """Read a key = value scene file; n and k default to 3 and 2."""
    family = None
    params: dict = {}
    n, k = 3, 2
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise SceneError(f"cannot read scene file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise SceneError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
        key, value = (part.strip() for part in text.split("=", 1))
        if key == "family":
            family = value
        elif key == "n":
            n = _parse_int(path, lineno, value)
        elif key == "k":
            k = _parse_int(path, lineno, value)
        elif key == "path":
            params["path"] = value
        else:
            try:
                params[key] = float(value)
            except ValueError as exc:
                raise SceneError(f"{path}:{lineno}: {key} needs a numeric value") from exc
    if family is None:
        raise SceneError(f"{path}: scene file does not name a family")
    return SceneSpec(family=family, parameters=params, dims=_make_dims(path, n, k))


def _parse_int(path: str, lineno: int, value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise SceneError(f"{path}:{lineno}: expected an integer, got {value!r}") from exc


def _make_dims(path: str, n: int, k: int) -> Dimensions:
    try:
        return Dimensions(n, k)
    except ValueError as exc:
        raise SceneError(f"{path}: {exc}") from exc


def build_field(scene: SceneSpec) -> SphereField:
    """Sphere field of the scene's family."""
    amplitude = scene.parameters.get("amplitude", 1.0)
    if scene.family == "constant":

        def eval_constant(eta):
            eta = np.asarray(eta, dtype=float)
            return np.full(eta.shape[:-1], amplitude)

        return SphereField(eval=eval_constant)
    if scene.family == "zonal_gaussian":
        return profile_to_sphere_field(scene_profile(scene), scene.dims)
    if scene.family == "cap_bump":

        def eval_bump(eta):
            return _cap_bump(scene, np.asarray(eta, dtype=float)[..., -1])

        return SphereField(eval=eval_bump)
    if scene.family == "first_harmonic_weighted":

        def eval_harmonic(eta):
            eta = np.asarray(eta, dtype=float)
            last = eta[..., -1]
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                s_sq = (1.0 + last) / (1.0 - last)
                vals = amplitude * eta[..., 0] * np.exp(-s_sq)
            return np.where(np.isfinite(vals), vals, 0.0)

        return SphereField(eval=eval_harmonic)
    # custom_profile_csv
    return profile_to_sphere_field(scene_profile(scene), scene.dims)


def scene_profile(scene: SceneSpec) -> ZonalProfile:
    """Radial profile (in the stereographic coordinate) of a zonal scene."""
    amplitude = scene.parameters.get("amplitude", 1.0)
    if scene.family == "constant":
        return ZonalProfile(f0=lambda s: np.full_like(np.asarray(s, dtype=float), amplitude))
    if scene.family == "zonal_gaussian":
        width = scene["width"]
        return ZonalProfile(f0=lambda s: amplitude * np.exp(-((np.asarray(s, dtype=float) / width) ** 2)))
    if scene.family == "cap_bump":

        def f0(s):
            s = np.asarray(s, dtype=float)
            return _cap_bump(scene, (s**2 - 1.0) / (s**2 + 1.0))

        return ZonalProfile(f0=f0)
    if scene.family == "custom_profile_csv":
        return scene._profile
    raise SceneError(f"family {scene.family} is not zonal")


def _cap_bump(scene: SceneSpec, last: np.ndarray) -> np.ndarray:
    """The cap_bump field at points of last coordinate `last`.

    amplitude * exp(-sharpness / (b - last)) below the cap height b, and zero
    on the cap.
    """
    gap = scene["b"] - last
    out = np.zeros(last.shape)
    inside = gap > 0.0
    out[inside] = scene["amplitude"] * np.exp(-scene["sharpness"] / gap[inside])
    return out


def suggested_cutoff(scene: SceneSpec) -> float:
    """Radial cutoff for plane-side integrals of the scene's conjugated field.

    The conjugated field of a bounded scene decays like 2^{k-1}|x|^{2-2k}, so
    flat integrals of dimension k-1 carry a tail whose mass beyond R is
    sigma_{k-2} 2^{k-1} R^{1-k}/(k-1); families with faster decay get far
    smaller cutoffs.
    """
    k = scene.dims.k
    if scene.family == "constant":
        prefactor = sigma(k - 2) * 2.0 ** (k - 1) / (k - 1)
        return float((prefactor / CUTOFF_TOL) ** (1.0 / (k - 1)))
    if scene.family == "zonal_gaussian":
        width = scene["width"]
        return float(width * math.sqrt(math.log(1.0 / CUTOFF_TOL)) + 2.0 + width)
    if scene.family == "cap_bump":
        b = scene["b"]
        return float(math.sqrt((1.0 + b) / (1.0 - b)) + 1.0)
    if scene.family == "first_harmonic_weighted":
        return float(math.sqrt(math.log(1.0 / CUTOFF_TOL)) + 3.0)
    # custom_profile_csv: the loaded profile vanishes beyond its grid.
    return float(scene_profile(scene).grid[0][-1] + 1.0)
