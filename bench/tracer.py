"""Span tracer for the benchmark's traced runs.

The tracer works from outside the library: it replaces the names each
sphslice module imports from another (``transforms.flat_rule``,
``inversion.RectBivariateSpline``, ``cli.factorization_check``, ...) and the
callables the benchmark hands in (data callbacks, fields) with wrappers that
record one span per call.  A span holds its name, start, end and parent; its
layer is the module the called code belongs to.  Self time is a span's
duration minus the durations of its direct children, so the self times of all
spans of one operation add up to the operation's wall time.

Spans are kept in flat arrays while an operation runs and summarised once at
the end; ``Tracer.save`` writes them out.  Nothing here is active unless
``Tracer.install`` has been entered, so untraced operations run the library
unmodified.
"""

from __future__ import annotations

import dataclasses
import time
from array import array
from contextlib import contextmanager

import numpy as np

import sphslice.cli as cli
import sphslice.geometry as geometry
import sphslice.inversion as inversion
import sphslice.quadrature as quadrature
import sphslice.scenes as scenes
import sphslice.transforms as transforms
import sphslice.zonal as zonal

LAYERS = ("bench", "geometry", "stereo", "quadrature", "transforms", "zonal",
          "inversion", "scenes", "cli")

# Counters, named as the per-layer metrics they become.
COUNTERS = ("quadrature.rule_calls", "geometry.flats_validated", "geometry.section_rules",
            "stereo.points", "transforms.integrals", "scenes.field_calls", "scenes.field_points",
            "inversion.table_lines", "inversion.growth_lines", "inversion.spline_fits",
            "inversion.kernel_points", "zonal.forward_calls")

# (module whose global is replaced, global name, layer, counter or None).
# "rule" marks the quadrature rule builds (flat_rule, composite_gauss,
# sphere_rule, gauss_legendre): their calls and distinct arguments are counted.
# A function imported by several modules is wrapped under every importer, and
# under its home module too where that module calls it internally.
PATCHES = [
    (quadrature, "flat_rule", "quadrature", "rule"),
    (quadrature, "composite_gauss", "quadrature", "rule"),
    (quadrature, "sphere_rule", "quadrature", "rule"),
    (quadrature, "gauss_legendre", "quadrature", "rule"),
    (quadrature, "panel_edges", "quadrature", None),
    (transforms, "flat_rule", "quadrature", "rule"),
    (transforms, "sphere_rule", "quadrature", "rule"),
    (geometry, "sphere_rule", "quadrature", "rule"),
    (inversion, "gauss_legendre", "quadrature", "rule"),
    (inversion, "sphere_rule", "quadrature", "rule"),
    (zonal, "gauss_legendre", "quadrature", "rule"),
    (zonal, "panel_edges", "quadrature", None),
    (transforms, "sample_sphere_cross_section", "geometry", "geometry.section_rules"),
    (transforms, "make_flat", "geometry", None),
    (cli, "random_flat", "geometry", None),
    (cli, "_complete_orthonormal", "geometry", None),
    (transforms, "nu", "stereo", "stereo.points"),
    (transforms, "nu_inverse", "stereo", "stereo.points"),
    (transforms, "plane_to_sphere_weight", "stereo", "stereo.points"),
    (zonal, "nu", "stereo", "stereo.points"),
    (transforms, "slice_transform", "transforms", "transforms.integrals"),
    (transforms, "radon_john", "transforms", "transforms.integrals"),
    (transforms, "op_B", "transforms", None),
    (transforms, "flat_through", "transforms", None),
    (transforms, "orientation_set", "transforms", None),
    (cli, "factorization_check", "transforms", None),
    (cli, "section_to_plane", "transforms", None),
    (inversion, "section_to_plane", "transforms", None),
    (inversion, "op_B_inverse", "transforms", None),
    (inversion, "flat_through", "transforms", None),
    (inversion, "orientation_set", "transforms", None),
    (cli, "zonal_forward", "zonal", "zonal.forward_calls"),
    (cli, "zonal_invert", "zonal", None),
    (inversion, "sigma", "zonal", None),
    (scenes, "sigma", "zonal", None),
    (inversion, "invert_radon", "inversion", None),
    (inversion, "invert_slice", "inversion", None),
    (inversion, "_riesz_batch", "inversion", "inversion.kernel_points"),
    (inversion, "RectBivariateSpline", "inversion", "inversion.spline_fits"),
    (cli, "parse_scene", "scenes", None),
    (cli, "suggested_cutoff", "scenes", None),
]


def _points(arr) -> int:
    """Number of points in a (..., dim) coordinate array."""
    a = np.asarray(arr)
    return a.size // a.shape[-1]


def _rule_key(name: str, args: tuple):
    """Hashable identity of a quadrature rule request (what a cache would key on)."""
    if name == "flat_rule":
        zeta, spec = args
        return name, zeta.basis.tobytes(), zeta.offset.tobytes(), spec.radial_cutoff, \
            spec.radial_order, spec.sphere_order
    if name == "sphere_rule":
        d, spec_or_order = args
        order = getattr(spec_or_order, "sphere_order", spec_or_order)
        return name, int(d), int(order)
    return (name,) + tuple(float(a) for a in args)


class Tracer:
    """Records spans and counters for the operations run inside ``install``."""

    def __init__(self):
        self._names: list[str] = []
        self._layer_of: list[int] = []
        self._codes: dict[str, int] = {}
        self.reset()

    # -- span storage -----------------------------------------------------

    def reset(self):
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._rule_keys: set = set()
        self._evaluating = False

    def _code(self, layer: str, label: str) -> int:
        key = f"{layer}.{label}"
        code = self._codes.get(key)
        if code is None:
            code = self._codes[key] = len(self._names)
            self._names.append(key)
            self._layer_of.append(LAYERS.index(layer))
        return code

    def _open(self, code: int) -> int:
        i = len(self.name)
        self.name.append(code)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, layer: str, label: str):
        i = self._open(self._code(layer, label))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, fn, layer: str, label: str, on_call=None):
        """fn wrapped so that each call records one span (and runs on_call first)."""
        code = self._code(layer, label)

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            i = self._open(code)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        return traced

    # -- wrappers for what the benchmark passes in --------------------------

    def field(self, f):
        """A SphereField or PlaneField whose evaluations are scene-field spans."""
        return dataclasses.replace(f, eval=self._field_eval(f.eval, _points))

    def profile(self, p):
        """A ZonalProfile whose evaluations are scene-field spans."""
        return dataclasses.replace(p, f0=self._field_eval(p.f0, np.size))

    def _field_eval(self, fn, count):
        def on_call(args):
            self.counts["scenes.field_calls"] += 1
            self.counts["scenes.field_points"] += int(count(args[0]))

        return self.wrap(fn, "scenes", "field", on_call)

    def data(self, fn):
        """A data callback (one line or slice integral) for the inversion table."""
        def on_call(_args):
            self.counts["inversion.table_lines"] += 1
            if self._evaluating:
                self.counts["inversion.growth_lines"] += 1

        return self.wrap(fn, "bench", "data", on_call)

    @contextmanager
    def evaluating(self):
        """Marks the reconstruction's evaluation phase (table growth happens here)."""
        self._evaluating = True
        try:
            with self.span("inversion", "evaluate"):
                yield
        finally:
            self._evaluating = False

    # -- patching -----------------------------------------------------------

    def _counter(self, key, fn_name):
        """Counter update run before each call of a patched name, or None."""
        if key is None:
            return None
        if key == "rule":
            def on_call(args):
                self.counts["quadrature.rule_calls"] += 1
                self._rule_keys.add(_rule_key(fn_name, args))
        elif key == "stereo.points":
            def on_call(args):
                self.counts[key] += _points(args[0])
        elif key == "inversion.kernel_points":
            def on_call(args):
                self.counts[key] += len(args[1])
        else:
            def on_call(args):
                self.counts[key] += 1
        return on_call

    @contextmanager
    def install(self):
        """Replace the library names listed in PATCHES (and a few methods) while inside."""
        saved = []

        def patch(owner, attr, value):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        for module, attr, layer, key in PATCHES:
            label = "spline_fit" if attr == "RectBivariateSpline" else attr
            patch(module, attr, self.wrap(getattr(module, attr), layer, label, self._counter(key, attr)))
        patch(geometry.FlatSpec, "__post_init__",
              self.wrap(geometry.FlatSpec.__post_init__, "geometry", "flat_validate",
                        self._counter("geometry.flats_validated", "__post_init__")))
        make_dual_field = inversion.make_dual_field
        patch(cli, "build_field", self.wrap(lambda scene: self.field(scenes.build_field(scene)),
                                            "scenes", "build_field"))
        patch(cli, "scene_profile", self.wrap(lambda scene: self.profile(scenes.scene_profile(scene)),
                                              "scenes", "scene_profile"))
        patch(inversion, "make_dual_field",
              self.wrap(lambda *a, **k: _TracedDualField(make_dual_field(*a, **k), self),
                        "inversion", "make_dual_field"))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    # -- summaries ------------------------------------------------------------

    def summary(self) -> tuple[dict, list]:
        """Per-layer metrics of the spans since the last reset, and tracer problems.

        A problem is a negative self time or self times that do not add up to
        the root spans' duration, either of which means the spans were not
        properly nested.
        """
        names = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        layer = np.asarray(self._layer_of, dtype=np.int64)[names]
        layer_self = np.bincount(layer, weights=self_time, minlength=len(LAYERS))

        def named(*keys):
            return np.isin(names, [self._codes[k] for k in keys if k in self._codes])

        def outer(*keys):
            """Inclusive time of spans named in keys that are not nested in one another."""
            hit = named(*keys)
            nested = np.zeros_like(hit)
            nested[has_parent] = hit[parent[has_parent]]
            return float(dur[hit & ~nested].sum())

        rules = self.counts["quadrature.rule_calls"]
        metrics = {f"{name}.self_s": float(t) for name, t in zip(LAYERS, layer_self)}
        metrics.update(self.counts)
        metrics.update({
            "quadrature.unique_rule_frac": len(self._rule_keys) / rules if rules else 0.0,
            "scenes.field_s": float(self_time[named("scenes.field")].sum()),
            "inversion.build_s": outer("inversion.invert_radon", "inversion.invert_slice"),
            "inversion.eval_s": outer("inversion.evaluate"),
            "inversion.table_fill_s": outer("bench.data"),
            "inversion.spline_fit_s": outer("inversion.spline_fit"),
            "inversion.field_eval_s": outer("inversion.dual_field", "inversion.reserve"),
            "inversion.kernel_self_s": float(self_time[named("inversion._riesz_batch")].sum()),
            "trace.solve_s": float(dur[~has_parent].sum()),
        })
        problems = []
        total = float(layer_self.sum())
        if abs(total - metrics["trace.solve_s"]) > 1e-6 * metrics["trace.solve_s"]:
            problems.append(f"layer self times sum to {total:.6f} s, traced solve is "
                            f"{metrics['trace.solve_s']:.6f} s")
        if len(self_time) and self_time.min() < -1e-6:
            problems.append(f"negative self time {self_time.min():.3e} s")
        return metrics, problems

    def save(self, path):
        """Write the spans of the last reset interval as arrays, with the name table."""
        np.savez_compressed(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            labels=np.asarray(self._names),
        )


class _TracedDualField:
    """Proxy for the object make_dual_field returns.

    Calls become ``inversion.dual_field`` spans and ``reserve`` (present only
    when the wrapped object has it) is forwarded, so the spline cache is built
    and grown exactly as it is untraced.
    """

    def __init__(self, inner, tracer: Tracer):
        self._call = tracer.wrap(inner, "inversion", "dual_field")
        if hasattr(inner, "reserve"):
            self.reserve = tracer.wrap(inner.reserve, "inversion", "reserve")

    def __call__(self, X):
        return self._call(X)
