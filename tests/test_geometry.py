import ast
import dataclasses
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import sphslice
import sphslice.inversion as inversion
from sphslice import (
    Dimensions,
    FlatSpec,
    PlaneField,
    QuadratureSpec,
    SlicePlane,
    dual_transform,
    kplane_support_probe,
    make_flat,
    op_B,
    random_flat,
)
from sphslice import cli
from sphslice.cli import _random_planes
from sphslice.geometry import (_check_flats, _complete_orthonormal, _distances, _gaussian_flats, _unchecked_flat,
                               sample_sphere_cross_section)
from sphslice.quadrature import sphere_rule
from sphslice.scenes import SceneSpec, build_field

# cotangent offset 3 puts the section at distance 3/sqrt(10) from the origin
DIST_AT_T3 = 0.9486832980505138


def test_dimensions_validation():
    Dimensions(2, 2)
    Dimensions(5, 3)
    with pytest.raises(ValueError):
        Dimensions(3, 1)
    with pytest.raises(ValueError):
        Dimensions(2, 3)


@pytest.mark.parametrize("field", ["n", "k"])
@pytest.mark.parametrize("value", [2.5, 3.0, True])
def test_dimensions_are_integers(field, value):
    # Dimensions(3, 2.5) was accepted and gave a zonal transform of a 2.5-plane
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        Dimensions(**{"n": 3, "k": 3, field: value})
    assert Dimensions(**{"n": 3, "k": 3, field: np.int64(3)}) == Dimensions(3, 3)


def test_make_flat_orthonormalizes():
    basis = np.array([[2.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    zeta = make_flat(basis, np.array([0.0, 0.0, 4.0]))
    gram = zeta.basis @ zeta.basis.T
    assert np.allclose(gram, np.eye(2), atol=1e-12)
    assert np.allclose(zeta.basis @ zeta.offset, 0.0, atol=1e-12)
    assert zeta.dim == 2
    assert zeta.distance == pytest.approx(4.0)


def test_flat_spec_rejects_skew_offset():
    with pytest.raises(ValueError):
        FlatSpec(basis=np.array([[1.0, 0.0]]), offset=np.array([1.0, 1.0]))


def test_slice_plane_distance():
    zeta = make_flat(np.array([[1.0, 0.0]]), 3.0 * np.array([0.0, 1.0]))
    tau = SlicePlane(zeta)
    assert tau.t == pytest.approx(3.0)
    assert tau.dist == pytest.approx(DIST_AT_T3, abs=1e-15)
    assert tau.radius == pytest.approx(1.0 / math.sqrt(10.0))
    # center sits at distance dist from the origin, orthogonality of the split
    assert np.linalg.norm(tau.center) == pytest.approx(tau.dist)
    assert np.linalg.norm(tau.span_direction) == pytest.approx(1.0)


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("n,dim", [(2, 1), (3, 1), (3, 2), (5, 3)])
def test_random_flat_properties(seed, n, dim):
    rng = np.random.default_rng(seed)
    zeta = random_flat(rng, n, dim, 1.7)
    assert zeta.basis.shape == (dim, n)
    assert np.allclose(zeta.basis @ zeta.basis.T, np.eye(dim), atol=1e-12)
    assert np.allclose(zeta.basis @ zeta.offset, 0.0, atol=1e-12)
    assert np.linalg.norm(zeta.offset) == pytest.approx(1.7)


@pytest.mark.parametrize("seed", [0, 3, 11])
@pytest.mark.parametrize("n,dim", [(2, 1), (3, 2), (5, 3)])
def test_random_flat_keeps_the_inline_qr_bits(seed, n, dim):
    # the QR of a Gaussian matrix with the sign fix, as random_flat spelled it inline
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, dim + 1)))
    q = q * np.sign(np.diag(r))
    zeta = random_flat(np.random.default_rng(seed), n, dim, 1.3)
    assert np.array_equal(zeta.basis, q[:, :dim].T)
    assert np.array_equal(zeta.offset, 1.3 * q[:, dim])


def test_random_flat_deterministic():
    a = random_flat(np.random.default_rng(5), 3, 2, 0.4)
    b = random_flat(np.random.default_rng(5), 3, 2, 0.4)
    assert np.array_equal(a.basis, b.basis)
    assert np.array_equal(a.offset, b.offset)


@pytest.mark.parametrize("n,k,t", [(2, 2, 0.0), (2, 2, 3.0), (3, 2, 1.2), (3, 3, 0.7)])
def test_cross_section_nodes(n, k, t):
    rng = np.random.default_rng(11)
    zeta = random_flat(rng, n, k - 1, t)
    tau = SlicePlane(zeta)
    pts, w = sample_sphere_cross_section(tau, 32)
    assert pts.shape[1] == n + 1
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) < 1e-13
    # constant weight mass is the section's sphere area
    area = np.sum(w)
    d = k - 1
    expect = tau.radius**d * (2.0 * math.pi ** ((d + 1) / 2.0) / math.gamma((d + 1) / 2.0))
    assert area == pytest.approx(expect, rel=1e-12)


def test_cross_section_lowest_point():
    # the section's smallest last coordinate is 2*dist^2 - 1, attained sharply
    zeta = make_flat(np.array([[1.0, 0.0]]), 2.0 * np.array([0.0, 1.0]))
    tau = SlicePlane(zeta)
    pts, _ = sample_sphere_cross_section(tau, 256)
    floor = 2.0 * tau.dist**2 - 1.0
    assert np.min(pts[:, -1]) >= floor - 1e-12
    assert np.min(pts[:, -1]) == pytest.approx(floor, abs=1e-3)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_cross_section_is_bit_identical_to_the_broadcast_formula(k):
    # the nodes hold the values of center + r * (sigma_nodes @ dirs) computed
    # row-major, bit for bit, but each coordinate is one contiguous column
    sigma_nodes, sigma_w = sphere_rule(k - 1, 12)
    rng = np.random.default_rng(k)
    for n in range(k, 6):
        for t in (0.0, 1e-3, 0.6, 25.0, 1e3):
            tau = SlicePlane(random_flat(rng, n, k - 1, t))
            nodes, weights = sample_sphere_cross_section(tau, 12)
            dirs = np.zeros((k, n + 1))
            dirs[: k - 1, :n] = tau.section.basis
            dirs[k - 1] = tau.span_direction
            assert nodes.shape == (len(sigma_nodes), n + 1)
            assert nodes.flags.f_contiguous
            assert np.array_equal(nodes, tau.center[None, :] + tau.radius * (sigma_nodes @ dirs))
            assert np.array_equal(weights, sigma_w * tau.radius ** (k - 1))


def _count_plane_objects(monkeypatch) -> list:
    """A list that gains one entry per FlatSpec or SlicePlane built from here on, by any route."""
    built = []
    for cls in (FlatSpec, SlicePlane):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__",
                            lambda self, *a, init=init, **kw: built.append(self) or init(self, *a, **kw))
    for name, module in list(sys.modules.items()):
        if name.startswith("sphslice") and hasattr(module, "_unchecked_flat"):
            unchecked = module._unchecked_flat
            monkeypatch.setattr(module, "_unchecked_flat", lambda *a, f=unchecked: built.append(a) or f(*a))
    return built


@pytest.mark.parametrize("form", ["sphere", "plane"])
def test_field_rows_build_no_plane_objects(monkeypatch, form):
    # one field-form row of the inversion's line table, 1,001 lines of one
    # orientation at acceptance 06's settings, stays two arrays
    line = FlatSpec(np.array([[-0.6, 0.8]]), np.array([0.8, 0.6]))
    offsets = np.multiply.outer(np.arange(-500, 501) * 0.02, line.offset)
    offsets.setflags(write=False)
    spec = QuadratureSpec(sphere_order=32, radial_order=48, radial_cutoff=10.0)
    field = build_field(SceneSpec(family="zonal_gaussian", dims=Dimensions(2, 2)))
    if form == "sphere":
        values = inversion._slice_values(field, spec)
    else:
        values = inversion._line_values(op_B(field, Dimensions(2, 2)), spec)
    built = _count_plane_objects(monkeypatch)
    assert len(values(np.broadcast_to(line.basis, (1001, 1, 2)), offsets)) == 1001
    assert len(built) == 0


LOW_ORDERS = ["--sphere-order", "8", "--radial-order", "8"]
STACKED_COMMANDS = {
    "factor-check": ["factor-check", "20", *LOW_ORDERS],
    "forward": ["forward", "20", "--sphere-order", "8"],
    "radon": ["radon", "20", *LOW_ORDERS],
    "support": ["support", "--trials", "20", "--sphere-order", "8"],
    "dual": ["dual", "--grid-size", "2", *LOW_ORDERS],
}


@pytest.mark.parametrize("argv", STACKED_COMMANDS.values(), ids=STACKED_COMMANDS.keys())
def test_stacked_commands_build_no_plane_objects(monkeypatch, tmp_path, argv):
    # between the draw and the sum a stack of planes stays two arrays
    scene = tmp_path / "scene.txt"
    scene.write_text("family = zonal_gaussian\nn = 3\nk = 2\n")
    command, *rest = argv
    built = _count_plane_objects(monkeypatch)
    assert cli.main([command, str(scene), *rest, "--out", str(tmp_path / "out.csv")]) in (0, 1)
    assert len(built) == 0


def test_kplane_probe_builds_no_plane_objects(monkeypatch):
    g = PlaneField(lambda x: np.exp(-np.sum(x * x, axis=-1)))
    built = _count_plane_objects(monkeypatch)
    kplane_support_probe(g, 1.0, Dimensions(3, 3), QuadratureSpec(sphere_order=8, radial_order=8), 20)
    assert len(built) == 0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_stacked_norm_is_the_flat_distance(n):
    rng = np.random.default_rng(n)
    offsets = rng.standard_normal((2000, n)) * rng.choice([1e-300, 1e-3, 1.0, 25.0, 1e3, 1e150], (2000, 1))
    distances = _distances(offsets)
    assert np.array_equal(distances, [np.linalg.norm(v) for v in offsets])
    # FlatSpec.distance of flats drawn at those distances reads the same norm
    flats = [random_flat(rng, n, 1, t) for t in distances[:200]]
    assert np.array_equal([zeta.distance for zeta in flats], _distances(np.array([zeta.offset for zeta in flats])))
    assert np.array_equal([zeta.distance for zeta in flats], [np.linalg.norm(zeta.offset) for zeta in flats])


def test_the_package_has_one_norm():
    # geometry._distances is the only norm in the package: no module calls numpy's
    for path in sorted(Path(sphslice.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        norms = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "norm"
                 and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"]
        norms += [node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"]
        assert norms == [], f"{path.name} takes numpy's norm on lines {norms}"


def _flats_at(how, scale):
    """The flats one library entry point builds at offset norm scale."""
    if how == "FlatSpec":
        return [FlatSpec([[0.6, 0.8]], [-0.8 * scale, 0.6 * scale])]
    if how == "random_flat":
        return [random_flat(np.random.default_rng(0), 3, 1, scale)]
    flats = []
    dual_transform(lambda zeta: flats.append(zeta) or 0.0, [0.0, 0.6 * scale, 0.8 * scale], 1, Dimensions(3, 2),
                   QuadratureSpec(orientation_samples=4))
    return flats


@pytest.mark.parametrize("how,first", [("FlatSpec", (1e150, 1e-150)),
                                       ("random_flat", (9.999999999999998e149, 1.0000000000000001e-150)),
                                       ("dual_transform", (5.958490108018214e149, 1.678277519760117e-150))])
def test_offset_norm_that_overflows_is_refused_by_every_entry_point(how, first):
    # |offset|^2 overflows at 1e200, so the plane's distance would be inf and
    # its cross-section NaN: the flat is refused, without a numpy warning.
    # At 1e150, |offset|^2 = 1e300 is finite and the flat keeps its bits.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^offset norm is not finite$"):
            _flats_at(how, 1e200)
        zeta = _flats_at(how, 1e150)[0]
        assert (zeta.distance, SlicePlane(zeta).radius) == first


def test_non_orthogonal_offset_whose_norm_overflows_is_refused():
    # its norm would make the orthogonality tolerance infinite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^offset norm is not finite$"):
            FlatSpec([[1.0, 0.0]], [1e200, 1e200])


def test_unchecked_flats_share_read_only_arrays_only():
    # An unchecked flat is a validated FlatSpec that skipped the checks: the
    # same arrays, properties and repr.  It takes read-only arrays only.
    for basis, offset in [([[1.0, 0.0]], [0.0, 1.0]), ([[0.6, 0.8]], [-2.4, 1.8]),
                          ([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], [0.0, -0.5, 0.0])]:
        flat_spec = FlatSpec(np.array(basis), np.array(offset))
        writable_basis, writable_offset = np.array(basis), np.array(offset)
        for args in [(flat_spec.basis, writable_offset), (writable_basis, flat_spec.offset),
                     (writable_basis, writable_offset)]:
            with pytest.raises(ValueError, match="read-only"):
                _unchecked_flat(*args)
        flat = _unchecked_flat(flat_spec.basis, flat_spec.offset)
        assert type(flat) is FlatSpec and flat == flat_spec
        assert flat.basis is flat_spec.basis and flat.offset is flat_spec.offset
        assert (flat.dim, flat.ambient_dim, flat.distance) == (flat_spec.dim, flat_spec.ambient_dim,
                                                               flat_spec.distance)
        assert repr(flat) == repr(flat_spec)
        with pytest.raises(dataclasses.FrozenInstanceError):
            flat.offset = flat_spec.offset


# -- flats drawn and validated as one stack ---------------------------------------


def _random_planes_one_at_a_time(n, k, count, seed):
    """The CLI's plane draws as a loop of random_flat calls: each plane's t, then its matrix."""
    rng = np.random.default_rng(seed)
    planes = []
    for _ in range(count):
        t = math.tan(rng.uniform(0.0, math.pi / 2.0 - 0.01))
        planes.append(random_flat(rng, n, k - 1, t))
    return planes


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (3, 3), (5, 3)])
def test_stacked_draw_equals_the_per_plane_loop(seed, n, k):
    bases, offsets = _random_planes(Dimensions(n, k), 80, seed)
    reference = _random_planes_one_at_a_time(n, k, 80, seed)
    assert len(bases) == len(offsets) == len(reference)
    assert not bases.flags.writeable and not offsets.flags.writeable
    for basis, offset, want in zip(bases, offsets, reference):
        assert np.array_equal(basis, want.basis)
        assert np.array_equal(offset, want.offset)
        # the layout of FlatSpec's own copy of q[:, :dim].T
        assert basis.strides == want.basis.strides


def _valid_stack(count=6, n=4, dim=2):
    rng = np.random.default_rng(1)
    flats = [random_flat(rng, n, dim, t) for t in np.linspace(0.0, 3.0, count)]
    return np.array([f.basis for f in flats]), np.array([f.offset for f in flats])


def _spoil(member, how, basis, offset):
    if how == "non-finite":
        basis[member, 0, 1] = np.nan
    elif how == "non-orthonormal":
        basis[member] *= 1.0 + 1e-9
    elif how == "overflowing":
        offset[member] = 1e200 * _complete_orthonormal(basis[member], basis.shape[-1])[-1]
    else:
        offset[member] += 1e-9 * basis[member, 0]


@pytest.mark.parametrize("how", ["non-finite", "non-orthonormal", "non-orthogonal", "overflowing"])
@pytest.mark.parametrize("member", [0, 3, 5])
def test_stacked_checks_raise_flatspecs_message_for_one_bad_member(how, member):
    basis, offset = _valid_stack()
    _check_flats(basis, offset)
    _spoil(member, how, basis, offset)
    with pytest.raises(ValueError) as single:
        FlatSpec(basis[member], offset[member])
    with pytest.raises(ValueError) as stacked:
        _check_flats(basis, offset)
    assert str(stacked.value) == str(single.value)
    assert str(single.value) in ("flat specification must be finite", "basis rows must be orthonormal",
                                 "offset must be orthogonal to the basis", "offset norm is not finite")


def test_stacked_draw_refuses_a_non_finite_matrix():
    gaussians = np.random.default_rng(2).standard_normal((5, 3, 2))
    gaussians[2, 1, 0] = np.inf
    with pytest.raises(ValueError, match="flat specification must be finite"):
        _gaussian_flats(gaussians, [1.0] * 5)
