"""End-to-end acceptance checks.

Each test prints one always-visible PASS/FAIL line so a plain pytest run
doubles as the acceptance report.  Criteria with a runtime budget assert the
elapsed wall time as well.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from sphslice import (
    Dimensions,
    PlaneField,
    QuadratureSpec,
    RieszParams,
    SceneSpec,
    build_field,
    coeff_B_l,
    coeff_c,
    coeff_d,
    existence_check,
    factorization_check,
    invert_radon,
    invert_slice,
    make_flat,
    power_growth_field,
    radon_john,
    random_flat,
    scene_profile,
    section_to_plane,
    sigma,
    slice_transform,
    sphere_rule,
    suggested_cutoff,
    zonal_forward,
    zonal_invert,
)
from sphslice.cli import main as cli_main

DIM_COMBOS = [Dimensions(2, 2), Dimensions(3, 2), Dimensions(3, 3)]
FOUR_FAMILIES = ["constant", "zonal_gaussian", "cap_bump", "first_harmonic_weighted"]


def report(capsys, num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:02d} {verdict}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def seeded_planes(dims, count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        t = math.tan(rng.uniform(0.0, math.pi / 2.0 - 0.01))
        out.append(section_to_plane(random_flat(rng, dims.n, dims.k - 1, t)))
    return out


def test_01_factorization_identity(capsys):
    start = time.perf_counter()
    worst = 0.0
    worst_case = ""
    for dims in DIM_COMBOS:
        for family in FOUR_FAMILIES:
            scene = SceneSpec(family=family, parameters={}, dims=dims)
            if family == "cap_bump":
                # the bump's steep support edge needs far more nodes than the
                # smooth families; the runtime budget has room to spare
                sphere_order, radial_order = (512, 256) if dims.k == 2 else (320, 192)
            else:
                sphere_order, radial_order = 48, 64
            spec = QuadratureSpec(sphere_order=sphere_order, radial_order=radial_order,
                                  radial_cutoff=suggested_cutoff(scene))
            field = build_field(scene)
            for tau in seeded_planes(dims, 50, seed=dims.n * 100 + dims.k * 10):
                rel = factorization_check(field, tau, spec).rel_diff
                if rel > worst:
                    worst = rel
                    worst_case = f"{family} n={dims.n} k={dims.k}"
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 120.0
    report(capsys, 1, ok,
           f"factorization on 600 planes: worst rel diff {worst:.3e} "
           f"({worst_case}), {elapsed:.1f}s")


def test_02_constant_slice_closed_form(capsys):
    scene = SceneSpec(family="constant", parameters={})
    field = build_field(scene)
    spec = QuadratureSpec(sphere_order=48, radial_order=64, radial_cutoff=12.0)
    worst = 0.0
    rng = np.random.default_rng(2)
    for dims in DIM_COMBOS:
        for dist in [0.0, 0.3, 0.7, 0.95]:
            t = dist / math.sqrt(1.0 - dist**2)
            tau = section_to_plane(random_flat(rng, dims.n, dims.k - 1, t))
            value = slice_transform(field, tau, spec)
            expect = sigma(dims.k - 1) * (1.0 - tau.dist**2) ** ((dims.k - 1) / 2.0)
            worst = max(worst, abs(value - expect))
    report(capsys, 2, worst <= 1e-8,
           f"constant-field section area, worst abs diff {worst:.3e}")


def test_03_zonal_forward_matches_slices(capsys):
    worst = 0.0
    rng = np.random.default_rng(3)
    for k in (2, 3):
        dims = Dimensions(3, k)
        scene = SceneSpec(family="zonal_gaussian", parameters={}, dims=dims)
        profile = scene_profile(scene)
        field = build_field(scene)
        spec = QuadratureSpec(sphere_order=48, radial_order=64, radial_cutoff=12.0)
        for t in np.linspace(0.0, 3.0, 20):
            direct = slice_transform(field, section_to_plane(
                random_flat(rng, 3, k - 1, float(t))), spec)
            zonal = zonal_forward(profile, float(t), dims, spec)
            worst = max(worst, abs(zonal - direct) / max(abs(direct), 1e-300))
    report(capsys, 3, worst <= 1e-6,
           f"zonal formula vs direct sections at 40 offsets, worst rel {worst:.3e}")


def test_04_zonal_round_trip(capsys):
    start = time.perf_counter()
    s_grid = np.geomspace(0.1, 10.0, 65)
    worst = 0.0
    cases = []
    for family, k, cutoff in [("zonal_gaussian", 2, 12.0),
                              ("zonal_gaussian", 3, 12.0),
                              ("custom_rational", 2, 1e4)]:
        dims = Dimensions(3, k)
        if family == "custom_rational":
            def truth(s):
                return 1.0 / (1.0 + np.asarray(s, dtype=float) ** 2) ** 2
        else:
            truth = scene_profile(SceneSpec(family=family, parameters={}, dims=dims))
        spec = QuadratureSpec(radial_order=64, radial_cutoff=cutoff)

        def forward(t):
            return zonal_forward(truth, float(t), dims, spec)

        recovered = zonal_invert(forward, dims, spec)
        ref = np.asarray(truth(s_grid), dtype=float)
        err = float(np.max(np.abs(recovered(s_grid) - ref) / (1.0 + np.abs(ref))))
        cases.append(f"{family} k={k}: {err:.2e}")
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-3 and elapsed < 30.0
    report(capsys, 4, ok,
           f"profile round trips ({'; '.join(cases)}), {elapsed:.1f}s")


def test_05_radon_inversion_gaussian(capsys):
    start = time.perf_counter()
    dims = Dimensions(2, 2)
    spec = QuadratureSpec(sphere_order=64, radial_order=64, radial_cutoff=12.0,
                          orientation_samples=256)
    params = RieszParams(k_order=1, eps=0.05, outer_R=30.0)
    gauss = PlaneField(lambda x: np.exp(-np.sum(np.asarray(x) ** 2, axis=-1)))
    # the line data are radon_john(gauss, zeta, spec), one stack per orientation
    reconstruction = invert_radon(gauss, dims, params, spec)
    axis = np.linspace(-2.0, 2.0, 41)
    xx, yy = np.meshgrid(axis, axis)
    points = np.stack([xx, yy], axis=-1)
    rec = reconstruction(points)
    truth = gauss(points)
    err = float(np.max(np.abs(rec - truth)) / np.max(np.abs(truth)))
    elapsed = time.perf_counter() - start
    ok = err <= 0.02 and elapsed < 600.0
    report(capsys, 5, ok,
           f"plane Gaussian recovered on 41x41 grid, sup rel err {err:.3e}, {elapsed:.0f}s")


def _slice_inversion_error(family, seed):
    dims = Dimensions(2, 2)
    scene = SceneSpec(family=family, parameters={}, dims=dims)
    field = build_field(scene)
    data_spec = QuadratureSpec(sphere_order=32, radial_order=48, radial_cutoff=10.0,
                               orientation_samples=96, seed=seed)
    params = RieszParams(k_order=1, eps=0.1, outer_R=20.0)
    # the slice data are slice_transform(field, tau, data_spec), one stack per orientation
    reconstruction = invert_slice(field, dims, params, data_spec)
    pts, _ = sphere_rule(2, 16)
    pts = pts[pts[:, -1] <= 0.99]
    rec = reconstruction(pts)
    truth = field(pts)
    return float(np.max(np.abs(rec - truth)) / np.max(np.abs(truth)))


def test_06_slice_inversion_on_sphere(capsys):
    zonal_err = _slice_inversion_error("zonal_gaussian", seed=6)
    harmonic_err = _slice_inversion_error("first_harmonic_weighted", seed=7)
    ok = zonal_err <= 0.02 and harmonic_err <= 0.05
    report(capsys, 6, ok,
           f"sphere reconstruction below cap 0.99: zonal bump {zonal_err:.3e} "
           f"(tol 2e-2), harmonic bump {harmonic_err:.3e} (tol 5e-2)")


def test_07_support_theorem(capsys):
    dims = Dimensions(3, 2)
    scene = SceneSpec(family="cap_bump", parameters={"b": 0.0}, dims=dims)
    field = build_field(scene)
    spec = QuadratureSpec(sphere_order=48, radial_order=64, radial_cutoff=12.0)
    dense, _ = sphere_rule(3, 24)
    peak = float(np.max(np.abs(field(dense))))
    rng = np.random.default_rng(7)
    thresh = math.sqrt(0.5)
    beyond = 0.0
    for _ in range(200):
        dist = rng.uniform(thresh + 1e-9, 0.999)
        t = dist / math.sqrt(1.0 - dist**2)
        tau = section_to_plane(random_flat(rng, 3, 1, t))
        beyond = max(beyond, abs(slice_transform(field, tau, spec)))
    t_half = 0.5 / math.sqrt(0.75)
    control = min(
        abs(slice_transform(field, section_to_plane(random_flat(rng, 3, 1, t_half)), spec))
        for _ in range(20)
    )
    ok = beyond <= 1e-10 * peak and control > 1e-3
    report(capsys, 7, ok,
           f"sections beyond sqrt(1/2): max |integral| {beyond:.3e} "
           f"(budget {1e-10 * peak:.1e}); control at 0.5 min {control:.3e}")


def test_08_existence_flips(capsys):
    spec = QuadratureSpec(sphere_order=48, radial_order=64)
    lines = []
    ok = True
    for k in (2, 3):
        dims = Dimensions(3, k)
        crit = (k - 1) / 2.0
        below = existence_check(power_growth_field(crit - 0.1), dims, spec=spec).verdict
        above = existence_check(power_growth_field(crit + 0.1), dims, spec=spec).verdict
        ok = ok and below == "converges" and above == "diverges"
        lines.append(f"k={k}: {crit - 0.1:.1f}->{below}, {crit + 0.1:.1f}->{above}")
    report(capsys, 8, ok, f"pole-growth verdicts ({'; '.join(lines)})")


def test_09_normalizing_constants(capsys):
    mpmath.mp.dps = 40

    def mp_c(k, n):
        return 2**k * mpmath.pi ** (k / 2.0) * mpmath.gamma(n / 2) / mpmath.gamma((n - k) / 2)

    def mp_B(ell, alpha):
        return mpmath.fsum(
            (-1) ** j * mpmath.binomial(ell, j) * mpmath.mpf(j) ** alpha
            for j in range(1, ell + 1)
        )

    def mp_d(n, ell, alpha):
        front = mpmath.pi ** (n / 2.0) / (2**alpha * mpmath.gamma((n + alpha) / 2))
        return front * mpmath.gamma(-mpmath.mpf(alpha) / 2) * mp_B(ell, alpha)

    checks = [
        ("c(1,2)", coeff_c(1, 2), 2.0, float(mp_c(1, 2))),
        ("c(1,3)", coeff_c(1, 3), math.pi, float(mp_c(1, 3))),
        ("c(2,3)", coeff_c(2, 3), 2.0 * math.pi, float(mp_c(2, 3))),
        ("d_{2,1}(1)", coeff_d(2, 1, 1), 2.0 * math.pi, float(mp_d(2, 1, 1))),
        ("B_2(2)", coeff_B_l(2, 2.0), 2.0, float(mp_B(2, 2))),
    ]
    worst = 0.0
    for _, got, frozen, oracle in checks:
        scale = max(1.0, abs(frozen))
        worst = max(worst, abs(got - frozen) / scale, abs(got - oracle) / scale)
    report(capsys, 9, worst <= 1e-12,
           f"five normalizing constants vs closed forms, worst diff {worst:.2e}")


def test_10_gaussian_radon_oracle(capsys):
    spec = QuadratureSpec(radial_order=64, radial_cutoff=12.0)
    gauss = PlaneField(lambda x: np.exp(-np.sum(np.asarray(x) ** 2, axis=-1)))
    worst = 0.0
    for d in [0.0, 0.5, 1.0, 2.0]:
        zeta = make_flat(np.array([[0.0, 1.0]]), np.array([d, 0.0]))
        value = radon_john(gauss, zeta, spec)
        worst = max(worst, abs(value - math.sqrt(math.pi) * math.exp(-d * d)))
    report(capsys, 10, worst <= 1e-10,
           f"line integrals of the plane Gaussian at four distances, worst abs {worst:.3e}")


def test_11_cli_determinism(capsys, tmp_path):
    scene = tmp_path / "scene.txt"
    scene.write_text("family = zonal_gaussian\namplitude = 1.0\nwidth = 1.0\nn = 3\nk = 2\n")
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = cli_main(["factor-check", str(scene), "6", "--seed", "9",
                         "--sphere-order", "48", "--radial-order", "64",
                         "--out", str(out)])
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    report(capsys, 11, ok,
           f"two seeded factor-check runs wrote identical CSV ({len(outputs[0])} bytes)")
