import dataclasses
import math

import numpy as np
import pytest

from sphslice import (
    CapSpec,
    Dimensions,
    PlaneField,
    QuadratureSpec,
    SphereField,
    existence_check,
    kplane_support_probe,
    lp_weight_check,
    power_growth_field,
    support_experiment,
)
from sphslice.analysis import CONTROL_DIST, CONTROL_FLOOR, NOISE_FLOOR, KPlaneProbeReport, SupportReport
from sphslice.geometry import SlicePlane, random_flat
from sphslice.quadrature import sphere_rule
from sphslice.transforms import radon_john, slice_transform

SPEC = QuadratureSpec()


def test_cap_threshold():
    assert CapSpec(0.0).b_star == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert CapSpec(0.99).b_star == pytest.approx(0.9974968671630001, abs=1e-15)
    with pytest.raises(ValueError):
        CapSpec(1.0)
    with pytest.raises(ValueError):
        CapSpec(-1.0)


def test_power_growth_field_values():
    f = power_growth_field(0.5)
    pts = np.array([[1.0, 0.0, 0.0], [0.6, 0.0, 0.8]])
    want = (1.0 - pts[:, -1]) ** -0.5
    assert np.allclose(f(pts), want, rtol=1e-14)
    pole = np.array([[0.0, 0.0, 1.0]])
    assert np.isinf(power_growth_field(0.5)(pole))[0]
    assert power_growth_field(-1.0)(pole)[0] == 0.0


@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (3, 3)])
def test_existence_verdict_flips_at_critical_growth(n, k):
    dims = Dimensions(n, k)
    critical = (k - 1) / 2.0
    below = existence_check(power_growth_field(critical - 0.1), dims, spec=SPEC)
    above = existence_check(power_growth_field(critical + 0.1), dims, spec=SPEC)
    assert below.verdict == "converges"
    assert above.verdict == "diverges"


def test_existence_boundary_growth_diverges():
    # at the critical exponent the cap integral diverges logarithmically
    dims = Dimensions(3, 2)
    report = existence_check(power_growth_field(0.5), dims, spec=SPEC)
    assert report.verdict == "diverges"


def test_existence_constant_converges():
    f = SphereField(lambda eta: np.ones(len(np.atleast_2d(eta))))
    report = existence_check(f, Dimensions(2, 2), spec=SPEC)
    assert report.verdict == "converges"
    assert len(report.trace) >= 3
    assert report.value == report.trace[-1][1]


def test_lp_weight_range_validation():
    f = SphereField(lambda eta: np.ones(len(np.atleast_2d(eta))))
    with pytest.raises(ValueError, match="admissible"):
        lp_weight_check(f, 3.5, Dimensions(3, 2), SPEC)
    with pytest.raises(ValueError, match="admissible"):
        lp_weight_check(f, 0.5, Dimensions(3, 2), SPEC)


def test_lp_weight_constant_is_infinite():
    # the weight concentrates non-integrable mass at the pole for a constant
    f = SphereField(lambda eta: np.ones(len(np.atleast_2d(eta))))
    assert lp_weight_check(f, 1.0, Dimensions(3, 2), SPEC) == math.inf


def test_lp_weight_decaying_field_is_finite():
    f = SphereField(
        lambda eta: (1.0 - np.atleast_2d(eta)[:, -1]) ** 2,
        pole_exponent=-2.0,
    )
    value = lp_weight_check(f, 1.0, Dimensions(3, 2), SPEC)
    assert np.isfinite(value)
    assert value > 0.0


def test_lp_weight_matches_the_area_of_the_sphere():
    # against the weight (1 - eta_last)^(k-1-n/p) = (1 - eta_last)^-2 the
    # field (1 - eta_last)^2 integrates 1 over S^3, of area 2 pi^2; the cap
    # refinement adds to the bulk integral
    f = SphereField(lambda eta: (1.0 - np.atleast_2d(eta)[:, -1]) ** 2, pole_exponent=-2.0)
    assert lp_weight_check(f, 1.0, Dimensions(3, 2), SPEC) == pytest.approx(2.0 * math.pi**2, rel=1e-5)


def test_lp_weight_zero_field():
    f = SphereField(lambda eta: np.zeros(len(np.atleast_2d(eta))))
    assert lp_weight_check(f, 1.0, Dimensions(3, 2), SPEC) == 0.0


def cap_bump_field(b=0.0, sharpness=0.1):
    def evaluate(eta):
        eta = np.atleast_2d(eta)
        gap = b - eta[:, -1]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            vals = np.where(gap > 0.0, np.exp(-sharpness / np.where(gap > 0.0, gap, 1.0)), 0.0)
        return vals

    return SphereField(evaluate)


def test_support_vanishes_beyond_threshold():
    dims = Dimensions(2, 2)
    report = support_experiment(cap_bump_field(), CapSpec(0.0), dims, SPEC, trials=40)
    assert report.vanishing_ok
    assert report.max_beyond <= report.noise_floor * report.scale
    assert report.max_control > 1e-3
    assert report.trials == 40


def test_support_detects_unsupported_field():
    dims = Dimensions(2, 2)
    wide = SphereField(
        lambda eta: np.exp(-(1.0 + np.atleast_2d(eta)[:, -1]) / (1.0 - np.atleast_2d(eta)[:, -1])),
    )
    report = support_experiment(wide, CapSpec(0.0), dims, SPEC, trials=20)
    assert not report.vanishing_ok


@pytest.mark.parametrize("scale", [0.0, 1.0, 250.0])
def test_support_control_verdict_boundary(scale):
    floor = CONTROL_FLOOR * max(scale, 1e-300)

    def report(max_control):
        return SupportReport(threshold=0.7, scale=scale, max_beyond=0.0, max_control=max_control,
                             trials=1, noise_floor=NOISE_FLOOR)

    # The control data must exceed the floor strictly to show it is not zero.
    assert not report(0.0).control_ok
    assert not report(floor).control_ok
    assert report(np.nextafter(floor, np.inf)).control_ok


def disk_bump_plane_field():
    def evaluate(x):
        x = np.asarray(x, dtype=float)
        r2 = np.sum(x**2, axis=-1)
        inside = r2 < 1.0
        safe = np.where(inside, 1.0 - r2, 1.0)
        return np.where(inside, np.exp(-1.0 / safe), 0.0)

    return PlaneField(evaluate, decay_exponent=None)


def test_kplane_probe_compact_support():
    dims = Dimensions(3, 2)
    report = kplane_support_probe(disk_bump_plane_field(), 1.0, dims, SPEC, trials=20)
    assert report.max_outside == 0.0
    assert report.max_control > 1e-6
    assert report.radius == 1.0


def test_kplane_probe_gaussian_does_not_vanish():
    g = PlaneField(
        lambda x: np.exp(-np.sum(np.asarray(x) ** 2, axis=-1)), decay_exponent=None
    )
    report = kplane_support_probe(g, 1.0, Dimensions(3, 2), SPEC, trials=20)
    assert report.max_outside > 1e-6


def test_kplane_probe_warns_on_slow_decay():
    g = PlaneField(
        lambda x: (1.0 + np.sum(np.asarray(x) ** 2, axis=-1)) ** -0.5, decay_exponent=1.0
    )
    with pytest.warns(UserWarning, match="decay"):
        kplane_support_probe(g, 1.0, Dimensions(3, 2), SPEC, trials=4)


@pytest.mark.parametrize("trials", [0, -1])
def test_kplane_probe_refuses_no_trials(trials):
    # zero far flats would report max_outside 0, which reads as vanishing
    def refuse(x):
        raise AssertionError("the field was evaluated")

    with pytest.raises(ValueError, match="trials must be >= 1"):
        kplane_support_probe(PlaneField(refuse, decay_exponent=None), 1.0, Dimensions(3, 2), SPEC, trials)


def _loop_max(rng, n, d, count, offset, transform):
    # The probe loop as written out in each report before they shared one.
    peak = 0.0
    for _ in range(count):
        t = offset(rng)
        peak = max(peak, abs(transform(random_flat(rng, n, d, t))))
    return peak


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_probe_reports_keep_their_draws_and_values(seed):
    # Each report equals, field by field, the one its own two loops gave for
    # the same seed: offset first, then orientation, flat after flat.  The
    # fields are not rotation-invariant, so every draw moves the values.
    spec = QuadratureSpec(sphere_order=12, radial_order=12, seed=seed)
    dims, cap = Dimensions(3, 2), CapSpec(0.2)
    f = SphereField(lambda eta: np.exp(np.asarray(eta) @ [0.3, -0.2, 0.5, 0.1]))
    rng = np.random.default_rng(seed)
    scale = float(np.max(np.abs(f(sphere_rule(3, 12)[0]))))

    def far(rng):
        dist = cap.b_star + (0.999 - cap.b_star) * rng.uniform(1e-3, 1.0)
        return dist / math.sqrt(1.0 - dist * dist)

    def transform(zeta):
        return slice_transform(f, SlicePlane(zeta), spec)

    t_control = CONTROL_DIST / math.sqrt(1.0 - CONTROL_DIST**2)
    beyond = _loop_max(rng, 3, 1, 9, far, transform)
    control = _loop_max(rng, 3, 1, 8, lambda rng: t_control, transform)
    want = SupportReport(threshold=cap.b_star, scale=scale, max_beyond=beyond, max_control=control,
                         trials=9, noise_floor=NOISE_FLOOR)
    assert dataclasses.astuple(support_experiment(f, cap, dims, spec, 9)) == dataclasses.astuple(want)

    g = PlaneField(lambda x: np.exp(-np.sum((np.asarray(x) - [0.3, 0.0, 0.1]) ** 2, axis=-1)),
                   decay_exponent=None)
    rng = np.random.default_rng(seed)
    outside = _loop_max(rng, 3, 1, 17, lambda rng: 0.8 * rng.uniform(1.05, 3.0), lambda z: radon_john(g, z, spec))
    control = _loop_max(rng, 3, 1, 8, lambda rng: 0.4, lambda z: radon_john(g, z, spec))
    want = KPlaneProbeReport(radius=0.8, max_outside=outside, max_control=control, trials=17)
    assert dataclasses.astuple(kplane_support_probe(g, 0.8, dims, spec, 17)) == dataclasses.astuple(want)
