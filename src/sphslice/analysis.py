"""Existence diagnostics near the pole and support experiments for the transforms.

The slice transform of f exists on all planes when the cap integral

    int_{eta_last > 1 - eps} |f(eta)| (1 - eta_last)^{-(n+1-k)/2} dS(eta)

is finite, and the exponent (k-1)/2 in the growth of f towards the pole is the
sharp threshold.  All cap integrals here are parameterized by u = 1 - eta_last
and refined geometrically towards u = 0; verdicts are read off the trace of
partial integrals.  Refinement stops at u = 1e-12 because below that the
pole-distance of a stored unit vector has no accurate digits left.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Dimensions, _draw_flats
from .quadrature import QuadratureSpec, _as_integer, composite_gauss, sphere_rule
from .transforms import PlaneField, SphereField, _blocks, _flat_sums, _slice_sums

__all__ = [
    "CapSpec",
    "existence_check",
    "lp_weight_check",
    "power_growth_field",
    "support_experiment",
    "kplane_support_probe",
]

# Cap integrals refine down to this pole distance in u = 1 - eta_last; closer
# than this, u recomputed from unit-vector coordinates keeps no precision.
U_FLOOR = 1e-12

# Outer edge of the refined cap; lp_weight_check integrates the rest of the
# sphere as one bulk annulus.
U_BASE = 1e-2

# Cauchy threshold on the last increment, from the convergence contract.
CAUCHY_TOL = 1e-6

# Divergence heuristics: cap value exceeding this, or growing by at least
# this factor over four consecutive levels, is ruled divergent.
MAGNITUDE_LIMIT = 1e6
GROWTH_FACTOR = 1.5

# Trend thresholds on successive annulus masses: non-decaying masses mean the
# refinement adds at least a constant per level (divergent); masses decaying
# geometrically bound the tail by a geometric series (convergent).
INCREMENT_FLAT = 0.98
INCREMENT_DECAY = 0.9

# Support experiment: plane distance of the control planes, the largest
# far-plane transform, relative to the peak of the field, that counts as zero,
# and the smallest control-plane transform, relative to that peak, that shows
# the data is not trivially zero.
CONTROL_DIST = 0.5
NOISE_FLOOR = 1e-10
CONTROL_FLOOR = 1e-3


@dataclass(frozen=True)
class CapSpec:
    """Polar cap {eta_last > b} and the matching plane-distance threshold."""

    b: float

    def __post_init__(self):
        if not -1.0 < self.b < 1.0:
            raise ValueError("cap height b must lie in (-1, 1)")

    @property
    def b_star(self) -> float:
        """Planes with dist > b_star have their cross-section inside the cap."""
        return math.sqrt(0.5 * (1.0 + self.b))


@dataclass(frozen=True)
class VerdictReport:
    """Outcome of a refinement study: verdict plus the trace it was read from."""

    verdict: str  # converges | diverges | inconclusive
    trace: tuple[tuple[int, float], ...]

    @property
    def value(self) -> float:
        return self.trace[-1][1] if self.trace else 0.0


def power_growth_field(mu: float) -> SphereField:
    """The field (1 - eta_last)^{-mu}, the canonical pole-growth family.

    Existence of the slice transform flips exactly at mu = (k-1)/2: below the
    threshold every plane integral converges, at and above it the integrals
    over planes through the pole do not.
    """

    def eval_power(eta):
        eta = np.asarray(eta, dtype=float)
        u = 1.0 - eta[..., -1]
        with np.errstate(divide="ignore", over="ignore"):
            return np.where(u > 0.0, u ** (-mu), np.inf if mu > 0 else (1.0 if mu == 0 else 0.0))

    return SphereField(eval=eval_power, pole_exponent=max(mu, 0.0), zonal=True)


def _cap_point_batch(u: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Sphere points at pole distance u (first axis) and direction omega (second)."""
    sin_pol = np.sqrt(u * (2.0 - u))
    pts = np.empty((len(u), len(omega), omega.shape[1] + 1))
    pts[:, :, :-1] = sin_pol[:, None, None] * omega[None, :, :]
    pts[:, :, -1] = (1.0 - u)[:, None]
    return pts


def _annulus_integral(
    f: SphereField,
    dims: Dimensions,
    u_lo: float,
    u_hi: float,
    u_exponent: float,
    power: float,
    spec: QuadratureSpec,
) -> float:
    """Integral of |f|^power u^{u_exponent} dS over the annulus u_lo < u < u_hi."""
    omega, w_omega = sphere_rule(dims.n - 1, spec.sphere_order)
    u, w_u = composite_gauss(u_lo, u_hi, min(spec.radial_order, 32))
    # The field sees blocks of whole rows of u, at most _BLOCK_POINTS points
    # each unless one row is larger; the sums below run on the full array.
    vals = np.empty((len(u), len(omega)))
    for block in _blocks(len(u), len(omega)):
        pts = _cap_point_batch(u[block], omega)
        vals[block] = np.abs(f(pts.reshape(-1, dims.n + 1))).reshape(-1, len(omega))
    if power != 1.0:
        vals = vals**power
    angular = vals @ w_omega
    # Surface measure dS = (u(2-u))^{(n-2)/2} du d(omega).
    radial = u**u_exponent * (u * (2.0 - u)) ** (0.5 * (dims.n - 2))
    total = float(np.sum(w_u * radial * angular))
    if not np.isfinite(total):
        raise ValueError("integrand blowup in cap integral")
    return total


def _default_levels() -> list[float]:
    # Shrink the inner radius by 100x per level until the representable floor.
    levels = []
    u = U_BASE
    while u / 100.0 >= U_FLOOR * (1.0 - 1e-9):
        u /= 100.0
        levels.append(u)
    return levels


def _refinement_verdict(values: list[float]) -> str:
    incs = [values[0]] + [b - a for a, b in zip(values[:-1], values[1:])]
    last = values[-1]
    if abs(incs[-1]) <= CAUCHY_TOL * max(1.0, abs(last)):
        return "converges"
    if abs(last) > MAGNITUDE_LIMIT:
        return "diverges"

    def tail_ratios(seq):
        pairs = [(a, b) for a, b in zip(seq[:-1], seq[1:])][-4:]
        if len(pairs) < 4 or any(a <= 0 for a, _ in pairs):
            return None
        return [b / a for a, b in pairs]

    value_ratios = tail_ratios(values)
    if value_ratios and all(r >= GROWTH_FACTOR for r in value_ratios):
        return "diverges"
    inc_ratios = tail_ratios(incs)
    if inc_ratios and all(r >= INCREMENT_FLAT for r in inc_ratios):
        return "diverges"
    if inc_ratios and all(r <= INCREMENT_DECAY for r in inc_ratios):
        return "converges"
    return "inconclusive"


def _refine_to_pole(f: SphereField, dims: Dimensions, exponent: float, power: float,
                    spec: QuadratureSpec, total: float) -> VerdictReport:
    """Add the weighted annulus integrals closing in on the pole to total and judge the trace."""
    trace = []
    u_hi = U_BASE
    for level, u_lo in enumerate(_default_levels()):
        total += _annulus_integral(f, dims, u_lo, u_hi, exponent, power, spec)
        trace.append((level, total))
        u_hi = u_lo
    return VerdictReport(verdict=_refinement_verdict([v for _, v in trace]), trace=tuple(trace))


def existence_check(f: SphereField, dims: Dimensions, spec: QuadratureSpec) -> VerdictReport:
    """Refinement study of the existence integral of f near the pole.

    Integrates |f| against the pole weight (1 - eta_last)^{-(n+1-k)/2} over
    annuli closing in on the pole and judges convergence from the trace of
    partial integrals: a Cauchy tail or geometrically decaying annulus masses
    mean convergence; masses that stop decaying, growth by >= 1.5x over four
    levels, or magnitudes beyond 1e6 mean divergence.
    """
    return _refine_to_pole(f, dims, -0.5 * (dims.n + 1 - dims.k), 1.0, spec, 0.0)


def lp_weight_check(f: SphereField, p: float, dims: Dimensions, spec: QuadratureSpec) -> float:
    """Weighted Lp norm ||(1 - eta_last)^{k-1-n/p} f||_p over the sphere.

    The admissible range is 1 <= p < n/(k-1).  The cap part is refined like
    existence_check; if the refinement diverges the result is inf.
    """
    n, k = dims.n, dims.k
    if not 1.0 <= p < n / (k - 1.0):
        raise ValueError("p out of admissible range [1, n/(k-1))")
    exponent = p * (k - 1.0) - n
    bulk = _annulus_integral(f, dims, U_BASE, 2.0, exponent, p, spec)
    report = _refine_to_pole(f, dims, exponent, p, spec, bulk)
    if report.verdict == "diverges":
        return math.inf
    return float(report.value ** (1.0 / p))


@dataclass(frozen=True)
class SupportReport:
    """Outcome of the vanishing-data support experiment."""

    threshold: float          # b_star of the cap
    scale: float              # peak |f| over the probe sample
    max_beyond: float         # largest |transform| over planes with dist > b_star
    max_control: float        # largest |transform| over control planes
    trials: int
    noise_floor: float

    @property
    def vanishing_ok(self) -> bool:
        return self.max_beyond <= self.noise_floor * max(self.scale, 1e-300)

    @property
    def control_ok(self) -> bool:
        return self.max_control > CONTROL_FLOOR * max(self.scale, 1e-300)


def _peak_on_sphere(f: SphereField, dims: Dimensions, spec: QuadratureSpec) -> float:
    pts, _ = sphere_rule(dims.n, min(spec.sphere_order, 48))
    return float(np.max(np.abs(f(pts))))


def support_experiment(
    f: SphereField,
    cap: CapSpec,
    dims: Dimensions,
    spec: QuadratureSpec,
    trials: int,
) -> SupportReport:
    """Test that data over far planes vanishes for a field vanishing on the cap.

    A field f supported in {eta_last <= b} must give zero slice transforms on
    every plane with dist > b_star, since such cross-sections stay inside the
    cap; the report records the worst violation against NOISE_FLOOR * peak(f),
    plus control values at distance CONTROL_DIST showing the data is not
    trivially zero.  Only the forward transform is sampled; no inversion runs.
    """
    _check_trials(trials)
    rng = np.random.default_rng(spec.seed)
    scale = _peak_on_sphere(f, dims, spec)
    transform = functools.partial(_slice_sums, f, spec=spec)

    def far_offset(rng):
        dist = cap.b_star + (0.999 - cap.b_star) * rng.uniform(1e-3, 1.0)
        return dist / math.sqrt(1.0 - dist * dist)

    t_control = CONTROL_DIST / math.sqrt(1.0 - CONTROL_DIST**2)
    max_beyond = _probe_max(rng, dims, trials, far_offset, transform)
    max_control = _probe_max(rng, dims, max(8, trials // 8), lambda rng: t_control, transform)
    return SupportReport(threshold=cap.b_star, scale=scale, max_beyond=max_beyond, max_control=max_control,
                         trials=trials, noise_floor=NOISE_FLOOR)


def _check_trials(trials):
    """Refuse a trial count that is not a Python or numpy integer of at least 1."""
    if _as_integer(trials) is None:
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")


def _probe_max(rng, dims: Dimensions, count: int, offset, transform) -> float:
    """Largest |value| of transform(bases, offsets) over one stack of `count` random flats of dimension dims.k - 1.

    Each flat draws its offset magnitude `offset(rng)` first, then its orientation.
    """
    return max([0.0, *map(abs, transform(*_draw_flats(rng, dims.n, dims.k - 1, count, offset)))])


@dataclass(frozen=True)
class KPlaneProbeReport:
    """Largest transform magnitudes seen outside and inside a support radius."""

    radius: float
    max_outside: float
    max_control: float
    trials: int


def kplane_support_probe(
    g: PlaneField,
    r: float,
    dims: Dimensions,
    spec: QuadratureSpec,
    trials: int,
) -> KPlaneProbeReport:
    """Probe whether flat integrals of g vanish on flats avoiding the ball |x| <= r.

    For g supported in that ball the transform vanishes on every flat at
    distance beyond r; fields without compact support (a Gaussian, say) show
    nonzero values outside any radius, and the report simply records the
    magnitudes.  Flats have the trace dimension dims.k - 1; the flat integrals
    warn when the decay exponent of g does not exceed it.
    """
    if not 0.0 < r < math.inf:
        raise ValueError(f"support radius must be positive and finite, got {r!r}")
    _check_trials(trials)
    rng = np.random.default_rng(spec.seed)
    transform = functools.partial(_flat_sums, g, spec=spec)
    max_outside = _probe_max(rng, dims, trials, lambda rng: r * rng.uniform(1.05, 3.0), transform)
    max_control = _probe_max(rng, dims, max(8, trials // 8), lambda rng: 0.5 * r, transform)
    return KPlaneProbeReport(radius=r, max_outside=max_outside, max_control=max_control, trials=trials)
