"""Planes through the pole of the sphere and their traces in the equatorial plane.

A k-plane through the pole N = e_{n+1} that meets the equatorial copy of R^n
is determined by its trace: an affine (k-1)-flat zeta = span(basis) + v with
v orthogonal to the basis.  Writing t = |v|, the plane sits at distance
t / sqrt(1 + t^2) from the origin and cuts the sphere in a (k-1)-sphere of
radius 1 / sqrt(1 + t^2) centered at the foot of the perpendicular from the
origin.  Those derived quantities, plus an explicit orthonormal frame for the
cross-section, are what the transforms consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import sphere_rule

__all__ = [
    "ORTHO_TOL",
    "Dimensions",
    "FlatSpec",
    "SlicePlane",
    "make_flat",
    "sample_sphere_cross_section",
    "random_flat",
]

# Orthonormality defects beyond this are treated as construction errors.
ORTHO_TOL = 1e-12


@dataclass(frozen=True)
class Dimensions:
    """Ambient sphere dimension n and slice-plane dimension k, 2 <= k <= n."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("sphere dimension n must be >= 2")
        if not 2 <= self.k <= self.n:
            raise ValueError("need 2 <= k <= n")

    @property
    def ambient(self) -> int:
        return self.n + 1


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class FlatSpec:
    """An affine flat in R^n: orthonormal basis rows plus an orthogonal offset."""

    basis: np.ndarray   # shape (d, n), orthonormal rows
    offset: np.ndarray  # shape (n,), orthogonal to every basis row

    def __post_init__(self):
        basis = np.atleast_2d(np.asarray(self.basis, dtype=float))
        offset = np.asarray(self.offset, dtype=float)
        if basis.shape[0] < 1 or basis.shape[1] < 2 or offset.shape != (basis.shape[1],):
            raise ValueError("dimension mismatch in flat specification")
        if not (np.all(np.isfinite(basis)) and np.all(np.isfinite(offset))):
            raise ValueError("flat specification must be finite")
        gram = basis @ basis.T
        if np.max(np.abs(gram - np.eye(basis.shape[0]))) > ORTHO_TOL:
            raise ValueError("basis rows must be orthonormal")
        scale = 1.0 + float(np.linalg.norm(offset))
        if np.max(np.abs(basis @ offset)) > ORTHO_TOL * scale:
            raise ValueError("offset must be orthogonal to the basis")
        object.__setattr__(self, "basis", _freeze(basis))
        object.__setattr__(self, "offset", _freeze(offset))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[1]

    @property
    def distance(self) -> float:
        """Distance of the flat to the origin (equals |offset|)."""
        return float(np.linalg.norm(self.offset))


def _unchecked_flat(basis: np.ndarray, offset: np.ndarray) -> FlatSpec:
    """A FlatSpec whose basis is orthonormal and offset orthogonal by construction.

    Skips the checks of FlatSpec.__post_init__ (tens of microseconds per
    flat) but stores read-only copies as it does.  Only for arrays the library
    has built so that the checks hold.
    """
    flat = object.__new__(FlatSpec)
    object.__setattr__(flat, "basis", _freeze(basis))
    object.__setattr__(flat, "offset", _freeze(offset))
    return flat


def _orthonormalize(rows: np.ndarray) -> np.ndarray:
    # Modified Gram-Schmidt with one re-orthogonalization pass.
    out = []
    for row in rows:
        w = row.astype(float).copy()
        for _ in range(2):
            for u in out:
                w -= (w @ u) * u
        nrm = np.linalg.norm(w)
        if nrm <= ORTHO_TOL * max(1.0, np.linalg.norm(row)):
            raise ValueError("degenerate flat: basis vectors are linearly dependent")
        out.append(w / nrm)
    return np.asarray(out)


def make_flat(basis, offset) -> FlatSpec:
    """Build a FlatSpec from raw spanning vectors and an arbitrary flat point.

    The spanning vectors are orthonormalized; the offset is replaced by its
    component orthogonal to the span, which represents the same affine set.
    """
    rows = np.atleast_2d(np.asarray(basis, dtype=float))
    v = np.asarray(offset, dtype=float)
    if v.ndim != 1 or rows.shape[1] != v.shape[0]:
        raise ValueError("dimension mismatch between basis and offset")
    ortho = _orthonormalize(rows)
    v = v - (v @ ortho.T) @ ortho
    return FlatSpec(ortho, v)


@dataclass(frozen=True)
class SlicePlane:
    """A k-plane through the pole, recorded by its trace in the equatorial plane.

    Derived geometry (all functions of t = |offset|):

    - dist: distance of the plane to the origin, t / sqrt(1 + t^2), in [0, 1)
    - radius: radius of the sphere cross-section, 1 / sqrt(1 + t^2)
    - psi: angle with cos(psi) = dist
    - center: foot of the perpendicular from the origin, in R^{n+1}
    - theta: unit direction of the offset, undefined (None) for t = 0
    """

    section: FlatSpec

    @property
    def dims(self) -> Dimensions:
        return Dimensions(self.section.ambient_dim, self.section.dim + 1)

    @property
    def t(self) -> float:
        return self.section.distance

    @property
    def dist(self) -> float:
        t = self.t
        return t / np.hypot(1.0, t)

    @property
    def radius(self) -> float:
        return 1.0 / np.hypot(1.0, self.t)

    @property
    def psi(self) -> float:
        return float(np.arccos(self.dist))

    @property
    def theta(self) -> np.ndarray | None:
        t = self.t
        if t == 0.0:
            return None
        return self.section.offset / t

    @property
    def center(self) -> np.ndarray:
        """Center of the cross-section sphere, in R^{n+1}."""
        t2 = self.t**2
        u = np.append(self.section.offset, t2) / (1.0 + t2)
        return u

    @property
    def span_direction(self) -> np.ndarray:
        """Unit vector completing the trace directions inside the plane.

        Points from the offset towards the pole; for the central plane (t = 0)
        it is the pole itself.
        """
        t = self.t
        w = np.append(-self.section.offset, 1.0) / np.hypot(1.0, t)
        return w


def _complete_orthonormal(rows: np.ndarray, n: int) -> np.ndarray:
    """Deterministically extend orthonormal rows to a full basis of R^n."""
    out = [r for r in rows]
    for i in range(n):
        cand = np.zeros(n)
        cand[i] = 1.0
        for _ in range(2):
            for u in out:
                cand -= (cand @ u) * u
        nrm = np.linalg.norm(cand)
        if nrm > 1e-8:
            out.append(cand / nrm)
        if len(out) == n:
            break
    if len(out) != n:
        raise ValueError("degenerate flat: could not complete the basis")
    return np.asarray(out)


def random_flat(rng: np.random.Generator, n: int, dim: int, distance: float) -> FlatSpec:
    """Uniformly oriented flat of the given dimension at the given distance.

    The orientation comes from the QR factorization of a Gaussian matrix: the
    first dim columns span the flat, the next column carries the offset.
    """
    if not 1 <= dim <= n - 1:
        raise ValueError("flat dimension must lie in [1, n-1]")
    if distance < 0.0:
        raise ValueError("distance must be >= 0")
    q, r = np.linalg.qr(rng.standard_normal((n, dim + 1)))
    q = q * np.sign(np.diag(r))
    return FlatSpec(q[:, :dim].T, distance * q[:, dim])


def sample_sphere_cross_section(tau: SlicePlane, order: int):
    """Quadrature nodes and weights on the cross-section of the sphere by tau.

    The cross-section is the (k-1)-sphere of radius tau.radius centered at
    tau.center inside the plane.  Nodes come from a product rule of the given
    order per angular dimension, mapped through an orthonormal frame of the
    plane's direction space; weights carry the radius^{k-1} scale so they sum
    to the cross-section's surface measure.  Every node lies on the unit
    sphere and on the plane; the pole is approached only as dist -> 1.
    """
    k = tau.section.dim + 1
    if order < k:
        raise ValueError("cross-section rule needs order >= k")
    n = tau.section.ambient_dim
    dirs = np.zeros((k, n + 1))
    dirs[: k - 1, :n] = tau.section.basis
    dirs[k - 1] = tau.span_direction
    sigma_nodes, sigma_w = sphere_rule(k - 1, order)
    r = tau.radius
    nodes = tau.center[None, :] + r * (sigma_nodes @ dirs)
    return nodes, sigma_w * r ** (k - 1)
