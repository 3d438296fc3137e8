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

from .quadrature import _as_integer, sphere_rule

__all__ = [
    "Dimensions",
    "FlatSpec",
    "SlicePlane",
    "make_flat",
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
        for name in ("n", "k"):
            if _as_integer(getattr(self, name)) is None:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.n < 2:
            raise ValueError("sphere dimension n must be >= 2")
        if not 2 <= self.k <= self.n:
            raise ValueError("need 2 <= k <= n")


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
        _check_flats(basis[None], offset[None])
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
        return float(_distances(self.offset))


def _check_flats(basis: np.ndarray, offset: np.ndarray):
    """FlatSpec's checks over a stack of flats: basis (..., d, n) and offset (..., n), broadcast.

    Raises the ValueError of the first check that any member fails.  An
    offset whose norm overflows is refused: its plane's distance would be
    infinite and its cross-section NaN.
    """
    if not (np.all(np.isfinite(basis)) and np.all(np.isfinite(offset))):
        raise ValueError("flat specification must be finite")
    with np.errstate(over="ignore"):
        norms = _distances(offset)
    if not np.all(np.isfinite(norms)):
        raise ValueError("offset norm is not finite")
    gram = basis @ np.swapaxes(basis, -1, -2)
    if np.max(np.abs(gram - np.eye(basis.shape[-2]))) > ORTHO_TOL:
        raise ValueError("basis rows must be orthonormal")
    if np.any(np.max(np.abs(basis @ offset[..., None]), axis=(-2, -1)) > ORTHO_TOL * (1.0 + norms)):
        raise ValueError("offset must be orthogonal to the basis")


def _unchecked_flat(basis: np.ndarray, offset: np.ndarray) -> FlatSpec:
    """A FlatSpec whose basis is orthonormal and offset orthogonal by construction.

    Skips the checks of FlatSpec.__post_init__ (tens of microseconds per
    flat) and the copies: basis and offset must already be read-only float
    arrays, which the flat then shares.  Only for arrays the library has
    built so that the checks hold.
    """
    if basis.flags.writeable or offset.flags.writeable:
        raise ValueError("unchecked flats share read-only arrays only")
    flat = object.__new__(FlatSpec)
    # the instance dictionary is where FlatSpec's frozen fields live
    flat.__dict__.update(basis=basis, offset=offset)
    return flat


def _reduce(w: np.ndarray, rows) -> np.ndarray:
    """w less its components along orthonormal rows, in place: modified Gram-Schmidt, done twice."""
    for _ in range(2):
        for u in rows:
            w -= (w @ u) * u
    return w


def _orthonormalize(rows: np.ndarray) -> np.ndarray:
    out = []
    for row in rows:
        w = _reduce(row.astype(float), out)
        nrm = _distances(w)
        if nrm <= ORTHO_TOL * max(1.0, _distances(row)):
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
    if v.ndim != 1 or rows.shape[1] != v.shape[0] or v.shape[0] < 2:
        raise ValueError("dimension mismatch between basis and offset")
    [(bases, offsets)] = flat_through(rows[None], [v])
    return _unchecked_flat(bases[0], offsets[0])


def flat_through(frames: np.ndarray, points):
    """For each point of a (Q, n) stack, the flats through it along each frame of a (F, d, n) stack.

    Yields one read-only (bases, offsets) pair per point: flat i has the
    orthonormalized frames[i] as basis and the point's component orthogonal
    to it, x - (x @ B.T) @ B, as offset.  The frames are orthonormalized
    once, and each pair is validated as one stack.
    """
    ortho = _freeze([_orthonormalize(rows) for rows in frames])
    directions = ortho.transpose(0, 2, 1)
    for x in np.asarray(points, dtype=float):
        # products frame by frame, in the one-frame shapes, keep that formula's bits
        offsets = _freeze(x - ((x @ directions)[:, None, :] @ ortho)[:, 0])
        _check_flats(ortho, offsets)
        yield ortho, offsets


@dataclass(frozen=True)
class SlicePlane:
    """A k-plane through the pole, recorded by its trace in the equatorial plane.

    Derived geometry (all functions of t = |offset|):

    - dist: distance of the plane to the origin, t / sqrt(1 + t^2), in [0, 1)
    - radius: radius of the sphere cross-section, 1 / sqrt(1 + t^2)
    - center: foot of the perpendicular from the origin, in R^{n+1}
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
        return float(_section_frames(self.section.basis[None], self.section.offset[None])[0][2][0, 0])

    @property
    def center(self) -> np.ndarray:
        """Center of the cross-section sphere, in R^{n+1}."""
        return _section_frames(self.section.basis[None], self.section.offset[None])[0][1][:, 0, 0]

    @property
    def span_direction(self) -> np.ndarray:
        """Unit vector completing the trace directions inside the plane.

        Points from the offset towards the pole; for the central plane (t = 0)
        it is the pole itself.
        """
        return _section_frames(self.section.basis[None], self.section.offset[None])[0][0][0, :, -1]


def _distances(offsets: np.ndarray) -> np.ndarray:
    """|v| of each row v of a (..., n) stack, the sqrt of its dot product: the package's one norm."""
    return np.sqrt((offsets[..., None, :] @ offsets[..., :, None])[..., 0, 0])


def _complete_orthonormal(rows: np.ndarray, n: int) -> np.ndarray:
    """Deterministically extend orthonormal rows to a full basis of R^n."""
    out = list(rows)
    for cand in np.eye(n):
        _reduce(cand, out)
        nrm = _distances(cand)
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
    bases, offsets = _draw_flats(rng, n, dim, 1, lambda rng: distance)
    return _unchecked_flat(bases[0], offsets[0])


def _draw_flats(rng: np.random.Generator, n: int, dim: int, count: int, distance):
    """count random_flat draws of dim-flats in R^n, built as one stack: read-only bases (count, dim, n) and offsets.

    Flat after flat, distance(rng) is drawn and then the Gaussian matrix, as a loop of random_flat calls draws them.
    """
    distances = []
    gaussians = np.empty((count, n, dim + 1))
    for gaussian in gaussians:
        distances.append(distance(rng))
        rng.standard_normal(out=gaussian)
    return _gaussian_flats(gaussians, distances)


def _gaussian_flats(gaussians: np.ndarray, distances):
    """The flats random_flat builds from each Gaussian matrix of a (P, n, dim + 1) stack, as read-only (bases, offsets).

    Flat i is spanned by the first dim Haar columns of gaussians[i] and sits
    at distances[i] along the last one.  The stack takes one QR call and one
    validation.
    """
    q = _haar_frames(gaussians)
    dim = q.shape[-1] - 1
    columns = _freeze(q[..., :dim])
    offset = _freeze(np.asarray(distances, dtype=float)[:, None] * q[..., dim])
    # Member i's basis is columns[i].T, laid out as FlatSpec's copy of q[:, :dim].T.
    basis = columns.transpose(0, 2, 1)
    _check_flats(basis, offset)
    return basis, offset


def _haar_frames(gaussians: np.ndarray) -> np.ndarray:
    """The Q factor of each matrix of a (P, n, cols) stack of standard Gaussian matrices.

    Each column's sign is chosen so that R has a positive diagonal, which
    makes the columns Haar-distributed.
    """
    q, r = np.linalg.qr(gaussians)
    q *= np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]
    return q


def sample_sphere_cross_section(tau: SlicePlane, order: int):
    """Quadrature nodes and weights on the cross-section of the sphere by tau.

    The cross-section is the (k-1)-sphere of radius tau.radius centered at
    tau.center inside the plane.  Nodes come from a product rule of the given
    order per angular dimension, mapped through an orthonormal frame of the
    plane's direction space; weights carry the radius^{k-1} scale so they sum
    to the cross-section's surface measure.  Every node lies on the unit
    sphere and on the plane; the pole is approached only as dist -> 1.  The
    nodes are coordinate-major (Fortran order), as in flat_rule.
    """
    k = tau.section.dim + 1
    if order < k:
        raise ValueError("cross-section rule needs order >= k")
    sigma_nodes, sigma_w = sphere_rule(k - 1, order)
    frames, scales = _section_frames(tau.section.basis[None], tau.section.offset[None])
    return _section_points(frames, sigma_nodes)[:, 0].T, sigma_w * scales[0]


def _section_frames(bases: np.ndarray, offsets: np.ndarray):
    """The frames for _section_points and the weights' scales of the planes whose traces are a (C, d, n), (C, n) stack.

    With t = |offset| and h = hypot(1, t), a plane's direction frame is its
    trace basis (last coordinate 0) and its span direction (-offset, 1) / h;
    its center is (offset, t^2) / (1 + t^2) and its radius r = 1 / h.  The
    frames are the direction frames (C, n + 1, k), as the columns of each
    plane's frame, the centers (n + 1, C, 1) and the radii (C, 1); the
    scales are the r^(k-1) (C, 1) by which each plane's weights are the
    unit sphere's.
    """
    k = bases.shape[1] + 1
    dirs, centers, radii, scales = [], [], [], []
    ts = _distances(offsets)
    # Plane by plane in Python floats: numpy's powers of arrays differ from
    # Python's in the last bit on some planes.  An array-native version gave
    # the same bits but made per-call slices 6.6-15.5 % slower.
    for basis, offset, t, hyp in zip(bases.tolist(), offsets.tolist(), ts.tolist(), np.hypot(1.0, ts).tolist()):
        t2 = t**2
        r = 1.0 / hyp
        dirs.append([row + [0.0] for row in basis] + [[-x / hyp for x in offset] + [r]])
        centers.append([x / (1.0 + t2) for x in offset] + [t2 / (1.0 + t2)])
        radii.append(r)
        scales.append(r ** (k - 1))
    frames = np.array(dirs).transpose(0, 2, 1), np.array(centers).T[:, :, None], np.array(radii)[:, None]
    return frames, np.array(scales)[:, None]


def _section_points(frames, sigma_nodes: np.ndarray, last_only: bool = False) -> np.ndarray:
    """center + r * (sigma_nodes @ dirs) on each plane of frames, for unit-sphere nodes (m, k): (n + 1, C, m).

    Built coordinate-major as in flat_rule.  sigma_nodes may be a run of a
    rule's nodes: each node's coordinates take the same products, with the
    same BLAS call, as in the whole rule, unless the run is a single node,
    which numpy hands to gemv instead of gemm.  With last_only only the last
    coordinate is built, (1, C, m), which is all a zonal field reads.  Its
    direction row is (0, ..., 0, r): whichever BLAS call numpy makes, the
    one nonzero product is rounded once and the zeros add nothing, so the
    coordinate is the whole build's.
    """
    dirs, centers, radii = frames
    if last_only:
        dirs, centers = dirs[:, -1:], centers[-1:]
    nodes = np.empty((dirs.shape[1], len(dirs), len(sigma_nodes)))
    np.matmul(dirs, sigma_nodes.T, out=nodes.transpose(1, 0, 2))
    nodes *= radii
    nodes += centers
    return nodes
