"""Uniform Cartesian grids for bounded domains with an exterior-zero condition.

The discrete model: a cube bounding box is tiled by cells of edge h, one node
per cell center.  A node is *interior* when its center satisfies the shape
predicate; every other node is *exterior* and carries the value 0.  The union
of interior cells is the discrete domain; all volume integrals are midpoint
sums over interior cells.

Grids are node-centered so that a symmetric box with an even node count never
places a node at the origin; `origin_offset=True` shifts the box by half a
cell for the remaining cases, keeping power-law data |x|^-beta finite at all
nodes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ParameterError, check_range

__all__ = [
    "Ball",
    "Box",
    "Annulus",
    "GridDomain",
    "GridFunction",
    "build_domain",
    "centered_ball_domain",
    "check_dimension",
    "available_memory",
    "node_radii",
    "sample",
    "integrate",
    "lp_norm",
]


@dataclass(frozen=True)
class Ball:
    """Open ball {|x - center| < radius}."""

    center: tuple[float, ...]
    radius: float

    def contains(self, pts: np.ndarray) -> np.ndarray:
        c = np.asarray(self.center)
        return np.linalg.norm(pts - c, axis=-1) < self.radius

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        c = np.asarray(self.center, dtype=float)
        return c - self.radius, c + self.radius


@dataclass(frozen=True)
class Box:
    """Open axis-aligned box {lo < x < hi componentwise}."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def contains(self, pts: np.ndarray) -> np.ndarray:
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((pts > lo) & (pts < hi), axis=-1)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.lo, dtype=float), np.asarray(self.hi, dtype=float)


@dataclass(frozen=True)
class Annulus:
    """Open annulus {r_inner < |x - center| < r_outer}."""

    r_inner: float
    r_outer: float
    center: tuple[float, ...] = ()

    def contains(self, pts: np.ndarray) -> np.ndarray:
        c = np.asarray(self.center) if self.center else 0.0
        r = np.linalg.norm(pts - c, axis=-1)
        return (r > self.r_inner) & (r < self.r_outer)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        n = len(self.center) if self.center else 1
        c = np.asarray(self.center, dtype=float) if self.center else np.zeros(n)
        return c - self.r_outer, c + self.r_outer


Shape = Ball | Box | Annulus


def available_memory() -> int | None:
    """Bytes of memory available to a new allocation, or None where it cannot be read.

    Reads MemAvailable from /proc/meminfo and falls back to the free physical
    pages that os.sysconf reports.
    """
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError):
        pass
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, AttributeError):
        return None


def _check_memory(need: int, what: str, remedy: str) -> None:
    """The memory refusal: a ConfigurationError naming what needs more bytes than available_memory() reports."""
    avail = available_memory()
    if avail is not None and need > avail:
        raise ConfigurationError(
            f"{what} needs {need / 2**20:.3g} MB, but only {avail / 2**20:.3g} MB of memory is available; {remedy}"
        )


def check_dimension(N: int) -> int:
    """N itself if it is 1, 2 or 3, the dimensions whose grids and tables are modelled; ConfigurationError otherwise."""
    if N not in (1, 2, 3):
        raise ConfigurationError(f"dimension must be 1, 2 or 3, got {N}")
    return N


def _grid_bytes(N: int, n: int) -> int:
    """An upper estimate of the peak bytes of GridDomain.__init__ on n^N nodes.

    The peak is in the shape predicate, which holds the N coordinate arrays of
    the mesh, the point array and up to three temporaries of the same size
    (the norm of a Ball or Annulus: the centred points, their conjugate and
    their squares), 5N words per node, beside the radii and the mask.  2^16
    words more cover the small allocations.
    """
    return 8 * ((5 * N + 2) * n**N + 2**16)


class GridDomain:
    """Immutable uniform grid over a cube bounding box with an interior mask.

    Attributes:
        dimension: spatial dimension N
        lo, hi: bounding box corners (length-N arrays)
        nodes_per_axis: node count per axis (identical on all axes)
        h: grid spacing, identical on all axes
        shape: the Shape whose predicate defines the interior
        interior_mask: boolean array of shape (n,)*N
        cutoff_radius: read-only radius R at which every kernel table of this
            domain truncates |x-y|^-(N+sigma); None gives four bounding-box
            diameters
    """

    def __init__(self, shape: Shape, lo, hi, nodes_per_axis: int, cutoff_radius: float | None = None):
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ConfigurationError("bounding box corners must be 1-d and equal length")
        check_dimension(len(lo))
        n = int(nodes_per_axis)
        if n < 3:
            raise ConfigurationError(f"nodes_per_axis must be >= 3, got {n}")
        spacings = (hi - lo) / n
        if not np.allclose(spacings, spacings[0], rtol=1e-12, atol=0.0):
            raise ConfigurationError("bounding box must yield identical spacing on all axes")
        if spacings[0] <= 0:
            raise ConfigurationError("bounding box is degenerate")
        _check_memory(_grid_bytes(len(lo), n), f"the {len(lo)}D grid at n = {n}", "use fewer nodes")

        self.dimension = len(lo)
        self.lo = lo
        self.hi = hi
        self.nodes_per_axis = n
        self.h = float(spacings[0])
        self.shape = shape
        R = 4.0 * self.bbox_diameter if cutoff_radius is None else float(cutoff_radius)
        if not math.isfinite(R):
            raise ConfigurationError(f"cutoff radius must be finite, got {R}")
        if not R >= self.bbox_diameter + self.h:
            raise ConfigurationError(
                f"cutoff radius {R:.4g} smaller than bounding-box diameter + one cell"
            )
        self._cutoff_radius = R

        axes = [lo[k] + (np.arange(n) + 0.5) * self.h for k in range(self.dimension)]
        self.axis_centers = axes
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        mask = shape.contains(pts).reshape((n,) * self.dimension)
        self.interior_mask = mask
        self.interior_count = int(mask.sum())
        if self.interior_count < 1:
            raise ConfigurationError("shape has empty interior on this grid")

        self.interior_index = np.argwhere(mask)
        self.interior_coords = pts.reshape((n,) * self.dimension + (self.dimension,))[mask]

        # exterior-zero values must be representable: outermost layer stays exterior
        for k in range(self.dimension):
            edge = self.interior_index[:, k]
            if (edge == 0).any() or (edge == n - 1).any():
                raise ConfigurationError(
                    "interior touches the bounding box edge; enlarge margin_cells"
                )

        for arr in (self.lo, self.hi, self.interior_index, self.interior_coords):
            arr.setflags(write=False)
        self.interior_mask.setflags(write=False)

    @property
    def cutoff_radius(self) -> float:
        return self._cutoff_radius

    @property
    def bbox_diameter(self) -> float:
        return float(np.linalg.norm(self.hi - self.lo))

    def zeros(self) -> "GridFunction":
        return GridFunction(self, np.zeros((self.nodes_per_axis,) * self.dimension))

    def from_interior(self, vec: np.ndarray) -> "GridFunction":
        """Wrap a length-interior_count vector as an exterior-zero grid function."""
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.interior_count,):
            raise ParameterError(
                f"interior vector has length {vec.shape}, expected ({self.interior_count},)"
            )
        full = np.zeros((self.nodes_per_axis,) * self.dimension)
        full[self.interior_mask] = vec
        return GridFunction(self, full)

    def __repr__(self) -> str:
        return (
            f"GridDomain(N={self.dimension}, n={self.nodes_per_axis}, h={self.h:.5g}, "
            f"interior={self.interior_count}, shape={self.shape!r})"
        )


class GridFunction:
    """Real values on grid nodes, identically zero at exterior nodes."""

    def __init__(self, domain: GridDomain, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        expected = (domain.nodes_per_axis,) * domain.dimension
        if values.shape != expected:
            raise ParameterError(f"values shape {values.shape} != grid shape {expected}")
        clean = np.where(domain.interior_mask, values, 0.0)
        clean.setflags(write=False)
        self.domain = domain
        self.values = clean

    @property
    def interior(self) -> np.ndarray:
        """Interior values as a flat vector (row-major over the index set)."""
        return self.values[self.domain.interior_mask]

    def __add__(self, other: "GridFunction") -> "GridFunction":
        self._check(other)
        return GridFunction(self.domain, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        self._check(other)
        return GridFunction(self.domain, self.values - other.values)

    def __mul__(self, c: float) -> "GridFunction":
        return GridFunction(self.domain, self.values * float(c))

    __rmul__ = __mul__

    def _check(self, other: "GridFunction") -> None:
        if other.domain is not self.domain:
            raise ParameterError("grid functions live on different domains")

    def __repr__(self) -> str:
        vals = self.interior
        return (
            f"GridFunction(N={self.domain.dimension}, n={self.domain.nodes_per_axis}, "
            f"range=[{vals.min():.4g},{vals.max():.4g}])"
        )


def build_domain(
    shape: Shape,
    nodes_per_axis: int,
    margin_cells: int = 1,
    origin_offset: bool = False,
    cutoff_factor: float = 4.0,
) -> GridDomain:
    """Build a cube bounding box around `shape` with an exterior margin.

    The cube edge is the largest shape extent plus `margin_cells` cells on each
    side, so h solves  h * (nodes_per_axis - 2*margin_cells) = extent.  The
    kernel cutoff radius is cutoff_factor bounding-box diameters.
    """
    if margin_cells < 1:
        raise ConfigurationError("margin_cells must be >= 1")
    n = int(nodes_per_axis)
    if n - 2 * margin_cells < 1:
        raise ConfigurationError("margin_cells leaves no interior cells")
    s_lo, s_hi = shape.bounds()
    if s_lo.size == 0:
        raise ConfigurationError("shape has no dimensions")
    extent = float(np.max(s_hi - s_lo))
    if extent <= 0:
        raise ConfigurationError("shape has zero extent")
    h = extent / (n - 2 * margin_cells)
    center = (s_lo + s_hi) / 2.0
    half = (extent + 2 * margin_cells * h) / 2.0
    lo = center - half
    hi = center + half
    if origin_offset:
        lo = lo + h / 2.0
        hi = hi + h / 2.0
    return GridDomain(shape, lo, hi, n, cutoff_factor * float(np.linalg.norm(hi - lo)))


def centered_ball_domain(N: int, n: int, radius: float) -> GridDomain:
    """The ball of the given radius about the origin in R^N, on n nodes per axis with a margin of n // 10 cells (at least 1)."""
    return build_domain(Ball(center=(0.0,) * N, radius=radius), n, margin_cells=max(1, n // 10))


def node_radii(domain: GridDomain) -> np.ndarray:
    """Distances |x_i| of the interior nodes; ParameterError if a node sits at the origin."""
    r = np.linalg.norm(domain.interior_coords, axis=1)
    if r.min() < 1e-12 * domain.h:
        raise ParameterError("grid has a node at the origin; use origin_offset=True")
    return r


def sample(expr, domain: GridDomain) -> GridFunction:
    """Sample a scalar field at interior node centers; exterior values are 0.

    `expr` receives one array per coordinate (each of length interior_count)
    and must return finite values at every interior node.
    """
    coords = domain.interior_coords
    vals = np.asarray(expr(*(coords[:, k] for k in range(domain.dimension))), dtype=float)
    if vals.shape == ():
        vals = np.full(domain.interior_count, float(vals))
    if vals.shape != (domain.interior_count,):
        raise ParameterError("expr must return one value per interior node")
    if not np.all(np.isfinite(vals)):
        bad = coords[~np.isfinite(vals)][0]
        raise ParameterError(
            f"expr is not finite at node {tuple(float(v) for v in bad)}; "
            "use an origin-offset grid for singular data"
        )
    return domain.from_interior(vals)


def integrate(u: GridFunction) -> float:
    """Midpoint-rule volume integral: sum of interior values times h^N."""
    d = u.domain
    return float(u.interior.sum() * d.h**d.dimension)


def lp_norm(u: GridFunction, p: float) -> float:
    """Discrete L^p norm over the domain; p = inf gives the interior max of |u|."""
    if p == math.inf:
        vals = u.interior
        return float(np.abs(vals).max()) if vals.size else 0.0
    check_range("p", p, 1.0, closed=True)
    d = u.domain
    return float((np.abs(u.interior) ** p).sum() * d.h**d.dimension) ** (1.0 / p)
