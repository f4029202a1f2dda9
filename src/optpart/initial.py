"""Initial partitions from random Voronoi diagrams, and named domain masks.

Seeds are snapped to grid nodes so every cell is nonempty by construction
(each seed node is strictly closest to itself).  Under periodic boundary
conditions distances are geodesic on the torus; otherwise they are plain
Euclidean.  For dirichlet runs the stored boundary planes carry no cell, so
the initial fields already satisfy the zero-boundary requirement of the
dirichlet semigroup.
"""

from __future__ import annotations

import numpy as np

from .grid import DomainMask, GridSpec, PartitionState, check_domain, check_k, check_mask

BOX_PERIOD = 2.0 * np.pi


class InitFailed(RuntimeError):
    """Could not produce k nonempty Voronoi cells inside the domain."""


def _domain_indicator(grid: GridSpec, bc: str, mask: DomainMask | None) -> np.ndarray:
    check_domain(bc, mask)
    check_mask(mask, grid)
    inside = np.ones(grid.shape, dtype=bool)
    if bc == "dirichlet":
        for ax in range(grid.dim):
            sl = [slice(None)] * grid.dim
            sl[ax] = 0
            inside[tuple(sl)] = False
    if mask is not None:
        inside &= mask.indicator
    return inside


def voronoi_labels(
    grid: GridSpec,
    seeds: np.ndarray,
    bc: str = "periodic",
    mask: DomainMask | None = None,
) -> np.ndarray:
    """Nearest-seed label per node (-1 outside the domain).

    Ties go to the lowest seed index.  Periodic runs measure distance on the
    torus of period 2*pi per axis.  One sweep per seed updates a running
    nearest distance, so memory grows with the grid, not with k.
    """
    seeds = np.atleast_2d(np.asarray(seeds, dtype=float))
    if seeds.shape[1] != grid.dim:
        raise ValueError(f"seeds must have shape (k, {grid.dim})")
    delta = np.abs(grid.axis() - seeds[:, :, None])  # (k, dim, n)
    if bc == "periodic":
        delta = np.minimum(delta, BOX_PERIOD - delta)
    squares = delta * delta
    best = np.full(grid.shape, np.inf)
    labels = np.zeros(grid.shape, dtype=np.intp)
    for i, per_axis in enumerate(squares):
        # the per-axis squares are added left to right, as np.sum adds a short row
        dist2 = sum(np.ix_(*per_axis))
        labels[dist2 < best] = i
        np.minimum(best, dist2, out=best)
    labels[~_domain_indicator(grid, bc, mask)] = -1
    return labels


def voronoi_init(
    grid: GridSpec,
    k: int,
    rng_seed: int,
    bc: str = "periodic",
    mask: DomainMask | None = None,
) -> PartitionState:
    """Random k-cell Voronoi partition as normalized indicator fields.

    Part i is the indicator of cell i scaled to unit discrete L2 norm, so
    the output is nonnegative with pairwise disjoint supports and exact unit
    norms.  The k seeds are distinct domain nodes, drawn once.
    """
    k = check_k(k)
    candidates = np.flatnonzero(_domain_indicator(grid, bc, mask))
    if candidates.size < k:
        raise InitFailed(
            f"could not draw {k} nonempty Voronoi cells from {candidates.size} domain nodes"
        )
    pick = np.random.default_rng(rng_seed).choice(candidates.size, size=k, replace=False)
    nodes = np.unravel_index(candidates[pick], grid.shape)
    labels = voronoi_labels(grid, grid.axis()[np.column_stack(nodes)], bc, mask)
    cell = labels >= 0
    part = labels[cell]
    scale = 1.0 / np.sqrt(grid.cell_volume * np.bincount(part, minlength=k))
    values = np.zeros((k,) + grid.shape)
    values[(part,) + np.nonzero(cell)] = scale[part]
    return PartitionState(grid, values)


# ---------------------------------------------------------------------------
# named mask shapes


def _polygon(sides: int):
    """Indicator of the regular polygon with a flat bottom edge and circumradius ``radius``."""

    def inside(x, y, radius: float) -> np.ndarray:
        # inside iff behind every edge: projection on each outward edge normal
        # stays below the apothem
        apothem = radius * np.cos(np.pi / sides)
        out = np.ones(x.shape, dtype=bool)
        for v in range(sides):
            ang = np.pi / 2.0 + np.pi / sides + 2.0 * np.pi * v / sides
            out &= x * np.cos(ang) + y * np.sin(ang) <= apothem
        return out

    return inside


def _star(folds: int):
    """Indicator of the star ``r <= inner + amplitude * cos(folds * theta)``."""

    def inside(x, y, inner: float, amplitude: float) -> np.ndarray:
        theta = np.arctan2(y, x)
        return np.hypot(x, y) <= inner + amplitude * np.cos(folds * theta)

    return inside


def _sector(x, y, radius: float, angle0: float, angle1: float) -> np.ndarray:
    theta = np.arctan2(y, x)
    return (np.hypot(x, y) <= radius) & (theta >= angle0) & (theta <= angle1)


def _square_with_holes(x, y, half: float, hole_radius: float, hole_offset: float) -> np.ndarray:
    inside = (np.abs(x) <= half) & (np.abs(y) <= half)
    inside &= np.hypot(x - hole_offset, y) > hole_radius
    inside &= np.hypot(x + hole_offset, y) > hole_radius
    return inside


# name: (indicator of the node coordinates and the parameters, the parameters
# with their defaults, whether the shape is only defined in 2D).  Every shape
# is centered at the origin and sized to stay inside the box.
MASK_SHAPES = {
    "full": (lambda *mesh: np.ones(mesh[0].shape, dtype=bool), {}, False),
    "disk": (
        lambda *mesh, radius: sum(m * m for m in mesh) <= radius * radius,
        {"radius": 2.5},
        False,
    ),
    "ellipse": (lambda x, y, a, b: (x / a) ** 2 + (y / b) ** 2 <= 1.0, {"a": 2.8, "b": 1.7}, True),
    "triangle": (_polygon(3), {"radius": 2.8}, True),
    "pentagon": (_polygon(5), {"radius": 2.8}, True),
    "octagon": (_polygon(8), {"radius": 2.8}, True),
    "star3": (_star(3), {"inner": 1.8, "amplitude": 0.95}, True),
    "star5": (_star(5), {"inner": 1.8, "amplitude": 0.95}, True),
    "sector": (_sector, {"radius": 2.8, "angle0": -0.75 * np.pi, "angle1": 0.75 * np.pi}, True),
    "square_with_holes": (
        _square_with_holes,
        {"half": 2.6, "hole_radius": 0.65, "hole_offset": 1.2},
        True,
    ),
}


def make_mask(grid: GridSpec, shape: str, **params: float) -> DomainMask:
    """The named domain mask of ``MASK_SHAPES``; ``params`` override its defaults."""
    if shape not in MASK_SHAPES:
        raise ValueError(f"unknown mask shape {shape!r}; expected one of {sorted(MASK_SHAPES)}")
    indicator, defaults, only_2d = MASK_SHAPES[shape]
    if only_2d and grid.dim != 2:
        raise ValueError(f"mask shape {shape!r} is only defined in 2D")
    values = {name: float(params.get(name, default)) for name, default in defaults.items()}
    extra = sorted(params.keys() - defaults.keys())
    if extra:
        raise ValueError(f"unknown parameters for shape {shape!r}: {extra}")
    inside = indicator(*grid.meshgrid(), **values)
    if not inside.any():
        raise ValueError(f"mask shape {shape!r} contains no grid node")
    return DomainMask(grid, inside)
