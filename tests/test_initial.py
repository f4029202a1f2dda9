"""Voronoi seeding and the named domain masks."""

import itertools

import numpy as np
import pytest

from optpart import (
    DomainMask,
    GridSpec,
    InitFailed,
    PartitionState,
    make_mask,
    max_support_overlap,
    partition_norms,
    voronoi_init,
)
from optpart.initial import voronoi_labels


def brute_force_labels(n: int, seeds, bc: str = "periodic", mask=None) -> np.ndarray:
    """Literal nearest-seed loop over every node, lowest index on ties.

    The grid has as many axes as the seeds have coordinates.  Distances are
    geodesic on the torus for periodic, plain Euclidean for dirichlet, where
    the index-0 boundary planes get -1; so do the nodes outside ``mask``.
    """
    dim = len(seeds[0])
    h = 2.0 * np.pi / n
    out = np.empty((n,) * dim, dtype=int)
    for node in itertools.product(range(n), repeat=dim):
        if (bc == "dirichlet" and 0 in node) or (mask is not None and not mask[node]):
            out[node] = -1
            continue
        best, best_d = -1, None
        for s, seed in enumerate(seeds):
            d = 0.0
            for p, c in zip(node, seed):
                dx = abs(-np.pi + h * p - c)
                if bc == "periodic":
                    dx = min(dx, 2.0 * np.pi - dx)
                d += dx * dx
            if best_d is None or d < best_d:
                best, best_d = s, d
        out[node] = best
    return out


# ---------------------------------------------------------------------------
# voronoi_labels


def test_labels_match_brute_force_with_ties():
    # the x = 0 and x = -pi columns are equidistant from both seeds and must
    # all go to seed 0
    grid = GridSpec(dim=2, n=8)
    seeds = np.array([[-np.pi / 2.0, 0.0], [np.pi / 2.0, 0.0]])
    labels = voronoi_labels(grid, seeds)
    assert np.array_equal(labels, brute_force_labels(8, seeds))
    assert np.bincount(labels.ravel()).tolist() == [40, 24]


def random_node_seeds(grid: GridSpec, k: int, seed: int) -> np.ndarray:
    nodes = np.random.default_rng(seed).choice(grid.num_nodes, size=k, replace=False)
    return grid.axis()[np.column_stack(np.unravel_index(nodes, grid.shape))]


@pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
@pytest.mark.parametrize("k", [2, 5, 16])
def test_labels_match_brute_force_on_random_node_seeds(k, dim, n, bc):
    grid = GridSpec(dim=dim, n=n)
    for seed in range(2):
        seeds = random_node_seeds(grid, k, 10 * dim + k + seed)
        assert np.array_equal(voronoi_labels(grid, seeds, bc), brute_force_labels(n, seeds, bc))


@pytest.mark.parametrize("dim", [2, 3])
def test_labels_match_brute_force_inside_a_mask(dim):
    grid = GridSpec(dim=dim, n=8)
    mask = make_mask(grid, "disk")
    seeds = random_node_seeds(grid, 5, dim)
    expected = brute_force_labels(8, seeds, "dirichlet", mask.indicator)
    assert np.array_equal(voronoi_labels(grid, seeds, "dirichlet", mask), expected)


def mirror_seeds(dim: int, shape: str) -> np.ndarray:
    """Seeds at +-pi/2 on the first axis ("pair") or on every axis ("cross")."""
    axes = 1 if shape == "pair" else dim
    seeds = np.zeros((2 * axes, dim))
    for ax in range(axes):
        seeds[2 * ax : 2 * ax + 2, ax] = [-np.pi / 2.0, np.pi / 2.0]
    return seeds


@pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
@pytest.mark.parametrize(
    "dim,shape", [(2, "pair"), (2, "cross"), (3, "pair"), (3, "cross")]
)
def test_labels_break_exact_ties_to_the_lowest_index(dim, shape, bc):
    grid = GridSpec(dim=dim, n=8)
    seeds = mirror_seeds(dim, shape)
    labels = voronoi_labels(grid, seeds, bc)
    reversed_labels = voronoi_labels(grid, seeds[::-1], bc)
    assert np.array_equal(labels, brute_force_labels(8, seeds, bc))
    assert np.array_equal(reversed_labels, brute_force_labels(8, seeds[::-1], bc))
    # the nodes equidistant from two seeds go to the lower index in either
    # order, so the reversed labels, mapped back, differ exactly there
    mapped_back = np.where(reversed_labels >= 0, len(seeds) - 1 - reversed_labels, -1)
    assert not np.array_equal(mapped_back, labels)
    if shape == "pair":
        # the x = 0 plane is equidistant from both seeds
        plane = labels[4][labels[4] >= 0]
        assert plane.size > 0 and np.all(plane == 0)


def test_labels_shift_with_seeds_on_the_torus():
    grid = GridSpec(dim=2, n=8)
    seeds = np.array([[-np.pi / 2.0, 0.0], [np.pi / 2.0, 0.0]])
    base = voronoi_labels(grid, seeds)
    h = grid.spacing
    shifted = voronoi_labels(grid, seeds + np.array([2.0 * h, h]))
    assert np.array_equal(shifted, np.roll(base, (2, 1), axis=(0, 1)))


def test_labels_mark_excluded_nodes():
    grid = GridSpec(dim=2, n=16)
    mask = make_mask(grid, "disk", radius=2.0)
    seeds = np.array([[0.5, 0.5], [-0.5, -0.5]])
    labels = voronoi_labels(grid, seeds, bc="dirichlet", mask=mask)
    inside = mask.indicator.astype(bool).copy()
    inside[0, :] = False
    inside[:, 0] = False
    assert np.all(labels[~inside] == -1)
    assert np.all(labels[inside] >= 0)


def test_labels_reject_bad_seed_shape():
    grid = GridSpec(dim=2, n=8)
    with pytest.raises(ValueError):
        voronoi_labels(grid, np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# voronoi_init


def test_init_is_deterministic():
    grid = GridSpec(dim=2, n=16)
    a = voronoi_init(grid, 4, rng_seed=3)
    b = voronoi_init(grid, 4, rng_seed=3)
    assert np.array_equal(a.values, b.values)


def test_init_satisfies_all_constraints():
    grid = GridSpec(dim=2, n=16)
    state = voronoi_init(grid, 4, rng_seed=0)
    assert state.values.min() >= 0.0
    assert max_support_overlap(state) == 0.0
    assert np.abs(partition_norms(state) - 1.0).max() <= 1e-12


def test_init_cells_tile_the_domain():
    grid = GridSpec(dim=2, n=16)
    state = voronoi_init(grid, 5, rng_seed=2)
    covered = np.sum(state.values > 0.0, axis=0)
    assert np.array_equal(covered, np.ones(grid.shape, dtype=int))


def test_init_requires_at_least_two_parts():
    with pytest.raises(ValueError):
        voronoi_init(GridSpec(dim=2, n=8), 1, rng_seed=0)


@pytest.mark.parametrize("k", [2.5, 3.0, "3", True, None])
def test_init_requires_an_integer_part_count(k):
    with pytest.raises(ValueError, match="k must be an integer"):
        voronoi_init(GridSpec(dim=2, n=8), k, rng_seed=0)


def test_init_takes_a_numpy_integer_part_count():
    grid = GridSpec(dim=2, n=8)
    assert np.array_equal(voronoi_init(grid, np.int64(3), 0).values,
                          voronoi_init(grid, 3, 0).values)


@pytest.mark.parametrize("bc", ["dirchlet", "Dirichlet", "neumann", None])
def test_init_rejects_an_unknown_boundary_condition(bc):
    # a misspelt bc once fell back to Euclidean distances and left the
    # Dirichlet boundary planes nonzero
    with pytest.raises(ValueError, match="unknown boundary condition"):
        voronoi_init(GridSpec(dim=2, n=8), 3, rng_seed=0, bc=bc)


def test_init_fails_when_domain_is_too_small():
    grid = GridSpec(dim=2, n=8)
    mask = make_mask(grid, "disk", radius=0.5)
    assert mask.nodes.size == 1
    with pytest.raises(InitFailed):
        voronoi_init(grid, 2, rng_seed=0, bc="dirichlet", mask=mask)


def test_init_singleton_cells_have_exact_norms():
    grid = GridSpec(dim=2, n=8)
    indicator = np.zeros(grid.shape)
    for node in [(2, 2), (5, 5), (3, 6)]:
        indicator[node] = 1.0
    mask = DomainMask(grid, indicator)
    state = voronoi_init(grid, 3, rng_seed=0, bc="dirichlet", mask=mask)
    assert np.sum(state.values > 0.0, axis=(1, 2)).tolist() == [1, 1, 1]
    assert np.abs(partition_norms(state) - 1.0).max() <= 1e-14


def test_init_zeroes_closed_boundary_planes():
    grid = GridSpec(dim=2, n=16)
    state = voronoi_init(grid, 3, rng_seed=1, bc="dirichlet")
    assert np.all(state.values[:, 0, :] == 0.0)
    assert np.all(state.values[:, :, 0] == 0.0)
    interior = state.values[:, 1:, 1:]
    assert np.array_equal(np.sum(interior > 0.0, axis=0), np.ones((15, 15), dtype=int))


def test_init_stays_inside_the_mask():
    grid = GridSpec(dim=2, n=32)
    mask = make_mask(grid, "star5")
    state = voronoi_init(grid, 3, rng_seed=4, bc="dirichlet", mask=mask)
    outside = mask.indicator == 0.0
    assert np.all(state.values[:, outside] == 0.0)
    assert np.abs(partition_norms(state) - 1.0).max() <= 1e-12


# ---------------------------------------------------------------------------
# named masks


def test_full_mask_covers_every_node():
    grid = GridSpec(dim=2, n=16)
    mask = make_mask(grid, "full")
    assert mask.nodes.size == 256
    assert np.all(mask.indicator == 1.0)


def test_disk_mask_area_matches_the_continuum():
    grid = GridSpec(dim=2, n=32)
    mask = make_mask(grid, "disk", radius=2.5)
    expected = np.pi * 2.5**2 / grid.cell_volume
    boundary_slack = 2.0 * np.pi * 2.5 / grid.spacing
    assert abs(mask.nodes.size - expected) <= boundary_slack


def test_square_with_holes_excludes_the_holes():
    grid = GridSpec(dim=2, n=32)
    mask = make_mask(grid, "square_with_holes")
    axis = grid.axis()
    i_hole = int(np.argmin(np.abs(axis - 1.2)))
    i_mirror = int(np.argmin(np.abs(axis + 1.2)))
    i_zero = int(np.argmin(np.abs(axis)))
    assert mask.indicator[i_hole, i_zero] == 0.0
    assert mask.indicator[i_mirror, i_zero] == 0.0
    assert mask.indicator[i_zero, i_zero] == 1.0


@pytest.mark.parametrize(
    "shape", ["disk", "ellipse", "triangle", "pentagon", "octagon", "star3", "star5", "sector", "square_with_holes"]
)
def test_named_masks_are_nonempty_and_proper(shape):
    grid = GridSpec(dim=2, n=32)
    mask = make_mask(grid, shape)
    assert 0 < mask.nodes.size < grid.num_nodes


SHAPES = ["full", "disk", "ellipse", "triangle", "pentagon", "octagon", "star3", "star5",
          "sector", "square_with_holes"]


def test_make_mask_rejects_bad_requests():
    cases = [
        (2, "hexaflexagon", {}, f"unknown mask shape 'hexaflexagon'; expected one of {sorted(SHAPES)}"),
        (2, "disk", {"radius": 1.0, "bogus": 2.0}, "unknown parameters for shape 'disk': ['bogus']"),
        (2, "full", {"radius": 1.0}, "unknown parameters for shape 'full': ['radius']"),
        (3, "star5", {}, "mask shape 'star5' is only defined in 2D"),
        (3, "star5", {"bogus": 1.0}, "mask shape 'star5' is only defined in 2D"),
        (2, "sector", {"radius": 0.01, "angle0": 0.1, "angle1": 0.2},
         "mask shape 'sector' contains no grid node"),
        (2, "ellipse", {"a": "wide", "bogus": 1.0}, "could not convert string to float: 'wide'"),
    ]
    for dim, shape, params, message in cases:
        with pytest.raises(ValueError) as err:
            make_mask(GridSpec(dim=dim, n=16), shape, **params)
        assert str(err.value) == message


@pytest.mark.parametrize("shape", SHAPES)
def test_only_full_and_disk_masks_extend_to_3d(shape):
    grid = GridSpec(dim=3, n=8)
    if shape in ("full", "disk"):
        assert make_mask(grid, shape).indicator.shape == grid.shape
    else:
        with pytest.raises(ValueError, match="only defined in 2D"):
            make_mask(grid, shape)
