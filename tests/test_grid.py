"""Grid containers, discrete norms, and the gradient energies."""

import tracemalloc

import numpy as np
import pytest

from optpart import (
    DomainMask,
    GridSpec,
    PartitionState,
    SchemeConfig,
    dirichlet_energy,
    label_map,
    make_mask,
    max_support_overlap,
    partition_norms,
    run,
    voronoi_init,
)
from optpart.grid import true_boxes, weighted_norms
from optpart.scheme import apply_sigma


def norm(values: np.ndarray, grid: GridSpec) -> float:
    """Discrete L2 norm of one field, as a stack of one part."""
    return float(weighted_norms(values[None], grid)[0])


def with_zero_part(u: np.ndarray, grid: GridSpec) -> PartitionState:
    """The two-part state of one field and a zero part, which adds no energy."""
    return PartitionState(grid, np.stack([u, np.zeros_like(u)]))


def columns(rows) -> PartitionState:
    """A state on the 4x4 grid whose parts take ``rows`` (k, 4) along the
    first axis and are constant along the second."""
    values = np.repeat(np.asarray(rows, dtype=float)[..., None], 4, axis=-1)
    return PartitionState(GridSpec(dim=2, n=4), values)


def test_grid_spec_basics():
    g = GridSpec(dim=2, n=8)
    assert g.shape == (8, 8)
    assert g.num_nodes == 64
    assert g.spacing == pytest.approx(2.0 * np.pi / 8, rel=1e-15)
    assert g.cell_volume == pytest.approx(g.spacing**2, rel=1e-15)
    ax = g.axis()
    assert ax[0] == pytest.approx(-np.pi)
    assert ax[-1] == pytest.approx(np.pi - g.spacing)
    xs, ys = g.meshgrid()
    assert xs.shape == (8, 8)
    assert np.all(xs[:, 0] == xs[:, 3])


@pytest.mark.parametrize("dim,n", [(0, 8), (1, 8), (4, 8), (2, 3), (2, 7), (2, 2),
                                   # not integers: a float, a bool or a string
                                   (2, 8.0), (2.0, 8), (True, 8), (2, True), (2, "8")])
def test_grid_spec_rejects_bad_dimensions(dim, n):
    with pytest.raises(ValueError):
        GridSpec(dim=dim, n=n)


def test_grid_spec_stores_numpy_integers_as_int():
    g = GridSpec(dim=np.int64(2), n=np.uint8(8))
    assert type(g.dim) is int and type(g.n) is int
    assert g == GridSpec(2, 8) and hash(g) == hash(GridSpec(2, 8))


def test_partition_state_accessors():
    s = columns([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])
    g = s.grid
    assert s.k == 2
    with pytest.raises(ValueError):
        s.values[0, 0, 0] = 2.0
    moved = s.with_values(s.values[::-1])
    assert moved.grid == g
    assert moved.values[0, 1, 0] == 1.0
    with pytest.raises(ValueError):
        PartitionState(g, np.zeros((2, 4, 5)))
    for k in (0, 1):
        with pytest.raises(ValueError, match=f"k must be >= 2, got {k}"):
            PartitionState(g, np.zeros((k, 4, 4)))


def test_states_freeze_owned_arrays_and_copy_views():
    g = GridSpec(dim=2, n=4)
    owned = np.stack([np.eye(4), np.eye(4)[::-1]])
    s = PartitionState(g, owned)
    assert np.shares_memory(s.values, owned)
    assert not owned.flags.writeable
    base = np.stack([np.eye(4)] * 3)
    view = PartitionState(g, base[:2])
    assert not np.shares_memory(view.values, base)
    base[0, 0, 0] = 5.0
    assert view.values[0, 0, 0] == 1.0
    indicator = np.eye(4, dtype=bool)
    assert np.shares_memory(DomainMask(GridSpec(dim=2, n=4), indicator).indicator, indicator)
    padded = np.ones((5, 4), dtype=bool)
    mask = DomainMask(GridSpec(dim=2, n=4), padded[1:])
    assert not np.shares_memory(mask.indicator, padded)
    assert padded.flags.writeable


@pytest.mark.parametrize("dim", [2, 3])
def test_domain_mask_scatter_inverts_the_gather(dim):
    # every node outside the mask is set to +0.0, whatever the target held
    g = GridSpec(dim, 8)
    m = make_mask(g, "disk")
    rng = np.random.default_rng(dim)
    stack = np.where(m.indicator, rng.random((3,) + g.shape), 0.0)
    target = rng.normal(size=stack.shape)
    out = m.scatter(stack.reshape(3, -1).take(m.nodes, axis=1), target)
    assert out is target
    assert np.array_equal(out.view(np.uint64), stack.view(np.uint64))
    labels = m.scatter(np.arange(m.nodes.size, dtype=np.uint16), np.ones(g.shape, np.uint16))
    assert np.array_equal(labels[m.indicator], np.arange(m.nodes.size))
    assert not labels[~m.indicator].any()


def test_domain_mask_validation():
    g = GridSpec(dim=2, n=4)
    with pytest.raises(ValueError):
        DomainMask(g, 2 * np.ones((4, 4)))
    with pytest.raises(ValueError):
        DomainMask(g, np.zeros((4, 4)))
    with pytest.raises(ValueError):
        DomainMask(g, np.ones((4, 5)))
    m = DomainMask(g, np.eye(4))
    assert m.indicator.dtype == bool
    assert m.nodes.size == 4
    assert make_mask(g, "full").nodes.size == 16


def test_domain_mask_box_and_node_list_are_derived_once():
    g = GridSpec(dim=3, n=8)
    indicator = np.zeros(g.shape, dtype=bool)
    indicator[2, 5, 3] = indicator[4, 1, 3] = True
    m = DomainMask(g, indicator)
    assert m.box == (slice(2, 5), slice(1, 6), slice(3, 4))
    assert m.nodes.tolist() == [2 * 64 + 5 * 8 + 3, 4 * 64 + 1 * 8 + 3]
    assert m.nodes.dtype == np.intp and not m.nodes.flags.writeable
    assert m.box is m.box and m.nodes is m.nodes
    with pytest.raises(AttributeError):
        m.box = ()
    assert make_mask(g, "full").box == (slice(0, 8),) * 3
    # derived fields stay out of equality and the repr
    other = DomainMask(g, m.indicator)
    object.__setattr__(other, "box", ())
    object.__setattr__(other, "outside", None)
    assert other == m
    assert "box" not in repr(m) and "outside" not in repr(m)


def nonzero_boxes(flags, dim):
    """Per leading index, the min/max of ``np.nonzero`` per trailing axis: the oracle."""
    out = []
    for idx in np.ndindex(flags.shape[: flags.ndim - dim]):
        hits = np.nonzero(flags[idx])
        out.append(tuple(slice(int(h.min()), int(h.max()) + 1) for h in hits)
                   if hits[0].size else None)
    return out


def test_true_boxes_per_leading_index():
    flags = np.zeros((3, 5, 6), dtype=bool)
    flags[0, 1, 4] = flags[0, 3, 2] = True
    flags[2] = True
    assert true_boxes(flags, 2) == [(slice(1, 4), slice(2, 5)), None,
                                    (slice(0, 5), slice(0, 6))]
    assert true_boxes(flags, 3) == [(slice(0, 3), slice(0, 5), slice(0, 6))]
    # random stacks in 1D-3D with 0-2 leading axes
    rng = np.random.default_rng(0)
    for dim, lead in [(d, lead) for d in (1, 2, 3) for lead in (0, 1, 2)]:
        for _ in range(60):
            shape = tuple(rng.integers(1, 4, size=lead)) + tuple(rng.integers(1, 9, size=dim))
            flags = rng.random(shape) < rng.choice([0.0, 0.02, 0.2, 0.7, 1.0])
            rows = flags.reshape((-1,) + shape[lead:])
            # an empty row, a single-True row and a full row among the random ones
            rows[0] = False
            if len(rows) > 2:
                rows[1] = False
                rows[(1,) + tuple(rng.integers(0, m) for m in shape[lead:])] = True
                rows[2] = True
            assert true_boxes(flags, dim) == nonzero_boxes(flags, dim)


def test_norm_of_zero_field():
    g = GridSpec(dim=2, n=8)
    assert norm(np.zeros(g.shape), g) == 0.0


def test_norm_of_constant_field_is_one():
    # (1/2pi)^2 integrated over the 4pi^2 box
    g = GridSpec(dim=2, n=16)
    f = np.full(g.shape, 1.0 / (2.0 * np.pi))
    assert abs(norm(f, g) - 1.0) <= 1e-14


def test_norm_of_sine_matches_closed_form():
    g = GridSpec(dim=2, n=64)
    x, _ = g.meshgrid()
    assert norm(np.sin(x), g) == pytest.approx(np.sqrt(2.0 * np.pi**2), abs=1e-10)


def test_norm_homogeneity():
    g = GridSpec(dim=2, n=8)
    rng = np.random.default_rng(3)
    f = rng.normal(size=g.shape)
    base = norm(f, g)
    for c in (-2.5, 0.3, 7.0):
        assert norm(c * f, g) == pytest.approx(abs(c) * base, rel=1e-13)


def test_partition_norms_match_fieldwise_norm():
    g = GridSpec(dim=2, n=8)
    rng = np.random.default_rng(4)
    s = PartitionState(g, rng.normal(size=(3,) + g.shape))
    norms = partition_norms(s)
    for i in range(3):
        assert norms[i] == pytest.approx(norm(s.values[i], g), rel=1e-15)


def test_max_support_overlap():
    assert max_support_overlap(columns([[1.0, 0, 0, 0], [0, 2.0, 0, 0]])) == 0.0
    assert max_support_overlap(columns([[1.0, 0.5, 0, 0], [0, 0.25, 0, 0]])) == 0.25
    # a node with one nonzero part, however negative, overlaps nothing
    assert max_support_overlap(columns([[1.0, -1.0, 0, 0], [0, 0, 0, 0]])) == 0.0


def test_label_map_breaks_ties_at_lowest_index():
    s = columns([[0.5, 0.1, 0.0, 0.2], [0.5, 0.7, 0.0, 0.1]])
    assert np.array_equal(label_map(s), np.transpose([[0, 1, 0, 0]] * 4))


def test_labels_of_disjoint_supports():
    # node row 2 is zero in every part, and takes part 0, as in label_map
    s = columns([[0.5, 0.0, 0.0, 0.0], [0.0, 0.7, 0.0, 0.2]])
    assert s.labels.dtype == label_map(s).dtype == np.uint8
    assert not s.labels.flags.writeable and s.labels is s.labels
    for got in (s.labels, label_map(s)):
        assert np.array_equal(got, np.transpose([[0, 1, 0, 1]] * 4))


@pytest.mark.parametrize("k,dtype", [(255, np.uint8), (256, np.uint8), (257, np.uint16)])
def test_labels_past_the_narrow_dtype(k, dtype):
    # k = 256 is the last k whose labels fit one byte
    g = GridSpec(dim=2, n=18)
    vals = np.zeros((k, g.num_nodes))
    vals[np.arange(k), np.arange(k)[::-1] + 1] = 1.0
    s = PartitionState(g, vals.reshape((k,) + g.shape))
    got = label_map(s)
    assert got.dtype == s.labels.dtype == dtype
    flat = got.reshape(-1)
    assert flat[1] == k - 1 and flat[k] == 0 and flat[0] == 0
    assert np.array_equal(got, np.argmax(s.values, axis=0))
    assert np.array_equal(s.labels, got)


def test_shift_labels_where_it_zeroes_the_winner():
    s = columns([[0.9, 0.1, 0.0, 0.0], [0.0, 0.0, 0.6, 0.05]])
    shifted = apply_sigma(s, -0.2)
    # the shift cuts part 0 at node row 1 and part 1 at row 3: no part is left
    # there, and the label the shift leaves is 0, as in label_map
    assert "labels" in vars(shifted) and shifted.labels.dtype == np.uint8
    assert np.array_equal(shifted.labels, np.transpose([[0, 0, 1, 0]] * 4))
    assert np.array_equal(shifted.labels, label_map(shifted))


def test_energy_of_constants_is_zero():
    g = GridSpec(dim=2, n=16)
    s = PartitionState(g, np.stack([np.full(g.shape, 0.3), np.full(g.shape, 1.1)]))
    assert dirichlet_energy(s, "periodic") <= 1e-20


def test_energy_of_unit_sine_mode():
    # 0.5 * integral of cos(x)^2 / (2 pi^2) over the box equals 1/2
    g = GridSpec(dim=2, n=64)
    x, _ = g.meshgrid()
    u = np.sin(x) / np.sqrt(2.0 * np.pi**2)
    s = with_zero_part(u, g)
    assert dirichlet_energy(s, "periodic") == pytest.approx(0.5, abs=1e-10)


def test_energy_sine_basis_lowest_mode():
    # lowest zero-boundary mode has eigenvalue 1/2 and squared norm pi^2
    g = GridSpec(dim=2, n=32)
    x, y = g.meshgrid()
    u = np.sin((x + np.pi) / 2.0) * np.sin((y + np.pi) / 2.0)
    s = with_zero_part(u, g)
    assert dirichlet_energy(s, "dirichlet") == pytest.approx(np.pi**2 / 4.0, abs=1e-10)


def test_energy_masked_unit_spike():
    # forward differences of a lone unit node: two unit jumps per axis
    g = GridSpec(dim=2, n=8)
    mask = make_mask(g, "full")
    u = np.zeros(g.shape)
    u[3, 4] = 1.0
    s = with_zero_part(u, g)
    assert dirichlet_energy(s, "dirichlet", mask) == pytest.approx(2.0, rel=1e-15)


@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
def test_energy_masked_is_the_np_diff_sum_within_ulps(dim, n):
    # the reference: np.diff with a zero plane appended, one axis at a time;
    # the energy sums part by part over boxes, so in another order
    g = GridSpec(dim=dim, n=n)
    vals = np.random.default_rng(dim).normal(size=(3,) + g.shape)
    total = 0.0
    for ax in range(1, dim + 1):
        d = np.diff(vals, axis=ax, append=0.0)
        total += float(np.sum(d * d))
    expected = 0.5 * g.spacing ** (dim - 2) * total
    got = dirichlet_energy(PartitionState(g, vals), "dirichlet", make_mask(g, "full"))
    assert abs(got - expected) <= 4 * np.spacing(expected)


def per_part_diff_energy(vals: np.ndarray, grid: GridSpec) -> float:
    """The masked energy's terms, part by part and axis by axis, each through
    np.diff with a zero plane appended: the reference."""
    total = 0.0
    for part in vals:
        for ax in range(grid.dim):
            d = np.diff(part, axis=ax, append=0.0)
            total += float(np.sum(d * d))
    return 0.5 * grid.spacing ** (grid.dim - 2) * total


def edge_stack(dim: int, n: int, rng) -> np.ndarray:
    """Integer-valued parts, so that every term and every sum is exact: one
    spanning index 0 to n-1 on every axis, a lone node in each of two
    opposite grid corners, an all-zero part, and a part whose box touches
    index 0 on the first axis and n-1 on the last."""
    vals = np.zeros((5,) + (n,) * dim)
    vals[0] = rng.integers(-3, 4, size=(n,) * dim)
    vals[(1,) + (0,) * dim] = 5.0
    vals[(2,) + (n - 1,) * dim] = -7.0
    vals[(4, 0) + (slice(2, 5),) * (dim - 2) + (n - 1,)] = 2.0
    return vals


@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
def test_energy_masked_charges_every_term_at_the_grid_edges(dim, n):
    g = GridSpec(dim=dim, n=n)
    vals = edge_stack(dim, n, np.random.default_rng(dim))
    state = PartitionState(g, vals)
    assert state.boxes[0] == (slice(0, n),) * dim and state.boxes[3] is None
    mask = make_mask(g, "full")
    assert dirichlet_energy(state, "dirichlet", mask) == per_part_diff_energy(vals, g)
    # each part alone; the lone node at index 0 charges one jump per axis
    # (none below node 0), the one at n-1 two (one past it, into the zero
    # extension)
    for i, jumps in enumerate([None, dim * 25.0, dim * 2 * 49.0, 0.0, None]):
        alone = np.zeros_like(vals)
        alone[i] = vals[i]
        energy = dirichlet_energy(PartitionState(g, alone), "dirichlet", mask)
        assert energy == per_part_diff_energy(alone, g)
        assert jumps is None or energy == 0.5 * g.spacing ** (dim - 2) * jumps


@pytest.mark.parametrize("dim,n", [(2, 16), (3, 8)])
def test_energy_masked_of_signed_overlapping_stacks_is_exact(dim, n):
    # the energy stays general: parts may be signed and overlap, each with
    # its own box somewhere in the grid
    g = GridSpec(dim=dim, n=n)
    rng = np.random.default_rng(10 + dim)
    mask = make_mask(g, "full")
    for _ in range(20):
        vals = rng.integers(-9, 10, size=(4,) + g.shape).astype(float)
        for part in vals:
            lo, hi = np.sort(rng.integers(0, n + 1, size=(2, dim)), axis=0)
            keep = np.zeros(g.shape, dtype=bool)
            keep[tuple(slice(a, b) for a, b in zip(lo, hi))] = True
            part[~keep] = 0.0
        assert dirichlet_energy(PartitionState(g, vals), "dirichlet", mask) == (
            per_part_diff_energy(vals, g))


@pytest.mark.parametrize("dim,n,tau,mask_name", [(2, 192, 0.05, "star5"), (3, 32, 0.25, "disk")])
def test_masked_energy_makes_no_stack_sized_temporary(dim, n, tau, mask_name):
    # each part's differences go through one buffer of its box: the peak is
    # the nonzero flags its boxes are found from, an eighth of the stack
    g = GridSpec(dim, n)
    mask = make_mask(g, mask_name)
    cfg = SchemeConfig(k=6, variant="three_step_linear", tau=tau, bc="dirichlet", mask=mask,
                       n_max=3)
    iterate, _ = run(cfg, voronoi_init(g, 6, 1, "dirichlet", mask))
    state = PartitionState(g, iterate.values.copy())
    assert "boxes" not in state.__dict__
    tracemalloc.start()
    got = dirichlet_energy(state, "dirichlet", mask)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 0.25 * state.values.nbytes
    assert abs(got - per_part_diff_energy(state.values, g)) <= 4 * np.spacing(got)


@pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
def test_energy_is_permutation_invariant_and_nonnegative(bc):
    g = GridSpec(dim=2, n=16)
    rng = np.random.default_rng(5)
    vals = rng.normal(size=(3,) + g.shape)
    vals[:, 0, :] = 0.0
    vals[:, :, 0] = 0.0
    s = PartitionState(g, vals)
    swapped = PartitionState(g, vals[[2, 0, 1]])
    e = dirichlet_energy(s, bc)
    assert e >= 0.0
    assert dirichlet_energy(swapped, bc) == pytest.approx(e, rel=1e-12)


def test_energy_rejects_unknown_bc_and_mismatched_mask():
    g = GridSpec(dim=2, n=8)
    s = PartitionState(g, np.zeros((2,) + g.shape))
    with pytest.raises(ValueError):
        dirichlet_energy(s, "neumann")
    other = make_mask(GridSpec(dim=2, n=16), "full")
    with pytest.raises(ValueError):
        dirichlet_energy(s, "dirichlet", other)
