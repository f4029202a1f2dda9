"""The shared spectral operator: half-spectrum energy and reused transforms."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import fft as sp_fft

import optpart.grid
from optpart import (
    DomainMask,
    GridSpec,
    PartitionState,
    SchemeConfig,
    dirichlet_energy,
    make_mask,
    run,
    voronoi_init,
)
from optpart import spectral
from optpart.grid import true_boxes
from optpart.spectral import (
    PERIODIC_MAX_MODES,
    SpectralOperator,
    diffuse_stack,
    spectral_operator,
)
from scipy_heat import at_nodes, eigenvalues, on_index0_planes, positive_zero, scipy_heat
from test_projection import same_bits


def fftn_energy(values: np.ndarray, grid: GridSpec) -> float:
    """Periodic energy from the full complex spectrum, the reference."""
    axes = tuple(range(values.ndim - grid.dim, values.ndim))
    coef = np.fft.fftn(values, axes=axes) / grid.num_nodes
    m = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    k2 = sum(g * g for g in np.meshgrid(*[m] * grid.dim, indexing="ij"))
    vol = (2.0 * np.pi) ** grid.dim
    return float(0.5 * vol * np.sum(k2 * (coef.real**2 + coef.imag**2)))


@pytest.mark.parametrize("dim,n", [(2, 32), (3, 12)])
def test_half_spectrum_energy_matches_full_fftn(dim, n):
    g = GridSpec(dim, n)
    vals = np.random.default_rng(dim).normal(size=(3,) + g.shape)
    got = dirichlet_energy(PartitionState(g, vals), "periodic")
    assert got == pytest.approx(fftn_energy(vals, g), rel=1e-13)


@pytest.mark.parametrize("axes", [(-1,), (0,), (0, -1)])
def test_half_spectrum_energy_of_nyquist_modes(axes):
    # cos(n/2 * x) alternates +-1 on the nodes: the last-axis n/2 column of
    # rfftn stores it once, so it carries weight 1
    g = GridSpec(dim=2, n=16)
    coords = g.meshgrid()
    u = np.ones(g.shape)
    for ax in axes:
        u = u * np.cos(g.n / 2 * coords[ax])
    vals = np.stack([u, np.zeros_like(u)])  # the zero part adds no energy
    expected = 0.5 * len(axes) * (g.n / 2) ** 2 * (2.0 * np.pi) ** 2
    got = dirichlet_energy(PartitionState(g, vals), "periodic")
    assert got == pytest.approx(fftn_energy(vals, g), rel=1e-13)
    assert got == pytest.approx(expected, rel=1e-13)


def test_one_cached_operator_per_grid():
    op = spectral_operator("periodic", 2, 16)
    assert spectral_operator("periodic", 2, 16) is op
    assert spectral_operator("dirichlet", 2, 16) is not op
    # the per-tau tables are cached, and the energy's weights read-only
    assert op._inverse_tables(1.0) is op._inverse_tables(1.0)
    weight = np.full(9, 2.0)
    weight[[0, -1]] = 1.0
    assert same_bits(op._energy_weights, 0.5 * (2.0 * np.pi) ** 2 / 256.0**2 * weight
                     * eigenvalues(GridSpec(2, 16), "periodic"))
    assert not op._energy_weights.flags.writeable
    with pytest.raises(ValueError):
        spectral_operator("neumann", 2, 16)


@pytest.mark.parametrize("dim,n,tau", [(2, 16, 0.2), (2, 32, 1.0), (2, 98, 0.01), (3, 16, 0.2),
                                       (3, 32, 1.0)])
@pytest.mark.parametrize("bc,boxed", [("periodic", False), ("dirichlet", False),
                                      ("dirichlet", True)])
def test_heat_step_only_reads_the_state_coefficients(bc, dim, n, tau, boxed):
    # every route: 2D and 3D products (which decay into memory of their own),
    # irfftn and the node-space kernel of every mode, on n <= 96 and above
    g = GridSpec(dim=dim, n=n)
    state = PartitionState(g, boundary_zero_stack(dim, n, 3))
    op = spectral_operator(bc, g.dim, g.n)
    if bc == "dirichlet":
        # the heat step's coefficients are its own, and the values only read;
        # boxed, a mask's box computes part of the nodes
        mask = None
        if boxed:
            indicator = np.zeros(g.shape, dtype=bool)
            indicator[(slice(3, n - 5),) * dim] = True
            mask = DomainMask(g, indicator)
        kept = state.values.copy()
        got = diffuse_stack(state, tau, bc, mask)
        assert same_bits(state.values, kept)
        want = scipy_heat(kept, g, tau, bc, snap=False)
        want = want if mask is None else at_nodes(want, mask)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        return
    coef = state.spectrum
    assert not coef.flags.writeable
    kept = coef.copy()
    # the transform a periodic state keeps for its energy and its next step
    assert same_bits(coef, np.fft.rfftn(state.values, axes=op.axes))
    got = diffuse_stack(state, tau, bc)
    assert state.spectrum is coef and same_bits(coef, kept)
    # the inverse of a writable block of the spectrum only reads it too
    block = op.block(op.modes(tau))
    coef = coef[block].copy()
    assert same_bits(op.inverse(coef, tau), got)
    assert same_bits(coef, kept[block])


def test_masked_heat_step_transforms_each_part_once(monkeypatch):
    # a masked2d-ed iterate (star5, k=6, tau=0.05 keeps 61 sine modes) at
    # 96^2, the largest grid whose every-mode step, like the kept-mode one, is
    # products; run carries no coefficients on Dirichlet grids
    g = GridSpec(dim=2, n=96)
    mask = make_mask(g, "star5")
    cfg = SchemeConfig(k=6, variant="three_step_linear_ed", tau=0.05, bc="dirichlet", mask=mask,
                       n_max=3)
    state, _ = run(cfg, voronoi_init(g, 6, 0, "dirichlet", mask))
    op = spectral_operator("dirichlet", 2, 96)
    assert op.modes(0.05) == 61
    tables, products = [], spectral._box_products
    monkeypatch.setattr(spectral, "_box_products",
                        lambda *args: tables.append(args[2]) or products(*args))
    out = diffuse_stack(state, 0.05, "dirichlet", mask)
    # one forward transform per part, from its box through the kept sine
    # columns: a slice of the grid's one sine matrix
    assert len(tables) == 6 and all(t is tables[0] for t in tables)
    assert tables[0].base is op._sine and same_bits(tables[0], op._sine[:, :61])
    assert out.shape == (6, mask.nodes.size)


def test_masked_energy_requires_the_dirichlet_box():
    # the masked energy extends by zero past the box edge, as SchemeConfig says
    g = GridSpec(dim=2, n=16)
    mask = make_mask(g, "disk")
    state = voronoi_init(g, 3, 0, "dirichlet", mask)
    with pytest.raises(ValueError, match="a mask requires bc='dirichlet'"):
        dirichlet_energy(state, "periodic", mask)
    with pytest.raises(ValueError, match="a mask requires bc='dirichlet'"):
        SchemeConfig(k=3, bc="periodic", mask=mask)
    with pytest.raises(ValueError, match="unknown boundary condition"):
        dirichlet_energy(state, "dirchlet", mask)
    assert dirichlet_energy(state, "dirichlet", mask) > 0.0


@pytest.mark.parametrize("bc,mask_name,n,tau", [
    ("periodic", None, 24, 0.1), ("dirichlet", None, 24, 0.1), ("dirichlet", "disk", 24, 0.1),
    # heat steps that keep only some modes: 27 of 63, |m| <= 13 of 32
    ("dirichlet", "disk", 64, 0.25), ("periodic", None, 64, 0.25), ("dirichlet", None, 64, 0.25),
], ids=["periodic-None", "dirichlet-None", "dirichlet-disk", "dirichlet-disk-64",
        "periodic-None-64", "dirichlet-None-64"])
def test_uncorrected_iteration_costs_one_transform_each_way(monkeypatch, bc, mask_name, n, tau):
    g = GridSpec(dim=2, n=n)
    mask = make_mask(g, mask_name) if mask_name else None
    # n = 24 keeps every mode
    assert spectral_operator(bc, 2, n).modes(tau) == {
        (24, "dirichlet"): 23, (24, "periodic"): 12, (64, "dirichlet"): 27, (64, "periodic"): 13,
    }[n, bc]
    calls = {"rfftn": 0, "heat": 0, "inverse": 0, "energy": 0, "_inverse_tables": 0,
             "_decayed_sines": 0}
    rfftn = np.fft.rfftn

    def counted_rfftn(*args, **kwargs):
        calls["rfftn"] += 1
        return rfftn(*args, **kwargs)

    # a periodic forward transform is one rfftn, a state's spectrum; a
    # Dirichlet step is one heat call, whose kept modes read the decayed sines
    monkeypatch.setattr(np.fft, "rfftn", counted_rfftn)
    for name in list(calls)[1:]:
        original = getattr(SpectralOperator, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(SpectralOperator, name, counted)
    cfg = SchemeConfig(k=3, variant="three_step_linear", tau=tau, bc=bc, mask=mask, n_max=8)
    _, trace = run(cfg, voronoi_init(g, 3, 0, bc, mask))
    iterations = len(trace) - 1
    if bc == "periodic":
        # one forward per iterate, its spectrum, read by its energy and its
        # next diffusion
        assert calls == {"rfftn": iterations + 1, "heat": 0, "inverse": iterations,
                         "energy": iterations + 1, "_inverse_tables": iterations * (n == 64),
                         "_decayed_sines": 0}
    else:
        # one heat step per iteration, from the boxes its state's energy
        # found (sine gradient factor or finite differences, from node
        # values); every mode is the kernel, in node space, and kept modes
        # transform each part down and back up
        assert calls == {"rfftn": 0, "heat": iterations, "inverse": 0, "energy": 0,
                         "_inverse_tables": 0, "_decayed_sines": 0 if n == 24 else iterations}


@pytest.mark.parametrize("dim,n,tau", [(2, 12, 0.3), (3, 8, 0.3), (2, 98, 0.3), (2, 98, 0.01)],
                         ids=["2-12", "3-8", "2-98", "2-98-tau0.01"])
@pytest.mark.parametrize("domain", ["periodic", "dirichlet", "masked"])
@pytest.mark.parametrize("found", [False, True])
def test_heat_step_buffers(dim, n, tau, domain, found):
    g = GridSpec(dim, n)
    bc = "periodic" if domain == "periodic" else "dirichlet"
    rng = np.random.default_rng(dim * n)
    mask = DomainMask(g, rng.random(g.shape) < 0.7) if domain == "masked" else None
    # signed values, and -0.0 on the Dirichlet boundary planes, which must
    # still come out as +0.0
    vals = rng.normal(size=(3,) + g.shape)
    if bc == "dirichlet":
        for ax in range(1, dim + 1):
            np.moveaxis(vals, ax, 0)[0] = -0.0
    kept_vals = vals.copy()
    op = spectral_operator(bc, dim, n)
    state = PartitionState(g, vals)
    if found:  # what a run's energy finds before the heat step reads it
        getattr(state, "spectrum" if bc == "periodic" else "boxes")
    a = diffuse_stack(state, tau, bc, mask)
    coef = vars(state).get("spectrum")
    kept_coef = None if coef is None else coef.copy()
    b = diffuse_stack(state, tau, bc, mask)
    assert same_bits(state.values, kept_vals)
    assert (coef is not None) == (bc == "periodic")
    if coef is not None:
        assert same_bits(coef, kept_coef) and state.spectrum is coef
        assert not coef.flags.writeable
    want = scipy_heat(kept_vals, g, tau, bc)
    if mask is not None:
        want = at_nodes(want, mask)
    assert same_bits(a, b)
    every_mode = op.modes(tau) == (n // 2 if bc == "periodic" else n - 1)
    # at n = 98, tau = 0.3 keeps 27 sine modes of 97 and |m| <= 12 of 49;
    # tau = 0.01 keeps them all
    assert every_mode == (n != 98 or tau == 0.01)
    if every_mode and bc == "periodic":
        assert same_bits(a, want)
    else:
        # the node-space kernel and the kept-mode products round differently
        # from the FFT
        assert np.max(np.abs(a - want)) <= 1e-14 * np.max(np.abs(want))
    assert a.flags.owndata and b.flags.owndata
    assert not np.shares_memory(a, b)
    assert not any(np.shares_memory(x, y) for x in (a, b) for y in (state.values, coef)
                   if y is not None)
    if mask is not None:
        # the mask's nodes, +0.0 on the index-0 planes, which the random mask reaches
        assert a.shape == (3, mask.nodes.size)
        assert on_index0_planes(mask).any()
        assert positive_zero(a[:, on_index0_planes(mask)])
    elif bc == "dirichlet":
        assert all(positive_zero(np.moveaxis(a, ax, 0)[0]) for ax in range(1, dim + 1))


# ---------------------------------------------------------------------------
# the Dirichlet sine transform as one matrix product per axis


def interior(values, dim):
    return values[(...,) + (slice(1, None),) * dim]


def boundary_zero_stack(dim, n, seed, k=3):
    vals = np.random.default_rng(seed).normal(size=(k,) + (n,) * dim)
    for ax in range(1, dim + 1):
        np.moveaxis(vals, ax, 0)[0] = 0.0
    return vals


def whole_boxes(op, k):
    """Every part's box as the whole interior: the products over the whole stack."""
    return [(slice(1, op.shape[0]),) * op.dim] * k


@pytest.mark.parametrize("n", [8, 28, 96])
def test_sine_matrix_squares_to_2n_times_the_identity(n):
    op = spectral_operator("dirichlet", 2, n)
    s = op._sine
    assert op._sine is s and s.shape == (n - 1, n - 1)
    assert not s.flags.writeable
    # symmetric bit for bit: S[:J] is the transpose of S[:, :J]
    assert same_bits(s, s.T)
    assert np.max(np.abs(s @ s / (2 * n) - np.eye(n - 1))) <= 4e-15


@pytest.mark.parametrize("n", [8, 28, 96])
@pytest.mark.parametrize("dim", [2, 3])
def test_sine_matrix_heat_step_matches_scipy_dst(dim, n):
    # every mode, through the node-space kernel: within rounding of scipy's
    # dstn and idstn
    g = GridSpec(dim, n)
    op = spectral_operator("dirichlet", dim, n)
    assert op.modes(1e-3) == n - 1
    vals = boundary_zero_stack(dim, n, dim * n, k=2 if dim == 3 else 3)
    kept = vals.copy()
    got = op.heat(vals, 1e-3, whole_boxes(op, len(vals)))
    assert same_bits(vals, kept)
    want = scipy_heat(vals, g, 1e-3, "dirichlet", snap=False)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert all(positive_zero(np.moveaxis(got, ax, 0)[0]) for ax in range(1, dim + 1))


def test_every_mode_is_the_kernel_on_any_n():
    # at n = 98 the kept counts are not capped: 95 and 96 of 97 modes go
    # through products, and every mode through the node-space kernel (which
    # test_every_mode_heat_step_is_the_node_space_kernel pins), all within
    # rounding of scipy's DST both ways
    g = GridSpec(2, 98)
    op = spectral_operator("dirichlet", 2, 98)
    vals = boundary_zero_stack(2, 98, 98)
    for tau, modes in ((0.3, 25), (0.0207, 95), (0.0203, 96), (0.01, 97)):
        assert op.modes(tau) == modes
        got = diffuse_stack(PartitionState(g, vals), tau, "dirichlet")
        want = scipy_heat(vals, g, tau, "dirichlet", snap=False)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


# ---------------------------------------------------------------------------
# the heat step through the kept modes only


def test_kept_modes_are_pinned():
    assert spectral_operator("dirichlet", 2, 192).modes(0.05) == 62
    assert spectral_operator("periodic", 2, 128).modes(0.25) == 13
    assert spectral_operator("dirichlet", 3, 28).modes(0.2) == 27  # every mode
    # a Dirichlet count is not capped: products of the kept modes on any n
    assert spectral_operator("dirichlet", 2, 96).modes(0.1) == 43
    assert spectral_operator("dirichlet", 2, 256).modes(0.01) == 140
    assert spectral_operator("periodic", 2, 98).modes(0.01) == 49
    # periodic counts above n/4 or PERIODIC_MAX_MODES keep every mode:
    # irfftn is then faster than the products
    assert PERIODIC_MAX_MODES == 32
    assert spectral_operator("periodic", 2, 64).modes(0.17) == 16  # n/4
    assert spectral_operator("periodic", 2, 64).modes(0.16) == 32  # 17 survive
    assert spectral_operator("periodic", 2, 512).modes(0.05) == 31
    assert spectral_operator("periodic", 2, 512).modes(0.045) == 256  # 33 survive
    # the slowest mode is never dropped: a part keeps something to normalise
    assert spectral_operator("dirichlet", 2, 32).modes(400.0) == 1
    assert spectral_operator("periodic", 2, 32).modes(400.0) == 0


@pytest.mark.parametrize("tau", [0.05, 0.25, 1.0])
@pytest.mark.parametrize("dim,n", [(2, 98), (3, 32)])
@pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
def test_kept_mode_heat_step_matches_the_full_spectrum(bc, dim, n, tau):
    # the dropped modes move no value by more than 2**-53 * max|input|
    g = GridSpec(dim, n)
    vals = np.random.default_rng(dim * n).normal(size=(2,) + g.shape)
    if bc == "dirichlet":
        for ax in range(1, dim + 1):
            np.moveaxis(vals, ax, 0)[0] = 0.0
    want = scipy_heat(vals, g, tau, bc)
    got = diffuse_stack(PartitionState(g, vals), tau, bc)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(vals))


@pytest.mark.parametrize("bc,n,tau,shapes", [
    ("dirichlet", 192, 0.05, [(191, 62), (62, 191)]),
    ("periodic", 128, 0.25, [(128, 27), (28, 128)]),
])
def test_kept_mode_tables_are_read_only_and_cached_per_tau(bc, n, tau, shapes):
    op = spectral_operator(bc, 2, n)
    hits = SpectralOperator.modes.cache_info().hits
    modes = op.modes(tau)
    assert op.modes(tau) == modes
    assert SpectralOperator.modes.cache_info().hits > hits
    per_tau = op._decayed_sines if bc == "dirichlet" else op._inverse_tables
    tables = per_tau(tau)
    assert [t.shape for t in tables] == shapes
    assert not any(t.flags.writeable for t in tables)
    assert all(t is u for t, u in zip(tables, per_tau(tau)))
    if bc == "dirichlet":
        # down through S's slices, back up through S[:, :J] diag(e^{-tau lambda_j}) / 2n
        # and its contiguous transpose
        decay = np.exp(-tau * (np.arange(1, modes + 1) / 2.0) ** 2) / (2 * n)
        assert same_bits(tables[0], op._sine[:, :modes] * decay)
        assert same_bits(tables[1], tables[0].T) and tables[1].flags.c_contiguous


def test_heat_tables_keep_less_than_one_part():
    # every table a heat step caches is one-axis: a 3D Dirichlet run through
    # four kept-mode tau values and an every-mode periodic step leave less
    # than one part behind, where a decay tensor per tau was one part each
    g = GridSpec(3, 40)
    cfg = SchemeConfig(k=4, variant="four_step", tau=(1.6, 0.8, 0.4, 0.2), bc="dirichlet",
                       n_max=4)
    assert [spectral_operator("dirichlet", 3, 40).modes(t) for t in cfg.tau] == [11, 15, 22, 31]
    assert spectral_operator("periodic", 3, 40).modes(0.1) == 20  # every mode
    values = np.random.default_rng(40).normal(size=(2,) + g.shape)
    tracemalloc.start()
    state, trace = run(cfg, voronoi_init(g, 4, 0, "dirichlet"))
    diffuse_stack(PartitionState(g, values), 0.1, "periodic")
    assert len(trace) == 5
    del state, trace
    retained = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    assert retained < g.num_nodes * values.itemsize


# ---------------------------------------------------------------------------
# each part transformed from its support box, the masked inverse over the
# mask's box


def masked_iterate(dim, n, tau, mask_name, k=6):
    """A Dirichlet solver iterate on a named mask (None: the whole box):
    nonnegative, pairwise disjoint supports."""
    g = GridSpec(dim, n)
    mask = make_mask(g, mask_name) if mask_name else None
    cfg = SchemeConfig(k=k, variant="three_step_linear", tau=tau, bc="dirichlet", mask=mask,
                       n_max=3)
    return run(cfg, voronoi_init(g, k, 0, "dirichlet", mask))[0].values, mask


@pytest.mark.parametrize("dim,n,tau,mask_name,bitwise", [
    # kept modes
    (2, 192, 0.05, "star5", True),
    # OpenBLAS multiplies matrices this small in another summation order
    (2, 64, 0.25, "disk", False),
    (3, 32, 0.25, "disk", False),
    # every mode, through the node-space kernel
    (2, 96, 0.01, None, True),
    (2, 64, 0.01, "disk", True),
    # OpenBLAS multiplies the 3D boxes' shorter axes in another summation order
    (3, 28, 0.2, None, False),
])
def test_heat_step_of_disjoint_parts_is_the_whole_stack_step(dim, n, tau, mask_name, bitwise):
    # each part from its box against each part from the whole interior
    vals, _ = masked_iterate(dim, n, tau, mask_name)
    op = spectral_operator("dirichlet", dim, n)
    assert (op.modes(tau) < n - 1) == (n in (192, 32) or tau == 0.25)
    # the boxes hold under half of the stack's interior nodes: the products crop
    boxes = true_boxes(vals != 0.0, dim)
    assert sum(math.prod(s.stop - s.start for s in box) for box in boxes) < 0.5 * (
        len(vals) * (n - 1) ** dim)
    got = op.heat(vals, tau, boxes)
    want = op.heat(vals, tau, whole_boxes(op, len(vals)))
    # the nodes left out add only exact zeros
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    assert same_bits(got, want) or not bitwise
    reference = scipy_heat(vals, GridSpec(dim, n), tau, "dirichlet", snap=False)
    assert np.max(np.abs(got - reference)) <= 1e-14 * np.max(np.abs(reference))


@pytest.mark.parametrize("dim,n,tau", [(2, 64, 0.25), (3, 32, 0.25),
                                       # every mode
                                       (2, 64, 1e-3), (3, 28, 0.2)])
def test_heat_step_of_empty_single_node_and_dense_parts(dim, n, tau):
    g = GridSpec(dim, n)
    op = spectral_operator("dirichlet", dim, n)
    # a heat step of nonzero parts frees its buffers: the next step's fresh
    # arrays may reuse them, so skipped parts must be written
    op.heat(boundary_zero_stack(dim, n, n, k=4), tau, whole_boxes(op, 4))
    vals = np.zeros((4,) + (n,) * dim)
    # part 0 is zero; part 1 is nonzero only on a boundary plane, which the
    # heat step does not read
    vals[1, 0] = 3.0
    node = (9, 20, 5)[:dim]
    vals[(2,) + node] = 2.5
    vals[3] = boundary_zero_stack(dim, n, n, k=1)[0]
    got = op.heat(vals, tau, true_boxes(vals != 0.0, dim))
    assert positive_zero(got[:2])
    want = scipy_heat(vals, g, tau, "dirichlet", snap=False)
    for i in (2, 3):
        assert np.max(np.abs(got[i] - want[i])) <= 1e-14 * np.max(np.abs(want[i]))
    if op.modes(tau) == n - 1:
        # one node through the kernel: sums of one product each, in the
        # step's order; a BLAS sum starts from +0.0, so an exact zero of the
        # kernel gives +0.0
        kernel = op.heat_kernel(tau)
        single = 2.5 * kernel[node[-1] - 1] + 0.0
        for l in reversed(node[:-1]):
            single = np.multiply.outer(kernel[:, l - 1], single) + 0.0
        assert same_bits(interior(got[2], dim), single)
    # a dense part's box is the whole interior
    assert same_bits(got[3], op.heat(vals, tau, whole_boxes(op, 4))[3])


@pytest.mark.parametrize("dim,n,tau,mask_name", [
    (2, 192, 0.05, "star5"),  # 62 of 191 modes
    (3, 32, 0.25, "disk"),  # 28 of 31 modes
    (3, 28, 0.2, "disk"),  # every mode, through the node-space heat kernel
    (2, 98, 0.01, "disk"),  # every mode above n = 96, through the node-space heat kernel
])
def test_masked_heat_step_is_the_box_heat_step_at_the_mask_nodes(dim, n, tau, mask_name):
    g = GridSpec(dim, n)
    iterate, mask = masked_iterate(dim, n, tau, mask_name, k=3)
    # the mask's box leaves nodes out: the products crop
    assert math.prod(s.stop - s.start for s in mask.box) < 0.9 * n**dim
    dense = np.where(mask.indicator, boundary_zero_stack(dim, n, n), 0.0)
    for vals in (iterate, dense):
        got = diffuse_stack(PartitionState(g, vals), tau, "dirichlet", mask)
        assert got.flags.owndata and got.shape == (3, mask.nodes.size)
        # the heat step of the box, on the mask's nodes
        want = at_nodes(diffuse_stack(PartitionState(g, vals), tau, "dirichlet"), mask)
        # 3D: OpenBLAS multiplies the box's shorter axes in another summation order
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        if dim == 2:
            assert same_bits(got, want)


@pytest.mark.parametrize("dim,n,tau,mask_name", [
    (2, 192, 0.05, "star5"),  # kept-mode products
    (2, 64, 0.25, "disk"),
    (3, 28, 0.2, "disk"),  # every mode, through the node-space heat kernel
    (2, 64, 0.25, None),
])
def test_heat_step_reads_the_state_boxes(monkeypatch, dim, n, tau, mask_name):
    # a state's boxes, found for its energy, are all the heat step scans for
    g = GridSpec(dim, n)
    iterate, mask = masked_iterate(dim, n, tau, mask_name)
    want = diffuse_stack(PartitionState(g, iterate.copy()), tau, "dirichlet", mask)
    state = PartitionState(g, iterate.copy())
    assert state.boxes == tuple(true_boxes(state.values != 0.0, dim))
    monkeypatch.setattr(optpart.grid, "true_boxes", None)
    assert same_bits(diffuse_stack(state, tau, "dirichlet", mask), want)


def dst_energy(values, grid):
    """0.5 pi^d / n^2d sum lambda |dstn(u)|^2 over scipy's full sine spectrum: the reference."""
    coef = sp_fft.dstn(interior(values, grid.dim), type=1, axes=tuple(range(-grid.dim, 0)))
    return float(0.5 * np.pi**grid.dim / grid.n ** (2 * grid.dim)
                 * np.sum(eigenvalues(grid, "dirichlet") * coef * coef))


def long_double_energy(values, grid, boxes):
    """The factor form 0.5 h^d sum ||G u||^2 along each axis, in np.longdouble."""
    n, pi = grid.n, 4 * np.arctan(np.longdouble(1))
    j = np.arange(1, n)
    sine = 2 * np.sin(pi * (np.outer(j, j) % (2 * n)).astype(np.longdouble) / n)
    factor = (j / np.longdouble(2))[:, None] * sine / np.sqrt(np.longdouble(2 * n))
    total = np.longdouble(0)
    for part, box in zip(interior(values, grid.dim), boxes):
        box = tuple(slice(s.start - 1, s.stop - 1) for s in box)
        u = part[box].astype(np.longdouble)
        for ax, rows in enumerate(box):
            along = np.tensordot(factor[:, rows], u, axes=([1], [ax]))
            total += np.sum(along * along)
    return 0.5 * (2 * pi / n) ** grid.dim * total


@pytest.mark.parametrize("dim,n,k", [(3, 28, 8), (2, 128, 6), (2, 256, 6)])
def test_dirichlet_energy_is_accurate(dim, n, k):
    # a sum of squares rounds like the values: within a few ulps of the same
    # form in long double, and of the full sine spectrum's sum, which the
    # stiffness form u^T G^T G u misses by 2e-14 at 128^2 and 1.2e-13 at 256^2
    g = GridSpec(dim, n)
    cfg = SchemeConfig(k=k, variant="four_step", tau=0.2 if dim == 3 else 0.05, bc="dirichlet",
                       n_max=5)
    state, _ = run(cfg, voronoi_init(g, k, 0, "dirichlet"))
    got = dirichlet_energy(state, "dirichlet")
    assert abs(got - long_double_energy(state.values, g, state.boxes)) <= 2e-15 * got
    assert got == pytest.approx(dst_energy(state.values, g), rel=1e-14)


def test_dirichlet_energy_makes_no_stack_sized_temporary():
    g = GridSpec(3, 28)
    state = PartitionState(g, boundary_zero_stack(3, 28, 28, k=8))
    assert state.boxes  # found before tracing: the nonzero flags are 1/8 stack
    dirichlet_energy(state, "dirichlet")  # the gradient factor, built once
    tracemalloc.start()
    got = dirichlet_energy(state, "dirichlet")
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # one part's one-axis products at a time, each a part in size
    assert peak <= state.values.nbytes / 4
    assert got == pytest.approx(dst_energy(state.values, g), rel=1e-14)


@pytest.mark.parametrize("dim,n,tau", [(3, 28, 0.2), (2, 64, 0.01), (2, 98, 0.01)])
@pytest.mark.parametrize("mask_name", [None, "disk"])
def test_every_mode_heat_step_is_the_node_space_kernel(monkeypatch, dim, n, tau, mask_name):
    g = GridSpec(dim, n)
    op = spectral_operator("dirichlet", dim, n)
    assert op.modes(tau) == n - 1
    kernel = op.heat_kernel(tau)
    assert op.heat_kernel(tau) is kernel and not kernel.flags.writeable
    assert same_bits(kernel, kernel.T)
    iterate, mask = masked_iterate(dim, n, tau, mask_name)
    dense = boundary_zero_stack(dim, n, n)
    if mask is not None:
        dense = np.where(mask.indicator, dense, 0.0)

    # tau = 0.01 rings by 1e-10 at 64^2: no value is snapped
    wants = [scipy_heat(vals, g, tau, "dirichlet", snap=False) for vals in (iterate, dense)]

    def no_transform(*args, **kwargs):
        raise AssertionError("a transform on the node-space route")

    monkeypatch.setattr(SpectralOperator, "_decayed_sines", no_transform)
    for vals, want in zip((iterate, dense), wants):
        got = diffuse_stack(PartitionState(g, vals), tau, "dirichlet", mask)
        if mask is not None:
            want = at_nodes(want, mask)
        assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want))
        assert got.flags.owndata
        if mask is None:
            assert all(positive_zero(np.moveaxis(got, ax, 0)[0]) for ax in range(1, dim + 1))
        else:
            assert got.shape == (len(vals), mask.nodes.size)
