"""The shared spectral operator: half-spectrum energy and reused transforms."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import fft as sp_fft

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
    SINE_MATRIX_MAX_N,
    SpectralOperator,
    diffuse_stack,
    spectral_operator,
)
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
    assert op.decay(0.1) is op.decay(0.1)
    assert not op.eigenvalues.flags.writeable
    with pytest.raises(ValueError):
        spectral_operator("neumann", 2, 16)


@pytest.mark.parametrize("dim,n,tau", [(2, 16, 0.2), (2, 32, 1.0), (2, 98, 0.01), (3, 16, 0.2),
                                       (3, 32, 1.0)])
@pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
@pytest.mark.parametrize("boxed", [False, True])
def test_diffusion_from_given_coefficients_is_bitwise_the_same(bc, dim, n, tau, boxed):
    # every coefficient path: 2D and 3D products (which decay into memory of
    # their own), irfftn and scipy's DST of every mode
    g = GridSpec(dim=dim, n=n)
    vals = boundary_zero_stack(dim, n, 3)
    op = spectral_operator(bc, g.dim, g.n)
    coef = op.forward(vals)
    assert not coef.flags.writeable
    kept = coef.copy()
    if bc == "periodic":
        out = diffuse_stack(vals, g, tau, bc, coef=coef)
        assert same_bits(out, diffuse_stack(vals, g, tau, bc))
        assert same_bits(coef, kept)
        assert not coef.flags.writeable
        # the transform a periodic state keeps for its energy and its next step
        assert same_bits(PartitionState(g, vals).spectrum, coef)
    else:  # the Dirichlet heat step reads node values only
        with pytest.raises(ValueError, match="coef is for periodic grids"):
            diffuse_stack(vals, g, tau, bc, coef=coef)
    # the inverse multiplies the decay in, and only reads the coefficients
    block = op.block(op.modes(tau))
    coef, decay = coef[block], op.decay(tau)[block]
    box = (slice(3, n - 5),) * dim if boxed else None
    assert same_bits(op.inverse(coef, decay, box), op.inverse(coef * decay, 1.0, box))
    assert same_bits(coef, kept[block])


def test_masked_heat_step_refuses_coefficients_and_transforms_once(monkeypatch):
    # a masked2d-ed iterate (star5, k=6, tau=0.05 keeps 61 sine modes) at
    # 96^2, the largest grid whose full forward, like the kept-mode one, is
    # products; run carries no coefficients on Dirichlet grids
    g = GridSpec(dim=2, n=96)
    mask = make_mask(g, "star5")
    cfg = SchemeConfig(k=6, variant="three_step_linear_ed", tau=0.05, bc="dirichlet", mask=mask,
                       n_max=3)
    state, _ = run(cfg, voronoi_init(g, 6, 0, "dirichlet", mask))
    coef = spectral_operator("dirichlet", 2, 96).forward(state.values)
    with pytest.raises(ValueError, match="coef is for periodic grids"):
        diffuse_stack(state.values, g, 0.05, "dirichlet", mask, coef)
    made, forward = [], SpectralOperator.forward
    monkeypatch.setattr(SpectralOperator, "forward",
                        lambda self, *args: made.append(forward(self, *args)) or made[-1])
    diffuse_stack(state.values, g, 0.05, "dirichlet", mask)
    # the heat step's own forward transform stays read-only
    assert len(made) == 1 and not made[0].flags.writeable


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


def test_dirichlet_boundary_check_holds_with_given_coefficients():
    # given coefficients, which a Dirichlet heat step refuses, bypass no check
    g = GridSpec(dim=2, n=16)
    vals = np.ones((1,) + g.shape)
    coef = spectral_operator("dirichlet", g.dim, g.n).forward(vals)
    with pytest.raises(ValueError, match="coef is for periodic grids"):
        diffuse_stack(vals, g, 0.2, "dirichlet", coef=coef)
    with pytest.raises(ValueError, match="boundary planes"):
        diffuse_stack(vals, g, 0.2, "dirichlet")


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
    calls = {"forward": 0, "inverse": 0, "energy": 0}
    given_boxes = []
    rfftn = np.fft.rfftn

    def counted_rfftn(*args, **kwargs):
        calls["forward"] += 1
        return rfftn(*args, **kwargs)

    # a periodic forward transform is one rfftn, wherever it is made: a
    # state's spectrum or the operator's forward
    monkeypatch.setattr(np.fft, "rfftn", counted_rfftn)
    for name in calls:
        original = getattr(SpectralOperator, name)

        def counted(self, *args, _name=name, _original=original):
            if _name != "forward":
                calls[_name] += 1
            elif self.bc == "dirichlet":  # a periodic one is counted as its rfftn
                calls[_name] += 1
                given_boxes.append(args[2] is not None)
            return _original(self, *args)

        monkeypatch.setattr(SpectralOperator, name, counted)
    cfg = SchemeConfig(k=3, variant="three_step_linear", tau=tau, bc=bc, mask=mask, n_max=8)
    _, trace = run(cfg, voronoi_init(g, 3, 0, bc, mask))
    iterations = len(trace) - 1
    if bc == "periodic":
        # one forward per iterate, its spectrum, read by its energy and its
        # next diffusion
        assert calls == {"forward": iterations + 1, "inverse": iterations,
                         "energy": iterations + 1}
    elif n == 24:
        # every mode: the heat kernel works in node space, and the energy
        # (sine gradient factor or finite differences) reads the node values
        assert calls == {"forward": 0, "inverse": 0, "energy": 0}
    else:
        # kept modes: each heat step transforms from the boxes its state's
        # energy found, and back
        assert calls == {"forward": iterations, "inverse": iterations, "energy": 0}
        assert given_boxes == [True] * iterations


def in_box(mask) -> np.ndarray:
    """The indicator of the mask's box: the nodes a masked heat step computes."""
    out = np.zeros(mask.grid.shape, dtype=bool)
    out[mask.box] = True
    return out


def old_diffuse_stack(values, grid, tau, bc, mask=None, snap=True):
    """The heat step through FFTs and scipy's DST, with a zero-filled output
    and ``np.where`` for the mask's box: the reference.  ``snap`` zeroes
    negative values above -1e-12, as the heat step once did."""
    op = spectral_operator(bc, grid.dim, grid.n)
    if bc == "periodic":
        out = np.fft.irfftn(np.fft.rfftn(values, axes=op.axes) * op.decay(tau),
                            s=grid.shape, axes=op.axes)
    else:
        interior = (...,) + (slice(1, None),) * grid.dim
        coef = sp_fft.dstn(values[interior], type=1, axes=op.axes) * op.decay(tau)
        out = np.zeros(values.shape[:1] + grid.shape)
        out[interior] = sp_fft.idstn(coef, type=1, axes=op.axes)
    if snap:
        out[(out > -1e-12) & (out < 0.0)] = 0.0
    return out if mask is None else np.where(in_box(mask), out, 0.0)


def positive_zero(a) -> bool:
    return bool(np.all(a == 0.0) and not np.signbit(a).any())


@pytest.mark.parametrize("dim,n,tau", [(2, 12, 0.3), (3, 8, 0.3), (2, 98, 0.3), (2, 98, 0.01)],
                         ids=["2-12", "3-8", "2-98", "2-98-tau0.01"])
@pytest.mark.parametrize("domain", ["periodic", "dirichlet", "masked"])
@pytest.mark.parametrize("given_coef", [False, True])
def test_heat_step_buffers(dim, n, tau, domain, given_coef):
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
    if given_coef and bc == "dirichlet":  # a Dirichlet heat step reads node values only
        with pytest.raises(ValueError, match="coef is for periodic grids"):
            diffuse_stack(vals, g, tau, bc, mask, op.forward(vals))
        return
    coef = op.forward(vals) if given_coef else None
    kept_coef = None if coef is None else coef.copy()
    a = diffuse_stack(vals, g, tau, bc, mask, coef)
    b = diffuse_stack(vals, g, tau, bc, mask, coef)
    assert same_bits(vals, kept_vals)
    if coef is not None:
        assert same_bits(coef, kept_coef)
        assert not coef.flags.writeable
    want = old_diffuse_stack(kept_vals, g, tau, bc, mask)
    assert same_bits(a, b)
    every_mode = op.modes(tau) == (n // 2 if bc == "periodic" else n - 1)
    # at n = 98, tau = 0.3 keeps 27 sine modes of 97 and |m| <= 12 of 49;
    # tau = 0.01 keeps them all
    assert every_mode == (n != 98 or tau == 0.01)
    if every_mode and (bc == "periodic" or n > SINE_MATRIX_MAX_N):
        assert same_bits(a, want)
    else:
        # the node-space kernel and the kept-mode products round differently
        # from the FFT
        assert np.max(np.abs(a - want)) <= 1e-14 * np.max(np.abs(want))
    assert a.flags.owndata and b.flags.owndata
    assert not np.shares_memory(a, b)
    assert not any(np.shares_memory(x, y) for x in (a, b) for y in (vals, coef) if y is not None)
    if bc == "dirichlet":
        assert all(positive_zero(np.moveaxis(a, ax, 0)[0]) for ax in range(1, dim + 1))
    if mask is not None:
        assert positive_zero(a[:, ~in_box(mask)])


# ---------------------------------------------------------------------------
# the Dirichlet sine transform as one matrix product per axis


def interior(values, dim):
    return values[(...,) + (slice(1, None),) * dim]


def boundary_zero_stack(dim, n, seed, k=3):
    vals = np.random.default_rng(seed).normal(size=(k,) + (n,) * dim)
    for ax in range(1, dim + 1):
        np.moveaxis(vals, ax, 0)[0] = 0.0
    return vals


@pytest.mark.parametrize("n", [8, 28, 96])
def test_sine_matrix_squares_to_2n_times_the_identity(n):
    op = spectral_operator("dirichlet", 2, n)
    s, s_inv = op._sine_tables(n - 1)[0], op._inverse_tables(n - 1)[0]
    assert s.shape == (n - 1, n - 1)
    assert not s.flags.writeable and not s_inv.flags.writeable
    assert np.max(np.abs(s @ s / (2 * n) - np.eye(n - 1))) <= 4e-15
    assert np.array_equal(s_inv, s / (2 * n))


@pytest.mark.parametrize("n", [8, 28, 96])
@pytest.mark.parametrize("dim", [2, 3])
def test_sine_matrix_transform_matches_scipy_dst(dim, n):
    op = spectral_operator("dirichlet", dim, n)
    vals = boundary_zero_stack(dim, n, dim * n, k=1 if dim == 3 else 3)
    kept = vals.copy()
    coef = op.forward(vals)
    assert same_bits(vals, kept)
    assert not coef.flags.writeable
    want = sp_fft.dstn(interior(vals, dim), type=1, axes=op.axes)
    assert np.max(np.abs(coef - want)) <= 1e-14 * np.max(np.abs(want))
    kept_coef = coef.copy()
    back = op.inverse(coef, 1.0)  # the matrix path only reads its coefficients
    assert same_bits(coef, kept_coef)
    assert np.max(np.abs(back - vals)) <= 1e-14 * np.max(np.abs(vals))
    assert all(positive_zero(np.moveaxis(back, ax, 0)[0]) for ax in range(1, dim + 1))


def test_sine_matrix_path_is_pinned_to_n_at_most_96(monkeypatch):
    assert SINE_MATRIX_MAX_N == 96
    # at n = 98 full transforms are scipy's DST both ways, bit for bit
    op = spectral_operator("dirichlet", 2, 98)
    vals = boundary_zero_stack(2, 98, 98)
    coef = op.forward(vals)
    assert same_bits(coef, sp_fft.dstn(interior(vals, 2), type=1, axes=op.axes))
    want = sp_fft.idstn(coef, type=1, axes=op.axes)
    assert same_bits(interior(op.inverse(coef, 1.0), 2), want)

    # at n = 96, and for fewer than every mode at n = 98, scipy's DST is
    # never called
    def no_dst(*args, **kwargs):
        raise AssertionError("scipy DST called on the sine-matrix path")

    monkeypatch.setattr(spectral.sp_fft, "dstn", no_dst)
    monkeypatch.setattr(spectral.sp_fft, "idstn", no_dst)
    op = spectral_operator("dirichlet", 2, 96)
    vals = boundary_zero_stack(2, 96, 96)
    out = diffuse_stack(vals, GridSpec(2, 96), 0.1, "dirichlet")
    assert out.shape == vals.shape
    assert op.inverse(op.forward(vals), 1.0).shape == vals.shape
    op = spectral_operator("dirichlet", 2, 98)
    vals = boundary_zero_stack(2, 98, 98)
    for modes in (27, SINE_MATRIX_MAX_N - 1, SINE_MATRIX_MAX_N):
        coef = op.forward(vals, modes)
        assert coef.shape == (3, modes, modes)
        assert op.inverse(coef, 1.0).shape == vals.shape


# ---------------------------------------------------------------------------
# the heat step through the kept modes only


def test_kept_modes_are_pinned():
    assert spectral_operator("dirichlet", 2, 192).modes(0.05) == 62
    assert spectral_operator("periodic", 2, 128).modes(0.25) == 13
    assert spectral_operator("dirichlet", 3, 28).modes(0.2) == 27  # every mode
    # counts above SINE_MATRIX_MAX_N - 1 keep every mode: scipy's DST is full
    assert spectral_operator("dirichlet", 2, 256).modes(0.01) == 255
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
    op = spectral_operator(bc, dim, n)
    vals = np.random.default_rng(dim * n).normal(size=(2,) + g.shape)
    if bc == "dirichlet":
        for ax in range(1, dim + 1):
            np.moveaxis(vals, ax, 0)[0] = 0.0
    want = old_diffuse_stack(vals, g, tau, bc)
    for coef in (None, op.forward(vals)) if bc == "periodic" else (None,):
        got = diffuse_stack(vals, g, tau, bc, coef=coef)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(vals))


@pytest.mark.parametrize("bc,n,tau,shapes", [
    ("dirichlet", 192, 0.05, [(191, 62), (62, 191), (191, 62), (62, 191)]),
    ("periodic", 128, 0.25, [(128, 27), (28, 128)]),
])
def test_kept_mode_tables_are_read_only_and_cached_per_tau(bc, n, tau, shapes):
    op = spectral_operator(bc, 2, n)
    hits = SpectralOperator.modes.cache_info().hits
    modes = op.modes(tau)
    assert op.modes(tau) == modes
    assert SpectralOperator.modes.cache_info().hits > hits
    tables = (op._sine_tables(modes) if bc == "dirichlet" else ()) + op._inverse_tables(modes)
    assert [t.shape for t in tables] == shapes
    assert not any(t.flags.writeable for t in tables)
    again = (op._sine_tables(op.modes(tau)) if bc == "dirichlet" else ()) + op._inverse_tables(
        op.modes(tau))
    assert all(t is u for t, u in zip(tables, again))


# ---------------------------------------------------------------------------
# each part transformed from its support box, the masked inverse over the
# mask's box


def batched_forward(op, values, modes):
    """The kept-mode sine forward of the whole stack in one product per axis:
    the reference."""
    cols, rows = op._sine_tables(modes)
    coef = np.matmul(interior(values, op.dim), cols)
    for ax in range(-2, -op.dim - 1, -1):
        shape = coef.shape
        coef = np.matmul(rows, coef.reshape(-1, shape[ax], math.prod(shape[ax + 1 :])))
        coef = coef.reshape(shape[:ax] + (modes,) + shape[ax + 1 :])
    return coef


def masked_iterate(dim, n, tau, mask_name, k=6):
    """A Dirichlet solver iterate on a named mask (None: the whole box):
    nonnegative, pairwise disjoint supports."""
    g = GridSpec(dim, n)
    mask = make_mask(g, mask_name) if mask_name else None
    cfg = SchemeConfig(k=k, variant="three_step_linear", tau=tau, bc="dirichlet", mask=mask,
                       n_max=3)
    return run(cfg, voronoi_init(g, k, 0, "dirichlet", mask))[0].values, mask


@pytest.mark.parametrize("dim,n,tau,mask_name,bitwise", [
    (2, 192, 0.05, "star5", True),
    # OpenBLAS multiplies matrices this small in another summation order
    (2, 64, 0.25, "disk", False),
    (3, 32, 0.25, "disk", False),
])
def test_kept_mode_forward_of_disjoint_parts_is_the_whole_stack_product(
        dim, n, tau, mask_name, bitwise):
    vals, _ = masked_iterate(dim, n, tau, mask_name)
    op = spectral_operator("dirichlet", dim, n)
    modes = op.modes(tau)
    assert modes < n - 1
    # each part's box is a small share of the interior: the products crop
    boxes = true_boxes(vals != 0.0, dim)
    assert all(math.prod(s.stop - s.start for s in box) < 0.5 * (n - 1) ** dim for box in boxes)
    got = op.forward(vals, modes)
    assert not got.flags.writeable
    want = batched_forward(op, vals, modes)
    if n <= SINE_MATRIX_MAX_N:
        # the J-block of the full forward
        full = op.forward(vals)[op.block(modes)]
        assert np.max(np.abs(full - want)) <= 1e-15 * np.max(np.abs(want))
    # the nodes left out add only exact zeros
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    assert same_bits(got, want) or not bitwise


@pytest.mark.parametrize("dim,n,tau,mask_name,bitwise", [
    (2, 96, 0.05, None, True),
    (2, 64, 0.25, "disk", True),
    # OpenBLAS multiplies the 3D boxes' shorter axes in another summation order
    (3, 28, 0.2, None, False),
])
def test_full_forward_of_disjoint_parts_is_the_whole_stack_product(
        dim, n, tau, mask_name, bitwise):
    vals, _ = masked_iterate(dim, n, tau, mask_name)
    op = spectral_operator("dirichlet", dim, n)
    # the boxes hold under half of the stack's interior nodes: the products crop
    boxes = true_boxes(vals != 0.0, dim)
    assert sum(math.prod(s.stop - s.start for s in box) for box in boxes) < 0.5 * (
        len(vals) * (n - 1) ** dim)
    got = op.forward(vals)
    assert not got.flags.writeable
    want = batched_forward(op, vals, n - 1)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    assert same_bits(got, want) or not bitwise


@pytest.mark.parametrize("dim,n,tau", [(2, 64, 0.25), (3, 32, 0.25),
                                       # every mode
                                       (2, 64, 1e-3), (3, 28, 0.2)])
def test_kept_mode_forward_of_empty_single_node_and_dense_parts(dim, n, tau):
    op = spectral_operator("dirichlet", dim, n)
    modes = op.modes(tau)
    cols, rows = op._sine_tables(modes)
    # a forward of nonzero parts frees its coefficients: the next forward's
    # fresh array may reuse them, so skipped parts must be written
    op.forward(boundary_zero_stack(dim, n, n, k=4), modes)
    vals = np.zeros((4,) + (n,) * dim)
    # part 0 is zero; part 1 is nonzero only on a boundary plane, which the
    # transform does not read
    vals[1, 0] = 3.0
    node = (9, 20, 5)[:dim]
    vals[(2,) + node] = 2.5
    vals[3] = boundary_zero_stack(dim, n, n, k=1)[0]
    coef = op.forward(vals, modes)
    assert positive_zero(coef[:2])
    # one node: sums of one product each, in the transform's order; a BLAS
    # sum starts from +0.0, so an exact zero of the sine table gives +0.0
    single = 2.5 * cols[node[-1] - 1]
    for l in reversed(node[:-1]):
        single = np.multiply.outer(rows[:, l - 1], single) + 0.0
    assert same_bits(coef[2], single)
    # a dense part's box is the whole interior
    assert same_bits(coef[3], batched_forward(op, vals[3:], modes)[0])


@pytest.mark.parametrize("dim,n,tau,mask_name", [
    (2, 192, 0.05, "star5"),  # 62 of 191 modes
    (3, 32, 0.25, "disk"),  # 28 of 31 modes
    (3, 28, 0.2, "disk"),  # every mode, through the node-space heat kernel
    (2, 98, 0.01, "disk"),  # every mode, through scipy's DST
])
def test_masked_heat_step_is_the_restricted_box_heat_step(dim, n, tau, mask_name):
    g = GridSpec(dim, n)
    iterate, mask = masked_iterate(dim, n, tau, mask_name, k=3)
    # the mask's box leaves nodes out: the inverse crops
    assert math.prod(s.stop - s.start for s in mask.box) < 0.9 * n**dim
    dense = np.where(mask.indicator, boundary_zero_stack(dim, n, n), 0.0)
    for vals in (iterate, dense):
        got = diffuse_stack(vals, g, tau, "dirichlet", mask)
        assert got.flags.owndata
        # the box's heat step on the mask's box, which a step's gather restricts
        # to the mask's nodes
        want = np.where(in_box(mask), diffuse_stack(vals, g, tau, "dirichlet"), 0.0)
        # 3D, and 2D in the box off the mask: OpenBLAS multiplies the box's
        # shorter axes in another summation order
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        if dim == 2:
            assert same_bits(got[:, mask.indicator], want[:, mask.indicator])
        assert positive_zero(got[:, ~in_box(mask)])


@pytest.mark.parametrize("dim,n,tau,mask_name", [
    (2, 192, 0.05, "star5"),  # kept-mode products
    (2, 64, 0.25, "disk"),
    (3, 28, 0.2, "disk"),  # every mode, through the node-space heat kernel
    (2, 64, 0.25, None),
])
def test_heat_step_from_given_boxes_is_bitwise_the_same(monkeypatch, dim, n, tau, mask_name):
    # a state's boxes, found for its masked energy, stand in for the forward
    # transform's own scan, which then does not run
    g = GridSpec(dim, n)
    iterate, mask = masked_iterate(dim, n, tau, mask_name)
    state = PartitionState(g, iterate.copy())
    want = diffuse_stack(state.values, g, tau, "dirichlet", mask)
    boxes = state.boxes
    assert boxes == tuple(true_boxes(state.values != 0.0, dim))
    monkeypatch.setattr(spectral, "true_boxes", None)
    assert same_bits(diffuse_stack(state.values, g, tau, "dirichlet", mask, boxes=boxes), want)


def dst_energy(values, grid):
    """0.5 pi^d / n^2d sum lambda |dstn(u)|^2 over scipy's full sine spectrum: the reference."""
    op = spectral_operator("dirichlet", grid.dim, grid.n)
    coef = sp_fft.dstn(interior(values, grid.dim), type=1, axes=op.axes)
    return float(0.5 * np.pi**grid.dim / grid.n ** (2 * grid.dim)
                 * np.sum(op.eigenvalues * coef * coef))


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


@pytest.mark.parametrize("dim,n,tau", [(3, 28, 0.2), (2, 64, 0.01)])
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

    def no_transform(*args, **kwargs):
        raise AssertionError("a transform on the node-space route")

    monkeypatch.setattr(SpectralOperator, "forward", no_transform)
    monkeypatch.setattr(SpectralOperator, "inverse", no_transform)
    for vals in (iterate, dense):
        got = diffuse_stack(vals, g, tau, "dirichlet", mask)
        # tau = 0.01 rings by 1e-10 at 64^2: no value is snapped
        want = old_diffuse_stack(vals, g, tau, "dirichlet", mask, snap=False)
        assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want))
        assert got.flags.owndata
        assert all(positive_zero(np.moveaxis(got, ax, 0)[0]) for ax in range(1, dim + 1))
        if mask is not None:
            assert positive_zero(got[:, ~in_box(mask)])
