"""Splitting-step drivers, the energy-decrease correction, and the run loop."""

import ctypes
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import optpart.grid
import optpart.scheme
from optpart import (
    DegeneratePart,
    GridSpec,
    PartitionState,
    SchemeConfig,
    TraceRow,
    VARIANTS,
    dirichlet_energy,
    label_map,
    make_mask,
    max_support_overlap,
    partition_norms,
    run,
    voronoi_init,
)
from optpart.grid import weighted_norms
from optpart.scheme import (
    SECANT_MAX_ITERS,
    SecantFailed,
    _residual,
    apply_sigma,
    energy_decrease_wrap,
    secant_update,
    step,
    stopping_check,
)
from multipliers import dense_apply_sigma
from test_projection import same_bits
from test_spectral import positive_zero

PLAIN_VARIANTS = [v for v in VARIANTS if not v.endswith("_ed")]


def flat_partition(grid: GridSpec, k: int, seed: int = 0) -> PartitionState:
    return voronoi_init(grid, k, rng_seed=seed)


# ---------------------------------------------------------------------------
# configuration


def test_scheme_config_validation():
    SchemeConfig(k=2)
    for k in (0, 1):
        with pytest.raises(ValueError, match=f"k must be >= 2, got {k}"):
            SchemeConfig(k=k)
    with pytest.raises(ValueError):
        SchemeConfig(k=2, variant="five_step")
    with pytest.raises(ValueError):
        SchemeConfig(k=2, bc="neumann")
    with pytest.raises(ValueError):
        SchemeConfig(k=2, n_max=0)
    with pytest.raises(ValueError):
        SchemeConfig(k=2, tau=0.0)
    with pytest.raises(ValueError):
        SchemeConfig(k=2, tau=(0.1, -0.1))
    for tau in (np.inf, np.nan, (0.1, np.inf)):
        with pytest.raises(ValueError, match="positive and finite"):
            SchemeConfig(k=2, tau=tau)
    with pytest.raises(ValueError, match="at least one value"):
        SchemeConfig(k=2, tau=())
    # counts must be integers, not floats or bools; numpy integers become int
    for kwargs in ({"k": 2.5}, {"k": 2.0}, {"k": True}, {"k": 2, "n_max": 10.5},
                   {"k": 2, "n_max": True}, {"k": 2, "n_max": "10"}):
        with pytest.raises(ValueError, match="must be an integer"):
            SchemeConfig(**kwargs)
    cfg = SchemeConfig(k=np.int64(3), n_max=np.uint16(10))
    assert type(cfg.k) is int and type(cfg.n_max) is int


def test_scheme_config_rejects_mask_on_the_torus():
    grid = GridSpec(dim=2, n=16)
    mask = make_mask(grid, "disk")
    SchemeConfig(k=2, bc="dirichlet", mask=mask)
    with pytest.raises(ValueError, match="dirichlet"):
        SchemeConfig(k=2, bc="periodic", mask=mask)


def test_tau_schedule_warmup_then_steady():
    cfg = SchemeConfig(k=2, tau=(0.5, 0.2, 0.05))
    assert cfg.tau_at(0) == 0.5
    assert cfg.tau_at(1) == 0.2
    assert cfg.tau_at(2) == 0.05
    assert cfg.tau_at(100) == 0.05
    single = SchemeConfig(k=2, tau=0.3)
    assert single.tau == (0.3,)
    assert single.tau_at(0) == single.tau_at(50) == 0.3
    as_list = SchemeConfig(k=2, tau=[0.5, 0.2])
    assert as_list.tau == (0.5, 0.2)
    assert all(type(t) is float for t in SchemeConfig(k=2, tau=(1, np.float64(0.5))).tau)


def test_energy_decreasing_flag():
    assert not SchemeConfig(k=2, variant="three_step_linear").energy_decreasing
    assert SchemeConfig(k=2, variant="three_step_linear_ed").energy_decreasing


# ---------------------------------------------------------------------------
# single steps


@pytest.mark.parametrize("name", sorted(PLAIN_VARIANTS))
def test_one_step_preserves_all_constraints(name):
    grid = GridSpec(dim=2, n=16)
    state = flat_partition(grid, 3, seed=7)
    cfg = SchemeConfig(k=3, variant=name, tau=0.1)
    out = step(state, cfg, 0.1)
    assert out.values.min() >= 0.0
    assert max_support_overlap(out) == 0.0
    assert np.abs(partition_norms(out) - 1.0).max() <= 1e-12
    twice = step(out, cfg, 0.1)
    assert twice.values.min() >= 0.0
    assert max_support_overlap(twice) == 0.0


def twin_parts(grid: GridSpec) -> PartitionState:
    """Two identical parts, which a four_step iteration degenerates."""
    half = np.zeros(grid.shape)
    half[:4, :] = 1.0
    part = half / np.sqrt(grid.cell_volume * half.sum())
    return PartitionState(grid, np.stack([part, part]))


def test_identical_parts_degenerate_with_iteration_index():
    state = twin_parts(GridSpec(dim=2, n=8))
    with pytest.raises(DegeneratePart) as err:
        run(SchemeConfig(k=2, variant="four_step", tau=0.1), state)
    assert err.value.iteration == 1
    assert err.value.part_index == 0
    # the rows before the failed iteration travel with the exception
    assert [row.iteration for row in err.value.trace] == [0]


def test_run_pins_one_blas_thread_and_restores_the_callers_count():
    found = sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*scipy_openblas64_*"))
    if not found:
        pytest.skip("numpy's bundled OpenBLAS is not found")
    lib = ctypes.CDLL(str(found[0]))
    get, set_threads = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    grid, caller = GridSpec(dim=2, n=16), get()
    seen = []

    def fail(state, row):
        seen.append(get())
        raise RuntimeError("callback")

    try:
        set_threads(2)
        # a run to its end, a callback that raises, and a part that degenerates
        run(SchemeConfig(k=2, tau=0.1, n_max=3), flat_partition(grid, 2),
            lambda state, row: seen.append(get()))
        assert get() == 2
        with pytest.raises(RuntimeError, match="callback"):
            run(SchemeConfig(k=2, tau=0.1), flat_partition(grid, 2), fail)
        assert get() == 2
        with pytest.raises(DegeneratePart):
            run(SchemeConfig(k=2, variant="four_step", tau=0.1), twin_parts(grid))
        assert get() == 2
    finally:
        set_threads(caller)
    assert seen == [1] * 5


@pytest.mark.parametrize("dim,n,k,variant,bc,mask_name,tau,bound", [
    (3, 28, 8, "four_step", "dirichlet", None, 0.2, 2.0),
    # the masked heat step returns the mask's nodes: 1.55 when it returned
    # the box's (k, N) stack, which the step gathered from
    (2, 192, 6, "three_step_linear", "dirichlet", "star5", 0.05, 1.45),
    (2, 128, 6, "three_step_geometric", "periodic", None, 0.25, 2.0),
    # every mode kept, above n = 96: the node-space kernel along each axis
    (2, 128, 6, "three_step_linear", "dirichlet", "star5", 0.002, 2.0),
])
def test_step_allocates_little_beyond_the_new_state(dim, n, k, variant, bc, mask_name, tau,
                                                    bound):
    # the projection and the normalization work in the diffusion's output;
    # the heat step's products go part by part through part-sized buffers,
    # and the periodic inverse decays coefficients into memory of its own,
    # the output's or (3D) its one work buffer
    grid = GridSpec(dim, n)
    mask = make_mask(grid, mask_name) if mask_name else None
    cfg = SchemeConfig(k=k, variant=variant, tau=tau, bc=bc, mask=mask)
    state = voronoi_init(grid, k, 0, bc, mask)
    state = step(state, cfg, tau)  # warm-up: tables and caches
    # a run's energy finds the periodic spectrum or the boxes the step reads
    dirichlet_energy(state, bc, mask)
    assert ("spectrum" if bc == "periodic" else "boxes") in vars(state)
    tracemalloc.start()
    step(state, cfg, tau)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak / state.values.nbytes <= bound


@pytest.mark.parametrize("dim,n,k,variant,bc,mask_name,tau", [
    (2, 128, 6, "three_step_geometric_ed", "periodic", None, 0.25),
    (2, 192, 6, "three_step_linear_ed", "dirichlet", "star5", 0.05),
    (3, 28, 8, "four_step", "dirichlet", None, 0.2),
], ids=["torus2d-ed", "masked2d-ed", "box3d"])
def test_trace_norms_are_those_of_the_normalized_stack(dim, n, k, variant, bc, mask_name, tau):
    # the trace measures the normalized stack in the order norm_step sums it:
    # a unit-norm iterate reads within two ulps of 1, where a sum in another
    # order read 1e-14
    grid = GridSpec(dim, n)
    mask = make_mask(grid, mask_name) if mask_name else None
    cfg = SchemeConfig(k=k, variant=variant, tau=tau, bc=bc, mask=mask, n_max=5)
    _, trace = run(cfg, voronoi_init(grid, k, 0, bc, mask))
    assert len(trace) == 6
    assert max(row.max_norm_dev for row in trace) <= 4.5e-16


def test_kept_iterates_hold_no_transform():
    # each periodic iterate's transform (about one state size) is released
    # once its heat step has read it, and the returned state's too, so a
    # callback that keeps every iterate holds their values only
    grid = GridSpec(2, 128)
    cfg = SchemeConfig(k=6, variant="four_step", tau=0.25, n_max=20)
    init = voronoi_init(grid, 6, 0)
    run(cfg, init)  # warm-up: tables and caches
    kept = []
    tracemalloc.start()
    final, trace = run(cfg, init, on_iteration=lambda s, r: kept.append(s))
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    assert len(trace) == len(kept) == 21 and kept[-1] is final
    assert not any("spectrum" in vars(s) for s in kept)
    # the initial values were allocated before tracing
    assert held / ((len(kept) - 1) * init.nbytes) <= 1.1
    # a released transform is found again when read, bitwise the same
    assert same_bits(final.spectrum, np.fft.rfftn(final.values, axes=(1, 2)))


def test_secant_search_releases_its_seed_trial():
    # torus2d-ed, seed 0: its first correction (iteration 153) takes the seed
    # trial and one secant trial.  Each trial state holds its transform
    # (about one state size), so the seed is dropped once its residual is
    # taken.  Measured 4.05 state sizes, and 6.07 with the seed trial kept.
    grid = GridSpec(2, 128)
    cfg = SchemeConfig(k=6, variant="three_step_geometric_ed", tau=0.25)
    last, found = [], []

    def keep(state, row):
        if row.sigma is not None and not found:
            found.append((row.secant_iters, *last))
        last[:] = [state, row.energy]

    run(cfg, voronoi_init(grid, 6, 0), on_iteration=keep)
    (secant_iters, previous, e_prev), = found
    assert secant_iters >= 1  # the seed trial and at least one more
    candidate = step(previous, cfg, 0.25)
    energy_decrease_wrap(candidate, previous, cfg, 0.25, e_prev)  # warm-up: tables and caches
    candidate = PartitionState(grid, candidate.values)  # one that has not found its transform
    tracemalloc.start()
    energy_decrease_wrap(candidate, previous, cfg, 0.25, e_prev)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak / previous.values.nbytes <= 4.5


@pytest.mark.parametrize("dim,n,k,variant,mask_name,tau,seed,n_max,corrected", [
    (2, 192, 6, "three_step_linear_ed", "star5", 0.05, 2, 2000, True),  # masked2d-ed
    (3, 32, 4, "four_step", "disk", 0.25, 0, 40, False),
    (2, 64, 4, "three_step_geometric_ed", "square_with_holes", 0.1, 1, 2000, False),
])
def test_carried_data_matches_the_dense_state(monkeypatch, dim, n, k, variant, mask_name,
                                              tau, seed, n_max, corrected):
    # a step or a shift leaves the label map, norms and minimum it found on
    # the mask's nodes; each must be what the dense state gives
    grid = GridSpec(dim, n)
    mask = make_mask(grid, mask_name)
    cfg = SchemeConfig(k=k, variant=variant, tau=tau, bc="dirichlet", mask=mask, n_max=n_max)
    made = {}  # by id: a weak reference to a step's or shift's state, and whether it carried

    def recorded(fn):
        def call(*args):
            out = fn(*args)
            made[id(out)] = weakref.ref(out), {"labels", "norms", "min_value"} <= vars(out).keys()
            return out

        return call

    monkeypatch.setattr(optpart.scheme, "step", recorded(step))
    monkeypatch.setattr(optpart.scheme, "apply_sigma", recorded(apply_sigma))
    seen, carried_rows = [], []

    def check(state, row):
        ref, carried = made.get(id(state), (lambda: None, None))
        if seen and state is not seen[-1]:  # neither the initial state nor a frozen row
            carried_rows.append((row.sigma is not None, ref() is state and carried))
        seen.append(state)
        assert np.array_equal(state.labels, label_map(state))
        assert state.labels.dtype == np.uint8 and not state.labels.flags.writeable
        assert same_bits(state.min_value, float(state.values.min()))
        assert row.min_value == state.min_value
        dense = weighted_norms(state.values, grid)
        assert np.all(np.abs(state.norms - dense) <= 2 * np.spacing(dense))
        assert row.norms == tuple(state.norms.tolist())
        assert positive_zero(state.values[:, ~mask.indicator])

    _, trace = run(cfg, voronoi_init(grid, k, seed, "dirichlet", mask), on_iteration=check)
    # every step and shift left its data, and every iterate but the initial
    # state and the frozen rows is a step's or, corrected, a shift's
    assert all(carried for _, carried in made.values())
    assert all(carried for _, carried in carried_rows)
    assert len(carried_rows) > 20
    assert any(shifted for shifted, _ in carried_rows) == corrected


# ---------------------------------------------------------------------------
# residual and secant pieces


def residual(trial: PartitionState, previous: PartitionState, tau: float) -> float:
    e_trial, e_prev = dirichlet_energy(trial), dirichlet_energy(previous)
    return _residual(e_trial, e_prev, trial, previous, tau)


def test_residual_vanishes_for_identical_states():
    grid = GridSpec(dim=2, n=16)
    s = flat_partition(grid, 2)
    assert residual(s, s, 0.1) == 0.0


def test_residual_is_positive_for_equal_energy_movement():
    grid = GridSpec(dim=2, n=16)
    s = flat_partition(grid, 2)
    swapped = s.with_values(s.values[[1, 0]])
    assert residual(swapped, s, 0.1) > 0.0


def test_residual_reduces_to_energy_difference_for_huge_tau():
    grid = GridSpec(dim=2, n=16)
    a = flat_partition(grid, 2, seed=1)
    b = flat_partition(grid, 2, seed=2)
    de = dirichlet_energy(a) - dirichlet_energy(b)
    assert residual(a, b, 1e12) == pytest.approx(de, abs=1e-10)


def test_secant_update_hand_value():
    assert secant_update(0.0, -0.01, 2.0, 1.0) == -0.02


def test_secant_update_is_exact_on_affine_residuals():
    f = lambda s: 3.0 * s - 6.0
    root = secant_update(1.0, 0.0, f(1.0), f(0.0))
    assert root == 2.0
    assert f(root) == 0.0


def test_secant_update_stalls_on_flat_residual():
    assert secant_update(0.1, 0.2, 1.0, 1.0) is None


# ---------------------------------------------------------------------------
# support shift


def two_node_state(grid: GridSpec, small: float) -> PartitionState:
    h2 = grid.cell_volume
    big = np.sqrt(1.0 / h2 - small * small)
    vals = np.zeros((2,) + grid.shape)
    vals[0, 0, 0] = small
    vals[0, 1, 1] = big
    vals[1, 3, 3] = 1.0 / np.sqrt(h2)
    return PartitionState(grid, vals)


def test_apply_sigma_zero_is_identity():
    grid = GridSpec(dim=2, n=4)
    s = two_node_state(grid, 0.01)
    assert apply_sigma(s, 0.0) is s


def test_apply_sigma_drops_nodes_pushed_nonpositive():
    grid = GridSpec(dim=2, n=4)
    s = two_node_state(grid, 0.01)
    out = apply_sigma(s, -0.02)
    assert out.values[0, 0, 0] == 0.0
    assert out.values[0, 1, 1] > 0.0
    assert np.abs(partition_norms(out) - 1.0).max() <= 1e-12
    support_in = s.values > 0.0
    support_out = out.values > 0.0
    assert np.all(support_out <= support_in)
    assert max_support_overlap(out) == 0.0


def test_apply_sigma_never_revives_zero_nodes():
    grid = GridSpec(dim=2, n=4)
    s = two_node_state(grid, 0.01)
    out = apply_sigma(s, 5.0)
    assert np.array_equal(out.values > 0.0, s.values > 0.0)


@pytest.mark.parametrize("mask_name", [None, "star5"])
def test_apply_sigma_shifts_the_domain_nodes(monkeypatch, mask_name):
    # on a mask, the (k, M) stack of the mask's nodes, as step projects it;
    # the shifted array owns its memory, so the new state freezes it in
    # place rather than copying it
    grid = GridSpec(2, 64)
    mask = make_mask(grid, mask_name) if mask_name else None
    cfg = SchemeConfig(k=4, variant="three_step_linear", tau=0.1, bc="dirichlet", mask=mask,
                       n_max=3)
    state, _ = run(cfg, voronoi_init(grid, 4, 0, "dirichlet", mask))
    given, with_values = [], PartitionState.with_values
    monkeypatch.setattr(PartitionState, "with_values",
                        lambda self, values, **found: given.append(values)
                        or with_values(self, values, **found))
    out = apply_sigma(state, -0.01, mask)
    assert out.values is given[0]
    nodes = np.arange(grid.num_nodes) if mask is None else mask.nodes
    parts = state.values.reshape(4, -1)[:, nodes]
    shifted = parts - 0.01
    shifted[~((parts > 0.0) & (shifted > 0.0))] = 0.0
    want = shifted / weighted_norms(shifted, grid)[:, None]
    assert same_bits(out.values.reshape(4, -1)[:, nodes], want)
    if mask is not None:
        assert positive_zero(out.values[:, ~mask.indicator])
        # the iterate is zero off the mask: only the norms' summation order moves
        plain = apply_sigma(state, -0.01)
        assert np.max(np.abs(out.values - plain.values)) <= 4e-16 * np.max(plain.values)


@pytest.mark.parametrize("bc,mask_name", [("periodic", None), ("dirichlet", None),
                                          ("dirichlet", "star5")])
def test_apply_sigma_is_the_dense_shift_bitwise(bc, mask_name):
    # one value per node, at the label the candidate carries or else its
    # label_map, shifted: the bits of shifting the whole stack, and its norms
    grid = GridSpec(2, 64)
    mask = make_mask(grid, mask_name) if mask_name else None
    cfg = SchemeConfig(k=5, variant="three_step_linear", tau=0.1, bc=bc, mask=mask, n_max=3)
    state, _ = run(cfg, voronoi_init(grid, 5, 0, bc, mask))
    candidate = step(state, cfg, 0.1)
    assert "labels" in vars(candidate)
    scale, least = (float(f(candidate.values[candidate.values > 0.0])) for f in (np.max, np.min))
    cut = 0
    for start in (candidate, PartitionState(grid, candidate.values)):
        for sigma in (-0.3 * scale, -1.5 * least, 1e-3 * scale, 2.0 * scale):
            got, want = apply_sigma(start, sigma, mask), dense_apply_sigma(start, sigma, mask)
            assert same_bits(got.values, want.values)
            assert same_bits(got.norms, want.norms)
            assert same_bits(got.labels, label_map(got))
            cut += np.count_nonzero(got.values) < np.count_nonzero(start.values)
    assert cut == 4  # the negative shifts cut nodes


def test_apply_sigma_degenerates_when_shift_swallows_a_part():
    grid = GridSpec(dim=2, n=4)
    s = two_node_state(grid, 0.01)
    with pytest.raises(DegeneratePart):
        apply_sigma(s, -10.0)


def test_run_refuses_a_state_off_its_domain_before_the_first_row():
    # a value outside the mask, or on a Dirichlet boundary plane, which the
    # first step would drop without a word, after tracing row 0 with it
    grid = GridSpec(2, 32)
    mask = make_mask(grid, "disk")
    init = voronoi_init(grid, 4, 0, "dirichlet", mask)
    rows = []
    for cfg, node, message in [
        (SchemeConfig(k=4, bc="dirichlet", mask=mask), (0, 2, 2), "zero outside the mask"),
        (SchemeConfig(k=4, bc="dirichlet"), (0, 16, 0), "zero on the index-0 boundary planes"),
    ]:
        assert not mask.indicator[node[1:]]
        values = init.values.copy()
        values[node] = 1.0
        with pytest.raises(ValueError, match=message):
            run(cfg, PartitionState(grid, values), on_iteration=lambda s, r: rows.append(r))
    assert rows == []


# ---------------------------------------------------------------------------
# energy-decrease correction


def test_wrap_passes_through_nonincreasing_candidates():
    grid = GridSpec(dim=2, n=16)
    prev = flat_partition(grid, 2)
    cfg = SchemeConfig(k=2, variant="three_step_linear_ed", tau=0.1)
    candidate = step(prev, cfg, 0.1)
    assert dirichlet_energy(candidate) < dirichlet_energy(prev)
    out, sigma, iters, energy = energy_decrease_wrap(
        candidate, prev, cfg, 0.1, dirichlet_energy(prev)
    )
    assert out is candidate
    assert sigma is None
    assert iters == 0
    assert energy == dirichlet_energy(candidate)
    # the energy leaves the transform the next diffusion reads on the state
    assert same_bits(out.spectrum, np.fft.rfftn(candidate.values, axes=(1, 2)))


def test_wrap_gives_up_on_uncorrectable_flat_candidates():
    # flat per-part plateaus renormalize back to themselves under any feasible
    # shift, so no sigma can lower the energy and the search must fail
    grid = GridSpec(dim=2, n=16)
    smooth = flat_partition(grid, 2)
    cfg0 = SchemeConfig(k=2, variant="three_step_linear_ed", tau=0.1)
    for _ in range(5):
        smooth = step(smooth, cfg0, 0.1)
    rough = flat_partition(grid, 2)
    assert dirichlet_energy(rough) > dirichlet_energy(smooth)
    with pytest.raises(SecantFailed, match="stalled") as err:
        energy_decrease_wrap(rough, smooth, cfg0, 0.1, dirichlet_energy(smooth))
    assert err.value.iterations <= SECANT_MAX_ITERS
    assert str(err.value) == (
        "energy correction stalled (secant stalled: |F_s - F_prev| = 0.000e+00 "
        "with sigma_s = 0.0) after 0 secant iterations (last sigma 0.000000e+00)"
    )


def first_secant_failure(monkeypatch, variant, bc, mask_name, n, tau, seed) -> SecantFailed:
    """The first SecantFailed that energy_decrease_wrap raises in a k=4 run."""
    failures = []
    wrap = optpart.scheme.energy_decrease_wrap

    def recording(*args):
        try:
            return wrap(*args)
        except SecantFailed as err:
            failures.append(err)
            raise

    monkeypatch.setattr(optpart.scheme, "energy_decrease_wrap", recording)
    grid = GridSpec(dim=2, n=n)
    mask = make_mask(grid, mask_name) if mask_name else None
    cfg = SchemeConfig(k=4, variant=variant, tau=tau, bc=bc, mask=mask, n_max=30)
    run(cfg, voronoi_init(grid, 4, seed, bc, mask))
    assert failures
    return failures[0]


def test_wrap_fails_when_the_seed_shift_leaves_the_feasible_range(monkeypatch):
    # the -tau**2 seed empties a part; the failure reports the sigma = 0 end
    err = first_secant_failure(monkeypatch, "three_step_linear_ed", "periodic", None, 24, 1.0, 1)
    assert str(err) == (
        "energy correction left the feasible shift range after 0 secant "
        "iterations (last sigma 0.000000e+00)"
    )
    assert (err.sigma, err.iterations) == (0.0, 0)


def test_wrap_fails_when_a_secant_trial_leaves_the_feasible_range(monkeypatch):
    # the third secant trial empties a part; the failure reports that trial
    err = first_secant_failure(
        monkeypatch, "three_step_geometric_ed", "dirichlet", "disk", 24, 0.5, 1
    )
    assert str(err) == (
        "energy correction left the feasible shift range after 2 secant "
        "iterations (last sigma -1.072508e+00)"
    )
    assert err.sigma == pytest.approx(-1.07250823515756, rel=1e-9)
    assert err.iterations == 2


@pytest.mark.parametrize(
    "budget,sigma,message_sigma",
    [(0, 0.0, "0.000000e+00"), (1, 0.0005819562253957037, "5.819562e-04")],
)
def test_wrap_fails_when_the_secant_budget_runs_out(monkeypatch, budget, sigma, message_sigma):
    monkeypatch.setattr(optpart.scheme, "SECANT_MAX_ITERS", budget)
    err = first_secant_failure(monkeypatch, "three_step_linear_ed", "periodic", None, 24, 0.5, 1)
    assert str(err) == (
        f"energy correction exhausted the iteration budget after {budget} secant "
        f"iterations (last sigma {message_sigma})"
    )
    assert err.sigma == pytest.approx(sigma, rel=1e-9)
    assert err.iterations == budget


def test_wrap_fails_when_the_residual_converges_with_the_energy_high(monkeypatch):
    monkeypatch.setattr(optpart.scheme, "SECANT_RESIDUAL_TOL", 1e3)
    err = first_secant_failure(monkeypatch, "three_step_linear_ed", "periodic", None, 24, 0.5, 1)
    assert str(err) == (
        "energy correction converged its residual (6.902e-03) with the energy "
        "still high after 1 secant iterations (last sigma 5.819562e-04)"
    )
    assert err.sigma == pytest.approx(0.0005819562253957037, rel=1e-9)
    assert err.iterations == 1


def test_wrap_corrections_keep_energy_monotone():
    grid = GridSpec(dim=2, n=64)
    init = flat_partition(grid, 2)
    cfg = SchemeConfig(k=2, variant="three_step_geometric_ed", tau=0.1, n_max=200)
    final, trace = run(cfg, init)
    energies = [r.energy for r in trace]
    assert all(b <= a for a, b in zip(energies, energies[1:]))
    assert any(r.sigma is not None for r in trace)
    plain = SchemeConfig(k=2, variant="three_step_geometric", tau=0.1, n_max=200)
    _, plain_trace = run(plain, init)
    plain_e = [r.energy for r in plain_trace]
    assert any(b > a for a, b in zip(plain_e, plain_e[1:]))


# ---------------------------------------------------------------------------
# run loop


def test_stopping_check_compares_label_maps():
    grid = GridSpec(dim=2, n=8)
    s = flat_partition(grid, 2)
    labels = label_map(s)
    stopped, same = stopping_check(labels, s)
    assert stopped
    assert np.array_equal(same, labels)
    assert stopping_check(labels, s.with_values(2.0 * s.values))[0]
    swapped = s.with_values(s.values[[1, 0]])
    stopped, moved = stopping_check(labels, swapped)
    assert not stopped
    assert np.array_equal(moved, label_map(swapped))


def test_run_trace_shape_and_budget():
    grid = GridSpec(dim=2, n=16)
    init = flat_partition(grid, 2)
    cfg = SchemeConfig(k=2, variant="four_step", tau=0.1, n_max=3)
    final, trace = run(cfg, init)
    assert 2 <= len(trace) <= 4
    assert trace[0].iteration == 0
    assert trace[0].energy == pytest.approx(dirichlet_energy(init), rel=1e-15)
    assert trace[-1].stopped or len(trace) == 4


def test_run_stops_when_labels_settle():
    grid = GridSpec(dim=2, n=16)
    init = flat_partition(grid, 2)
    cfg = SchemeConfig(k=2, variant="four_step", tau=0.1, n_max=500)
    final, trace = run(cfg, init)
    assert trace[-1].stopped
    assert len(trace) - 1 < 500
    assert all(not r.stopped for r in trace[:-1])


def test_run_is_deterministic():
    grid = GridSpec(dim=2, n=16)
    cfg = SchemeConfig(k=3, variant="three_step_linear", tau=0.1, n_max=50)
    a, ta = run(cfg, flat_partition(grid, 3, seed=5))
    b, tb = run(cfg, flat_partition(grid, 3, seed=5))
    assert np.array_equal(a.values, b.values)
    assert ta == tb


def test_run_invokes_callback_per_trace_row():
    grid = GridSpec(dim=2, n=16)
    seen = []
    cfg = SchemeConfig(k=2, variant="four_step", tau=0.1, n_max=5)
    _, trace = run(cfg, flat_partition(grid, 2), on_iteration=lambda s, r: seen.append(r.iteration))
    assert seen == [r.iteration for r in trace]


def test_run_rejects_mismatched_inputs():
    grid = GridSpec(dim=2, n=16)
    init = flat_partition(grid, 2)
    with pytest.raises(ValueError):
        run(SchemeConfig(k=3, tau=0.1), init)
    other = make_mask(GridSpec(dim=2, n=8), "full")
    with pytest.raises(ValueError):
        run(SchemeConfig(k=2, tau=0.1, bc="dirichlet", mask=other), init)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_run_rejects_non_finite_init(bad):
    grid = GridSpec(dim=2, n=16)
    values = flat_partition(grid, 2).values.copy()
    values[0, 4, 4] = bad
    with pytest.raises(ValueError, match="non-finite"):
        run(SchemeConfig(k=2, tau=0.1), PartitionState(grid, values))


def test_run_tau_schedule_reaches_stop():
    grid = GridSpec(dim=2, n=16)
    init = flat_partition(grid, 2)
    cfg = SchemeConfig(k=2, variant="three_step_linear", tau=(0.01, 0.05, 0.1), n_max=300)
    final, trace = run(cfg, init)
    assert trace[-1].stopped
    assert np.abs(partition_norms(final) - 1.0).max() <= 1e-12


@pytest.mark.xfail(
    strict=True,
    raises=DegeneratePart,
    reason="the exact semigroup empties part 3 of this box3d instance at iteration 2: "
    "four_step on the Dirichlet box degenerates at tau=0.2 (a robustness defect "
    "of the solver, not of the instance)",
)
def test_box3d_seed_804001_runs_to_the_end():
    # the perfbench box3d instance of --seed 804; also pins that voronoi_init
    # still draws the same initial partition for it
    grid = GridSpec(dim=3, n=28)
    init = voronoi_init(grid, 8, 804001, "dirichlet")
    cfg = SchemeConfig(k=8, variant="four_step", tau=0.2, bc="dirichlet")
    try:
        final, trace = run(cfg, init)
    except DegeneratePart as err:
        assert (err.iteration, str(err).split(" (")[0]) == (2, "part 3 degenerated")
        raise
    assert max_support_overlap(final) == 0.0


DOMAINS = [("periodic", None), ("dirichlet", None), ("dirichlet", "disk")]
ED_VARIANTS = [v for v in VARIANTS if v.endswith("_ed")]


def audit_trace_energies(variant, bc, mask_name, n, tau, seed) -> tuple[int, int]:
    """Run with every row's energy checked; return (accepted corrections, frozen rows).

    Every row must carry the energy of the iterate it follows, and a frozen
    row (the previous iterate kept after a failed correction) the previous
    row's energy bit for bit.  Every other iterate must equal a step taken
    from a fresh state of the previous one's values (which finds its own
    spectrum and boxes), shifted by the row's sigma if it was corrected.
    """
    grid = GridSpec(dim=2, n=n)
    mask = make_mask(grid, mask_name) if mask_name else None
    cfg = SchemeConfig(k=4, variant=variant, tau=tau, bc=bc, mask=mask, n_max=30)
    seen: list[tuple[PartitionState, TraceRow]] = []
    counts = [0, 0]

    def check(state, row):
        assert row.energy == dirichlet_energy(state, bc, mask)
        if seen and state is seen[-1][0]:
            counts[1] += 1
            assert row.sigma is not None
            assert row.energy == seen[-1][1].energy
        elif seen:
            expected = step(PartitionState(grid, seen[-1][0].values), cfg, tau)
            if row.sigma is not None:
                counts[0] += 1
                expected = apply_sigma(expected, row.sigma, mask)
            assert np.array_equal(state.values, expected.values)
        seen.append((state, row))

    run(cfg, voronoi_init(grid, 4, seed, bc, mask), on_iteration=check)
    return counts[0], counts[1]


@pytest.mark.parametrize("bc,mask_name", DOMAINS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_trace_energies_are_those_of_the_iterates(variant, bc, mask_name):
    accepted, frozen = audit_trace_energies(variant, bc, mask_name, 32, 0.3, 2)
    assert frozen == 0
    if variant in ED_VARIANTS:
        assert accepted > 0


def test_step_without_coefficients_is_the_run_step():
    # Dirichlet runs carry no coefficients: a step from an iterate transforms
    # its kept modes from the boxes its energy found, as the run's step did
    grid = GridSpec(dim=2, n=128)
    cfg = SchemeConfig(k=6, variant="four_step", tau=0.05, bc="dirichlet", n_max=4)
    iterates = []
    run(cfg, voronoi_init(grid, 6, 0, "dirichlet"), on_iteration=lambda s, r: iterates.append(s))
    assert len(iterates) == 5
    for previous, state in zip(iterates, iterates[1:]):
        assert same_bits(step(previous, cfg, 0.05).values, state.values)


def test_masked_step_without_coefficients_is_the_run_step():
    # on a mask run hands the heat step the boxes its energy found; a step
    # from a state that has not found them yet scans for them itself
    grid = GridSpec(dim=2, n=192)
    mask = make_mask(grid, "star5")
    cfg = SchemeConfig(k=6, variant="three_step_linear", tau=0.05, bc="dirichlet", mask=mask,
                       n_max=4)
    iterates = []
    run(cfg, voronoi_init(grid, 6, 1, "dirichlet", mask),
        on_iteration=lambda s, r: iterates.append(s))
    assert len(iterates) == 5
    for previous, state in zip(iterates, iterates[1:]):
        assert "boxes" in previous.__dict__
        fresh = PartitionState(grid, previous.values)
        for start in (previous, fresh):
            assert same_bits(step(start, cfg, 0.05).values, state.values)


def test_with_values_finds_its_own_boxes():
    grid = GridSpec(dim=2, n=16)
    s = flat_partition(grid, 3)
    assert len(s.boxes) == 3 and "boxes" in s.__dict__
    assert s.spectrum.shape == (3, 16, 9) and "spectrum" in s.__dict__
    values = np.zeros_like(s.values)
    values[0, 2:5, 3:9] = values[2, 7, 7] = 1.0
    moved = s.with_values(values)
    assert "boxes" not in moved.__dict__ and "spectrum" not in moved.__dict__
    assert moved.boxes == ((slice(2, 5), slice(3, 9)), None, (slice(7, 8), slice(7, 8)))
    assert same_bits(moved.spectrum, np.fft.rfftn(values, axes=(1, 2)))
    assert not moved.spectrum.flags.writeable
    for name in ("boxes", "spectrum"):
        with pytest.raises(AttributeError):
            setattr(moved, name, getattr(s, name))


def test_masked_ed_run_finds_boxes_once_per_evaluated_state(monkeypatch):
    # the energy of each iterate and secant trial finds its boxes; the next
    # heat step's forward transform reads the accepted state's, not a scan
    grid = GridSpec(dim=2, n=32)
    mask = make_mask(grid, "star5")
    assert mask.box  # found before counting
    cfg = SchemeConfig(k=4, variant="three_step_linear_ed", tau=0.5, bc="dirichlet", mask=mask,
                       n_max=30)
    init = voronoi_init(grid, 4, 0, "dirichlet", mask)
    scans, evaluated = [], []
    true_boxes, energy = optpart.grid.true_boxes, optpart.scheme.dirichlet_energy

    def scan(flags, dim):
        scans.append(flags.shape)
        return true_boxes(flags, dim)

    def counted(state, *args):
        evaluated.append(state)
        return energy(state, *args)

    monkeypatch.setattr(optpart.grid, "true_boxes", scan)
    monkeypatch.setattr(optpart.scheme, "dirichlet_energy", counted)
    _, trace = run(cfg, init)
    assert any(row.secant_iters > 0 for row in trace)
    assert len({id(s) for s in evaluated}) == len(evaluated) > len(trace)
    assert len(scans) == len(evaluated)


def test_residual_is_the_norm_of_the_stack_difference():
    # part by part, the same sums as the whole stack's difference
    grid = GridSpec(dim=2, n=32)
    a, b = flat_partition(grid, 4, seed=1), flat_partition(grid, 4, seed=2)
    ea, eb = dirichlet_energy(a), dirichlet_energy(b)
    moved = weighted_norms(a.values - b.values, grid)
    assert _residual(ea, eb, a, b, 0.3) == float(ea - eb + np.sum(moved * moved) / 0.3)


@pytest.mark.parametrize("bc,mask_name", DOMAINS)
@pytest.mark.parametrize("variant", ED_VARIANTS)
def test_frozen_rows_repeat_the_previous_energy(variant, bc, mask_name):
    # tau = 1 on a coarse grid makes the correction fail on these instances
    _, frozen = audit_trace_energies(variant, bc, mask_name, 24, 1.0, 1)
    assert frozen > 0


LABEL_DOMAINS = [(2, "periodic", None), (2, "dirichlet", None), (2, "dirichlet", "disk"),
                 (2, "dirichlet", "star5"), (3, "dirichlet", None)]


@pytest.mark.parametrize("dim,bc,mask_name", LABEL_DOMAINS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_label_scan_equals_label_map_on_every_iterate(variant, dim, bc, mask_name):
    grid = GridSpec(dim, 12 if dim == 3 else 32 if mask_name == "star5" else 24)
    mask = make_mask(grid, mask_name) if mask_name else None
    rows = {"corrected": 0, "frozen": 0}
    # on these grids tau = 0.5 from seeds 0 and 3 corrects every -ed run at
    # least once, and tau = 1 freezes it (and degenerates some plain runs)
    for tau, seed in [(0.5, 0), (0.5, 3), (1.0, 1)]:
        cfg = SchemeConfig(k=4, variant=variant, tau=tau, bc=bc, mask=mask, n_max=30)
        seen = []

        def check(state, row):
            assert np.array_equal(state.labels, label_map(state))
            if seen and state is seen[-1]:
                rows["frozen"] += 1
            elif row.sigma is not None:
                rows["corrected"] += 1
            seen.append(state)

        try:
            run(cfg, voronoi_init(grid, 4, seed, bc, mask), on_iteration=check)
        except DegeneratePart:
            pass
        assert len(seen) > 1
    if variant in ED_VARIANTS:
        assert rows["corrected"] > 0 and rows["frozen"] > 0


def test_frozen_overlapping_init_repeats_its_label_map(monkeypatch):
    # a caller's initial state may overlap; its labels are the lowest-index
    # argmax (part 1 on the left half, part 0 on the tied right half), as
    # every iterate's are, so a frozen first iterate stops the run at once
    grid = GridSpec(dim=2, n=8)
    values = np.ones((2,) + grid.shape)
    values[1, :4] = 2.0
    norms = partition_norms(PartitionState(grid, values))
    init = PartitionState(grid, values / norms[:, None, None])

    def fail(*args):
        raise SecantFailed("forced", sigma=-1.0, iterations=0)

    monkeypatch.setattr(optpart.scheme, "energy_decrease_wrap", fail)
    cfg = SchemeConfig(k=2, variant="three_step_linear_ed", tau=0.1, n_max=5)
    final, trace = run(cfg, init)
    assert final is init
    assert [r.stopped for r in trace] == [False, True]
    want = np.zeros(grid.shape, np.uint8)
    want[:4] = 1
    assert same_bits(init.labels, want) and same_bits(label_map(init), want)


def counting(monkeypatch, names, module=optpart.scheme) -> dict[str, int]:
    """Wrap ``module`` attributes with call counters; return the counts."""
    calls = dict.fromkeys(names, 0)

    def wrap(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in names:
        monkeypatch.setattr(module, name, wrap(name, getattr(module, name)))
    return calls


@pytest.mark.parametrize("variant", ["four_step", "three_step_geometric_ed"])
def test_label_map_computed_once_per_iterate(monkeypatch, variant):
    maps = counting(monkeypatch, ["label_map"], optpart.grid)
    passes = counting(monkeypatch, ["top_two"])
    grid = GridSpec(dim=2, n=16)
    cfg = SchemeConfig(k=3, variant=variant, tau=0.2, n_max=20)
    _, trace = run(cfg, voronoi_init(grid, 3, 1))
    # the general map for the initial state; every later map is the winner
    # of the step's one pass over the parts, as the step or a shift left it
    assert maps == {"label_map": 1}
    assert passes == {"top_two": len(trace) - 1}


PROJECTION_LAYERS = {
    "four_step": ["positivity_step", "ortho_step_ratio"],
    "three_step_linear": ["ortho_pos_step_linear"],
    "three_step_geometric": ["ortho_pos_step_geometric"],
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_layer_is_reached_through_the_module(monkeypatch, variant):
    # a tracer wraps these module attributes, so each must be looked up by
    # name when the scheme calls it, projections included
    names = ["diffuse_stack", "norm_step", "dirichlet_energy", "partition_norms",
             "stopping_check", *PROJECTION_LAYERS[variant.removesuffix("_ed")]]
    if variant.endswith("_ed"):
        names += ["energy_decrease_wrap", "apply_sigma"]
    calls = counting(monkeypatch, names)
    grid = GridSpec(dim=2, n=16)
    cfg = SchemeConfig(k=3, variant=variant, tau=0.2, n_max=20)
    _, trace = run(cfg, voronoi_init(grid, 3, 1))
    assert len(trace) > 2
    assert {name for name, n in calls.items() if n == 0} == set()
