"""Nodewise constraint projections: worked values, exactness properties, multipliers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import optpart.grid
import optpart.scheme
from optpart import (
    VARIANTS,
    DegeneratePart,
    GridSpec,
    PartitionState,
    SchemeConfig,
    label_map,
    make_mask,
    max_support_overlap,
    run,
    voronoi_init,
)
from optpart.grid import top_two, weighted_norms
from optpart.projection import (
    norm_step,
    ortho_pos_step_geometric,
    ortho_pos_step_linear,
    ortho_step_ratio,
    positivity_step,
)
from multipliers import dense_apply_sigma, densify, recover_multipliers

ORTHO_STEPS = {
    "four_step": ortho_step_ratio,
    "three_step_linear": ortho_pos_step_linear,
    "three_step_geometric": ortho_pos_step_geometric,
}


def col(*vals):
    return np.asarray(vals, dtype=float).reshape(len(vals), 1)


# ---------------------------------------------------------------------------
# worked examples


def test_positivity_step_examples():
    out = positivity_step(col(-0.5, 0.3))
    assert np.array_equal(out, col(0.0, 0.3))
    clean = col(0.2, 0.7)
    assert np.array_equal(positivity_step(clean), clean)
    assert np.array_equal(positivity_step(out), out)


def test_positivity_step_solves_its_onesided_system():
    # output >= 0, increment >= 0, and their product vanishes
    rng = np.random.default_rng(21)
    v = rng.normal(size=(4, 100))
    out = positivity_step(v)
    assert out.min() >= 0.0
    assert (out - v).min() >= 0.0
    assert np.abs(out * (out - v)).max() <= 1e-14


def test_ortho_ratio_examples():
    out = densify(ortho_step_ratio, col(0.8, 0.6))
    assert out[0, 0] == pytest.approx(0.35, rel=1e-14)
    assert out[1, 0] == 0.0
    tied = densify(ortho_step_ratio, col(0.4, 0.4))
    assert np.all(tied == 0.0)
    out3 = densify(ortho_step_ratio, col(3.0, 2.0, 1.0))
    assert out3[0, 0] == 5.0 / 3.0
    assert np.all(out3[1:] == 0.0)


def test_ortho_linear_examples():
    out = densify(ortho_pos_step_linear, col(0.8, 0.6))
    assert out[0, 0] == pytest.approx(0.2, rel=1e-14)
    assert out[1, 0] == 0.0
    assert np.all(densify(ortho_pos_step_linear, col(-0.3, -0.1)) == 0.0)
    out3 = densify(ortho_pos_step_linear, col(3.0, 2.0, 1.0))
    assert out3[0, 0] == 1.0
    assert np.all(out3[1:] == 0.0)
    # negative runner-up is treated as zero
    neg = densify(ortho_pos_step_linear, col(0.7, -0.2))
    assert neg[0, 0] == 0.7
    assert neg[1, 0] == 0.0


def test_ortho_geometric_examples():
    out = densify(ortho_pos_step_geometric, col(0.8, 0.6))
    assert out[0, 0] == pytest.approx(0.8 - np.sqrt(0.48), rel=1e-12)
    assert out[1, 0] == 0.0
    assert np.all(densify(ortho_pos_step_geometric, col(0.5, 0.5)) == 0.0)
    neg = densify(ortho_pos_step_geometric, col(0.5, -0.2))
    assert neg[0, 0] == 0.5
    assert neg[1, 0] == 0.0


def test_geometric_tie_goes_to_lowest_index():
    # equal positive values: index 0 wins the node but the value cancels to 0;
    # a strictly larger later part must win outright
    out = densify(ortho_pos_step_geometric, col(0.3, 0.9, 0.9))
    assert out[1, 0] == pytest.approx(0.9 - np.sqrt(0.81), abs=1e-15)
    assert out[0, 0] == 0.0 and out[2, 0] == 0.0


def test_single_part_stacks():
    v = col(0.4)
    assert np.array_equal(densify(ortho_step_ratio, v), v)
    assert np.array_equal(densify(ortho_pos_step_linear, v), v)
    assert np.array_equal(densify(ortho_pos_step_geometric, v), v)
    neg = col(-0.4)
    assert np.all(densify(ortho_pos_step_linear, neg) == 0.0)
    assert np.all(densify(ortho_pos_step_geometric, neg) == 0.0)


def test_norm_step_examples():
    g = GridSpec(dim=2, n=8)
    ind = np.zeros((1,) + g.shape)
    ind[0, :4, :] = 1.0
    unit = norm_step(ind, g)
    assert abs(np.sqrt(g.cell_volume * np.sum(unit**2)) - 1.0) <= 1e-15
    again = norm_step(unit, g)
    assert np.abs(again - unit).max() <= 1e-15
    scaled = norm_step(2.0 * unit, g)
    assert np.abs(scaled - unit).max() <= 1e-15


def test_norm_step_reports_degenerate_part():
    g = GridSpec(dim=2, n=8)
    vals = np.zeros((3,) + g.shape)
    vals[0, 1, 1] = 1.0
    vals[2, 2, 2] = 1.0
    with pytest.raises(DegeneratePart) as err:
        norm_step(vals, g)
    assert err.value.part_index == 1
    assert err.value.norm == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_norm_step_reports_non_finite_norm(bad):
    g = GridSpec(dim=2, n=8)
    vals = np.ones((3,) + g.shape)
    vals[1, 3, 3] = bad
    with pytest.raises(DegeneratePart, match="part 1 degenerated .* is not finite") as err:
        norm_step(vals, g)
    assert err.value.part_index == 1
    assert not np.isfinite(err.value.norm)


# ---------------------------------------------------------------------------
# exactness properties


def stacks(min_value, max_value):
    shapes = st.tuples(st.integers(2, 6), st.integers(1, 40))
    return hnp.arrays(
        dtype=np.float64,
        shape=shapes,
        elements=st.floats(min_value, max_value, allow_nan=False, width=64),
    )


@given(stacks(0.0, 5.0))
@settings(max_examples=150, deadline=None)
def test_ratio_output_is_disjoint_nonnegative_dominant(v):
    out = densify(ortho_step_ratio, v)
    assert out.min() >= 0.0
    assert np.count_nonzero(out, axis=0).max() <= 1
    live = out > 0.0
    assert np.all(out[live] <= v[live])
    winners, nodes = np.nonzero(live)
    assert np.all(v[winners, nodes] == v.max(axis=0)[nodes])


@pytest.mark.parametrize("step", [ortho_pos_step_linear, ortho_pos_step_geometric])
@given(v=stacks(-5.0, 5.0))
@settings(max_examples=150, deadline=None)
def test_combined_steps_are_disjoint_nonnegative_dominant(step, v):
    out = densify(step, v)
    assert out.min() >= 0.0
    assert np.count_nonzero(out, axis=0).max() <= 1
    live = out > 0.0
    assert np.all(out[live] <= v[live])
    winners, nodes = np.nonzero(live)
    assert np.all(v[winners, nodes] == v.max(axis=0)[nodes])


@given(stacks(-5.0, 5.0))
@settings(max_examples=100, deadline=None)
def test_linear_step_already_enforces_positivity(v):
    out = densify(ortho_pos_step_linear, v)
    assert np.array_equal(positivity_step(out), out)


@given(stacks(0.0, 5.0))
@settings(max_examples=100, deadline=None)
def test_pairwise_products_vanish_exactly(v):
    for step in ORTHO_STEPS.values():
        out = densify(step, v)
        k = out.shape[0]
        for i in range(k):
            for j in range(i + 1, k):
                assert np.all(out[i] * out[j] == 0.0)


def test_argmax_scaling_invariance():
    # winner selection only depends on the ordering, so positive rescaling
    # keeps the label pattern
    rng = np.random.default_rng(22)
    v = rng.uniform(0.0, 1.0, size=(4, 300))
    for step in ORTHO_STEPS.values():
        base = np.argmax(densify(step, v), axis=0)
        scaled = np.argmax(densify(step, 2.5 * v), axis=0)
        assert np.array_equal(base, scaled)


# ---------------------------------------------------------------------------
# the one-pass kernels and the nodewise projections against the part-axis
# sort, argmax and scatter over the whole stack that they replaced, kept here
# as the reference


def _ref_top_two(parts):
    flat = np.asarray(parts, dtype=float)
    flat = flat.reshape(flat.shape[0], -1)
    k = flat.shape[0]
    second = (np.full(flat.shape[1], -np.inf) if k == 1
              else np.partition(flat, k - 2, axis=0)[k - 2])
    return flat.max(axis=0), second, flat.argmax(axis=0)


def _ref_scatter(shape, winner, keep, value):
    out = np.zeros((shape[0], int(np.prod(shape[1:], dtype=np.intp))))
    cols = np.nonzero(keep)[0]
    out[winner[cols], cols] = value[cols]
    return out.reshape(shape)


def ref_ratio(parts):
    top, second, winner = _ref_top_two(parts)
    second = np.maximum(second, 0.0)
    keep = top > second
    safe = np.where(keep, top, 1.0)
    return _ref_scatter(np.shape(parts), winner, keep, top - second * (second / safe))


def ref_linear(parts):
    top, second, winner = _ref_top_two(parts)
    keep = (top > second) & (top > 0.0)
    return _ref_scatter(np.shape(parts), winner, keep, top - np.maximum(second, 0.0))


def ref_geometric(parts):
    top, second, winner = _ref_top_two(parts)
    value = np.maximum(top - np.sqrt(top * np.maximum(second, 0.0)), 0.0)
    return _ref_scatter(np.shape(parts), winner, top > 0.0, value)


def ref_label_map(state):
    return np.argmax(state.values, axis=0).astype(np.min_scalar_type(state.k - 1))


def ref_max_support_overlap(state):
    a = np.abs(state.values)
    return float(np.partition(a, state.k - 2, axis=0)[state.k - 2].max())


REFERENCE = {
    ortho_step_ratio: ref_ratio,
    ortho_pos_step_linear: ref_linear,
    ortho_pos_step_geometric: ref_geometric,
}
REF_PROJECTIONS = {
    "four_step": lambda parts: ref_ratio(positivity_step(parts)),
    "three_step_linear": ref_linear,
    "three_step_geometric": ref_geometric,
}


def ref_step(s, cfg, tau):
    """The step as it was written over the whole (k, M) stack: the dense reference
    projection, then norm_step; the state keeps the stack's norms."""
    v = optpart.scheme.diffuse_stack(s, tau, cfg.bc, cfg.mask)
    parts = REF_PROJECTIONS[cfg.variant.removesuffix("_ed")](v.reshape(len(v), -1))
    norm_step(parts, s.grid, out=parts)
    values = parts if cfg.mask is None else cfg.mask.scatter(parts, np.empty(s.values.shape))
    return s.with_values(values.reshape(s.values.shape), norms=weighted_norms(parts, s.grid))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype == np.float64:
        a, b = a.view(np.uint64), b.view(np.uint64)
    return bool(np.array_equal(a, b))


@st.composite
def node_stacks(draw, min_k=1):
    """(k, n, ...) stacks, k = min_k..9 on 2D and 3D grids, rich in signed
    zeros and exact ties, sometimes sliced (non-contiguous) and sometimes
    read-only."""
    k, dim, n = draw(st.integers(min_k, 9)), draw(st.integers(2, 3)), draw(st.sampled_from([4, 6]))
    layout = draw(st.sampled_from(["contiguous", "parts reversed", "nodes strided", "fortran"]))
    shape = (k,) + (2 * n if layout == "nodes strided" else n,) + (n,) * (dim - 1)
    pool = st.sampled_from([0.0, -0.0, 0.25, 0.5, -0.5, 1.0, -np.inf])
    elements = st.one_of(pool, st.floats(-2.0, 2.0, width=64))
    v = draw(hnp.arrays(np.float64, shape, elements=elements))
    v = {"contiguous": v, "parts reversed": v[::-1], "nodes strided": v[:, ::2],
         "fortran": np.asfortranarray(v)}[layout]
    if draw(st.booleans()):
        v.setflags(write=False)
    return v


@given(node_stacks())
@settings(max_examples=300, deadline=None)
@np.errstate(invalid="ignore")  # -inf * 0 in values that no kept node uses
def test_projections_match_the_sorting_reference_bitwise(v):
    before = v.copy()
    for step, ref in REFERENCE.items():
        assert same_bits(densify(step, v), ref(v)), step.__name__
        assert same_bits(densify(step, positivity_step(v)), ref(positivity_step(v))), step.__name__
    # four_step clamps top alone: with the runner-up floored at 0, the bits of
    # clamping every part
    for variant, project in optpart.scheme.PROJECTIONS.items():
        assert same_bits(densify(project, v), REF_PROJECTIONS[variant](v)), variant
    try:
        norm_step(v, GridSpec(v.ndim - 1, v.shape[-1]))
    except DegeneratePart:
        pass
    assert same_bits(v, before)


@given(node_stacks())
@settings(max_examples=200, deadline=None)
@np.errstate(invalid="ignore")
def test_out_is_the_input_bitwise(v):
    # positivity_step and norm_step, written into a writable copy of their
    # input, and each projection, written over a copy of top, give the bits
    # of their fresh output
    grid = GridSpec(v.ndim - 1, v.shape[-1])
    normalize = lambda u, out=None: norm_step(u, grid, out=out)
    for step in (positivity_step, normalize):
        try:
            want = step(v)
        except DegeneratePart:
            continue
        w = v.copy()
        assert step(w, out=w) is w
        assert same_bits(w, want)
    top, second, _ = top_two(v)
    for step in ORTHO_STEPS.values():
        want = step(top, second)
        w = top.copy()
        assert step(w, second, out=w) is w
        assert same_bits(w, want)


@given(node_stacks())
@settings(max_examples=150, deadline=None)
def test_top_two_floors_the_runner_up_at_zero(v):
    # an empty competitor set (k = 1) or negative ones count as 0, so that
    # no projection clamps the runner-up itself
    top, second, winner = top_two(v)
    ref_top, ref_second, ref_winner = _ref_top_two(v)
    assert np.array_equal(top.ravel(), ref_top)
    assert np.array_equal(second.ravel(), np.maximum(ref_second, 0.0))
    assert np.array_equal(winner.ravel(), ref_winner)


@given(node_stacks(min_k=2))
@settings(max_examples=200, deadline=None)
def test_label_map_and_overlap_match_the_sorting_reference_bitwise(v):
    before = v.copy()
    state = PartitionState(GridSpec(v.ndim - 1, v.shape[-1]), v)
    assert same_bits(label_map(state), ref_label_map(state))
    assert same_bits(max_support_overlap(state), ref_max_support_overlap(state))
    assert same_bits(v, before)


@given(st.integers(1, 9), st.integers(1, 40), st.data())
@settings(max_examples=300, deadline=None)
def test_projections_discard_ringing_bitwise(k, nodes, data):
    # spectral ringing leaves values in (-1e-12, 0) in a diffused stack, which
    # the heat step does not snap to zero: every projection must give the
    # bits it gives on the snapped stack
    pool = st.sampled_from([0.0, -0.0, 0.25, 1.0, 1e-13, -1e-13, -5e-324, -1e-12, -0.5])
    elements = st.one_of(pool, st.floats(-1e-12, 0.0), st.floats(-2.0, 2.0, width=64))
    v = data.draw(hnp.arrays(np.float64, (k, nodes), elements=elements))
    snapped = np.where((v > -1e-12) & (v < 0.0), 0.0, v)
    for variant, project in optpart.scheme.PROJECTIONS.items():
        assert same_bits(densify(project, v), densify(project, snapped)), variant


def _recorded_run(cfg, init):
    iterates = []
    try:
        _, trace = run(cfg, init, on_iteration=lambda s, r: iterates.append(s.values))
    except DegeneratePart as err:
        trace = err.trace + [str(err), err.iteration]
    return iterates, [repr(row) for row in trace]


@pytest.mark.parametrize("bc, mask_name, n", [
    ("periodic", None, 16), ("dirichlet", None, 20), ("dirichlet", "disk", 24),
])
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("tau", [0.1, 0.5])  # 0.5 makes some -ed runs correct and freeze
def test_runs_match_the_sorting_reference_bitwise(monkeypatch, variant, bc, mask_name, n, tau):
    grid = GridSpec(dim=2, n=n)
    mask = make_mask(grid, mask_name) if mask_name else None
    cfg = SchemeConfig(k=4, variant=variant, tau=tau, bc=bc, mask=mask, n_max=15)
    init = voronoi_init(grid, 4, 3, bc, mask)
    iterates, rows = _recorded_run(cfg, init)
    # the reference states carry no label map: the argmax of their values
    monkeypatch.setattr(optpart.scheme, "step", ref_step)
    monkeypatch.setattr(optpart.scheme, "apply_sigma", dense_apply_sigma)
    monkeypatch.setattr(optpart.grid, "label_map", ref_label_map)
    ref_iterates, ref_rows = _recorded_run(cfg, init)
    assert rows == ref_rows
    assert len(iterates) == len(ref_iterates) > 1
    assert all(same_bits(a, b) for a, b in zip(iterates, ref_iterates))


# ---------------------------------------------------------------------------
# multiplier recovery


def test_multipliers_linear_worked_example():
    tau = 0.1
    b = col(0.8, 0.6)
    a = densify(ortho_pos_step_linear, b)
    d = recover_multipliers(b, a, tau, "three_step_linear")
    assert d.ortho[0, 1, 0] == pytest.approx(-1.0 / tau, rel=1e-14)
    assert d.ortho[1, 0, 0] == d.ortho[0, 1, 0]
    assert d.positivity[0, 0] == 0.0
    assert d.positivity[1, 0] == pytest.approx(0.2 / tau, rel=1e-13)
    assert d.max_residual <= 1e-12


def test_multipliers_ratio_worked_example():
    tau = 0.1
    b = col(0.8, 0.6)
    a = densify(ortho_step_ratio, b)
    d = recover_multipliers(b, a, tau, "four_step")
    assert d.ortho[0, 1, 0] == pytest.approx(-0.75 / tau, rel=1e-12)
    assert np.all(d.positivity == 0.0)
    assert d.max_residual <= 1e-12


def test_multipliers_ratio_worked_example_with_rest():
    # winner part 1, runner-up part 0, part 2 ranked third; 2 * tau = 1
    tau = 0.5
    b = col(0.5, 1.0, 0.25)
    a = densify(ortho_step_ratio, b)
    assert np.array_equal(a, col(0.0, 0.75, 0.0))
    d = recover_multipliers(b, a, tau, "four_step")
    head = -(2.0 * 0.5**2 - 0.25**2) / (1.0 * 0.5)  # -(2 b_r^2 - rest) / (2 tau b_w b_r)
    top_rest = -0.25 / 1.0  # -b_rest / (2 tau b_w)
    runner_rest = -0.25 / 0.5  # -b_rest / (2 tau b_r)
    want = [[0.0, head, runner_rest], [head, 0.0, top_rest], [runner_rest, top_rest, 0.0]]
    assert head == -0.875
    assert np.array_equal(d.ortho[..., 0], want)
    assert np.all(d.positivity == 0.0)
    assert d.max_residual == 0.0


def test_multipliers_rank_tied_maxima_by_index():
    # three equal maxima: the winner is part 1, the runner-up part 2, and
    # part 3 ranks below both; 2 * tau = 1
    tau = 0.5
    b = col(0.5, 1.0, 1.0, 1.0)
    d = recover_multipliers(b, densify(ortho_pos_step_linear, b), tau, "three_step_linear")
    # head pair -1/tau; the pairs below the winner -max ratio / tau
    want = [[0.0, 0.0, -4.0, -4.0], [0.0, 0.0, -2.0, 0.0],
            [-4.0, -2.0, 0.0, -2.0], [-4.0, 0.0, -2.0, 0.0]]
    assert np.array_equal(d.ortho[..., 0], want)
    assert d.max_residual == 0.0
    d = recover_multipliers(b, densify(ortho_step_ratio, b), tau, "four_step")
    head = -(2.0 * 1.0 - (0.5**2 + 1.0)) / 1.0
    want = [[0.0, -0.5, -0.5, 0.0], [-0.5, 0.0, head, -1.0],
            [-0.5, head, 0.0, -1.0], [0.0, -1.0, -1.0, 0.0]]
    assert np.array_equal(d.ortho[..., 0], want)
    assert d.max_residual == 0.0


def test_multipliers_zero_input_node():
    tau = 0.25
    b = col(0.7, 0.0)
    for variant, step in ORTHO_STEPS.items():
        a = densify(step, b)
        d = recover_multipliers(b, a, tau, variant)
        assert np.all(d.ortho == 0.0)
        assert np.all(d.positivity == 0.0)
        assert d.max_residual == 0.0


def test_multipliers_negative_input_gets_positive_lambda():
    tau = 0.5
    b = col(0.6, -0.4)
    for variant in ("three_step_linear", "three_step_geometric"):
        a = densify(ORTHO_STEPS[variant], b)
        d = recover_multipliers(b, a, tau, variant)
        assert d.positivity[1, 0] == pytest.approx(0.4 / tau, rel=1e-14)
        assert d.max_residual <= 1e-12


@pytest.mark.parametrize("variant", sorted(ORTHO_STEPS))
@pytest.mark.parametrize("k", [2, 3, 4])
def test_multiplier_reconstruction_on_random_tuples(variant, k):
    rng = np.random.default_rng(100 + k)
    lo = 0.0 if variant == "four_step" else -1.0
    b = rng.uniform(lo, 1.0, size=(k, 2000))
    a = densify(ORTHO_STEPS[variant], b)
    d = recover_multipliers(b, a, 0.1, variant)
    assert d.max_residual <= 1e-12
    assert d.positivity.min() >= 0.0
    assert np.abs(d.positivity * a).max() <= 1e-12
    assert np.array_equal(d.ortho, np.swapaxes(d.ortho, 0, 1))


def test_multipliers_accept_wrapped_variant_names():
    b = col(0.8, 0.6)
    a = densify(ortho_pos_step_linear, b)
    d = recover_multipliers(b, a, 0.1, "three_step_linear_ed")
    assert d.max_residual <= 1e-12


def test_multipliers_norm_component_uses_grid_quadrature():
    g = GridSpec(dim=2, n=8)
    b = np.zeros((2,) + g.shape)
    b[0, 1, 1] = 0.8
    b[1, 2, 5] = 0.5
    a = densify(ortho_pos_step_linear, b)
    tau = 0.2
    d = recover_multipliers(b, a, tau, "three_step_linear", grid=g)
    expected = (1.0 - np.sqrt(g.cell_volume) * 0.8) / tau
    assert d.norm[0] == pytest.approx(expected, rel=1e-13)


def test_multipliers_input_validation():
    b = col(0.8, 0.6)
    a = densify(ortho_pos_step_linear, b)
    with pytest.raises(ValueError):
        recover_multipliers(b, a, 0.0, "three_step_linear")
    with pytest.raises(ValueError):
        recover_multipliers(b, a, 0.1, "five_step")
    with pytest.raises(ValueError):
        recover_multipliers(b, a[:1], 0.1, "three_step_linear")
