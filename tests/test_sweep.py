"""A derandomised sweep of small admitted configurations, and how each run ends.

Hypothesis draws 2D and 3D grids, k, both boundary conditions, every
variant, named and random boolean masks, and tau log-uniform in [1e-3, 5],
so that the heat step takes each of its routes: kept modes, every mode, and
on Dirichlet grids the node-space kernel.  Every iterate must keep the exact
constraints, no ``-ed`` energy may rise, and every run must end in one of the
known ways below.  No configuration is dropped because it fails: a new kind
of ending fails the sweep, and belongs in a strict-xfail example of its own.
Random masks may hold a single node, which leaves too few for k cells.
"""

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from optpart import (
    VARIANTS,
    DegeneratePart,
    DomainMask,
    GridSpec,
    InitFailed,
    SchemeConfig,
    make_mask,
    max_support_overlap,
    partition_norms,
    run,
    voronoi_init,
)
from optpart.initial import MASK_SHAPES
from optpart.spectral import spectral_operator

NORM_TOL = 1e-12
N_MAX = 40
# today's endings: labels settled, the iteration cap, a part that degenerated,
# a failed correction that froze the iterate, and an init with too few nodes
ENDINGS = {"settled", "cap", "degenerate", "frozen", "init-failed"}


@st.composite
def configurations(draw):
    dim = draw(st.sampled_from([2, 3]))
    n = draw(st.sampled_from([8, 12, 16, 24] if dim == 2 else [6, 8, 10]))
    grid = GridSpec(dim, n)
    bc = draw(st.sampled_from(["periodic", "dirichlet"]))
    mask = None
    kind = draw(st.sampled_from(["none", "named", "random"])) if bc == "dirichlet" else "none"
    if kind == "named":
        shapes = sorted(name for name, (_, _, only_2d) in MASK_SHAPES.items()
                        if dim == 2 or not only_2d)
        mask = make_mask(grid, draw(st.sampled_from(shapes)))
    elif kind == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        indicator = rng.random(grid.shape) < draw(st.floats(0.0, 0.9))
        indicator[(n // 2,) * dim] = True  # admitted: one interior node at least
        mask = DomainMask(grid, indicator)
    cfg = SchemeConfig(k=draw(st.integers(2, 6)), variant=draw(st.sampled_from(VARIANTS)),
                       tau=10.0 ** draw(st.floats(-3.0, np.log10(5.0))), bc=bc, mask=mask,
                       n_max=N_MAX)
    return grid, cfg, draw(st.integers(0, 2**16))


def example_case(dim, n, bc, mask, k, variant, tau, seed):
    """A configuration as ``configurations`` draws it; ``mask`` is None, a
    named shape, or "centre" for the single centre node."""
    grid = GridSpec(dim, n)
    if mask == "centre":
        indicator = np.zeros(grid.shape, bool)
        indicator[(n // 2,) * dim] = True
        mask = DomainMask(grid, indicator)
    elif mask is not None:
        mask = make_mask(grid, mask)
    cfg = SchemeConfig(k=k, variant=variant, tau=tau, bc=bc, mask=mask, n_max=N_MAX)
    return grid, cfg, seed


# one configuration for each known ending, which between them take every
# heat-step route: the sweep covers both whatever the draws are
EXAMPLES = {
    "settled": (2, 8, "periodic", None, 2, "four_step", 1e-3, 0),  # periodic every mode
    "degenerate": (2, 8, "periodic", None, 2, "four_step", 5.0, 0),  # periodic kept modes
    "frozen": (2, 16, "dirichlet", None, 2, "three_step_geometric_ed", 1.0, 0),  # kept modes
    "cap": (3, 10, "dirichlet", "full", 6, "four_step", 0.2, 0),  # node space
    "init-failed": (2, 8, "dirichlet", "centre", 2, "four_step", 0.05, 0),
}


def with_examples(test):
    for args in EXAMPLES.values():
        test = example(example_case(*args))(test)
    return test


def heat_route(grid: GridSpec, cfg: SchemeConfig) -> str:
    op = spectral_operator(cfg.bc, grid.dim, grid.n)
    every = grid.n // 2 if cfg.bc == "periodic" else grid.n - 1
    if op.modes(cfg.tau[0]) < every:
        return f"{cfg.bc}-kept-modes"
    return "node-space" if cfg.bc == "dirichlet" else "periodic-every-mode"


def ending(grid: GridSpec, cfg: SchemeConfig, seed: int) -> str:
    """How the run of one configuration ends, after checking every iterate."""
    try:
        init = voronoi_init(grid, cfg.k, seed, cfg.bc, cfg.mask)
    except InitFailed:
        return "init-failed"
    rows = []

    def check(state, row):
        assert state.values.min() >= 0.0
        assert max_support_overlap(state) == 0.0
        assert np.max(np.abs(partition_norms(state) - 1.0)) <= NORM_TOL
        if cfg.mask is not None:
            assert not state.values[:, ~cfg.mask.indicator].any()
        if cfg.energy_decreasing and rows:
            assert row.energy <= rows[-1].energy
        rows.append(row)

    try:
        _, trace = run(cfg, init, on_iteration=check)
    except DegeneratePart:
        return "degenerate"
    last = trace[-1]
    if not last.stopped:
        return "cap" if last.iteration == cfg.n_max else "unknown"
    # a failed correction keeps the previous iterate and its energy
    frozen = len(trace) > 1 and last.sigma is not None and last.energy == trace[-2].energy
    return "frozen" if frozen else "settled"


def test_sweep_of_admitted_configurations():
    endings, routes = set(), set()

    @settings(max_examples=300, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(configurations())
    @with_examples
    def sweep(case):
        grid, cfg, seed = case
        routes.add(heat_route(grid, cfg))
        endings.add(ending(grid, cfg, seed))
        assert endings <= ENDINGS

    sweep()
    # the examples alone reach every heat-step route and every known ending
    assert routes == {"periodic-kept-modes", "periodic-every-mode", "dirichlet-kept-modes",
                      "node-space"}
    assert endings == ENDINGS
