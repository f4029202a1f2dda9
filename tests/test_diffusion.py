"""Heat semigroups checked against dense matrix exponentials and eigenmodes.

Single fields go through ``diffuse_stack`` as the first part of a state whose
second part is zero.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from optpart import DomainMask, GridSpec, PartitionState, dirichlet_energy, make_mask
from optpart.spectral import diffuse_stack, spectral_operator
from scipy_heat import at_nodes, on_index0_planes, positive_zero
from test_projection import same_bits


def diffuse(values: np.ndarray, grid: GridSpec, tau: float, bc: str, mask=None) -> np.ndarray:
    """The heat step of a (k, ...) stack, through a state of it."""
    return diffuse_stack(PartitionState(grid, values), tau, bc, mask)


def heat(f: np.ndarray, grid: GridSpec, tau: float, bc: str) -> np.ndarray:
    """Diffuse one field for time tau: the first part of a state with a zero second one."""
    return diffuse(np.stack([f, np.zeros_like(f)]), grid, tau, bc)[0]


def dense_periodic_kernel(n: int, tau: float) -> np.ndarray:
    """expm of the dense trigonometric-differentiation Laplacian on n nodes."""
    x = -np.pi + (2.0 * np.pi / n) * np.arange(n)
    m = np.fft.fftfreq(n, d=1.0 / n)
    lap = np.zeros((n, n))
    for p in range(n):
        for q in range(n):
            lap[p, q] = -np.real(np.sum(m * m * np.exp(1j * m * (x[p] - x[q])))) / n
    return expm(tau * lap)


def dense_dirichlet_kernel(n: int, tau: float) -> np.ndarray:
    """expm of the dense sine-basis Laplacian on the n-1 interior nodes."""
    j = np.arange(1, n)
    p = np.arange(1, n)
    basis = np.sin(np.outer(p, j) * np.pi / n)  # (node, mode)
    lam = (j / 2.0) ** 2
    lap = -(2.0 / n) * basis @ np.diag(lam) @ basis.T
    return expm(tau * lap)


def test_periodic_matches_dense_matrix_exponential():
    n, tau = 8, 0.3
    g = GridSpec(dim=2, n=n)
    k1 = dense_periodic_kernel(n, tau)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        f = rng.normal(size=g.shape)
        got = heat(f, g, tau, "periodic")
        want = k1 @ f @ k1.T
        worst = max(worst, float(np.abs(got - want).max()))
    assert worst <= 1e-13


def test_dirichlet_matches_dense_matrix_exponential():
    n, tau = 8, 0.5
    g = GridSpec(dim=2, n=n)
    k1 = dense_dirichlet_kernel(n, tau)
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(20):
        f = np.zeros(g.shape)
        f[1:, 1:] = rng.normal(size=(n - 1, n - 1))
        got = heat(f, g, tau, "dirichlet")
        want = np.zeros(g.shape)
        want[1:, 1:] = k1 @ f[1:, 1:] @ k1.T
        worst = max(worst, float(np.abs(got - want).max()))
    assert worst <= 1e-13


def test_periodic_eigenmode_decay():
    g = GridSpec(dim=2, n=64)
    x, y = g.meshgrid()
    f = np.cos(x)
    out = heat(f, g, 0.25, "periodic")
    assert np.abs(out - np.exp(-0.25) * f).max() <= 1e-12
    f = np.cos(2 * x) * np.cos(3 * y)
    out = heat(f, g, 0.1, "periodic")
    assert np.abs(out - np.exp(-1.3) * f).max() <= 1e-12


def test_dirichlet_eigenmode_decay():
    g = GridSpec(dim=2, n=64)
    x, y = g.meshgrid()
    f = np.sin((x + np.pi) / 2.0) * np.sin((y + np.pi) / 2.0)
    out = heat(f, g, 1.0, "dirichlet")
    assert np.abs(out - np.exp(-0.5) * f).max() <= 1e-12


def test_periodic_constant_fixed_point_and_mean():
    g = GridSpec(dim=2, n=16)
    out = heat(np.full(g.shape, 0.7), g, 0.4, "periodic")
    assert np.abs(out - 0.7).max() <= 1e-14
    rng = np.random.default_rng(13)
    f = rng.normal(size=g.shape)
    out = heat(f, g, 0.4, "periodic")
    assert out.mean() == pytest.approx(f.mean(), abs=1e-14)


def test_dirichlet_zero_fixed_point():
    g = GridSpec(dim=2, n=8)
    out = heat(np.zeros(g.shape), g, 0.2, "dirichlet")
    assert np.all(out == 0.0)


@pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
def test_semigroup_composition(bc):
    g = GridSpec(dim=2, n=32)
    rng = np.random.default_rng(14)
    f = rng.normal(size=g.shape)
    if bc == "dirichlet":
        f[0, :] = 0.0
        f[:, 0] = 0.0
    two = heat(heat(f, g, 0.07, bc), g, 0.05, bc)
    one = heat(f, g, 0.12, bc)
    assert np.abs(two - one).max() <= 1e-12


def test_dirichlet_max_principle_on_nonnegative_data():
    g = GridSpec(dim=2, n=64)
    rng = np.random.default_rng(15)
    f = np.zeros(g.shape)
    f[1:, 1:] = rng.uniform(0.0, 1.0, size=(63, 63))
    out = heat(f, g, 0.1, "dirichlet")
    assert out.max() <= f.max() + 1e-13


@pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
def test_semigroup_rejects_nonpositive_tau(bc):
    g = GridSpec(dim=2, n=8)
    f = np.zeros(g.shape)
    for tau in (0.0, -0.1, np.inf, np.nan):
        with pytest.raises(ValueError):
            heat(f, g, tau, bc)


def test_dirichlet_rejects_nonzero_boundary_values():
    g = GridSpec(dim=2, n=8)
    f = np.zeros(g.shape)
    f[0, 3] = 1.0
    with pytest.raises(ValueError):
        heat(f, g, 0.1, "dirichlet")


def test_mask_restrict():
    # a masked step holds the mask's nodes only, each the unmasked step's value
    g = GridSpec(dim=2, n=8)
    ind = np.zeros(g.shape, dtype=bool)
    ind[2:6, 2:6] = True
    mask = DomainMask(g, ind)
    rng = np.random.default_rng(16)
    f = rng.normal(size=(2,) + g.shape)
    f[:, 0], f[:, :, 0] = 0.0, 0.0  # the Dirichlet boundary planes
    plain = diffuse(f, g, 0.1, "dirichlet")
    out = diffuse(f, g, 0.1, "dirichlet", mask)
    assert out.shape == (2, 16)
    assert np.array_equal(out, plain[:, ind])
    full = diffuse(f, g, 0.1, "dirichlet", make_mask(g, "full"))
    assert np.array_equal(full, plain.reshape(2, -1))
    with pytest.raises(ValueError):
        diffuse(f, g, 0.1, "dirichlet", make_mask(GridSpec(dim=2, n=16), "full"))


def test_masked_diffusion_requires_the_dirichlet_box():
    # as the masked energy and SchemeConfig do: the masked heat step runs the
    # box's semigroup on the mask's box and keeps the mask's nodes; that is
    # wrong on the torus
    g = GridSpec(dim=2, n=32)
    mask = make_mask(g, "disk")
    f = np.stack([np.where(mask.indicator, 1.0, 0.0)] * 2)
    with pytest.raises(ValueError, match="a mask requires bc='dirichlet'"):
        diffuse(f, g, 0.1, "periodic", mask)
    out = diffuse(f, g, 0.1, "dirichlet", mask)
    assert out.shape == (2, mask.nodes.size)
    # the node-space kernel's rows of the box round apart from the whole kernel's
    plain = diffuse(f, g, 0.1, "dirichlet")
    assert np.max(np.abs(out - at_nodes(plain, mask))) <= 1e-15 * np.max(plain)


def test_diffuse_stack_matches_fieldwise_calls():
    g = GridSpec(dim=2, n=16)
    rng = np.random.default_rng(17)
    vals = rng.normal(size=(3,) + g.shape)
    batched = diffuse(vals, g, 0.2, "periodic")
    for i in range(3):
        single = heat(vals[i], g, 0.2, "periodic")
        assert np.abs(batched[i] - single).max() <= 1e-15
    with pytest.raises(ValueError):
        diffuse(vals, g, 0.2, "absorbing")


def test_diffuse_stack_applies_mask():
    g = GridSpec(dim=2, n=16)
    ind = np.zeros(g.shape, dtype=bool)
    ind[4:12, 4:12] = True
    mask = DomainMask(g, ind)
    vals = np.zeros((2,) + g.shape)
    vals[:, 6:10, 6:10] = 1.0
    out = diffuse(vals, g, 0.1, "dirichlet", mask)
    assert out.shape == (2, 64)
    plain = diffuse(vals, g, 0.1, "dirichlet")
    assert np.max(np.abs(out - plain[:, ind])) <= 1e-15 * np.max(plain)


def route(op, tau) -> str:
    return "kept-modes" if op.modes(tau) < op.shape[0] - 1 else "kernel"


@pytest.mark.parametrize("dim,n,tau,expected", [
    (2, 16, 0.1, "kernel"), (2, 64, 0.25, "kept-modes"), (2, 98, 0.01, "kernel"),
    (3, 12, 0.1, "kernel"), (3, 32, 0.25, "kept-modes"), (3, 98, 1e-3, "kernel"),
])
def test_masked_heat_step_on_index0_planes(dim, n, tau, expected):
    # a mask's inside nodes on an index-0 plane count in M but lie outside the
    # interior the heat step computes: they are +0.0, and every other node is
    # the unmasked step's value
    g = GridSpec(dim, n)
    assert route(spectral_operator("dirichlet", dim, n), tau) == expected
    holed = np.ones(g.shape, dtype=bool)
    holed[(slice(n // 4, n // 2),) * dim] = False
    corner = np.zeros(g.shape, dtype=bool)
    corner[(slice(0, n // 2 + 1),) * dim] = True
    rng = np.random.default_rng(n)
    for mask in (make_mask(g, "full"), DomainMask(g, holed), DomainMask(g, corner)):
        vals = np.where(mask.indicator, rng.normal(size=(2,) + g.shape), 0.0)
        for ax in range(1, dim + 1):
            np.moveaxis(vals, ax, 0)[0] = 0.0
        planes = on_index0_planes(mask)
        assert planes.any() and not planes.all()
        got = diffuse(vals, g, tau, "dirichlet", mask)
        assert got.shape == (2, mask.nodes.size)
        assert positive_zero(got[:, planes])
        want = at_nodes(diffuse(vals, g, tau, "dirichlet"), mask)
        if mask.box == (slice(0, n),) * dim:
            # the grid's box: the same products as the unmasked step's
            assert same_bits(got, want)
        else:
            # OpenBLAS multiplies the corner box's shorter axes in another order
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_pure_diffusion_decreases_energy():
    g = GridSpec(dim=2, n=32)
    rng = np.random.default_rng(18)
    vals = rng.normal(size=(2,) + g.shape)
    before = dirichlet_energy(PartitionState(g, vals), "periodic")
    diffused = diffuse(vals, g, 0.05, "periodic")
    after = dirichlet_energy(PartitionState(g, diffused), "periodic")
    assert after <= before + 1e-12
