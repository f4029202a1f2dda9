"""The shared spectral operator: half-spectrum energy and reused transforms."""

import numpy as np
import pytest

from optpart import (
    GridSpec,
    PartitionState,
    SchemeConfig,
    dirichlet_energy,
    make_mask,
    run,
    voronoi_init,
)
from optpart.spectral import SpectralOperator, diffuse_stack, spectral_operator


def fftn_energy(values: np.ndarray, grid: GridSpec) -> float:
    """Periodic energy from the full complex spectrum, the reference."""
    axes = tuple(range(values.ndim - grid.dim, values.ndim))
    coef = np.fft.fftn(values, axes=axes) / grid.num_nodes
    m = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    k2 = sum(g * g for g in np.meshgrid(*[m] * grid.dim, indexing="ij"))
    vol = (2.0 * np.pi) ** grid.dim
    return float(0.5 * vol * np.sum(k2 * (coef.real**2 + coef.imag**2)))


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (3, 12)])
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
    vals = u[None]
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


@pytest.mark.parametrize("bc", ["periodic", "dirichlet"])
def test_diffusion_from_given_coefficients_is_bitwise_the_same(bc):
    g = GridSpec(dim=2, n=16)
    vals = np.random.default_rng(3).random((3,) + g.shape)
    vals[:, 0, :] = 0.0
    vals[:, :, 0] = 0.0
    op = spectral_operator(bc, g.dim, g.n)
    coef = op.forward(vals)
    assert not coef.flags.writeable
    kept = coef.copy()
    out = diffuse_stack(vals, g, 0.2, bc, coef=coef)
    assert np.array_equal(out, diffuse_stack(vals, g, 0.2, bc))
    assert np.array_equal(coef, kept)
    assert dirichlet_energy(PartitionState(g, vals), bc, coef=coef) == dirichlet_energy(
        PartitionState(g, vals), bc
    )


def test_dirichlet_boundary_check_holds_with_given_coefficients():
    g = GridSpec(dim=2, n=16)
    vals = np.ones((1,) + g.shape)
    coef = spectral_operator("dirichlet", g.dim, g.n).forward(vals)
    with pytest.raises(ValueError, match="boundary planes"):
        diffuse_stack(vals, g, 0.2, "dirichlet", coef=coef)


@pytest.mark.parametrize("bc,mask_name", [("periodic", None), ("dirichlet", None),
                                          ("dirichlet", "disk")])
def test_uncorrected_iteration_costs_one_transform_each_way(monkeypatch, bc, mask_name):
    g = GridSpec(dim=2, n=24)
    mask = make_mask(g, mask_name) if mask_name else None
    calls = {"forward": 0, "inverse": 0, "energy": 0}
    for name in calls:
        original = getattr(SpectralOperator, name)

        def counted(self, arr, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, arr)

        monkeypatch.setattr(SpectralOperator, name, counted)
    cfg = SchemeConfig(k=3, variant="three_step_linear", tau=0.1, bc=bc, mask=mask, n_max=8)
    _, trace = run(cfg, voronoi_init(g, 3, 0, bc, mask))
    iterations = len(trace) - 1
    if mask is None:
        # one forward per iterate, shared by its energy and its next diffusion
        assert calls == {"forward": iterations + 1, "inverse": iterations,
                         "energy": iterations + 1}
    else:
        # the masked energy is finite-difference: transforms serve diffusion only
        assert calls == {"forward": iterations, "inverse": iterations, "energy": 0}
