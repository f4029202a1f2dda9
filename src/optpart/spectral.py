"""The discrete Laplacian on the box [-pi, pi]^d: heat step and gradient energy.

Periodic grids expand in the trigonometric basis through the real-to-complex
FFT (``np.fft.rfftn``): full wavenumbers on the leading axes, the
nonnegative half on the last one.  Dirichlet grids expand the interior nodes
(index 1..n-1 per axis) in the sine basis ``sin(j*(x+pi)/2)`` through the
type-1 DST; the index-0 boundary planes are zero.  Transforms run over the
trailing ``dim`` axes, so a (k, ...) stack of parts goes through one call.

``diffuse_stack`` applies the exact heat semigroup e^{tau * Laplacian}, and
``dirichlet_energy`` the gradient energy; both work on the same forward
coefficients, so an iterate transformed once for its energy can be diffused
without transforming it again.  A heat step allocates one coefficient array
and one output, and works in them in place.  Nodal values driven into
``(-1e-12, 0)`` by spectral ringing are snapped to zero; anything more
negative is left alone so that real sign errors stay visible.  The one
non-spectral piece is the forward-difference energy on a masked domain.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import fft as sp_fft

from .grid import BOUNDARY_CONDITIONS, DomainMask, GridSpec, PartitionState, _trailing_axes

RINGING_TOL = 1e-12


def _axis_sum(per_axis: list[np.ndarray]) -> np.ndarray:
    grids = np.meshgrid(*per_axis, indexing="ij")
    return sum(grids)


class SpectralOperator:
    """Forward/inverse transforms, heat decay and energy for one (bc, dim, n).

    Obtain instances through ``spectral_operator``, which caches them, so
    the tables below are built once per grid.  Coefficient arrays returned
    by ``forward`` are read-only: they may be shared between the energy of
    an iterate and its next diffusion.
    """

    def __init__(self, bc: str, dim: int, n: int):
        self.bc, self.dim = bc, dim
        self.shape = (n,) * dim
        self.axes = tuple(range(-dim, 0))
        if bc == "periodic":
            m_full = np.fft.fftfreq(n, d=1.0 / n)
            m_half = np.fft.rfftfreq(n, d=1.0 / n)
            self.eigenvalues = _axis_sum([m_full**2] * (dim - 1) + [m_half**2])
            # Hermitian symmetry: every last-axis mode except 0 and n/2 stands
            # for itself and its conjugate partner, which rfftn does not store
            weight = np.full(n // 2 + 1, 2.0)
            weight[[0, -1]] = 1.0
            vol = (2.0 * np.pi) ** dim
            energy_scale = 0.5 * vol / float(n**dim) ** 2
        elif bc == "dirichlet":
            j = np.arange(1, n)
            self.eigenvalues = _axis_sum([(j / 2.0) ** 2] * dim)
            weight = 1.0
            energy_scale = 0.5 * np.pi**dim / float(n**dim) ** 2
        else:
            raise ValueError(f"unknown boundary condition {bc!r}")
        self.eigenvalues.setflags(write=False)
        self._energy_weights = energy_scale * weight * self.eigenvalues
        self._energy_weights.setflags(write=False)

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Coefficients of nodal values over the trailing grid axes (read-only).

        On Dirichlet grids the index-0 boundary planes are not read.
        """
        if self.bc == "periodic":
            coef = np.fft.rfftn(values, axes=self.axes)
        else:
            coef = sp_fft.dstn(values[(...,) + (slice(1, None),) * self.dim],
                               type=1, axes=self.axes)
        coef.setflags(write=False)
        return coef

    def inverse(self, coef: np.ndarray) -> np.ndarray:
        """Nodal values of a coefficient array; Dirichlet boundary planes are 0.
        A Dirichlet ``coef`` must be writable: the sine transform overwrites it."""
        if self.bc == "periodic":
            return np.fft.irfftn(coef, s=self.shape, axes=self.axes)
        out = np.empty(coef.shape[: coef.ndim - self.dim] + self.shape)
        for ax in self.axes:
            np.moveaxis(out, ax, 0)[0] = 0.0
        interior = sp_fft.idstn(coef, type=1, axes=self.axes, overwrite_x=True)
        out[(...,) + (slice(1, None),) * self.dim] = interior
        return out

    @lru_cache(maxsize=32)
    def decay(self, tau: float) -> np.ndarray:
        """Heat semigroup multipliers exp(-tau * eigenvalue) (read-only)."""
        out = np.exp(-tau * self.eigenvalues)
        out.setflags(write=False)
        return out

    def energy(self, coef: np.ndarray) -> float:
        """Total gradient energy 0.5 * sum ||grad u||^2 of forward coefficients."""
        if self.bc == "periodic":
            power = coef.real**2 + coef.imag**2
        else:
            power = coef * coef
        return float(np.sum(self._energy_weights * power))


@lru_cache(maxsize=16)
def spectral_operator(bc: str, dim: int, n: int) -> SpectralOperator:
    """The cached spectral operator of a boundary condition and grid size."""
    return SpectralOperator(bc, dim, n)


# ---------------------------------------------------------------------------
# heat step


def _check_tau(tau: float) -> float:
    tau = float(tau)
    if not 0.0 < tau < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    return tau


def _check_mask(mask: DomainMask, grid: GridSpec) -> None:
    if mask.grid != grid:
        raise ValueError("mask grid does not match state grid")


def _clamp_ringing(values: np.ndarray) -> np.ndarray:
    tiny = (values > -RINGING_TOL) & (values < 0.0)
    if tiny.any():
        values[tiny] = 0.0
    return values


def _check_boundary_planes(values: np.ndarray, grid: GridSpec) -> None:
    if any(np.any(np.moveaxis(values, ax, 0)[0] != 0.0) for ax in _trailing_axes(values, grid)):
        raise ValueError("dirichlet semigroup requires zero values on the boundary planes")


def diffuse_stack(
    values: np.ndarray,
    grid: GridSpec,
    tau: float,
    bc: str,
    mask: DomainMask | None = None,
    coef: np.ndarray | None = None,
) -> np.ndarray:
    """Semigroup applied to a (k, ...) stack of parts, then mask restriction.

    Transforms run over the trailing grid axes so all parts go through one
    FFT call.  With ``bc="dirichlet"`` the parts must vanish on the stored
    boundary planes (index 0 along every axis); the opposite faces are
    implicit zero-Dirichlet images.
    ``coef``, if given, must be the spectral operator's forward transform of
    ``values`` (as computed for their energy), read in place of that transform.
    """
    tau = _check_tau(tau)
    op = spectral_operator(bc, grid.dim, grid.n)
    if bc == "dirichlet":
        _check_boundary_planes(values, grid)
    if coef is None:
        product = op.forward(values)
        product.setflags(write=True)  # this call's own array: decay it in place
        product *= op.decay(tau)
    else:
        product = coef * op.decay(tau)
    out = _clamp_ringing(op.inverse(product))
    if mask is not None:
        _check_mask(mask, grid)
        np.copyto(out, 0.0, where=~mask.indicator)
    return out


# ---------------------------------------------------------------------------
# energy


def _energy_masked(values: np.ndarray, grid: GridSpec) -> float:
    # first-order forward differences with zero extension past the box edge,
    # all axes in one buffer: np.diff(append=0.0) copies the stack per axis.
    # Freeing this (dim, k, ...) block also lifts glibc's dynamic trim
    # threshold above the iteration's temporaries, which then stay mapped.
    d = np.empty((grid.dim,) + values.shape)
    for ax, d_ax in zip(_trailing_axes(values, grid), d):
        v, dv = np.moveaxis(values, ax, -1), np.moveaxis(d_ax, ax, -1)
        np.subtract(v[..., 1:], v[..., :-1], out=dv[..., :-1])
        np.subtract(0.0, v[..., -1], out=dv[..., -1])
    total = sum(float(np.sum(np.multiply(d_ax, d_ax, out=d_ax))) for d_ax in d)
    return 0.5 * grid.spacing ** (grid.dim - 2) * total


def dirichlet_energy(
    state: PartitionState,
    bc: str = "periodic",
    mask: DomainMask | None = None,
    coef: np.ndarray | None = None,
) -> float:
    """Total gradient energy 0.5 * sum_i ||grad u_i||^2 of a partition.

    Without a mask the gradient is spectral (trigonometric for periodic,
    sine-series for dirichlet).  With a mask, forward differences are used so
    that the jump across the domain boundary is charged to the energy.

    ``coef``, if given, must be the spectral operator's forward transform of
    ``state.values``; it saves recomputing that transform.  It is ignored
    with a mask.
    """
    if bc not in BOUNDARY_CONDITIONS:
        raise ValueError(f"unknown boundary condition {bc!r}")
    if mask is not None:
        _check_mask(mask, state.grid)
        return _energy_masked(state.values, state.grid)
    op = spectral_operator(bc, state.grid.dim, state.grid.n)
    return op.energy(op.forward(state.values) if coef is None else coef)
