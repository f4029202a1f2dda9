"""The discrete Laplacian on the box [-pi, pi]^d: heat step and gradient energy.

Periodic grids expand in the trigonometric basis through the real-to-complex
FFT (``np.fft.rfftn``): full wavenumbers on the leading axes, the
nonnegative half on the last one.  Dirichlet grids expand the interior nodes
(index 1..n-1 per axis) in the sine basis ``sin(j*(x+pi)/2)`` through the
type-1 DST; the index-0 boundary planes are zero.  On grids with at most
``SINE_MATRIX_MAX_N`` nodes per axis that DST is one product per axis with
the dense (n-1)x(n-1) sine matrix, which beats the FFT on such short axes;
larger grids call ``scipy.fft.dstn``.  Transforms run over the trailing
``dim`` axes, so a (k, ...) stack of parts goes through one call.

``diffuse_stack`` applies the exact heat semigroup e^{tau * Laplacian}, and
``dirichlet_energy`` the gradient energy; both work on the same forward
coefficients, so an iterate transformed once for its energy can be diffused
without transforming it again.  A heat step allocates one coefficient array
and one output, and works in them in place; the sine-matrix products add
their work buffers.  Nodal values driven into ``(-1e-12, 0)`` by spectral
ringing are snapped to zero; anything more
negative is left alone so that real sign errors stay visible.  The one
non-spectral piece is the forward-difference energy on a masked domain.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np
from scipy import fft as sp_fft

from .grid import BOUNDARY_CONDITIONS, DomainMask, GridSpec, PartitionState, _trailing_axes

RINGING_TOL = 1e-12

# Largest nodes per axis n for which the Dirichlet sine transform is a dense
# product with the (n-1)x(n-1) DST-I matrix per axis rather than scipy's DST.
# One transform of a (k, n-1, ...) interior, matrix time over ``dstn`` time
# (median of 15 calls, one BLAS thread, 2-core VM): 2D k=6 0.26-0.37 at
# n=32, 0.93-1.23 at 96, 1.45-2.08 at 128; 3D k=8 0.17-0.19 at n=16,
# 0.40-0.53 at 28, 0.55-0.75 at 96.  In 2D, n=96 is about break-even, and
# above it the FFT wins.  Fixed, not timed at run time, so that a
# configuration's output never varies.
SINE_MATRIX_MAX_N = 96


def _axis_sum(per_axis: list[np.ndarray]) -> np.ndarray:
    grids = np.meshgrid(*per_axis, indexing="ij")
    return sum(grids)


def _left_products(arr: np.ndarray, mat: np.ndarray, powers, buffers) -> np.ndarray:
    """``mat`` applied along axis ``-1 - a`` of ``arr`` for each ``a`` in turn.

    Each product left-multiplies a (..., m, m**a) view, so no axis is moved
    or copied; the results alternate between ``buffers``, which must not
    share memory with ``arr``.  Returns the buffer holding the last result.
    """
    m = len(mat)
    for a, out in zip(powers, itertools.cycle(buffers)):
        np.matmul(mat, arr.reshape(-1, m, m**a), out=out.reshape(-1, m, m**a))
        arr = out
    return arr


class SpectralOperator:
    """Forward/inverse transforms, heat decay and energy for one (bc, dim, n).

    Obtain instances through ``spectral_operator``, which caches them, so
    the tables below are built once per grid.  Coefficient arrays returned
    by ``forward`` are read-only: they may be shared between the energy of
    an iterate and its next diffusion.  ``_sine`` is the DST-I matrix
    2*sin(pi*j*l/n) of a Dirichlet grid with n <= ``SINE_MATRIX_MAX_N``
    (None otherwise), and ``_sine_inverse`` is ``_sine / (2n)``: the matrix
    squares to 2n times the identity.
    """

    def __init__(self, bc: str, dim: int, n: int):
        self.bc, self.dim = bc, dim
        self.shape = (n,) * dim
        self._sine = self._sine_inverse = None
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
            if n <= SINE_MATRIX_MAX_N:
                # reducing j*l modulo the period 2n keeps the sine's argument
                # below 2*pi: S @ S then misses 2n*I by 9e-16, not 6e-15, at n=96
                self._sine = 2.0 * np.sin(np.pi * (np.outer(j, j) % (2 * n)) / n)
                self._sine_inverse = self._sine / (2 * n)
                self._sine.setflags(write=False)
                self._sine_inverse.setflags(write=False)
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
        interior = values[(...,) + (slice(1, None),) * self.dim]
        if self.bc == "periodic":
            coef = np.fft.rfftn(values, axes=self.axes)
        elif self._sine is None:
            coef = sp_fft.dstn(interior, type=1, axes=self.axes)
        else:
            # the last axis first, read straight from the strided interior
            coef = np.matmul(interior, self._sine)
            if self.dim > 1:
                coef = _left_products(coef, self._sine, range(1, self.dim),
                                      (np.empty_like(coef), coef))
        coef.setflags(write=False)
        return coef

    def inverse(self, coef: np.ndarray) -> np.ndarray:
        """Nodal values of a coefficient array; Dirichlet boundary planes are 0.

        The sine-matrix path only reads ``coef``.  Above ``SINE_MATRIX_MAX_N``
        a Dirichlet ``coef`` must be writable: scipy's DST overwrites it.
        """
        if self.bc == "periodic":
            return np.fft.irfftn(coef, s=self.shape, axes=self.axes)
        out = np.empty(coef.shape[: coef.ndim - self.dim] + self.shape)
        for ax in self.axes:
            np.moveaxis(out, ax, 0)[0] = 0.0
        interior = out[(...,) + (slice(1, None),) * self.dim]
        if self._sine is None:
            interior[...] = sp_fft.idstn(coef, type=1, axes=self.axes, overwrite_x=True)
        else:
            # the leading axes first, so that the last product, along the last
            # axis, writes straight into the strided interior of the output
            buffers = tuple(np.empty(coef.shape) for _ in range(self.dim - 1))
            partial = _left_products(coef, self._sine_inverse, range(self.dim - 1, 0, -1), buffers)
            np.matmul(partial, self._sine_inverse, out=interior)
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
