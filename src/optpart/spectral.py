"""The Laplacian's eigenbasis on the box [-pi, pi]^d: one operator per grid.

Periodic grids expand in the trigonometric basis through the real-to-complex
FFT (``np.fft.rfftn``): full wavenumbers on the leading axes, the
nonnegative half on the last one.  Dirichlet grids expand the interior nodes
(index 1..n-1 per axis) in the sine basis ``sin(j*(x+pi)/2)`` through the
type-1 DST; the index-0 boundary planes are zero.  Transforms run over the
trailing ``dim`` axes, so a (k, ...) stack of parts goes through one call.

The heat semigroup and the gradient energy both work on the same forward
coefficients, so an iterate transformed once for its energy can be diffused
without transforming it again.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy import fft as sp_fft


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
        """Nodal values of a coefficient array; Dirichlet boundary planes are 0."""
        if self.bc == "periodic":
            return np.fft.irfftn(coef, s=self.shape, axes=self.axes)
        out = np.zeros(coef.shape[: coef.ndim - self.dim] + self.shape)
        out[(...,) + (slice(1, None),) * self.dim] = sp_fft.idstn(coef, type=1, axes=self.axes)
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
