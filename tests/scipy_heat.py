"""The heat step through scipy's transforms: the reference the package's heat step is
checked against, and the helpers that compare a masked (k, M) step with it."""

from functools import reduce

import numpy as np
from scipy import fft as sp_fft


def axis_eigenvalues(grid, bc):
    """Per axis, the one-axis eigenvalues of -Laplacian along it: m^2 over the
    wavenumbers of ``rfftn``'s axes (full leading, half last), or (j/2)^2 over
    the sine modes j = 1..n-1."""
    n = grid.n
    if bc == "periodic":
        return [np.fft.fftfreq(n, d=1.0 / n) ** 2] * (grid.dim - 1) + [
            np.fft.rfftfreq(n, d=1.0 / n) ** 2]
    return [(np.arange(1, n) / 2.0) ** 2] * grid.dim


def eigenvalues(grid, bc):
    """The eigenvalue of every mode: the sum of its axes' one-axis eigenvalues."""
    return sum(np.meshgrid(*axis_eigenvalues(grid, bc), indexing="ij"))


def decay(grid, tau, bc):
    """The heat multiplier e^{-tau lambda} of every mode: the outer product of
    the one-axis exps."""
    return reduce(np.multiply.outer, [np.exp(-tau * lam) for lam in axis_eigenvalues(grid, bc)])


def scipy_heat(values, grid, tau, bc, snap=True):
    """The heat step of a (k, ...) stack through ``rfftn``/``irfftn``, or on
    Dirichlet grids scipy's ``dstn``/``idstn`` of the interior nodes into a
    zero-filled output.  ``snap`` zeroes negative values above -1e-12, as the
    heat step once did."""
    axes = tuple(range(-grid.dim, 0))
    if bc == "periodic":
        out = np.fft.irfftn(np.fft.rfftn(values, axes=axes) * decay(grid, tau, bc),
                            s=grid.shape, axes=axes)
    else:
        interior = (...,) + (slice(1, None),) * grid.dim
        coef = sp_fft.dstn(values[interior], type=1, axes=axes) * decay(grid, tau, bc)
        out = np.zeros(values.shape[:1] + grid.shape)
        out[interior] = sp_fft.idstn(coef, type=1, axes=axes)
    if snap:
        out[(out > -1e-12) & (out < 0.0)] = 0.0
    return out


def at_nodes(stack, mask):
    """The (k, M) stack of a (k, ...) stack's values at the mask's nodes."""
    return stack.reshape(len(stack), -1)[:, mask.nodes]


def on_index0_planes(mask):
    """Per node of the mask, whether it lies on an index-0 plane."""
    planes = np.zeros(mask.grid.shape, dtype=bool)
    for ax in range(mask.grid.dim):
        np.moveaxis(planes, ax, 0)[0] = True
    return planes.reshape(-1)[mask.nodes]


def positive_zero(a) -> bool:
    return bool(np.all(a == 0.0) and not np.signbit(a).any())
