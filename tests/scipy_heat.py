"""The heat step through scipy's transforms: the reference the package's heat step is
checked against, and the helpers that compare a masked (k, M) step with it."""

import numpy as np
from scipy import fft as sp_fft

from optpart.spectral import spectral_operator


def scipy_heat(values, grid, tau, bc, snap=True):
    """The heat step of a (k, ...) stack through ``rfftn``/``irfftn``, or on
    Dirichlet grids scipy's ``dstn``/``idstn`` of the interior nodes into a
    zero-filled output.  ``snap`` zeroes negative values above -1e-12, as the
    heat step once did."""
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
