"""The exact spectral heat semigroup e^{tau * Laplacian} on a stack of parts.

``diffuse_stack`` diagonalizes the Laplacian in the fast transform basis of
the boundary condition (trigonometric on the periodic torus, sine series on
the Dirichlet box) and damps each mode by ``exp(-tau * eigenvalue)``, so a
single application is exact for band-limited data up to roundoff.  Nodal
values driven into ``(-1e-12, 0)`` by spectral ringing are snapped to zero;
anything more negative is left alone so that real sign errors stay visible.
A domain mask, if given, zeroes the result outside the mask.  A single field
is diffused as a stack of one part.
"""

from __future__ import annotations

import numpy as np

from .grid import DomainMask, GridSpec, _trailing_axes
from .spectral import spectral_operator

RINGING_TOL = 1e-12


def _check_tau(tau: float) -> float:
    tau = float(tau)
    if not 0.0 < tau < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    return tau


def _clamp_ringing(values: np.ndarray) -> np.ndarray:
    tiny = (values > -RINGING_TOL) & (values < 0.0)
    if tiny.any():
        values[tiny] = 0.0
    return values


def _check_boundary_planes(values: np.ndarray, grid: GridSpec) -> None:
    for ax in _trailing_axes(values, grid):
        plane = [slice(None)] * values.ndim
        plane[ax] = 0
        if np.any(values[tuple(plane)] != 0.0):
            raise ValueError(
                "dirichlet semigroup requires zero values on the boundary planes"
            )


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
    ``values`` (as computed for their energy); it replaces that transform.
    """
    tau = _check_tau(tau)
    op = spectral_operator(bc, grid.dim, grid.n)
    if bc == "dirichlet":
        _check_boundary_planes(values, grid)
    if coef is None:
        coef = op.forward(values)
    out = _clamp_ringing(op.inverse(coef * op.decay(tau)))
    if mask is not None:
        if mask.grid != grid:
            raise ValueError("mask grid does not match state grid")
        out = np.where(mask.indicator, out, 0.0)
    return out
