"""Exact spectral heat semigroups e^{tau * Laplacian} and domain masking.

Both variants diagonalize the Laplacian in a fast transform basis and damp
each mode by ``exp(-tau * eigenvalue)``, so a single application is exact for
band-limited data up to roundoff.  Nodal values driven into ``(-1e-12, 0)``
by spectral ringing are snapped to zero; anything more negative is left
alone so that real sign errors stay visible.
"""

from __future__ import annotations

import numpy as np

from .grid import DomainMask, Field, GridSpec, _trailing_axes
from .spectral import spectral_operator

RINGING_TOL = 1e-12


def _check_tau(tau: float) -> float:
    tau = float(tau)
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
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


def heat_semigroup_periodic(f: Field, tau: float) -> Field:
    """Diffuse a field for time tau on the periodic torus."""
    return Field(f.grid, diffuse_stack(f.values, f.grid, tau, "periodic"))


def heat_semigroup_dirichlet(f: Field, tau: float) -> Field:
    """Diffuse a field for time tau with zero boundary values on the box.

    The field must vanish on the stored boundary planes (index 0 along every
    axis); the opposite faces are implicit zero-Dirichlet images.
    """
    return Field(f.grid, diffuse_stack(f.values, f.grid, tau, "dirichlet"))


def mask_restrict(f: Field, mask: DomainMask) -> Field:
    """Zero a field outside the mask (nodewise multiply by the indicator)."""
    if mask.grid != f.grid:
        raise ValueError("mask grid does not match field grid")
    return Field(f.grid, np.where(mask.indicator, f.values, 0.0))


def diffuse_stack(
    values: np.ndarray,
    grid: GridSpec,
    tau: float,
    bc: str,
    mask: DomainMask | None = None,
    coef: np.ndarray | None = None,
) -> np.ndarray:
    """Semigroup applied to a (k, ...) stack of parts, then mask restriction.

    Internal batched kernel shared by the splitting schemes; transforms run
    over the trailing grid axes so all parts go through one FFT call.
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
