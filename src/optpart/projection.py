"""Nodewise constraint projections and the normalization step.

All projections act independently at each grid node on the k-tuple of part
values (leading axis indexes parts).  Each one keeps at most one part
nonzero per node, which is what makes pairwise products of the outputs
exactly zero in floating point, not just small.  They find each node's
winner and runner-up in one running pass over the k part rows
(``grid.top_two``, as the label map does), with no sort along the part axis.
Like numpy's ufuncs they return a fresh array, or write into ``out``, which
may be the input itself: they read all of it before they write.  The
Lagrange multipliers of the constraints stay implicit in these closed
forms; ``tests/multipliers.py`` recovers them to audit the projections.
"""

from __future__ import annotations

import numpy as np

from .grid import GridSpec, top_two, weighted_norms

DEGENERATE_NORM_TOL = 1e-14


class DegeneratePart(RuntimeError):
    """A part collapsed: its discrete norm is ~0 or not finite, so it cannot be normalized."""

    def __init__(self, part_index: int, norm: float):
        self.part_index = int(part_index)
        self.norm = float(norm)
        why = f"<= {DEGENERATE_NORM_TOL:g}" if np.isfinite(norm) else "is not finite"
        super().__init__(f"part {part_index} degenerated (discrete norm {norm:.3e} {why})")


def positivity_step(parts: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Clamp negative nodal values to zero, part by part."""
    return np.maximum(np.asarray(parts, dtype=float), 0.0, out=out)


def _winner_rows(k: int, winner: np.ndarray, keep: np.ndarray, value: np.ndarray,
                 out: np.ndarray | None) -> np.ndarray:
    """Stack of k parts holding ``value`` in each node's winner row where ``keep``, else 0."""
    won = np.where(keep, winner, -1)
    out = np.empty((k,) + won.shape) if out is None else out
    out.fill(0.0)
    for i in range(k):
        np.copyto(out[i], value, where=won == i)
    return out


def ortho_step_ratio(parts: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Disjoint-support projection of a nonnegative tuple, ratio form.

    At each node the strict maximizer keeps ``(top^2 - second^2) / top`` and
    every other part is zeroed; ties leave all parts zero.
    """
    arr = np.asarray(parts, dtype=float)
    top, second, winner = top_two(arr)
    keep = top > second  # strict maximizer exists; top > 0, as second >= 0
    safe = np.where(keep, top, 1.0)
    # (top^2 - second^2) / top evaluated as a subtraction from top, so the
    # result stays inside [0, top] in floating point, not just in exact math
    value = top - second * (second / safe)
    return _winner_rows(arr.shape[0], winner, keep, value, out)


def ortho_pos_step_linear(parts: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Combined positivity + disjointness projection, gap form.

    The strict maximizer survives with the gap to the runner-up clamped at
    zero, ``top - max(second, 0)``; everything else, including every
    nonpositive value, is zeroed.
    """
    arr = np.asarray(parts, dtype=float)
    top, second, winner = top_two(arr)
    keep = top > second  # strict maximizer exists; top > 0, as second >= 0
    value = top - second
    return _winner_rows(arr.shape[0], winner, keep, value, out)


def ortho_pos_step_geometric(parts: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Combined positivity + disjointness projection, geometric-mean form.

    The lowest-index maximizer survives with ``top - sqrt(top * max(second,
    0))`` whenever it is positive; the subtraction is floored at zero to keep
    exact nonnegativity when the rounded sqrt overshoots on near-ties.
    """
    arr = np.asarray(parts, dtype=float)
    top, second, winner = top_two(arr)
    keep = top > 0.0
    value = np.maximum(top - np.sqrt(top * second), 0.0)
    return _winner_rows(arr.shape[0], winner, keep, value, out)


def norm_step(parts: np.ndarray, grid: GridSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Rescale every part of a (k, ...) stack, of every node or of a mask's (k, M),
    to unit discrete L2 norm on the given grid."""
    arr = np.asarray(parts, dtype=float)
    norms = weighted_norms(arr, grid)
    bad = np.nonzero(~(np.isfinite(norms) & (norms > DEGENERATE_NORM_TOL)))[0]
    if bad.size:
        raise DegeneratePart(bad[0], norms[bad[0]])
    return np.divide(arr, norms.reshape((-1,) + (1,) * (arr.ndim - 1)), out=out)
