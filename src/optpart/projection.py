"""Nodewise constraint projections and the normalization step.

All projections act independently at each grid node on the k-tuple of part
values.  Each is a closed form in the node's largest value ``top`` and its
runner-up ``second`` (``grid.top_two``, one running pass over the k part
rows, floored at 0): it gives the value that the node's winner keeps, and
every other part of the node gets 0.  A value that is not positive means
that no part survives at the node, so at most one part is nonzero per node,
which is what makes pairwise products of the outputs exactly zero in
floating point, not just small.  Like numpy's ufuncs they return a fresh
array, or write into ``out``, which may be ``top`` itself.  The Lagrange
multipliers of the constraints stay implicit in these closed forms;
``tests/multipliers.py`` recovers them to audit the projections.
"""

from __future__ import annotations

import numpy as np

from .grid import GridSpec, weighted_norms

DEGENERATE_NORM_TOL = 1e-14


class DegeneratePart(RuntimeError):
    """A part collapsed: its discrete norm is ~0 or not finite, so it cannot be normalized."""

    def __init__(self, part_index: int, norm: float):
        self.part_index = int(part_index)
        self.norm = float(norm)
        why = f"<= {DEGENERATE_NORM_TOL:g}" if np.isfinite(norm) else "is not finite"
        super().__init__(f"part {part_index} degenerated (discrete norm {norm:.3e} {why})")


def positivity_step(parts: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Clamp negative nodal values to zero; applied to ``top``, the clamp of every part,
    as the runner-up is floored at 0 already."""
    return np.maximum(np.asarray(parts, dtype=float), 0.0, out=out)


def ortho_step_ratio(top: np.ndarray, second: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Disjoint-support projection of a nonnegative tuple, ratio form.

    The strict maximizer keeps ``(top^2 - second^2) / top``; a tie keeps 0.
    """
    # (top^2 - second^2) / top evaluated as a subtraction from top, so the
    # result stays inside [0, top] in floating point, not just in exact math;
    # on a tie second / top is 1 and the result exactly 0
    ratio = np.divide(second, np.where(top > 0.0, top, 1.0))
    return np.subtract(top, np.multiply(second, ratio, out=ratio), out=out)


def ortho_pos_step_linear(top: np.ndarray, second: np.ndarray,
                          out: np.ndarray | None = None) -> np.ndarray:
    """Combined positivity + disjointness projection, gap form.

    The strict maximizer keeps the gap to the runner-up, ``top - max(second,
    0)``; a tie or a nonpositive maximum keeps nothing.
    """
    return np.subtract(top, second, out=out)


def ortho_pos_step_geometric(top: np.ndarray, second: np.ndarray,
                             out: np.ndarray | None = None) -> np.ndarray:
    """Combined positivity + disjointness projection, geometric-mean form.

    The lowest-index maximizer keeps ``top - sqrt(top * max(second, 0))``
    where that is positive, which it is not where ``top <= 0``.
    """
    root = np.sqrt(np.multiply(top, second))
    return np.subtract(top, root, out=out)


def norm_step(parts: np.ndarray, grid: GridSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Rescale every part of a (k, ...) stack, of every node or of a mask's (k, M),
    to unit discrete L2 norm on the given grid."""
    arr = np.asarray(parts, dtype=float)
    norms = weighted_norms(arr, grid)
    bad = np.nonzero(~(np.isfinite(norms) & (norms > DEGENERATE_NORM_TOL)))[0]
    if bad.size:
        raise DegeneratePart(bad[0], norms[bad[0]])
    return np.divide(arr, norms.reshape((-1,) + (1,) * (arr.ndim - 1)), out=out)
