"""Nodewise constraint projections and Lagrange-multiplier recovery.

All projections act independently at each grid node on the k-tuple of part
values (leading axis indexes parts).  Each one keeps at most one part
nonzero per node, which is what makes pairwise products of the outputs
exactly zero in floating point, not just small.  They find each node's
winner and runner-up in one running pass over the k part rows
(``grid.top_two``, as the label map does), with no sort along the part axis.
Like numpy's ufuncs they return a fresh array, or write into ``out``, which
may be the input itself: they read all of it before they write.

``recover_multipliers`` reconstructs, for diagnostic purposes, multiplier
fields that certify a projection output as the solution of the implicit
coupled update it realizes; it ranks each node's parts with the same
``top_two``.  The schemes never call it; it exists so tests can verify the
update identity, sign and complementarity conditions.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    second = np.maximum(second, 0.0)  # empty competitor set counts as 0
    keep = top > second  # strict maximizer exists; implies top > 0 for inputs >= 0
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
    keep = (top > second) & (top > 0.0)
    value = top - np.maximum(second, 0.0)
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
    value = np.maximum(top - np.sqrt(top * np.maximum(second, 0.0)), 0.0)
    return _winner_rows(arr.shape[0], winner, keep, value, out)


def norm_step(parts: np.ndarray, grid: GridSpec, out: np.ndarray | None = None) -> np.ndarray:
    """Rescale every part to unit discrete L2 norm on the given grid."""
    arr = np.asarray(parts, dtype=float)
    norms = weighted_norms(arr, grid)
    bad = np.nonzero(~(np.isfinite(norms) & (norms > DEGENERATE_NORM_TOL)))[0]
    if bad.size:
        raise DegeneratePart(bad[0], norms[bad[0]])
    return np.divide(arr, norms.reshape((-1,) + (1,) * grid.dim), out=out)


# ---------------------------------------------------------------------------
# multiplier recovery


@dataclass(frozen=True)
class MultiplierDiagnostics:
    """Multipliers certifying a projection output, plus its update residual.

    ortho
        Symmetric pairwise coupling coefficients, shape (k, k, *node_shape).
    positivity
        Nonnegative one-sided multipliers, shape (k, *node_shape); they
        vanish wherever the output part is positive.
    norm
        Per-part normalization multipliers ``(1 - ||after_i||) / tau``.
    residual
        Nodewise defect of the reconstructed update identity, shape
        (k, *node_shape).
    """

    ortho: np.ndarray
    positivity: np.ndarray
    norm: np.ndarray
    residual: np.ndarray

    @property
    def max_residual(self) -> float:
        return float(np.abs(self.residual).max())


def recover_multipliers(
    before: np.ndarray,
    after: np.ndarray,
    tau: float,
    variant: str,
    grid: GridSpec | None = None,
) -> MultiplierDiagnostics:
    """Reconstruct multipliers for one projection applied over time step tau.

    ``before``/``after`` are the projection input and output stacks.  The
    coupling term in the reconstructed identity uses ``before`` values for
    the ratio and gap projections and the midpoint ``(after + before) / 2``
    for the geometric one.  Norms for the normalization multipliers use the
    grid quadrature when ``grid`` is given and plain sums otherwise.
    """
    tau = float(tau)
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    base = variant.removesuffix("_ed")
    b3, a3 = np.asarray(before, dtype=float), np.asarray(after, dtype=float)
    if b3.shape != a3.shape:
        raise ValueError("before/after shapes differ")
    if base not in ("four_step", "three_step_linear", "three_step_geometric"):
        raise ValueError(f"unknown projection variant {variant!r}")
    k, node_shape = b3.shape[0], b3.shape[1:]
    b, a = b3.reshape(k, -1), a3.reshape(k, -1)

    # each node's winner among its positive parts, and the runner-up where
    # it has two; ties go to the lower index
    pos = b > 0.0
    key = np.where(pos, b, -np.inf)
    _, second, winner = top_two(key)
    part = np.arange(k)[:, None]
    is_top = part == winner
    runner = np.argmax(np.where(is_top, -np.inf, key), axis=0)
    is_runner = (part == runner) & (second > 0.0)
    b_top, b_runner = (np.take_along_axis(b, i[None], axis=0)[0] for i in (winner, runner))
    head_pair = (is_top[:, None] & is_runner[None]) | (is_runner[:, None] & is_top[None])
    below = pos & ~is_top  # the positive parts ranked below the winner
    big, small = np.maximum(b[:, None], b[None]), np.minimum(b[:, None], b[None])
    geometric = base == "three_step_geometric"
    # the (k, k, N) pairs that a variant does not couple hold garbage here
    with np.errstate(divide="ignore", invalid="ignore"):
        if base == "four_step":
            rest = below & ~is_runner
            # squared mass of the parts ranked third and below, summed directly
            # (never as total minus leaders, which cancels catastrophically)
            rest_sq = np.where(rest, b * b, 0.0).sum(axis=0)
            head = -(2.0 * b_runner * b_runner - rest_sq) / (2.0 * tau * b_top * b_runner)
            # the winner and the runner-up each couple to every part ranked
            # below them by -(lower value) / (2 tau * higher value)
            lead = is_top | is_runner
            couple = (lead[:, None] & rest[None]) | (rest[:, None] & lead[None])
            value = -small / (2.0 * tau * big)
        else:
            head = -(2.0 / tau) * np.sqrt(b_top / b_runner) if geometric else -1.0 / tau
            # every pair of positive parts below the winner couples by the
            # larger of the two value ratios
            couple = below[:, None] & below[None] & ~np.eye(k, dtype=bool)[..., None]
            value = -(2.0 / tau if geometric else 1.0 / tau) * (big / small)
    eta = np.where(head_pair, head, np.where(couple, value, 0.0))
    coupling = np.einsum("ijn,jn->in", eta, (a + b) / 2.0 if geometric else b)
    if base == "four_step":
        lam = np.zeros_like(b)
    else:
        # nonpositive inputs get -b/tau outright; positive parts below the winner
        # close the update equation, floored at zero so sign holds under roundoff
        lam = np.where(below, np.maximum(-b / tau - coupling, 0.0), np.where(pos, 0.0, -b / tau))

    # evaluated in this order, closure rows cancel bitwise
    residual = ((a - b) / tau - coupling) - lam
    norms = weighted_norms(a3, grid) if grid is not None else np.sqrt(np.sum(a * a, axis=1))
    return MultiplierDiagnostics(
        ortho=eta.reshape((k, k) + node_shape),
        positivity=lam.reshape((k,) + node_shape),
        norm=(1.0 - norms) / tau,
        residual=residual.reshape((k,) + node_shape),
    )
