"""Nodewise constraint projections and Lagrange-multiplier recovery.

All projections act independently at each grid node on the k-tuple of part
values (leading axis indexes parts).  Each one keeps at most one part
nonzero per node, which is what makes pairwise products of the outputs
exactly zero in floating point, not just small.  They find each node's
winner and runner-up in one running pass over the k part rows
(``grid.top_two``, as the label map does), with no sort along the part axis.

``recover_multipliers`` reconstructs, for diagnostic purposes, multiplier
fields that certify a projection output as the solution of the implicit
coupled update it realizes.  The schemes never call it; it exists so tests
can verify the update identity, sign and complementarity conditions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, top_two, weighted_norms

DEGENERATE_NORM_TOL = 1e-14

RATIO = "four_step"
LINEAR = "three_step_linear"
GEOMETRIC = "three_step_geometric"


class DegeneratePart(RuntimeError):
    """A part collapsed: its discrete norm is ~0 or not finite, so it cannot be normalized."""

    def __init__(self, part_index: int, norm: float):
        self.part_index = int(part_index)
        self.norm = float(norm)
        why = f"<= {DEGENERATE_NORM_TOL:g}" if np.isfinite(norm) else "is not finite"
        super().__init__(f"part {part_index} degenerated (discrete norm {norm:.3e} {why})")


def positivity_step(parts: np.ndarray) -> np.ndarray:
    """Clamp negative nodal values to zero, part by part."""
    return np.maximum(np.asarray(parts, dtype=float), 0.0)


def _winner_rows(k: int, winner: np.ndarray, keep: np.ndarray, value: np.ndarray) -> np.ndarray:
    """Stack of k parts holding ``value`` in each node's winner row where ``keep``, else 0."""
    won = np.where(keep, winner, -1)
    out = np.zeros((k,) + won.shape)
    for i in range(k):
        np.copyto(out[i], value, where=won == i)
    return out


def ortho_step_ratio(parts: np.ndarray) -> np.ndarray:
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
    return _winner_rows(arr.shape[0], winner, keep, value)


def ortho_pos_step_linear(parts: np.ndarray) -> np.ndarray:
    """Combined positivity + disjointness projection, gap form.

    The strict maximizer survives with the gap to the runner-up clamped at
    zero, ``top - max(second, 0)``; everything else, including every
    nonpositive value, is zeroed.
    """
    arr = np.asarray(parts, dtype=float)
    top, second, winner = top_two(arr)
    keep = (top > second) & (top > 0.0)
    value = top - np.maximum(second, 0.0)
    return _winner_rows(arr.shape[0], winner, keep, value)


def ortho_pos_step_geometric(parts: np.ndarray) -> np.ndarray:
    """Combined positivity + disjointness projection, geometric-mean form.

    The lowest-index maximizer survives with ``top - sqrt(top * max(second,
    0))`` whenever it is positive; the subtraction is floored at zero to keep
    exact nonnegativity when the rounded sqrt overshoots on near-ties.
    """
    arr = np.asarray(parts, dtype=float)
    top, second, winner = top_two(arr)
    keep = top > 0.0
    value = np.maximum(top - np.sqrt(top * np.maximum(second, 0.0)), 0.0)
    return _winner_rows(arr.shape[0], winner, keep, value)


def norm_step(parts: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Rescale every part to unit discrete L2 norm on the given grid."""
    arr = np.asarray(parts, dtype=float)
    norms = weighted_norms(arr, grid)
    bad = np.nonzero(~(np.isfinite(norms) & (norms > DEGENERATE_NORM_TOL)))[0]
    if bad.size:
        raise DegeneratePart(bad[0], norms[bad[0]])
    return arr / norms.reshape((-1,) + (1,) * grid.dim)


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


def _ranked_positive(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    pos = flat > 0.0
    npos = pos.sum(axis=0)
    key = np.where(pos, flat, -np.inf)
    # descending, ties by lower part index; positives always sort first
    order = np.argsort(-key, axis=0, kind="stable")
    return pos, npos, order

def _pair_set(eta, rows, cols, nodes, value):
    eta[rows, cols, nodes] = value
    eta[cols, rows, nodes] = value


def _ortho_ratio_multipliers(b: np.ndarray, tau: float) -> np.ndarray:
    k, nn = b.shape
    pos, npos, order = _ranked_positive(b)
    eta = np.zeros((k, k, nn))
    if k < 2:
        return eta
    nodes = np.arange(nn)
    two = npos >= 2
    i1, i2 = order[0], order[1]
    b1 = b[i1, nodes]
    b2 = b[i2, nodes]
    # squared mass of the positive parts ranked third and below, summed
    # directly (never as total minus leaders, which cancels catastrophically)
    if k > 2:
        ranked = np.take_along_axis(b, order[2:], axis=0)
        live = (np.arange(2, k)[:, None] < npos[None, :])
        rest = np.where(live, ranked * ranked, 0.0).sum(axis=0)
    else:
        rest = np.zeros(nn)
    with np.errstate(divide="ignore", invalid="ignore"):
        top_pair = -(2.0 * b2 * b2 - rest) / (2.0 * tau * b1 * b2)
    sel = nodes[two]
    _pair_set(eta, i1[sel], i2[sel], sel, top_pair[sel])
    for r in range(2, k):
        sel = nodes[npos > r]
        if not sel.size:
            break
        ir = order[r][sel]
        br = b[ir, sel]
        _pair_set(eta, i1[sel], ir, sel, -br / (2.0 * tau * b[i1[sel], sel]))
        _pair_set(eta, i2[sel], ir, sel, -br / (2.0 * tau * b[i2[sel], sel]))
    return eta


def _coupled_multipliers(
    b: np.ndarray, tau: float, geometric: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pairwise coupling and top index for the gap/geometric projections."""
    k, nn = b.shape
    pos, npos, order = _ranked_positive(b)
    eta = np.zeros((k, k, nn))
    i1 = order[0]
    if k >= 2:
        nodes = np.arange(nn)
        sel = nodes[npos >= 2]
        q = order[1][sel]
        m = i1[sel]
        if geometric:
            head = -(2.0 / tau) * np.sqrt(b[m, sel] / b[q, sel])
        else:
            head = np.full(sel.shape, -1.0 / tau)
        _pair_set(eta, m, q, sel, head)
        # every pair of positive parts below the maximizer couples by the
        # larger of the two value ratios
        scale = 2.0 / tau if geometric else 1.0 / tau
        for r in range(1, k):
            for s in range(r + 1, k):
                both = nodes[npos > s]
                if not both.size:
                    break
                ir, js = order[r][both], order[s][both]
                br, bs = b[ir, both], b[js, both]
                _pair_set(eta, ir, js, both, -scale * np.maximum(br / bs, bs / br))
    return eta, pos, i1


def _closure_positivity(
    b: np.ndarray, tau: float, eta_dot: np.ndarray, pos: np.ndarray, i1: np.ndarray
) -> np.ndarray:
    """Positivity multipliers that close the update equation exactly.

    Nonpositive inputs get ``-b/tau`` outright; positive non-maximizers get
    the equation closure, floored at zero so sign holds under roundoff.
    """
    k = b.shape[0]
    lam = np.where(pos, 0.0, -b / tau)
    closure = np.maximum(-b / tau - eta_dot, 0.0)
    not_top = np.arange(k)[:, None] != i1[None, :]
    return np.where(pos & not_top, closure, lam)


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
    b3 = np.asarray(before, dtype=float)
    a3 = np.asarray(after, dtype=float)
    if b3.shape != a3.shape:
        raise ValueError("before/after shapes differ")
    k = b3.shape[0]
    node_shape = b3.shape[1:]
    b = b3.reshape(k, -1)
    a = a3.reshape(k, -1)

    if base == RATIO:
        eta = _ortho_ratio_multipliers(b, tau)
        lam = np.zeros_like(b)
        coupling = np.einsum("ijn,jn->in", eta, b)
    elif base == LINEAR:
        eta, pos, i1 = _coupled_multipliers(b, tau, geometric=False)
        coupling = np.einsum("ijn,jn->in", eta, b)
        lam = _closure_positivity(b, tau, coupling, pos, i1)
    elif base == GEOMETRIC:
        eta, pos, i1 = _coupled_multipliers(b, tau, geometric=True)
        coupling = np.einsum("ijn,jn->in", eta, (a + b) / 2.0)
        lam = _closure_positivity(b, tau, coupling, pos, i1)
    else:
        raise ValueError(f"unknown projection variant {variant!r}")

    # evaluated in this order, closure rows cancel bitwise
    residual = ((a - b) / tau - coupling) - lam

    if grid is not None:
        norms = weighted_norms(a3, grid)
    else:
        norms = np.sqrt(np.sum(a * a, axis=1))
    norm_mult = (1.0 - norms) / tau

    return MultiplierDiagnostics(
        ortho=eta.reshape((k, k) + node_shape),
        positivity=lam.reshape((k,) + node_shape),
        norm=norm_mult,
        residual=residual.reshape((k,) + node_shape),
    )
