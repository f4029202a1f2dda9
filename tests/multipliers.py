"""Test oracles for the nodewise steps: dense stacks and multiplier recovery.

A projection maps each node's largest value and runner-up to the value its
winner keeps; ``densify`` turns that into the (k, ...) stack a step writes,
which is what the other oracles and the tests compare.  ``dense_apply_sigma``
is the support shift as it was written over the whole stack, before the
schemes shifted one value per node.

``recover_multipliers`` reconstructs multiplier fields that certify a
projection output as the solution of the implicit coupled update it
realizes; it ranks each node's parts with ``grid.top_two``, as the
projections do.  The schemes never call it: the multipliers stay implicit
in the closed-form projections.  The tests use it to verify the update
identity, sign and complementarity conditions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from optpart.grid import DomainMask, GridSpec, PartitionState, top_two, weighted_norms
from optpart.projection import norm_step


def densify(projection, parts) -> np.ndarray:
    """The (k, ...) stack that ``projection(top, second)`` makes of ``parts``: each
    node's winner (``top_two``) holds the value where it is positive, every other
    part 0.  ``parts`` is read, not written."""
    top, second, winner = top_two(np.asarray(parts, dtype=float))
    value = projection(top, second).reshape(-1)
    out = np.zeros(np.shape(parts))
    flat = out.reshape(len(out), -1)
    nodes = np.flatnonzero(value > 0.0)
    flat[winner.reshape(-1)[nodes], nodes] = value[nodes]
    return out


def dense_apply_sigma(state: PartitionState, sigma: float,
                      mask: DomainMask | None = None) -> PartitionState:
    """Shift every part by sigma on its support, cut what drops to <= 0, renormalize,
    over the whole (k, N) stack, or a mask's (k, M); the state keeps the norms
    of that stack."""
    sigma = float(sigma)
    if sigma == 0.0:
        return state
    out = np.empty(state.values.shape)
    parts = state.values.reshape(state.k, -1)
    if mask is None:
        shifted = out.reshape(state.k, -1)
        shifted[...] = parts
    else:
        shifted = parts.take(mask.nodes, axis=1)
    keep = shifted > 0.0
    shifted += sigma
    keep &= shifted > 0.0
    np.copyto(shifted, 0.0, where=~keep)
    norm_step(shifted, state.grid, out=shifted)
    if mask is not None:
        mask.scatter(shifted, out)
    return state.with_values(out, norms=weighted_norms(shifted, state.grid))


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
