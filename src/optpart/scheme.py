"""Operator-splitting iterations for gradient-energy-minimizing partitions.

Every iteration is one ``step``: diffuse all parts by the exact heat
semigroup, project them back onto nonnegative values with disjoint supports,
and rescale each to unit discrete norm.  The projections act nodewise, so
the constraints hold exactly at every iterate, not just in the limit.  On a
mask they touch only the mask's nodes, and the iterate keeps the label map
that the check stopping a run compares, and the trace's norms and minimum,
found on those nodes.  The variants differ only in the projection, ``PROJECTIONS[variant]``:

    four_step              positivity clamp, then ratio disjointness
    three_step_linear      combined gap projection
    three_step_geometric   combined geometric-mean projection

The ``_ed`` variants (``three_step_linear_ed``, ``three_step_geometric_ed``)
take the same step and then correct the iterate by a support shift, found
by a secant search, so that the total gradient energy never increases.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .grid import (
    DomainMask,
    PartitionState,
    _check_integer,
    check_domain,
    check_k,
    check_mask,
    check_support,
    check_tau,
    partition_norms,
    top_two,
    weighted_norms,
)
from .projection import (
    DegeneratePart,
    norm_step,
    ortho_pos_step_geometric,
    ortho_pos_step_linear,
    ortho_step_ratio,
    positivity_step,
)
from .spectral import diffuse_stack, dirichlet_energy

VARIANTS = (
    "four_step",
    "three_step_linear",
    "three_step_geometric",
    "three_step_linear_ed",
    "three_step_geometric_ed",
)

SECANT_STALL_TOL = 1e-300
SECANT_MAX_ITERS = 50
SECANT_RESIDUAL_TOL = 1e-10

# The projection step of each variant: each node's largest value and runner-up
# (``top_two``) to the value its winner keeps, written over ``top``.  The
# lambdas look the projections up in this module when called, so a wrapper
# over one of these module attributes (a tracer) sees every call the schemes make.
PROJECTIONS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "four_step": lambda top, second: ortho_step_ratio(positivity_step(top, out=top), second,
                                                      out=top),
    "three_step_linear": lambda top, second: ortho_pos_step_linear(top, second, out=top),
    "three_step_geometric": lambda top, second: ortho_pos_step_geometric(top, second, out=top),
}


class SecantFailed(RuntimeError):
    """Energy correction gave up before reaching a non-increasing energy."""

    def __init__(self, message: str, sigma: float, iterations: int):
        self.sigma = float(sigma)
        self.iterations = int(iterations)
        super().__init__(message)


@dataclass(frozen=True)
class SchemeConfig:
    """Full description of one partition run (grid and initial data aside).

    ``tau`` is one time step or a sequence of warm-up steps ending in the
    steady one; it is stored as a tuple of floats either way.
    """

    k: int
    variant: str = "four_step"
    tau: float | tuple[float, ...] = 0.1
    bc: str = "periodic"
    mask: DomainMask | None = None
    n_max: int = 2000

    def __post_init__(self):
        object.__setattr__(self, "k", check_k(self.k))
        object.__setattr__(self, "n_max", _check_integer("n_max", self.n_max))
        if self.variant not in VARIANTS:
            raise ValueError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}"
            )
        check_domain(self.bc, self.mask)
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        # as objects: a numeric array would turn a bool or a string into a float first
        taus = tuple(check_tau(t) for t in np.asarray(self.tau, dtype=object).ravel())
        if not taus:
            raise ValueError("tau needs at least one value")
        object.__setattr__(self, "tau", taus)

    @property
    def energy_decreasing(self) -> bool:
        return self.variant.endswith("_ed")

    def tau_at(self, iteration: int) -> float:
        """Time step for a given iteration: warm-up entries, then steady."""
        return self.tau[min(iteration, len(self.tau) - 1)]


@dataclass(frozen=True)
class TraceRow:
    iteration: int
    energy: float
    norms: tuple[float, ...]
    min_value: float
    sigma: float | None
    secant_iters: int
    stopped: bool

    @property
    def max_norm_dev(self) -> float:
        return max(abs(n - 1.0) for n in self.norms)


EnergyTrace = list[TraceRow]

OnIteration = Callable[[PartitionState, TraceRow], None]


def step(s: PartitionState, cfg: SchemeConfig, tau: float) -> PartitionState:
    """One splitting iteration: diffuse, project with the variant's projection, normalize.

    The heat step reads what the energy of ``s`` has found: its periodic
    ``spectrum``, or on Dirichlet grids its ``boxes``.  Its fresh output is
    a (k, M) stack of the domain's nodes, every node or a mask's ``nodes``;
    each node's winner and the value the projection leaves it make the new
    state (``_iterate``), written over that stack.
    """
    v = diffuse_stack(s, tau, cfg.bc, cfg.mask)
    top, second, winner = top_two(v.reshape(len(v), -1))
    value = PROJECTIONS[cfg.variant.removesuffix("_ed")](top, second)  # over top
    # freed before a mask's new state is allocated: a 192^2 star5 step's
    # tracemalloc peak is 1.38 state sizes, and 1.43 with second held
    del second
    return _iterate(s, winner, value, v, cfg.mask)


def _iterate(s: PartitionState, labels: np.ndarray, value: np.ndarray, out: np.ndarray,
             mask: DomainMask | None) -> PartitionState:
    """The state holding, at each node of the domain (every node, or a mask's ``nodes``),
    ``value`` in part ``labels`` where it is positive, else 0 and label 0, normalized.

    ``labels`` and ``value`` are overwritten, and the parts are written over
    ``out``, (k, ...) memory of the domain's nodes, which becomes the state's
    values or on a mask is scattered into them.  The state keeps the label
    map, norms and minimum found there.
    """
    dead = ~(value > 0.0)
    np.copyto(value, 0.0, where=dead)
    np.copyto(labels, 0, where=dead)
    parts = out.reshape(len(out), -1)
    for i, row in enumerate(parts):
        row.fill(0.0)
        np.copyto(row, value, where=np.equal(labels, i, out=dead))
    norm_step(parts, s.grid, out=parts)
    # each node holds k - 1 >= 1 zeros, so the stack holds the state's minimum
    found = {"norms": weighted_norms(parts, s.grid), "min_value": float(parts.min())}
    if mask is not None:
        out = mask.scatter(parts, np.empty(s.values.shape))
        labels = mask.scatter(labels, np.empty(s.grid.shape, labels.dtype))
    return s.with_values(out, labels=labels.reshape(s.grid.shape), **found)


# ---------------------------------------------------------------------------
# energy-decrease correction


def _residual(
    e_trial: float, e_prev: float, trial: PartitionState, previous: PartitionState, tau: float
) -> float:
    """Monotonicity residual: E(trial) - E(previous) + movement penalty.

    Nonpositive values certify that accepting the trial cannot raise the
    energy; the penalty term is ``(1/tau) * sum_i ||u_i^trial - u_i^prev||^2``.
    The energies are passed in, as the caller has already computed them.
    """
    # part by part through one part-sized difference: the same sums as the
    # stack's, without a stack-sized temporary per secant trial
    diff = np.empty(trial.grid.shape)
    moved = np.array([weighted_norms(np.subtract(t, p, out=diff)[None], trial.grid)[0]
                      for t, p in zip(trial.values, previous.values)])
    return float(e_trial - e_prev + np.sum(moved * moved) / tau)


def secant_update(sigma_s: float, sigma_prev: float, F_s: float, F_prev: float) -> float | None:
    """One secant iteration for the root of F(sigma); None if F is flat between the two."""
    dF = F_s - F_prev
    if abs(dF) <= SECANT_STALL_TOL:
        return None
    return sigma_s - F_s * (sigma_s - sigma_prev) / dF


def apply_sigma(state: PartitionState, sigma: float,
                mask: DomainMask | None = None) -> PartitionState:
    """Shift every part by sigma on its support, cut what drops to <= 0, renormalize.

    Each node of the domain (every node, or a mask's ``nodes``) keeps its
    value in its label's part, ``state.labels``, plus sigma only while both
    the value and the shifted one are positive; otherwise it is zeroed, so
    supports can only shrink and disjointness survives exactly.  The state
    must have disjoint supports, as every iterate has.
    """
    sigma = float(sigma)
    if sigma == 0.0:
        return state
    nodes = np.arange(state.grid.num_nodes) if mask is None else mask.nodes
    labels = state.labels.reshape(-1)[nodes]
    value = state.values.reshape(state.k, -1)[labels, nodes]
    np.add(value, sigma, out=value, where=value > 0.0)
    # the new state's memory, which it freezes in place, or on a mask the stack
    out = np.empty(state.values.shape if mask is None else (state.k, nodes.size))
    return _iterate(state, labels, value, out, mask)


def energy_decrease_wrap(
    candidate: PartitionState,
    previous: PartitionState,
    cfg: SchemeConfig,
    tau: float,
    e_prev: float,
) -> tuple[PartitionState, float | None, int, float]:
    """Correct a fresh iterate until its energy does not exceed the previous one.

    The shift sigma is the single unknown of the scalar residual
    ``F(sigma) = _residual(.., apply_sigma(candidate, sigma, mask), previous, tau)``,
    and every secant trial shifts the original candidate, so the search works
    on one fixed function of sigma, seeded at ``-tau**2`` and 0.  ``e_prev``
    is the previous iterate's energy.

    Returns ``(state, sigma, secant_iterations, energy)`` where sigma is the
    last accepted support shift (None if no correction was needed) and
    energy is the returned state's energy.  Raises
    SecantFailed when the search exhausts ``SECANT_MAX_ITERS``, stalls,
    degenerates a part, or its residual converges with the energy still
    above the bar; the caller decides the fallback.
    """
    e_cand = dirichlet_energy(candidate, cfg.bc, cfg.mask)
    if e_cand <= e_prev:
        return candidate, None, 0, e_cand

    # seeds: the candidate itself (sigma_b = 0) and one trial at sigma_a = -tau**2;
    # a failure reports sigma_b, which each secant trial takes before it is evaluated
    sig_a, sig_b = -tau * tau, 0.0
    iters, reason = 0, "exhausted the iteration budget"
    try:
        seed = apply_sigma(candidate, sig_a, cfg.mask)
        f_a = _residual(dirichlet_energy(seed, cfg.bc, cfg.mask), e_prev, seed, previous, tau)
        del seed  # with the transform it holds: its residual is all the search needs
        f_b = _residual(e_cand, e_prev, candidate, previous, tau)
        while iters < SECANT_MAX_ITERS:
            sig_next = secant_update(sig_b, sig_a, f_b, f_a)
            if sig_next is None:
                reason = (
                    f"stalled (secant stalled: |F_s - F_prev| = {abs(f_b - f_a):.3e} "
                    f"with sigma_s = {sig_b})"
                )
                break
            sig_a, f_a, sig_b = sig_b, f_b, sig_next
            current = apply_sigma(candidate, sig_b, cfg.mask)
            e_cur = dirichlet_energy(current, cfg.bc, cfg.mask)
            f_b = _residual(e_cur, e_prev, current, previous, tau)
            iters += 1
            if e_cur <= e_prev:
                return current, sig_b, iters, e_cur
            if abs(f_b) <= SECANT_RESIDUAL_TOL * max(1.0, abs(e_prev)):
                reason = f"converged its residual ({f_b:.3e}) with the energy still high"
                break
    except DegeneratePart:
        reason = "left the feasible shift range"
    message = f"energy correction {reason} after {iters} secant iterations (last sigma {sig_b:.6e})"
    raise SecantFailed(message, sigma=sig_b, iterations=iters)


def stopping_check(prev_labels: np.ndarray, state: PartitionState) -> tuple[bool, np.ndarray]:
    """An iterate's label map (``state.labels``, which a step leaves) and whether
    it equals ``prev_labels``."""
    return bool(np.array_equal(prev_labels, state.labels)), state.labels


# ---------------------------------------------------------------------------
# driver


def _trace_row(
    state: PartitionState,
    iteration: int,
    energy: float,
    sigma: float | None,
    secant_iters: int,
    stopped: bool,
) -> TraceRow:
    return TraceRow(
        iteration=iteration,
        energy=energy,
        norms=tuple(float(x) for x in partition_norms(state)),
        min_value=state.min_value,
        sigma=sigma,
        secant_iters=secant_iters,
        stopped=stopped,
    )


@contextmanager
def _one_blas_thread():
    """OpenBLAS on one thread inside, so that no product's summation order, and no output,
    depends on the caller's count, which every exit restores.  The OpenBLAS is numpy's
    bundled one; where it is not found, the count is left alone.  The count is the
    process's: runs in two threads at once restore it under each other."""
    found = Path(np.__file__).parent.parent.glob("numpy.libs/*scipy_openblas64_*")
    lib = next(map(ctypes.CDLL, map(str, found)), None)
    threads = lib and lib.scipy_openblas_get_num_threads64_()
    set_threads = lib.scipy_openblas_set_num_threads64_ if lib else lambda count: None
    set_threads(1)
    try:
        yield
    finally:
        set_threads(threads)


@_one_blas_thread()
def run(
    cfg: SchemeConfig,
    init: PartitionState,
    on_iteration: OnIteration | None = None,
) -> tuple[PartitionState, EnergyTrace]:
    """Iterate a splitting scheme from an initial partition until it stops.

    The loop ends when consecutive label maps agree or after ``cfg.n_max``
    iterations.  The trace gets one row for the initial state and one per
    iteration.  For energy-decreasing variants a failed correction freezes
    the iterate at the previous state, rather than accepting an energy
    increase, and stops the run.  A ``DegeneratePart`` raised by an
    iteration carries its index as ``iteration`` and the rows before it as
    ``trace``.  OpenBLAS runs on one thread throughout.
    """
    if init.k != cfg.k:
        raise ValueError(f"config expects k={cfg.k}, initial state has k={init.k}")
    check_mask(cfg.mask, init.grid)
    if not np.isfinite(init.values).all():
        raise ValueError("initial state has non-finite values")
    check_support(init, cfg.bc, cfg.mask)

    trace: EnergyTrace = []
    state = init
    # each iterate's energy and label map are computed once and carried to the
    # next iteration; what its energy found (its periodic transform, its
    # boxes) stays on the state, where the next heat step reads it
    energy = dirichlet_energy(state, cfg.bc, cfg.mask)
    labels = state.labels
    row = _trace_row(state, 0, energy, None, 0, False)
    trace.append(row)
    if on_iteration is not None:
        on_iteration(state, row)

    for n in range(cfg.n_max):
        tau = cfg.tau_at(n)
        previous, stopped = state, False
        try:
            candidate = step(previous, cfg, tau)
            if cfg.energy_decreasing:
                try:
                    state, sigma, secant_iters, energy = energy_decrease_wrap(
                        candidate, previous, cfg, tau, trace[-1].energy
                    )
                except SecantFailed as err:
                    # freeze the previous iterate, energy and labels, and
                    # stop: a false stop (ROADMAP item 3), settled labels never reached
                    state, sigma, secant_iters, stopped = previous, err.sigma, err.iterations, True
            else:
                state, sigma, secant_iters = candidate, None, 0
                energy = dirichlet_energy(state, cfg.bc, cfg.mask)
        except DegeneratePart as err:
            err.iteration = n + 1
            err.trace = trace
            raise
        if not stopped:
            stopped, labels = stopping_check(labels, state)
        row = _trace_row(state, n + 1, energy, sigma, secant_iters, stopped)
        trace.append(row)
        if on_iteration is not None:
            on_iteration(state, row)
        # an iterate that a callback keeps holds its values, not its transform;
        # released here, where an unkept iterate is freed anyway (right after
        # the step, the heap's top was trimmed and faulted back every iteration)
        previous.release_spectrum()
        if stopped:
            break
    state.release_spectrum()
    return state, trace
