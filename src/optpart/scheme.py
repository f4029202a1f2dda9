"""Operator-splitting iterations for gradient-energy-minimizing partitions.

Every iteration diffuses all parts, projects them back onto the constraint
set (nonnegative, disjoint supports, unit discrete norm), and optionally
post-corrects the iterate so the total gradient energy never increases.
The projections act nodewise, so the constraints hold exactly at every
iterate, not just in the limit.

Variants
    four_step              diffusion, positivity clamp, ratio disjointness,
                           normalization (separate clamp and disjointness)
    three_step_linear      diffusion, combined gap projection, normalization
    three_step_geometric   diffusion, combined geometric-mean projection,
                           normalization
    three_step_linear_ed / three_step_geometric_ed
                           same steps wrapped in the monotone-energy
                           correction driven by a secant search
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .diffusion import diffuse_stack
from .grid import (
    BOUNDARY_CONDITIONS,
    DomainMask,
    PartitionState,
    dirichlet_energy,
    label_map,
    partition_norms,
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
from .spectral import spectral_operator

VARIANTS = (
    "four_step",
    "three_step_linear",
    "three_step_geometric",
    "three_step_linear_ed",
    "three_step_geometric_ed",
)

SECANT_STALL_TOL = 1e-300


class SecantStall(RuntimeError):
    """Secant update rejected: successive residuals are numerically equal."""


class SecantFailed(RuntimeError):
    """Energy correction gave up before reaching a non-increasing energy."""

    def __init__(self, message: str, sigma: float, iterations: int):
        self.sigma = float(sigma)
        self.iterations = int(iterations)
        super().__init__(message)


@dataclass(frozen=True)
class SecantConfig:
    """Secant-search controls for the energy-decrease correction.

    ``sigma0 = None`` seeds the first trial shift at ``-tau**2`` for the
    time step in force at that iteration.  With ``reset_each_iteration``
    False, the final shift pair of one outer iteration seeds the next.
    """

    sigma0: float | None = None
    sigma1: float = 0.0
    max_iters: int = 50
    residual_tol: float = 1e-10
    reset_each_iteration: bool = True

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.residual_tol <= 0.0:
            raise ValueError("residual_tol must be positive")


@dataclass(frozen=True)
class SchemeConfig:
    """Full description of one partition run (grid and initial data aside)."""

    k: int
    variant: str = "four_step"
    tau: float | tuple[float, ...] = 0.1
    bc: str = "periodic"
    mask: DomainMask | None = None
    n_max: int = 2000
    secant: SecantConfig = field(default_factory=SecantConfig)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.variant not in VARIANTS:
            raise ValueError(
                f"unknown variant {self.variant!r}; expected one of {VARIANTS}"
            )
        if self.bc not in BOUNDARY_CONDITIONS:
            raise ValueError(f"unknown boundary condition {self.bc!r}")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        taus = self.tau if isinstance(self.tau, (tuple, list)) else (self.tau,)
        if len(taus) == 0 or any(not float(t) > 0.0 for t in taus):
            raise ValueError("tau values must be positive")
        if self.mask is not None and self.bc != "dirichlet":
            raise ValueError(
                "a mask requires bc='dirichlet': the masked energy extends by "
                "zero past the box edge, which is wrong on the periodic torus"
            )
        if isinstance(self.tau, list):
            object.__setattr__(self, "tau", tuple(float(t) for t in self.tau))

    @property
    def energy_decreasing(self) -> bool:
        return self.variant.endswith("_ed")

    def tau_at(self, iteration: int) -> float:
        """Time step for a given iteration: warm-up entries, then steady."""
        if isinstance(self.tau, tuple):
            if iteration < len(self.tau) - 1:
                return float(self.tau[iteration])
            return float(self.tau[-1])
        return float(self.tau)


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


def _resolve_tau(cfg: SchemeConfig, tau: float | None) -> float:
    return cfg.tau_at(0) if tau is None else float(tau)


def step_four(
    s: PartitionState,
    cfg: SchemeConfig,
    tau: float | None = None,
    coef: np.ndarray | None = None,
) -> PartitionState:
    """One four-step iteration: diffuse, clamp, ratio-project, normalize.

    ``coef``, if given, is the spectral forward transform of ``s.values``
    (computed for its energy); the diffusion reuses it instead of
    transforming again.  The three-step iterations take it the same way.
    """
    tau = _resolve_tau(cfg, tau)
    v = diffuse_stack(s.values, s.grid, tau, cfg.bc, cfg.mask, coef)
    v = positivity_step(v)
    v = ortho_step_ratio(v)
    return s.with_values(norm_step(v, s.grid))


def step_three_linear(
    s: PartitionState,
    cfg: SchemeConfig,
    tau: float | None = None,
    coef: np.ndarray | None = None,
) -> PartitionState:
    """One three-step iteration with the combined gap projection."""
    tau = _resolve_tau(cfg, tau)
    v = diffuse_stack(s.values, s.grid, tau, cfg.bc, cfg.mask, coef)
    v = ortho_pos_step_linear(v)
    return s.with_values(norm_step(v, s.grid))


def step_three_geometric(
    s: PartitionState,
    cfg: SchemeConfig,
    tau: float | None = None,
    coef: np.ndarray | None = None,
) -> PartitionState:
    """One three-step iteration with the combined geometric-mean projection."""
    tau = _resolve_tau(cfg, tau)
    v = diffuse_stack(s.values, s.grid, tau, cfg.bc, cfg.mask, coef)
    v = ortho_pos_step_geometric(v)
    return s.with_values(norm_step(v, s.grid))


_STEP_FUNCTIONS = {
    "four_step": step_four,
    "three_step_linear": step_three_linear,
    "three_step_geometric": step_three_geometric,
    "three_step_linear_ed": step_three_linear,
    "three_step_geometric_ed": step_three_geometric,
}


# ---------------------------------------------------------------------------
# energy-decrease correction


def _evaluate(state: PartitionState, cfg: SchemeConfig) -> tuple[float, np.ndarray | None]:
    """Energy of an iterate, and the forward transform its next diffusion reuses.

    Without a mask the spectral energy and the heat semigroup work on the
    same coefficients, so each iterate is transformed once; the masked
    energy is a finite-difference one and leaves nothing to share.
    """
    if cfg.mask is not None:
        return dirichlet_energy(state, cfg.bc, cfg.mask), None
    coef = spectral_operator(cfg.bc, state.grid.dim, state.grid.n).forward(state.values)
    return dirichlet_energy(state, cfg.bc, coef=coef), coef


def _residual(
    e_trial: float, e_prev: float, trial: PartitionState, previous: PartitionState, tau: float
) -> float:
    """``residual_F`` from energies the caller already has."""
    moved = weighted_norms(trial.values - previous.values, trial.grid)
    return float(e_trial - e_prev + np.sum(moved * moved) / tau)


def residual_F(
    candidate: PartitionState,
    previous: PartitionState,
    tau: float,
    bc: str = "periodic",
    mask: DomainMask | None = None,
) -> float:
    """Monotonicity residual: E(candidate) - E(previous) + movement penalty.

    Nonpositive values certify that accepting the candidate cannot raise the
    energy; the penalty term is ``(1/tau) * sum_i ||u_i^cand - u_i^prev||^2``.
    """
    e_cand = dirichlet_energy(candidate, bc, mask)
    e_prev = dirichlet_energy(previous, bc, mask)
    return _residual(e_cand, e_prev, candidate, previous, tau)


def secant_update(sigma_s: float, sigma_prev: float, F_s: float, F_prev: float) -> float:
    """One secant iteration for the root of F(sigma)."""
    dF = F_s - F_prev
    if abs(dF) <= SECANT_STALL_TOL:
        raise SecantStall(
            f"secant stalled: |F_s - F_prev| = {abs(dF):.3e} with sigma_s = {sigma_s}"
        )
    return sigma_s - F_s * (sigma_s - sigma_prev) / dF


def apply_sigma(state: PartitionState, sigma: float) -> PartitionState:
    """Shift every part by sigma on its support, cut what drops to <= 0, renormalize.

    A node keeps ``value + sigma`` only while both the original value and the
    shifted one are positive; otherwise it is zeroed, so supports can only
    shrink and disjointness survives exactly.
    """
    sigma = float(sigma)
    if sigma == 0.0:
        return state
    v = state.values
    keep = (v > 0.0) & (v + sigma > 0.0)
    shifted = np.where(keep, v + sigma, 0.0)
    return state.with_values(norm_step(shifted, state.grid))


def energy_decrease_wrap(
    candidate: PartitionState,
    previous: PartitionState,
    cfg: SchemeConfig,
    tau: float | None = None,
    seed_pair: tuple[float, float] | None = None,
    e_prev: float | None = None,
) -> tuple[PartitionState, float | None, int, float, np.ndarray | None]:
    """Correct a fresh iterate until its energy does not exceed the previous one.

    The shift sigma is the single unknown of the scalar residual
    ``F(sigma) = residual_F(apply_sigma(candidate, sigma), previous)``, and
    every secant trial shifts the original candidate, so the search works on
    one fixed function of sigma.  ``e_prev`` is the previous iterate's energy
    when the caller already has it.

    Returns ``(state, sigma, secant_iterations, energy, coef)`` where sigma
    is the last accepted support shift (None if no correction was needed),
    energy is the returned state's energy, and coef its forward transform
    for the next diffusion (None with a mask).  Raises SecantFailed when the
    search exhausts ``cfg.secant.max_iters``, stalls, degenerates a part, or
    its residual converges with the energy still above the bar; the caller
    decides the fallback.
    """
    tau = _resolve_tau(cfg, tau)
    if e_prev is None:
        e_prev = dirichlet_energy(previous, cfg.bc, cfg.mask)
    e_cand, coef_cand = _evaluate(candidate, cfg)
    if e_cand <= e_prev:
        return candidate, None, 0, e_cand, coef_cand

    sec = cfg.secant
    if seed_pair is not None:
        sig_a, sig_b = seed_pair
    else:
        sig_a = -tau * tau if sec.sigma0 is None else float(sec.sigma0)
        sig_b = float(sec.sigma1)

    def f_at(sigma: float) -> tuple[PartitionState, float, np.ndarray | None, float]:
        trial = apply_sigma(candidate, sigma)
        e, coef = (e_cand, coef_cand) if trial is candidate else _evaluate(trial, cfg)
        return trial, e, coef, _residual(e, e_prev, trial, previous, tau)

    def give_up(reason: str, sigma: float, iters: int) -> SecantFailed:
        return SecantFailed(
            f"energy correction {reason} after {iters} secant iterations "
            f"(last sigma {sigma:.6e})",
            sigma=sigma,
            iterations=iters,
        )

    try:
        f_a = f_at(sig_a)[3]
        current, e_cur, coef, f_b = f_at(sig_b)
    except DegeneratePart:
        raise give_up("left the feasible shift range", sig_b, 0) from None

    iters = 0
    while e_cur > e_prev:
        if iters >= sec.max_iters:
            raise give_up("exhausted the iteration budget", sig_b, iters)
        try:
            sig_next = secant_update(sig_b, sig_a, f_b, f_a)
        except SecantStall as err:
            raise give_up(f"stalled ({err})", sig_b, iters) from err
        try:
            current, e_cur, coef, f_next = f_at(sig_next)
        except DegeneratePart:
            raise give_up("left the feasible shift range", sig_next, iters) from None
        sig_a, f_a = sig_b, f_b
        sig_b, f_b = sig_next, f_next
        iters += 1
        if e_cur > e_prev and abs(f_b) <= sec.residual_tol * max(1.0, abs(e_prev)):
            raise give_up(
                f"converged its residual ({f_b:.3e}) with the energy still high",
                sig_b,
                iters,
            )
    return current, sig_b, iters, e_cur, coef


def stopping_check(s_n: PartitionState, s_np1: PartitionState) -> bool:
    """True when the lowest-index argmax label maps of two states coincide."""
    return bool(np.array_equal(label_map(s_n), label_map(s_np1)))


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
        min_value=float(state.values.min()),
        sigma=sigma,
        secant_iters=secant_iters,
        stopped=stopped,
    )


def run(
    cfg: SchemeConfig,
    init: PartitionState,
    on_iteration: OnIteration | None = None,
) -> tuple[PartitionState, EnergyTrace]:
    """Iterate a splitting scheme from an initial partition until it stops.

    The loop ends when consecutive label maps agree or after ``cfg.n_max``
    iterations.  The trace gets one row for the initial state and one per
    iteration.  For energy-decreasing variants a failed correction freezes
    the iterate at the previous state (recorded in the trace via the label
    check firing) rather than accepting an energy increase.
    """
    if init.k != cfg.k:
        raise ValueError(f"config expects k={cfg.k}, initial state has k={init.k}")
    if cfg.mask is not None and cfg.mask.grid != init.grid:
        raise ValueError("mask grid does not match initial state grid")

    step = _STEP_FUNCTIONS[cfg.variant]
    trace: EnergyTrace = []
    state = init
    # each iterate's energy, and its forward transform that the next
    # diffusion reuses, are computed once and carried to the next iteration
    energy, coef = _evaluate(state, cfg)
    row = _trace_row(state, 0, energy, None, 0, False)
    trace.append(row)
    if on_iteration is not None:
        on_iteration(state, row)

    seed_pair: tuple[float, float] | None = None
    for n in range(cfg.n_max):
        tau = cfg.tau_at(n)
        previous = state
        try:
            candidate = step(previous, cfg, tau, coef)
            if cfg.energy_decreasing:
                try:
                    state, sigma, secant_iters, energy, coef = energy_decrease_wrap(
                        candidate, previous, cfg, tau, seed_pair, trace[-1].energy
                    )
                    if not cfg.secant.reset_each_iteration and sigma is not None:
                        seed_pair = (sigma, 0.0)
                except SecantFailed as err:
                    # freeze: keep the previous iterate (and its energy and
                    # coefficients), never raise the energy
                    state, sigma, secant_iters = previous, err.sigma, err.iterations
            else:
                state, sigma, secant_iters = candidate, None, 0
                energy, coef = _evaluate(state, cfg)
        except DegeneratePart as err:
            err.iteration = n + 1
            raise
        stopped = stopping_check(previous, state)
        row = _trace_row(state, n + 1, energy, sigma, secant_iters, stopped)
        trace.append(row)
        if on_iteration is not None:
            on_iteration(state, row)
        if stopped:
            break
    return state, trace
