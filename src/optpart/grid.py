"""Uniform grids on the box [-pi, pi]^d, partition states, norms and label maps.

Nodes along each axis sit at ``x_i = -pi + i*h`` for ``i = 0..n-1`` with
spacing ``h = 2*pi/n``; the ``+pi`` face coincides with ``-pi`` under
periodic boundary conditions and is not stored.  All integrals use the
one-point (Riemann) quadrature ``h^d * sum``, so indicator functions have
exactly representable norms.  A mask's parts live on its node list
(``DomainMask.nodes``), and a state keeps what a step found over those nodes.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

BOUNDARY_CONDITIONS = ("periodic", "dirichlet")
DIMENSIONS = (2, 3)


def _check_integer(name: str, value) -> int:
    """``value`` as an ``int``; ValueError unless it is a Python or numpy integer (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _frozen_array(values, dtype=float) -> np.ndarray:
    """``values`` as a read-only array: frozen in place if it owns its memory,
    else copied, so that writes through a view's base array cannot reach it."""
    out = np.asarray(values, dtype=dtype)
    if not out.flags.owndata:
        out = out.copy()
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# configuration rules: one check each, which every entry point taking the
# setting calls (the dimension rule is GridSpec's own)


def check_k(k) -> int:
    """``k`` as an ``int``; ValueError unless it is an integer >= 2."""
    k = _check_integer("k", k)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return k


def check_tau(tau) -> float:
    """``tau`` as a ``float``; ValueError unless it is a real number (not a bool),
    positive and finite."""
    if isinstance(tau, bool) or not isinstance(tau, numbers.Real):
        raise ValueError(f"tau must be a real number, got {tau!r}")
    tau = float(tau)
    if not 0.0 < tau < np.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")
    return tau


def check_domain(bc: str, mask: DomainMask | None = None) -> None:
    """ValueError unless ``bc`` is in BOUNDARY_CONDITIONS and a mask comes with dirichlet."""
    if bc not in BOUNDARY_CONDITIONS:
        raise ValueError(f"unknown boundary condition {bc!r}")
    if mask is not None and bc != "dirichlet":
        raise ValueError(
            "a mask requires bc='dirichlet': the masked heat step and energy extend "
            "by zero past the box edge, which is wrong on the periodic torus"
        )


def check_mask(mask: DomainMask | None, grid: GridSpec) -> None:
    """ValueError unless ``mask`` is None or lies on ``grid``, the state's grid."""
    if mask is not None and mask.grid != grid:
        raise ValueError(f"mask grid {mask.grid} does not match state grid {grid}")


def check_support(state: PartitionState, bc: str, mask: DomainMask | None = None) -> None:
    """ValueError unless the state's parts vanish on the index-0 boundary planes
    of a Dirichlet grid and outside ``mask``."""
    values = state.values
    planes = (np.moveaxis(values, ax, 0)[0] for ax in range(1, values.ndim))
    if bc == "dirichlet" and any(plane.any() for plane in planes):
        raise ValueError("a dirichlet state must be zero on the index-0 boundary planes")
    # part by part: no stack-sized gather
    if mask is not None and any(part[~mask.indicator].any() for part in values):
        raise ValueError("a masked state must be zero outside the mask")


@dataclass(frozen=True)
class GridSpec:
    """Uniform tensor-product grid on [-pi, pi]^dim with n nodes per axis."""

    dim: int
    n: int

    def __post_init__(self):
        object.__setattr__(self, "dim", _check_integer("dim", self.dim))
        object.__setattr__(self, "n", _check_integer("n", self.n))
        if self.dim not in DIMENSIONS:
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"n must be even and >= 4, got {self.n}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.dim

    @property
    def spacing(self) -> float:
        return 2.0 * np.pi / self.n

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def num_nodes(self) -> int:
        return self.n**self.dim

    def axis(self) -> np.ndarray:
        """Node coordinates along one axis (identical for all axes)."""
        return -np.pi + self.spacing * np.arange(self.n)

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        """Full coordinate arrays, one per axis, 'ij' indexing."""
        return tuple(np.meshgrid(*[self.axis()] * self.dim, indexing="ij"))


@dataclass(frozen=True)
class PartitionState:
    """k scalar fields on a common grid, stacked along the leading axis."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        values = _frozen_array(self.values)
        if values.ndim != self.grid.dim + 1 or values.shape[1:] != self.grid.shape:
            raise ValueError(
                f"expected shape (k, {', '.join(map(str, self.grid.shape))}), "
                f"got {values.shape}"
            )
        check_k(values.shape[0])
        object.__setattr__(self, "values", values)

    @property
    def k(self) -> int:
        return self.values.shape[0]

    @property
    def nbytes(self) -> int:
        """The values' ``nbytes``: the size of one state."""
        return self.values.nbytes

    def with_values(self, values: np.ndarray, **found) -> "PartitionState":
        """A state of ``values`` on this grid, given the cached properties ``found``
        (``labels``, ``norms``, ``min_value``) that the caller computed with them."""
        state = PartitionState(self.grid, values)
        for value in found.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)  # shared, as the values are
        vars(state).update(found)
        return state

    @cached_property
    def boxes(self) -> tuple[tuple[slice, ...] | None, ...]:
        """Per part, the box of its nonzero nodes (``true_boxes``), or None if it has none.

        Found on first use and kept: a Dirichlet iterate's energy and its
        next heat step read the same boxes.
        """
        return tuple(true_boxes(self.values != 0.0, self.grid.dim))

    @cached_property
    def spectrum(self) -> np.ndarray:
        """The periodic forward transform of the values, ``np.fft.rfftn`` over the
        grid axes (read-only).

        Found on first use: a periodic iterate's energy and its next heat step
        read the same transform, so each iterate is transformed once.  It stays
        on the state until ``release_spectrum``, which ``run`` calls once that
        heat step has read it.
        """
        out = np.fft.rfftn(self.values, axes=tuple(range(-self.grid.dim, 0)))
        out.setflags(write=False)
        return out

    def release_spectrum(self) -> None:
        """Drop the cached ``spectrum``, if found: a state kept after its heat step
        holds its values, not a second state's worth of coefficients.  Read
        again, the spectrum is found again, bitwise the same."""
        vars(self).pop("spectrum", None)

    @cached_property
    def labels(self) -> np.ndarray:
        """``support_labels`` of the values: the label map of an iterate."""
        return _frozen_array(support_labels(self.values), None)

    @cached_property
    def norms(self) -> np.ndarray:
        """Per-part discrete L2 norms (``weighted_norms``), shape (k,)."""
        return _frozen_array(weighted_norms(self.values, self.grid))

    @cached_property
    def min_value(self) -> float:
        """The smallest value of any part at any node."""
        return float(self.values.min())


@dataclass(frozen=True)
class DomainMask:
    """Node indicator of a computational subdomain: True inside, False outside."""

    grid: GridSpec
    indicator: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.indicator)
        if raw.dtype != bool:
            ok = (raw == 0) | (raw == 1)
            if not ok.all():
                raise ValueError("mask values must be exactly 0 or 1")
        indicator = _frozen_array(raw, dtype=bool)
        if indicator.shape != self.grid.shape:
            raise ValueError(
                f"mask shape {indicator.shape} does not match grid {self.grid.shape}"
            )
        if not indicator[(slice(1, None),) * self.grid.dim].any():
            raise ValueError("mask holds no interior node: every iterate would be 0 on it")
        object.__setattr__(self, "indicator", indicator)

    @cached_property
    def box(self) -> tuple[slice, ...]:
        """Per-axis node slices from the first to the last inside node."""
        (box,) = true_boxes(self.indicator, self.grid.dim)
        return box

    @cached_property
    def nodes(self) -> np.ndarray:
        """Flat offsets of the inside nodes, ascending (read-only): a masked run
        moves a (k, M) stack of these nodes' values."""
        return _frozen_array(np.flatnonzero(self.indicator), dtype=np.intp)

    def scatter(self, parts: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``out`` (..., *grid.shape) set in place to ``parts`` (..., M) at ``nodes``
        and to 0 elsewhere.  A part at a time, zeroed and then set through the
        indicator, which is the nodes in order: faster than through ``nodes``."""
        rows = out.reshape(-1, self.grid.num_nodes)
        for row, part in zip(rows, parts.reshape(len(rows), -1)):
            row.fill(0)
            row[self.indicator.reshape(-1)] = part
        return out


# ---------------------------------------------------------------------------
# norms


def true_boxes(flags: np.ndarray, dim: int) -> list[tuple[slice, ...] | None]:
    """Per leading index of ``flags`` (in ``np.ndindex`` order), the box of
    per-axis slices from its first to its last True over the trailing ``dim``
    axes, or None if it has no True.  Axis by axis, the axes after it are
    reduced as one contiguous run, then it is folded away: no reduction
    strides over a short last axis."""
    shape = flags.shape[flags.ndim - dim :]
    rest, spans = flags.reshape((-1,) + shape), []
    for size in shape:
        rest = rest.reshape(len(rest), size, -1)
        hit = rest.any(axis=-1)
        stop = size - hit[:, ::-1].argmax(axis=1)
        spans.append(zip(hit.argmax(axis=1).tolist(), stop.tolist()))
        rest = rest.any(axis=1)
    # what is left after the last axis says whether the row has a True
    return [tuple(slice(*span) for span in box) if found else None
            for found, *box in zip(rest[:, 0].tolist(), *spans)]


def weighted_norms(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Discrete L2 norms of the parts of a (k, ...) stack on ``grid`` (every node,
    or a mask's), each part's squares summed through one part-sized temporary."""
    flat = values.reshape(len(values), -1)  # one run per part: the same sum, cheaper
    square = np.empty(flat.shape[1])
    sums = [np.add.reduce(np.multiply(part, part, out=square)) for part in flat]
    return np.sqrt(grid.cell_volume * np.array(sums))


def partition_norms(state: PartitionState) -> np.ndarray:
    """The state's ``norms``: the sums ``norm_step`` divides by, shape (k,)."""
    return state.norms


def top_two(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodewise largest value, runner-up and lowest-index winner over the leading axis.

    The runner-up is the second order statistic, ties counted, floored at 0:
    an empty competitor set counts as 0, as it does in every projection.
    One running pass over the k contiguous rows, instead of a sort along the
    strided leading axis; values must not be NaN.
    """
    top = np.array(values[0], dtype=float)
    second = np.zeros(top.shape)
    # the narrowest unsigned type that holds k - 1 keeps the winner updates cheap
    winner = np.zeros(top.shape, dtype=np.min_scalar_type(len(values) - 1))
    low, won = np.empty_like(top), np.empty_like(winner)
    for i in range(1, len(values)):
        row = values[i]
        np.maximum(second, np.minimum(top, row, out=low), out=second)
        # row i takes the node only if strictly larger; i exceeds every earlier winner
        np.maximum(winner, np.multiply(row > top, winner.dtype.type(i), out=won), out=winner)
        np.maximum(top, row, out=top)
    return top, second, winner.astype(np.intp)


def max_support_overlap(state: PartitionState) -> float:
    """Largest second-place |value| over all nodes: 0.0 iff supports are disjoint."""
    return float(top_two(np.abs(state.values))[1].max())


def label_map(state: PartitionState) -> np.ndarray:
    """Lowest-index argmax over parts at each node."""
    return top_two(state.values)[2]


def support_labels(values: np.ndarray) -> np.ndarray:
    """``label_map`` of a (k, ...) stack of nonnegative parts with pairwise disjoint
    supports, as every iterate is (each node's positive part, else 0), in the
    narrowest unsigned dtype."""
    labels = np.zeros(values.shape[1:], dtype=np.min_scalar_type(len(values) - 1))
    for i in range(1, len(values)):
        np.copyto(labels, i, where=values[i] > 0.0)
    return labels
