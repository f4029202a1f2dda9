"""The discrete Laplacian on the box [-pi, pi]^d: heat step and gradient energy.

Periodic grids expand in the trigonometric basis: the coefficients are a
state's ``spectrum`` (``np.fft.rfftn``), which its energy and its next heat
step read.  Dirichlet grids expand the interior nodes (index 1..n-1 per
axis) in the sine basis ``sin(j*(x+pi)/2)`` through the type-1 DST, whose
matrix is S = 2 sin(pi j l / n); the index-0 boundary planes are zero.
Transforms run over the trailing ``dim`` axes of a (k, ...) stack.

``diffuse_stack`` applies the exact heat semigroup to a state through the
modes ``SpectralOperator.modes`` keeps; the rest cannot move any value.  The
Dirichlet heat step is ``SpectralOperator.heat``, one loop over the parts: a
step of every mode is the heat kernel S diag(e^{-tau lambda}) S / 2n along
each axis, in node space.  The
Dirichlet energy is 0.5 h^d times the sum over the axes of ||G u||^2 along
the axis, G = diag(sqrt(lambda)) S / sqrt(2n), and on a mask forward
differences.  Products skip exact zeros: each part goes from the box of its
nonzero nodes (``PartitionState.boxes``).  A masked heat step computes only
the mask's box and returns the mask's nodes of it.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache

import numpy as np

from .grid import (
    DomainMask,
    GridSpec,
    PartitionState,
    check_domain,
    check_mask,
    check_support,
    check_tau,
)

# Caps the wavenumbers |m| <= M a periodic heat step keeps for products: a
# count above min(n/4, PERIODIC_MAX_MODES) keeps every mode through irfftn,
# whose cost, unlike the products', does not grow with M (README.md gives
# the timings).
PERIODIC_MAX_MODES = 32


def _axis_sum(per_axis: list[np.ndarray]) -> np.ndarray:
    grids = np.meshgrid(*per_axis, indexing="ij")
    return sum(grids)


def _wavenumber_rows(n: int, modes: int) -> np.ndarray:
    """Indices of the wavenumbers |m| <= modes along a full FFT axis of n."""
    return np.r_[0 : modes + 1, n - modes : n]


def _left_products(arr: np.ndarray, mats, axes, buffers) -> np.ndarray:
    """Each of ``mats`` applied along its axis of ``axes`` (all before the last) in turn.

    Each product left-multiplies a (..., m, rest) view, so no axis is moved
    or copied; a (p, m) matrix turns the axis's length m into p.  The
    results alternate between the leading memory of ``buffers``, which must
    hold every result; the first must not share memory with ``arr``.
    Returns the last result.
    """
    for mat, ax, buf in zip(mats, axes, itertools.cycle(buffers)):
        m, rest = arr.shape[ax], math.prod(arr.shape[ax + 1 :])
        shape = arr.shape[:ax] + (len(mat),) + arr.shape[ax + 1 :]
        out = buf.reshape(-1)[: math.prod(shape)].reshape(shape)
        np.matmul(mat, arr.reshape(-1, m, rest), out=out.reshape(-1, len(mat), rest))
        arr = out
    return arr


def _interior(box: tuple[slice, ...] | None) -> tuple[slice, ...] | None:
    """A box of nodes as slices of interior nodes (l for node l + 1), None if it has none."""
    box = box and tuple(slice(max(s.start - 1, 0), s.stop - 1) for s in box)
    return None if not box or any(s.stop == 0 for s in box) else box


def _box_products(part: np.ndarray, box, last: np.ndarray, leads, out, spare) -> np.ndarray:
    """One part's interior values on an ``_interior`` box times ``last`` (rows by node)
    along the last axis, then ``leads[ax]`` (columns by node) along each leading axis
    ax, backwards, into ``out`` (through ``spare`` in 3D)."""
    leading = range(-2, -part.ndim - 1, -1)
    return _left_products(np.matmul(part[box], last[box[-1]]),
                          [leads[ax][:, box[ax]] for ax in leading], leading,
                          (out, spare) if part.ndim == 2 else (spare, out))


class SpectralOperator:
    """Heat steps, heat decay and energy for one (bc, dim, n).

    Obtain instances through ``spectral_operator``, which caches them and their
    tables.  A Dirichlet heat step is ``heat``, from node values; a periodic
    one is ``inverse`` of a block of a state's read-only ``spectrum``.

    A heat step keeps ``modes(tau)`` modes per axis: sine modes 1..J, or
    wavenumbers |m| <= M.  Mode j is kept iff its one-axis multiplier
    exp(-tau * lambda_j) reaches the floor 2**-53 / (2**dim * N), N the
    nodes a part transforms ((n-1)**dim Dirichlet, n**dim periodic).  A
    dropped mode's multiplier is below the floor, since its other axes'
    factors are at most 1.  A coefficient is at most 2**dim * N * max|u|
    (Dirichlet; N * max|u| periodic), the inverse weighs each mode by at
    most n**-dim (1/N), and at most N modes are dropped, so the dropped part
    of every diffused value is below 2**-53 * max|u|: under the FFT's own
    rounding.
    """

    def __init__(self, bc: str, dim: int, n: int):
        check_domain(bc)
        self.bc, self.dim = bc, dim
        self.shape = GridSpec(dim, n).shape
        self.axes = tuple(range(-dim, 0))
        if bc == "periodic":
            m_full = np.fft.fftfreq(n, d=1.0 / n)
            m_half = np.fft.rfftfreq(n, d=1.0 / n)
            self.eigenvalues = _axis_sum([m_full**2] * (dim - 1) + [m_half**2])
            self._axis_eigenvalues = m_half[1:] ** 2
            self._nodes = n**dim
            # Hermitian symmetry: every last-axis mode except 0 and n/2 stands
            # for itself and its conjugate partner, which rfftn does not store
            weight = np.full(n // 2 + 1, 2.0)
            weight[[0, -1]] = 1.0
            scale = 0.5 * (2.0 * np.pi) ** dim / float(n**dim) ** 2
            self._energy_weights = scale * weight * self.eigenvalues
            self._energy_weights.setflags(write=False)
        else:
            j = np.arange(1, n)
            self._axis_eigenvalues = (j / 2.0) ** 2
            self.eigenvalues = _axis_sum([self._axis_eigenvalues] * dim)
            self._nodes = (n - 1) ** dim
        self.eigenvalues.setflags(write=False)

    @lru_cache(maxsize=32)
    def modes(self, tau: float) -> int:
        """Modes per axis a heat step at ``tau`` keeps (see the class docstring).

        Periodic counts above n/4 or ``PERIODIC_MAX_MODES``, which products
        would not run faster than ``irfftn``, become every mode, n/2.  Sine
        mode 1 is always kept.
        """
        n = self.shape[0]
        floor = 2.0**-53 / (2**self.dim * self._nodes)
        kept = int(np.count_nonzero(np.exp(-tau * self._axis_eigenvalues) >= floor))
        if self.bc == "periodic":
            return kept if kept <= min(n // 4, PERIODIC_MAX_MODES) else n // 2
        return max(kept, 1)

    def block(self, modes: int) -> tuple:
        """Index of the coefficients of ``modes`` modes per axis in a full array."""
        if self.bc == "dirichlet":
            return (...,) + (slice(None, modes),) * self.dim
        if modes == self.shape[0] // 2:
            return (...,)
        rows = _wavenumber_rows(self.shape[0], modes)
        return (...,) + np.ix_(*[rows] * (self.dim - 1)) + (slice(None, modes + 1),)

    @lru_cache(maxsize=16)
    def _sine_tables(self, modes: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only first ``modes`` columns of the DST-I matrix, and their transpose."""
        n = self.shape[0]
        j = np.arange(1, n)
        # reducing j*l modulo the period 2n keeps the sine's argument below
        # 2*pi: the full matrix squared then misses 2n*I by 9e-16, not 6e-15,
        # at n=96
        cols = 2.0 * np.sin(np.pi * (np.outer(j, j[:modes]) % (2 * n)) / n)
        rows = np.ascontiguousarray(cols.T)
        cols.setflags(write=False)
        rows.setflags(write=False)
        return cols, rows

    @lru_cache(maxsize=32)
    def heat_kernel(self, tau: float) -> np.ndarray:
        """Read-only symmetric one-axis Dirichlet heat kernel S diag(e^{-tau lambda}) S / 2n."""
        s, n = self._sine_tables(self.shape[0] - 1)[0], self.shape[0]
        out = (s * np.exp(-tau * self._axis_eigenvalues)) @ s
        out = (out + out.T) / (4 * n)  # symmetric bit for bit, not just to rounding
        out.setflags(write=False)
        return out

    @cached_property
    def gradient_factor(self) -> np.ndarray:
        """Read-only Dirichlet G = diag(sqrt(lambda_j)) S / sqrt(2n), column l for node l + 1:
        S / sqrt(2n) is orthogonal, so an axis's share of the energy is G's alone."""
        s, n = self._sine_tables(self.shape[0] - 1)[0], self.shape[0]
        out = np.sqrt(self._axis_eigenvalues)[:, None] * s / math.sqrt(2 * n)
        out.setflags(write=False)
        return out

    @lru_cache(maxsize=16)
    def _inverse_tables(self, modes: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only matrices of an inverse from ``modes`` modes per axis.

        The first goes along the leading axes, the second along the last.
        Dirichlet: the sine tables divided by 2n.  Periodic: the complex
        (n, 2M+1) matrix exp(2 pi i l m / n) / n over the kept rows, and a
        real (2M+2, n) one that sums the half axis' interleaved real and
        imaginary parts into w_m (cos, -sin)(2 pi m l / n) / n, with weight w
        1 for m = 0 and 2 for the conjugate pairs.
        """
        n = self.shape[0]
        if self.bc == "dirichlet":
            tables = tuple(t / (2 * n) for t in self._sine_tables(modes))
        else:
            nodes = np.arange(n)
            full = np.exp(2j * np.pi * (np.outer(nodes, _wavenumber_rows(n, modes)) % n) / n) / n
            angle = 2.0 * np.pi * (np.outer(np.arange(modes + 1), nodes) % n) / n
            weight = np.full((modes + 1, 1), 2.0 / n)
            weight[0] = 1.0 / n
            half = np.empty((2 * modes + 2, n))
            half[0::2] = weight * np.cos(angle)
            half[1::2] = -weight * np.sin(angle)
            tables = (full, half)
        for t in tables:
            t.setflags(write=False)
        return tables

    def heat(self, values: np.ndarray, tau: float, boxes,
             mask: DomainMask | None = None) -> np.ndarray:
        """The Dirichlet heat step of a (k, ...) stack, one part at a time.

        Each part goes from its box in ``boxes`` (a state's ``boxes``) along
        the route ``modes(tau)`` picks: every mode is ``heat_kernel(tau)``
        along each axis; J < n - 1 kept modes are the J sine columns down, the
        decay, and ``_inverse_tables(J)`` back up.  Only the interior nodes of
        the grid, or of the mask's box, are computed, from their tables' rows.
        The output is the (k, ...) stack, +0.0 on the index-0 planes, or with
        a mask the (k, M) stack at ``mask.nodes``, +0.0 at the inside nodes on
        an index-0 plane.
        """
        n, dim, modes = self.shape[0], self.dim, self.modes(tau)
        interior = values[(...,) + (slice(1, None),) * dim]
        if modes == n - 1:
            kernel = self.heat_kernel(tau)
        else:
            (cols, sines), (leading, last) = self._sine_tables(modes), self._inverse_tables(modes)
            decay = self.decay(tau)[self.block(modes)]
        # the nodes the output holds: the grid's, or the mask's box; the
        # products write their interior (inner), from the table rows of those nodes
        box = (slice(0, n),) * dim if mask is None else mask.box
        inner = tuple(slice(int(s.start == 0), None) for s in box)
        rows = tuple(slice(max(s.start, 1) - 1, s.stop - 1) for s in box)
        if mask is None:
            out = np.empty(values.shape)
            for ax in range(1, dim + 1):
                np.moveaxis(out, ax, 0)[0] = 0.0
        else:
            out = np.empty(values.shape[:-dim] + mask.nodes.shape)
            # one box-sized buffer, whose index-0 planes stay +0.0
            written, taken = np.zeros(tuple(s.stop - s.start for s in box)), mask.indicator[box]
        # the products' two work buffers, each a part's interior or more
        work = [np.empty((n - 1) ** (dim - 1) * modes) for _ in range(2)]
        for idx, nonzero in zip(np.ndindex(values.shape[:-dim]), boxes):
            dest, nonzero = (out[idx] if mask is None else written)[inner], _interior(nonzero)
            if nonzero is None:
                dest[...] = 0.0
            elif modes == n - 1:
                dest[...] = _box_products(interior[idx], nonzero, kernel[:, rows[-1]],
                                          [kernel[r] for r in rows], *work)
            else:
                coef = _box_products(interior[idx], nonzero, cols, (sines,) * dim, *work)
                coef *= decay
                # the leading axes first, so that the last product, along the
                # last axis, writes straight into dest
                np.matmul(_left_products(coef, [leading[r] for r in rows[:-1]],
                                         range(-dim, -1), work[::-1]),
                          last[:, rows[-1]], out=dest)
            if mask is not None:
                out[idx] = written[taken]
        return out

    def inverse(self, coef: np.ndarray, decay: np.ndarray | float) -> np.ndarray:
        """Periodic nodal values of full or ``block``-kept coefficients times ``decay``.

        Every mode goes through ``irfftn`` of one fresh product.  ``coef`` is
        only read: the products write ``coef * decay`` into the buffer that
        their first left product does not write (the output's memory in 2D,
        their work buffer in 3D).
        """
        lead, kept = coef.shape[: -self.dim], coef.shape[-1]
        if kept == self.shape[0] // 2 + 1:
            return np.fft.irfftn(coef * decay, s=self.shape, axes=self.axes)
        leading, last = self._inverse_tables(kept - 1)
        out = np.empty(lead + self.shape)
        # the leading axes first, so that the last product, along the last
        # axis, writes straight into the output; the left products alternate
        # between the output's memory (M <= n/4 leaves room) and one work
        # buffer, ending in the buffer
        spare = np.empty(lead + self.shape[:-1] + (kept,), coef.dtype)
        room = out.reshape(-1).view(coef.dtype)
        buffers = (spare, room) if self.dim == 2 else (room, spare)
        # where the first left product does not write
        coef = np.multiply(coef, decay, out=buffers[-1].reshape(-1)[: coef.size]
                           .reshape(coef.shape))
        partial = _left_products(coef, [leading] * (self.dim - 1), range(-self.dim, -1), buffers)
        # the complex partial's interleaved real and imaginary parts meet the
        # real table's rows
        np.matmul(partial.view(np.float64), last, out=out)
        return out

    @lru_cache(maxsize=32)
    def decay(self, tau: float) -> np.ndarray:
        """Heat semigroup multipliers exp(-tau * eigenvalue) (read-only)."""
        out = np.exp(-tau * self.eigenvalues)
        out.setflags(write=False)
        return out

    def energy(self, coef: np.ndarray) -> float:
        """Total gradient energy 0.5 * sum ||grad u||^2 of periodic forward coefficients."""
        return float(np.sum(self._energy_weights * (coef.real**2 + coef.imag**2)))


@lru_cache(maxsize=16)
def spectral_operator(bc: str, dim: int, n: int) -> SpectralOperator:
    """The cached spectral operator of a boundary condition and grid size."""
    return SpectralOperator(bc, dim, n)


# ---------------------------------------------------------------------------
# heat step


def diffuse_stack(state: PartitionState, tau: float, bc: str,
                  mask: DomainMask | None = None) -> np.ndarray:
    """Semigroup applied to the parts of a state, in a fresh (k, ...) array,
    or with a mask a fresh (k, M) array at ``mask.nodes``.

    It reads the state's ``spectrum`` on periodic grids (``SpectralOperator.inverse``)
    and its ``boxes`` on Dirichlet grids (``SpectralOperator.heat``), and both
    stay cached on the state it is given (a spectrum until
    ``PartitionState.release_spectrum``).  With ``bc="dirichlet"``, which a
    mask requires, the parts must vanish on the stored boundary planes
    (index 0 along every axis); the opposite faces are implicit
    zero-Dirichlet images.  With a mask only the mask's box is computed: the
    output is the box's heat step at the mask's nodes, which restricts the
    step to the mask, and +0.0 at those on an index-0 plane.  Ringing's tiny
    negative values are kept; the projections discard them.
    """
    tau, grid = check_tau(tau), state.grid
    check_domain(bc, mask)
    check_mask(mask, grid)
    check_support(state, bc)
    op = spectral_operator(bc, grid.dim, grid.n)
    if bc == "dirichlet":
        return op.heat(state.values, tau, state.boxes, mask)
    block = op.block(op.modes(tau))
    return op.inverse(state.spectrum[block], op.decay(tau)[block])


# ---------------------------------------------------------------------------
# energy


def _square_sum(a: np.ndarray) -> float:
    """The sum of ``a``'s squares, squared in place: numpy's pairwise sum, where BLAS's
    dot would vary with its thread count."""
    return float(np.sum(np.multiply(a, a, out=a)))


def _energy_masked(values: np.ndarray, grid: GridSpec, boxes: tuple) -> float:
    # first-order forward differences with zero extension past node n-1, part
    # by part: a part's nonzero differences all lie in the box of its nonzero
    # nodes grown by one node toward index 0 (none is charged below node 0),
    # and past the box's far edge the zero extension is the part's own zeros.
    # One box-sized buffer holds each axis's differences in turn.
    total = 0.0
    for part, box in zip(values, boxes):
        if box is None:
            continue
        v = part[tuple(slice(max(s.start - 1, 0), s.stop) for s in box)]
        d = np.empty(v.shape)
        for ax in range(grid.dim):
            head = (slice(None),) * ax  # index tuples: cheaper than np.moveaxis views
            np.subtract(v[head + (slice(1, None),)], v[head + (slice(-1),)],
                        out=d[head + (slice(-1),)])
            # not np.negative, which in numpy 2.4.6 reads a 64-byte input
            # stride as contiguous when the output is strided
            np.subtract(0.0, v[head + (-1,)], out=d[head + (-1,)])
            total += _square_sum(d)
    return 0.5 * grid.spacing ** (grid.dim - 2) * total


def _energy_sine(values: np.ndarray, grid: GridSpec, boxes: tuple) -> float:
    # squares of one-axis products, not the stiffness form u^T G^T G u (rounds like n^2)
    factor = spectral_operator("dirichlet", grid.dim, grid.n).gradient_factor
    total = 0.0
    for part, box in zip(values[(...,) + (slice(1, None),) * grid.dim], map(_interior, boxes)):
        u = box and np.ascontiguousarray(part[box])  # the outer axes: one product each
        for ax, rows in enumerate(box or ()):
            before = math.prod(u.shape[:ax])
            total += _square_sum(np.matmul(u.reshape(before, -1), factor[:, rows].T)
                                 if ax == grid.dim - 1 else
                                 np.matmul(factor[:, rows], u.reshape(before, u.shape[ax], -1)))
    return 0.5 * grid.cell_volume * total


def dirichlet_energy(state: PartitionState, bc: str = "periodic",
                     mask: DomainMask | None = None) -> float:
    """Total gradient energy 0.5 * sum_i ||grad u_i||^2 of a partition.

    Spectral without a mask; forward differences with one.  The Dirichlet
    energies go part by part over ``state.boxes`` and read node values only;
    the periodic one reads ``state.spectrum``.
    """
    check_domain(bc, mask)
    check_mask(mask, state.grid)
    if mask is not None:
        return _energy_masked(state.values, state.grid, state.boxes)
    if bc == "dirichlet":
        return _energy_sine(state.values, state.grid, state.boxes)
    return spectral_operator(bc, state.grid.dim, state.grid.n).energy(state.spectrum)
