"""The discrete Laplacian on the box [-pi, pi]^d: heat step and gradient energy.

Periodic grids expand in the trigonometric basis through the real-to-complex
FFT (``np.fft.rfftn``): full wavenumbers on the leading axes, the
nonnegative half on the last one.  Dirichlet grids expand the interior nodes
(index 1..n-1 per axis) in the sine basis ``sin(j*(x+pi)/2)`` through the
type-1 DST; the index-0 boundary planes are zero.  Transforms run over the
trailing ``dim`` axes, so a (k, ...) stack of parts goes through one call.

``diffuse_stack`` applies the exact heat semigroup e^{tau * Laplacian}, and
``dirichlet_energy`` the gradient energy; both work on the same forward
coefficients, so an iterate transformed once for its energy can be diffused
without transforming it again.  The heat step goes through only the modes
that ``SpectralOperator.modes`` keeps: the rest are multiplied by less than
2**-53 / (2**dim * N) and cannot move any value.  A Dirichlet transform of
J <= ``SINE_MATRIX_MAX_N`` - 1 modes per axis runs as dense products with J
columns of the sine matrix: the full transforms of grids with n <= 96 (the
energy's, and the heat step's when tau keeps every mode, as on 28^3 at
tau = 0.2) and the heat step's on larger grids at the usual tau (192^2 at
tau = 0.05 keeps 62 modes); a full transform above n = 96 calls
``scipy.fft.dstn``.  A periodic heat step that keeps |m| <= M, with
M <= n/4 and M <= ``PERIODIC_MAX_MODES``, runs its inverse as complex
products on the full axes and one real product on the last (128^2 at
tau = 0.25 keeps M = 13); otherwise ``irfftn`` of every mode.  A heat step
allocates its output, one work buffer, and one coefficient array when it
transforms the values itself.  It never writes coefficients: the products
decay them into memory of their own, the full transforms into one fresh
array.  ``scheme.step`` projects and normalizes in the output: a 28^3, k=8
step and a 2D benchmark step peak at 1.9 stacks of traced memory.  Products
skip exact zeros: the Dirichlet product forward transforms each part from
the box of its nonzero nodes (every iterate's parts have disjoint supports),
and a masked heat step's inverse computes only the nodes in the mask's box.
Spectral ringing's tiny negative values are not snapped to zero: every
projection discards them.  The one non-spectral piece, the forward-difference
energy on a masked domain, also goes part by part over those boxes; a state
finds them once (``PartitionState.boxes``), and its next heat step's forward
transform reads them instead of scanning the stack again.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np
from scipy import fft as sp_fft

from .grid import (
    DomainMask,
    GridSpec,
    PartitionState,
    _trailing_axes,
    check_domain,
    check_mask,
    check_tau,
    true_boxes,
)

# Caps the sine modes per axis that go through dense products: a heat step
# that would keep more than SINE_MATRIX_MAX_N - 1 of them keeps every mode
# (``SpectralOperator.modes``), and only a full transform (J = n-1) with
# n > SINE_MATRIX_MAX_N calls scipy's DST; every other transform of J modes
# per axis is products with J columns of the DST-I matrix.  Full
# forward, matrix time over ``dstn`` time (median of 15 calls, one BLAS
# thread, 2-core VM): 2D k=6 0.26-0.37 at n=32,
# 0.49-0.62 at 88-92, 0.93-1.23 at 96, 1.45-2.08 at 128; 3D k=8 0.17-0.19 at
# n=16, 0.40-0.53 at 28, 0.55-0.75 at 96.  A heat step's J-column forward
# plus inverse over ``dstn`` plus ``idstn``, 2D, k=6, five runs:
#   n=128: 0.12-0.18 at J=31, 0.23-0.35 at J=62, 0.55-0.73 at J=95
#   n=192: 0.12-0.16 at J=31, 0.23-0.28 at J=62, 0.39-0.51 at J=95
#   n=512: 0.11-0.15 at J=31, 0.16-0.34 at J=62, 0.25-0.30 at J=95
# Fixed, not timed at run time, so that a configuration's output never varies.
SINE_MATRIX_MAX_N = 96

# Caps the wavenumbers |m| <= M a periodic heat step keeps for products: a
# count above min(n/4, PERIODIC_MAX_MODES) keeps every mode through irfftn.
# The products' cost grows with M, irfftn's does not.  Kept-mode inverse over
# ``irfftn`` of every mode, from given coefficients at the tau that keeps M
# (median of 5-11 calls, one BLAS thread, 2-core VM, three runs):
#   2D k=6: n=64 0.51-0.58 at M=16, 0.86-1.10 at 24, 1.30-2.78 at 31;
#           n=128 0.35-0.42 at M=32, 0.91-0.99 at 40;
#           n=256 0.18-0.19 at M=32, 0.90-0.93 at 64;
#           n=512 0.20-0.21 at M=32, 0.34-0.37 at 64
#   3D: n=32 k=8 0.48-0.52 at M=8, 0.60-0.86 at 12; n=48 k=4 0.47-0.69 at
#       M=12, 0.88-1.17 at 20; n=64 k=4 0.43-0.60 at M=16, 0.54-0.89 at 24
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


def _zero_outside(out: np.ndarray, box: tuple[slice, ...]) -> np.ndarray:
    """``out`` set to 0.0 outside ``box`` along its trailing axes, in place."""
    for ax, s in zip(range(-len(box), 0), box):
        np.moveaxis(out, ax, 0)[: s.start] = 0.0
        np.moveaxis(out, ax, 0)[s.stop :] = 0.0
    return out


class SpectralOperator:
    """Forward/inverse transforms, heat decay and energy for one (bc, dim, n).

    Obtain instances through ``spectral_operator``, which caches them, so
    its tables are built once per grid.  Coefficient arrays returned
    by ``forward`` are read-only: they may be shared between the energy of
    an iterate and its next diffusion.

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
            vol = (2.0 * np.pi) ** dim
            energy_scale = 0.5 * vol / float(n**dim) ** 2
        else:
            j = np.arange(1, n)
            self._axis_eigenvalues = (j / 2.0) ** 2
            self.eigenvalues = _axis_sum([self._axis_eigenvalues] * dim)
            self._nodes = (n - 1) ** dim
            weight = 1.0
            energy_scale = 0.5 * np.pi**dim / float(n**dim) ** 2
        self.eigenvalues.setflags(write=False)
        self._energy_weights = energy_scale * weight * self.eigenvalues
        self._energy_weights.setflags(write=False)

    @lru_cache(maxsize=32)
    def modes(self, tau: float) -> int:
        """Modes per axis a heat step at ``tau`` keeps (see the class docstring).

        Counts that products would not run faster than the full transforms
        become every mode: Dirichlet counts above ``SINE_MATRIX_MAX_N`` - 1
        become n-1, and periodic ones above n/4 or ``PERIODIC_MAX_MODES``
        become n/2.  Sine mode 1 is always kept.
        """
        n = self.shape[0]
        floor = 2.0**-53 / (2**self.dim * self._nodes)
        kept = int(np.count_nonzero(np.exp(-tau * self._axis_eigenvalues) >= floor))
        if self.bc == "periodic":
            return kept if kept <= min(n // 4, PERIODIC_MAX_MODES) else n // 2
        return max(kept, 1) if kept < SINE_MATRIX_MAX_N else n - 1

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

    def forward(
        self, values: np.ndarray, modes: int | None = None, boxes: tuple | None = None
    ) -> np.ndarray:
        """Coefficients of nodal values over the trailing grid axes (read-only).

        With ``modes``, only the block ``block(modes)`` of them; the
        Dirichlet products compute no other.  On Dirichlet grids the index-0
        boundary planes are not read, and the products (every transform
        but a full one above ``SINE_MATRIX_MAX_N``) go part by part, each from
        the box of its nonzero nodes: the nodes outside it add exact zeros.
        ``boxes``, if given, must be those boxes, ``true_boxes(values != 0.0,
        dim)`` (as a state's ``boxes``), read in place of that scan.
        """
        if self.bc == "periodic":
            coef = np.fft.rfftn(values, axes=self.axes)
            if modes is not None:
                coef = coef[self.block(modes)]
            coef.setflags(write=False)
            return coef
        n = self.shape[0]
        interior = values[(...,) + (slice(1, None),) * self.dim]
        modes = n - 1 if modes is None else modes
        if modes == n - 1 and n > SINE_MATRIX_MAX_N:
            coef = sp_fft.dstn(interior, type=1, axes=self.axes)
        else:
            cols, rows = self._sine_tables(modes)
            leading = range(-2, -self.dim - 1, -1)
            coef = np.empty(values.shape[: -self.dim] + (modes,) * self.dim)
            # 3D: the work buffer of the first left product
            spare = np.empty((n - 1) * modes**2) if self.dim == 3 else None
            if boxes is None:
                # the whole stack is scanned: its contiguous memory is faster to read
                boxes = true_boxes(values != 0.0, self.dim)
            for idx, box in zip(np.ndindex(coef.shape[: -self.dim]), boxes):
                out = coef[idx]
                # sine table row l stands for node l + 1; node 0 is not read
                box = box and tuple(slice(max(s.start - 1, 0), s.stop - 1) for s in box)
                if not box or any(s.stop == 0 for s in box):
                    out[...] = 0.0  # no nonzero interior node
                    continue
                # the last axis first; the left products alternate between
                # ``spare`` and this part's coefficients, ending in the
                # latter, so they write its whole block
                part = np.matmul(interior[idx][box], cols[box[-1]])
                _left_products(part, [rows[:, box[ax]] for ax in leading], leading,
                               (out, spare) if self.dim == 2 else (spare, out))
        coef.setflags(write=False)
        return coef

    def inverse(
        self, coef: np.ndarray, decay: np.ndarray | float, box: tuple[slice, ...] | None = None
    ) -> np.ndarray:
        """Nodal values of full or ``block``-kept coefficients times ``decay``;
        Dirichlet boundary planes are 0.

        With ``box``, per-axis node slices such as ``DomainMask.box``, the
        output is +0.0 outside the box, and the products compute only the
        nodes inside it, from the table rows of those nodes.  ``coef`` is only
        read: the products write ``coef * decay`` into the buffer that their
        first left product does not write (the output's memory in 2D, their
        work buffer in 3D), the full transforms into one fresh array.
        """
        n, kept = self.shape[0], coef.shape[-1]
        lead = coef.shape[: coef.ndim - self.dim]
        # a Dirichlet grid's node 0 is zero, and its tables' row l is node l + 1
        first = int(self.bc == "dirichlet")
        box = tuple(slice(max(s.start, first), s.stop) for s in box or (slice(0, n),) * self.dim)
        # every mode goes through irfftn, or above SINE_MATRIX_MAX_N through scipy's DST
        if self.bc == "periodic":
            transform = kept == n // 2 + 1
        else:
            transform = kept == n - 1 and n > SINE_MATRIX_MAX_N
        if transform:  # rebinding frees coefficients that no caller's name holds
            coef = coef * decay
        if transform and self.bc == "periodic":
            return _zero_outside(np.fft.irfftn(coef, s=self.shape, axes=self.axes), box)
        out = np.empty(lead + self.shape)
        dest = out[(...,) + box]
        rows = tuple(slice(s.start - first, s.stop - first) for s in box)
        if transform:
            dest[...] = sp_fft.idstn(coef, type=1, axes=self.axes, overwrite_x=True)[(...,) + rows]
            return _zero_outside(out, box)
        leading, last = self._inverse_tables(kept if self.bc == "dirichlet" else kept - 1)
        # the leading axes first, so that the last product, along the last
        # axis, writes straight into the output (its strided box); the left
        # products alternate between the output's memory (J <= n-1 and
        # M <= n/4 leave room) and one work buffer, ending in the buffer
        spare = np.empty(lead + (len(leading),) * (self.dim - 1) + (kept,), coef.dtype)
        room = out.reshape(-1).view(coef.dtype)
        buffers = (spare, room) if self.dim == 2 else (room, spare)
        # where the first left product does not write
        coef = np.multiply(coef, decay, out=buffers[-1].reshape(-1)[: coef.size]
                           .reshape(coef.shape))
        partial = _left_products(coef, [leading[r] for r in rows[:-1]], range(-self.dim, -1),
                                 buffers)
        _zero_outside(out, box)  # the left products are done with its memory
        # a complex partial's interleaved real and imaginary parts meet the
        # real table's rows
        np.matmul(partial.view(np.float64), last[:, rows[-1]], out=dest)
        return out

    @lru_cache(maxsize=32)
    def decay(self, tau: float) -> np.ndarray:
        """Heat semigroup multipliers exp(-tau * eigenvalue) (read-only)."""
        out = np.exp(-tau * self.eigenvalues)
        out.setflags(write=False)
        return out

    def energy(self, coef: np.ndarray) -> float:
        """Total gradient energy 0.5 * sum ||grad u||^2 of forward coefficients."""
        if self.bc == "periodic":
            return float(np.sum(self._energy_weights * (coef.real**2 + coef.imag**2)))
        flat = coef.reshape(-1, self._energy_weights.size)
        return float(np.einsum("j,kj,kj->", self._energy_weights.reshape(-1), flat, flat))


@lru_cache(maxsize=16)
def spectral_operator(bc: str, dim: int, n: int) -> SpectralOperator:
    """The cached spectral operator of a boundary condition and grid size."""
    return SpectralOperator(bc, dim, n)


# ---------------------------------------------------------------------------
# heat step


def _check_boundary_planes(values: np.ndarray, grid: GridSpec) -> None:
    if any(np.any(np.moveaxis(values, ax, 0)[0] != 0.0) for ax in _trailing_axes(values, grid)):
        raise ValueError("dirichlet semigroup requires zero values on the boundary planes")


def diffuse_stack(
    values: np.ndarray,
    grid: GridSpec,
    tau: float,
    bc: str,
    mask: DomainMask | None = None,
    coef: np.ndarray | None = None,
    boxes: tuple | None = None,
) -> np.ndarray:
    """Semigroup applied to a (k, ...) stack of parts, then mask restriction.

    Transforms run over the trailing grid axes so all parts go through one
    transform call, which carries only the modes ``SpectralOperator.modes``
    keeps at ``tau``.  With ``bc="dirichlet"``, which a mask requires, the
    parts must vanish on the stored boundary planes (index 0 along every
    axis); the opposite faces are implicit zero-Dirichlet images.
    ``coef``, if given, must be the spectral operator's forward transform of
    ``values`` (as computed for their energy), read in place of that transform.
    ``boxes``, if given, must be the per-part boxes of the nonzero nodes of
    ``values`` (as a state's ``boxes``, found for its masked energy), read in
    place of the forward transform's own scan.
    Ringing's tiny negative values are kept; the projections discard them.
    """
    tau = check_tau(tau)
    check_domain(bc, mask)
    check_mask(mask, grid)
    op = spectral_operator(bc, grid.dim, grid.n)
    if bc == "dirichlet":
        _check_boundary_planes(values, grid)
    modes = op.modes(tau)
    block = op.block(modes)
    # the inverse multiplies the decay into read-only coefficients; as no name
    # here holds them, a fresh product there frees the array it replaces
    out = op.inverse(op.forward(values, modes, boxes) if coef is None else coef[block],
                     op.decay(tau)[block], None if mask is None else mask.box)
    if mask is not None:
        # the output is +0.0 outside the mask's box; restrict inside it
        np.copyto(out[(...,) + mask.box], 0.0, where=mask.outside[mask.box])
    return out


# ---------------------------------------------------------------------------
# energy


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
            total += float(np.sum(np.multiply(d, d, out=d)))
    return 0.5 * grid.spacing ** (grid.dim - 2) * total


def dirichlet_energy(
    state: PartitionState,
    bc: str = "periodic",
    mask: DomainMask | None = None,
    coef: np.ndarray | None = None,
) -> float:
    """Total gradient energy 0.5 * sum_i ||grad u_i||^2 of a partition.

    Without a mask the gradient is spectral (trigonometric for periodic,
    sine-series for dirichlet).  With a mask, forward differences are used so
    that the jump across the domain boundary is charged to the energy; each
    part's are taken over the box of its nonzero nodes (``state.boxes``),
    grown by one node toward index 0, through one box-sized buffer.  A
    192^2, k=6 iterate's masked energy peaks at 0.13 stacks of traced memory,
    the nonzero flags its boxes are found from.

    ``coef``, if given, must be the spectral operator's forward transform of
    ``state.values``; it saves recomputing that transform.  It is ignored
    with a mask, which requires ``bc="dirichlet"``.
    """
    check_domain(bc, mask)
    check_mask(mask, state.grid)
    if mask is not None:
        return _energy_masked(state.values, state.grid, state.boxes)
    op = spectral_operator(bc, state.grid.dim, state.grid.n)
    return op.energy(op.forward(state.values) if coef is None else coef)
