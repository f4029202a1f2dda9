"""Constraint-preserving splitting solvers for optimal k-partitions.

The iterates minimize the total gradient energy of k fields on a box (or a
masked subdomain) while keeping every field nonnegative, of unit discrete L2
norm, and supported on pairwise disjoint node sets at every iteration.

The package exports what a caller of ``run`` needs; the building blocks
(``scheme.step``, ``scheme.PROJECTIONS``, ``spectral.diffuse_stack``, the
projections in ``projection``) live in their modules.
"""

from .grid import (
    DomainMask,
    GridSpec,
    PartitionState,
    label_map,
    max_support_overlap,
    partition_norms,
)
from .initial import InitFailed, make_mask, voronoi_init
from .projection import DegeneratePart
from .scheme import VARIANTS, EnergyTrace, SchemeConfig, TraceRow, run
from .spectral import dirichlet_energy

__version__ = "0.1.0"

__all__ = [
    "DegeneratePart",
    "DomainMask",
    "EnergyTrace",
    "GridSpec",
    "InitFailed",
    "PartitionState",
    "SchemeConfig",
    "TraceRow",
    "VARIANTS",
    "dirichlet_energy",
    "label_map",
    "make_mask",
    "max_support_overlap",
    "partition_norms",
    "run",
    "voronoi_init",
]
