"""The benchmark's workloads: one partition solve each, run until the labels settle.

Plain data only, so the driver can read it without importing optpart.  Each
entry also names the scheme layers that must record calls when the workload
is traced; a layer on that list that stays silent is flagged, so a renamed
function shows up instead of reading as zero.
"""

from __future__ import annotations

# Instance seed whose solve is checked against reference.json in every run.
REFERENCE_SEED = 0

WORKLOADS = {
    # Correction-heavy: the periodic spectral energy (full complex FFT) is
    # evaluated several times per iteration by the secant search.
    "torus2d-ed": {
        "dim": 2,
        "n": 128,
        "k": 6,
        "tau": 0.25,
        "bc": "periodic",
        "mask": None,
        "variant": "three_step_geometric_ed",
        "busy": (
            "diffuse_stack",
            "ortho_pos_step_geometric",
            "norm_step",
            "dirichlet_energy",
            "partition_norms",
            "stopping_check",
            "energy_decrease_wrap",
            "apply_sigma",
        ),
    },
    # Same correction layer, but the energy is the masked finite-difference
    # one and diffusion is DST-based, so a spectral-energy change passes it by.
    "masked2d-ed": {
        "dim": 2,
        "n": 192,
        "k": 6,
        "tau": 0.05,
        "bc": "dirichlet",
        "mask": "star5",
        "variant": "three_step_linear_ed",
        "busy": (
            "diffuse_stack",
            "ortho_pos_step_linear",
            "norm_step",
            "dirichlet_energy",
            "partition_norms",
            "stopping_check",
            "energy_decrease_wrap",
        ),
    },
    # No correction at all: 3D DST diffusion, clamp plus ratio projection at
    # k=8, the largest init, ASCII VTK export and the largest memory footprint.
    "box3d": {
        "dim": 3,
        "n": 28,
        "k": 8,
        "tau": 0.2,
        "bc": "dirichlet",
        "mask": None,
        "variant": "four_step",
        "busy": (
            "diffuse_stack",
            "positivity_step",
            "ortho_step_ratio",
            "norm_step",
            "dirichlet_energy",
            "partition_norms",
            "stopping_check",
        ),
    },
}


def instance_seed(run_seed: int, index: int) -> int:
    """Voronoi seed of the index-th measured solve of a run."""
    return run_seed * 1000 + index + 1
