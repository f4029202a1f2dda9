"""The public API: exactly the names callers use, and nothing that was removed."""

import ast
import dataclasses
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import optpart
import optpart.cli
import optpart.grid
import optpart.initial
import optpart.projection
import optpart.scheme
import optpart.spectral
from optpart import SchemeConfig

PUBLIC = [
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

REMOVED = {
    optpart: [
        "SecantConfig", "Field", "step_four", "step_three_linear", "step_three_geometric",
        "heat_semigroup_periodic", "heat_semigroup_dirichlet", "mask_restrict",
        "residual_F", "discrete_l2_norm",
    ],
    optpart.scheme: [
        "SecantConfig", "step_four", "step_three_linear", "step_three_geometric",
        "_STEP_FUNCTIONS", "_resolve_tau", "residual_F",
        # a periodic state keeps its own transform (PartitionState.spectrum)
        "_evaluate", "spectral_operator",
    ],
    optpart.spectral: [
        "heat_semigroup_periodic", "heat_semigroup_dirichlet", "mask_restrict",
        "_clamp_ringing", "RINGING_TOL", "_check_tau", "_check_mask", "_check_energy_domain",
        "_check_boundary_planes",  # grid.check_support
        # a step of every mode is the node-space kernel on any n; scipy is a test dependency
        "SINE_MATRIX_MAX_N", "sp_fft",
    ],
    optpart.cli: ["_spread_labels", "export_tiling"],
    # an iterate's label map is the one its step or shift wrote
    optpart.grid: ["Field", "discrete_l2_norm", "dirichlet_energy", "BoundaryCondition",
                   "_trailing_axes", "support_labels"],
    optpart.initial: ["MAX_SEED_ATTEMPTS", "_node_coordinates"],
    optpart.DomainMask: ["node_count"],  # mask.nodes.size
    # the Dirichlet heat step transforms each part itself
    optpart.spectral.SpectralOperator: ["forward"],
    optpart.projection: [
        "_flat", "_runner_up", "_scatter_winner", "_ranked_positive", "_pair_set",
        "_ortho_ratio_multipliers", "_coupled_multipliers", "_closure_positivity",
        "RATIO", "LINEAR", "GEOMETRIC", "recover_multipliers", "MultiplierDiagnostics",
        # the projections give each node's kept value; scheme._iterate writes the stack
        "_winner_rows",
    ],
}


def test_all_is_the_trimmed_list():
    assert sorted(optpart.__all__) == sorted(PUBLIC)
    for name in optpart.__all__:
        assert getattr(optpart, name) is not None


@pytest.mark.parametrize("module", list(REMOVED), ids=lambda m: m.__name__)
def test_removed_names_stay_gone(module):
    assert [name for name in REMOVED[module] if hasattr(module, name)] == []


def test_partition_state_has_no_single_field_accessors():
    for name in ("part", "parts", "from_fields"):
        assert not hasattr(optpart.PartitionState, name)


def test_full_mask_has_one_constructor():
    # make_mask(grid, "full") builds it; a classmethod duplicated that
    assert not hasattr(optpart.DomainMask, "full")


def test_scheme_config_fields():
    names = [f.name for f in dataclasses.fields(SchemeConfig)]
    assert names == ["k", "variant", "tau", "bc", "mask", "n_max"]


def test_stopping_check_only_compares_label_maps():
    # run stops a frozen iterate itself; the label check has no flag for it
    assert list(inspect.signature(optpart.scheme.stopping_check).parameters) == [
        "prev_labels", "state"]


def test_no_coefficients_pass_through_the_scheme():
    # the energy and the next heat step read the state's spectrum and boxes
    assert list(inspect.signature(optpart.scheme.step).parameters) == ["s", "cfg", "tau"]
    assert list(inspect.signature(optpart.dirichlet_energy).parameters) == [
        "state", "bc", "mask"]
    assert list(inspect.signature(optpart.spectral.diffuse_stack).parameters) == [
        "state", "tau", "bc", "mask"]
    # the Dirichlet heat step reads the state's boxes, the periodic inverse a
    # block of its spectrum
    operator = optpart.spectral.SpectralOperator
    assert list(inspect.signature(operator.heat).parameters) == [
        "self", "values", "tau", "boxes", "mask"]
    assert list(inspect.signature(operator.inverse).parameters) == ["self", "coef", "tau"]
    # the decay lives in the one-axis per-tau tables: no grid-sized table of it
    for bc in ("periodic", "dirichlet"):
        op = optpart.spectral.spectral_operator(bc, 2, 16)
        assert not any(hasattr(op, name) for name in ("decay", "eigenvalues", "_sine_tables"))


def test_every_plain_variant_has_a_projection():
    plain = {v.removesuffix("_ed") for v in optpart.VARIANTS}
    assert set(optpart.scheme.PROJECTIONS) == plain


def test_the_laplacian_lives_in_one_module():
    assert importlib.util.find_spec("optpart.diffusion") is None
    assert optpart.dirichlet_energy is optpart.spectral.dirichlet_energy
    # the schemes call both through their own namespace, where a tracer wraps them
    assert optpart.scheme.diffuse_stack is optpart.spectral.diffuse_stack
    assert optpart.scheme.dirichlet_energy is optpart.spectral.dirichlet_energy


def test_grid_imports_no_sibling_module():
    modules = set()
    for node in ast.walk(ast.parse(inspect.getsource(optpart.grid))):
        if isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    assert [m for m in modules if m.startswith((".", "optpart"))] == []


def test_the_package_runs_without_scipy():
    # scipy is a test dependency only: a fresh process runs Dirichlet steps of
    # every mode on n > 96, masked and unmasked, and never imports it
    code = """
import sys
import optpart.cli
from optpart import GridSpec, SchemeConfig, make_mask, run, voronoi_init
from optpart.spectral import spectral_operator
grid = GridSpec(2, 98)
assert spectral_operator("dirichlet", 2, 98).modes(0.01) == 97
for mask in (None, make_mask(grid, "disk")):
    cfg = SchemeConfig(k=3, variant="three_step_linear_ed", tau=0.01, bc="dirichlet", mask=mask,
                       n_max=3)
    final, trace = run(cfg, voronoi_init(grid, 3, 0, "dirichlet", mask))
    assert len(trace) == 4
print(sorted(name for name in sys.modules if name.partition(".")[0] == "scipy"))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
