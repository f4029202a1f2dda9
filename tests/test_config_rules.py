"""The configuration rules: each stated once in ``optpart.grid``, checked at every entry point.

Every row of the table pairs a bad input at one entry point with the one
message that rule raises, wherever it is checked.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import optpart
from optpart import (
    DomainMask,
    GridSpec,
    PartitionState,
    SchemeConfig,
    dirichlet_energy,
    make_mask,
    run,
    voronoi_init,
)
from optpart.cli import CliError, _build_parser, parse_config
from optpart.grid import BOUNDARY_CONDITIONS, DIMENSIONS
from optpart.spectral import SpectralOperator, diffuse_stack

GRID = GridSpec(2, 16)
MASK = make_mask(GRID, "disk")
OTHER_MASK = make_mask(GridSpec(2, 8), "disk")
VALUES = np.zeros((2,) + GRID.shape)
STATE = PartitionState(GRID, VALUES)

DIM = "dim must be 2 or 3, got {}"
K = "k must be >= 2, got {}"
K_INTEGER = "k must be an integer, got {}"
BC = "unknown boundary condition 'neumann'"
MASKED_TORUS = ("a mask requires bc='dirichlet': the masked heat step and energy extend by "
                "zero past the box edge, which is wrong on the periodic torus")
MASK_GRID = "mask grid GridSpec(dim=2, n=8) does not match state grid GridSpec(dim=2, n=16)"
TAU = "tau must be positive and finite, got {}"
TAU_REAL = "tau must be a real number, got {!r}"
BOUNDARY = "a dirichlet state must be zero on the index-0 boundary planes"
OUTSIDE_MASK = "a masked state must be zero outside the mask"
NO_INTERIOR = "mask holds no interior node: every iterate would be 0 on it"


def boundary_only(grid: GridSpec) -> np.ndarray:
    """An indicator inside only on the index-0 plane of the first axis."""
    indicator = np.zeros(grid.shape, dtype=bool)
    indicator[0] = True
    return indicator


def state_with_one(grid: GridSpec, node: tuple) -> PartitionState:
    """A k=2 state that is zero but for 1.0 at ``node`` of part 0."""
    values = np.zeros((2,) + grid.shape)
    values[(0,) + node] = 1.0
    return PartitionState(grid, values)


# a node on the last index-0 plane, and a node off the boundary planes outside MASK
ON_BOUNDARY = state_with_one(GRID, (5, 0))
ON_BOUNDARY_3D = state_with_one(GridSpec(3, 8), (0, 3, 3))
OUTSIDE = state_with_one(GRID, (1, 1))
assert not MASK.indicator[1, 1]

RULES = {
    "dim": [
        ("GridSpec-1", lambda: GridSpec(1, 16), DIM.format(1)),
        ("GridSpec-4", lambda: GridSpec(4, 16), DIM.format(4)),
        ("SpectralOperator", lambda: SpectralOperator("periodic", 1, 16), DIM.format(1)),
    ],
    "k": [
        ("SchemeConfig", lambda: SchemeConfig(k=1), K.format(1)),
        ("PartitionState", lambda: PartitionState(GRID, VALUES[:1]), K.format(1)),
        ("voronoi_init", lambda: voronoi_init(GRID, 1, 0), K.format(1)),
        ("SchemeConfig-float", lambda: SchemeConfig(k=2.0), K_INTEGER.format(2.0)),
        ("voronoi_init-float", lambda: voronoi_init(GRID, 2.0, 0), K_INTEGER.format(2.0)),
    ],
    "bc": [
        ("SchemeConfig", lambda: SchemeConfig(k=2, bc="neumann"), BC),
        ("diffuse_stack", lambda: diffuse_stack(STATE, 0.1, "neumann"), BC),
        ("dirichlet_energy", lambda: dirichlet_energy(STATE, "neumann"), BC),
        ("voronoi_init", lambda: voronoi_init(GRID, 2, 0, "neumann"), BC),
        ("SpectralOperator", lambda: SpectralOperator("neumann", 2, 16), BC),
    ],
    "masked-torus": [
        ("SchemeConfig", lambda: SchemeConfig(k=2, mask=MASK), MASKED_TORUS),
        ("diffuse_stack", lambda: diffuse_stack(STATE, 0.1, "periodic", MASK),
         MASKED_TORUS),
        ("dirichlet_energy", lambda: dirichlet_energy(STATE, "periodic", MASK), MASKED_TORUS),
        ("voronoi_init", lambda: voronoi_init(GRID, 2, 0, "periodic", MASK), MASKED_TORUS),
    ],
    "mask-grid": [
        ("run", lambda: run(SchemeConfig(k=2, bc="dirichlet", mask=OTHER_MASK), STATE),
         MASK_GRID),
        ("diffuse_stack", lambda: diffuse_stack(STATE, 0.1, "dirichlet", OTHER_MASK),
         MASK_GRID),
        ("dirichlet_energy", lambda: dirichlet_energy(STATE, "dirichlet", OTHER_MASK),
         MASK_GRID),
        ("voronoi_init", lambda: voronoi_init(GRID, 2, 0, "dirichlet", OTHER_MASK), MASK_GRID),
    ],
    "tau": [
        ("diffuse_stack-0", lambda: diffuse_stack(STATE, 0.0, "periodic"),
         TAU.format(0.0)),
        ("diffuse_stack-inf", lambda: diffuse_stack(STATE, np.inf, "periodic"),
         TAU.format(np.inf)),
        ("diffuse_stack-nan", lambda: diffuse_stack(STATE, np.nan, "periodic"),
         TAU.format(np.nan)),
        ("SchemeConfig", lambda: SchemeConfig(k=2, tau=-0.1), TAU.format(-0.1)),
        ("SchemeConfig-warm-up", lambda: SchemeConfig(k=2, tau=(0.1, np.inf)),
         TAU.format(np.inf)),
        ("diffuse_stack-bool", lambda: diffuse_stack(STATE, True, "periodic"),
         TAU_REAL.format(True)),
        ("diffuse_stack-str", lambda: diffuse_stack(STATE, "0.1", "periodic"),
         TAU_REAL.format("0.1")),
        ("SchemeConfig-bool", lambda: SchemeConfig(k=2, tau=True), TAU_REAL.format(True)),
        ("SchemeConfig-str", lambda: SchemeConfig(k=2, tau="0.1"), TAU_REAL.format("0.1")),
        ("diffuse_stack-numpy-bool", lambda: diffuse_stack(STATE, np.True_, "periodic"),
         TAU_REAL.format(np.True_)),
        ("SchemeConfig-numpy-bool", lambda: SchemeConfig(k=2, tau=np.array([0.1, 0.2]) > 0.15),
         TAU_REAL.format(False)),
        # a list is not made one numeric array first, which would turn True into 1.0
        ("SchemeConfig-warm-up-bool", lambda: SchemeConfig(k=2, tau=[0.5, True]),
         TAU_REAL.format(True)),
        ("SchemeConfig-warm-up-str", lambda: SchemeConfig(k=2, tau=(0.5, "0.1")),
         TAU_REAL.format("0.1")),
    ],
    "support": [
        # run refuses the initial state before its first trace row
        ("run-boundary", lambda: run(SchemeConfig(k=2, bc="dirichlet"), ON_BOUNDARY), BOUNDARY),
        ("run-boundary-3d", lambda: run(SchemeConfig(k=2, bc="dirichlet"), ON_BOUNDARY_3D),
         BOUNDARY),
        ("run-masked-boundary", lambda: run(SchemeConfig(k=2, bc="dirichlet", mask=MASK),
                                            ON_BOUNDARY), BOUNDARY),
        ("run-outside-mask", lambda: run(SchemeConfig(k=2, bc="dirichlet", mask=MASK), OUTSIDE),
         OUTSIDE_MASK),
        # every mode kept at 16^2 (the node-space heat step), and some modes
        ("diffuse_stack", lambda: diffuse_stack(ON_BOUNDARY, 0.1, "dirichlet"), BOUNDARY),
        ("diffuse_stack-kept-modes", lambda: diffuse_stack(ON_BOUNDARY, 10.0, "dirichlet"),
         BOUNDARY),
        ("diffuse_stack-masked", lambda: diffuse_stack(ON_BOUNDARY, 0.1, "dirichlet", MASK),
         BOUNDARY),
    ],
    "mask-interior": [
        ("DomainMask-2d", lambda: DomainMask(GridSpec(2, 64), boundary_only(GridSpec(2, 64))),
         NO_INTERIOR),
        ("DomainMask-3d", lambda: DomainMask(GridSpec(3, 16), boundary_only(GridSpec(3, 16))),
         NO_INTERIOR),
        ("DomainMask-empty", lambda: DomainMask(GRID, np.zeros(GRID.shape)), NO_INTERIOR),
    ],
}
CASES = [(f"{rule}-{name}", make, message)
         for rule, rows in RULES.items() for name, make, message in rows]


@pytest.mark.parametrize("make,message", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_each_entry_point_raises_the_rule_message(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


def raised_strings() -> list[str]:
    """The string pieces of every raise statement in the package."""
    out = []
    for path in Path(optpart.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):
                out += [c.value for c in ast.walk(node)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str)]
    return out


@pytest.mark.parametrize("phrase", ["dim must be", "k must be >=", "unknown boundary condition",
                                    "a mask requires", "does not match state grid",
                                    "positive and finite", "tau must be a real number",
                                    "zero on the index-0 boundary planes",
                                    "zero outside the mask",
                                    "no interior node"])
def test_each_rule_is_raised_in_one_place(phrase):
    assert sum(phrase in piece for piece in raised_strings()) == 1


def test_cli_choices_are_the_library_constants():
    actions = _build_parser()._option_string_actions
    assert actions["--dim"].choices is DIMENSIONS
    assert actions["--bc"].choices is BOUNDARY_CONDITIONS
    for flag, value in [("--dim", "1"), ("--bc", "neumann")]:
        with pytest.raises(CliError, match=f"argument {flag}: invalid choice"):
            parse_config(["--k", "2", flag, value])
