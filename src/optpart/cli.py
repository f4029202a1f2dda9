"""Command-line front end: configuration, run driver, and file outputs.

Outputs are plain formats chosen for diffability: a CSV energy trace with
full-precision floats, binary P5 PGM label images in 2D, legacy ASCII VTK
structured points in 3D, and raw float64 field dumps with a small text
sidecar.  Runs are deterministic for a fixed configuration, so repeated
invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid import BOUNDARY_CONDITIONS, DIMENSIONS, DomainMask, GridSpec, PartitionState, label_map
from .initial import InitFailed, make_mask, voronoi_init
from .projection import DegeneratePart
from .scheme import EnergyTrace, SchemeConfig, TraceRow, run

ALGORITHM_NAMES = {
    "four-step": "four_step",
    "three-step-1": "three_step_linear",
    "three-step-2": "three_step_geometric",
    "three-step-1-ed": "three_step_linear_ed",
    "three-step-2-ed": "three_step_geometric_ed",
}

_BOOLS = {"true": True, "false": False, "yes": True, "no": False, "1": True, "0": False,
          "on": True, "off": False}


class CliError(ValueError):
    """Configuration problem that should abort with a one-line message."""


@dataclass
class RunSetup:
    grid: GridSpec
    cfg: SchemeConfig
    seed: int
    out_dir: Path
    snapshot_every: int
    dump_fields: bool


def _parse_number(text: str) -> float:
    """Parse a decimal or a fraction like 1/128."""
    text = text.strip()
    if "/" in text:
        num, den = (float(part) for part in text.split("/", 1))
        if den == 0.0:
            raise ValueError(f"zero denominator in {text!r}")
        return num / den
    return float(text)


def _parse_taus(text: str) -> tuple[float, ...]:
    """Comma list of time steps: warm-up values, then the steady one."""
    try:
        return tuple(_parse_number(t) for t in text.split(","))
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad time step list {text!r}: {err}") from err


def _at_least(lo: int):
    """argparse type: an integer no smaller than ``lo``."""

    def convert(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"expected an integer >= {lo}, got {value}")
        return value

    convert.__name__ = "int"  # argparse names the type in its message for a non-integer
    return convert


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Append "(default: ...)" only to the flags that have a default."""

    def _get_help_string(self, action):
        return action.help if action.default is None else super()._get_help_string(action)


def _build_parser() -> argparse.ArgumentParser:
    """The table of settings: each flag's type, choices and default, stated once."""
    p = argparse.ArgumentParser(
        prog="optpart",
        description="Compute an optimal k-partition by constrained diffusion.",
        formatter_class=_HelpFormatter,
        exit_on_error=False,
        allow_abbrev=False,
    )
    p.add_argument("--config", type=Path, help="flat key=value file; flags override it")
    p.add_argument("--k", type=_at_least(2), help="number of parts (required)")
    p.add_argument(
        "--tau", type=_parse_taus, default="0.1",
        help="time step, or a comma list of warm-up steps then the steady one; fractions allowed",
    )
    p.add_argument("--grid", type=int, default=256, help="nodes per axis")
    p.add_argument("--dim", type=int, choices=DIMENSIONS, default=2, help="space dimension")
    p.add_argument(
        "--algorithm", choices=sorted(ALGORITHM_NAMES), default="four-step", help="splitting scheme"
    )
    p.add_argument(
        "--bc", choices=BOUNDARY_CONDITIONS, default="periodic", help="boundary condition"
    )
    p.add_argument(
        "--mask",
        type=str,
        help="domain mask: a P5 PGM file, or shape:NAME[:key=value...] "
        "(requires --bc dirichlet)",
    )
    p.add_argument(
        "--seed", type=_at_least(0), default=0, help="RNG seed for the initial partition"
    )
    p.add_argument("--max-iters", type=int, default=2000, help="iteration cap")
    p.add_argument("--out-dir", type=Path, default=Path("."), help="output directory")
    p.add_argument(
        "--snapshot-every", type=_at_least(0), default=0, help="labels every N iterations (0: off)"
    )
    p.add_argument(
        "--dump-fields", nargs="?", const="true", default="false", type=str.lower, choices=_BOOLS,
        help="also write the final part values as raw float64",
    )
    return p


def _read_config_file(parser: argparse.ArgumentParser, path: Path) -> argparse.Namespace:
    """Flat key = value lines, each read as the flag its key names (``max_iters``
    or ``max-iters`` is ``--max-iters``); blank lines and # comments are skipped."""
    if not path.is_file():
        raise CliError(f"config file not found: {path}")
    flags = set(parser._option_string_actions) - {"-h", "--help", "--config"}
    settings = argparse.Namespace()
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        flag = "--" + key.replace("_", "-")
        if flag not in flags:
            raise CliError(f"{path}:{lineno}: config key {key!r} names no flag")
        try:
            parser.parse_args([f"{flag}={value}"], namespace=settings)
        except argparse.ArgumentError as err:
            raise CliError(f"{path}:{lineno}: config key {key!r}: {err}") from err
    return settings


def _parse_mask(spec: str, grid: GridSpec) -> DomainMask:
    if spec.startswith("shape:"):
        pieces = spec.split(":")[1:]
        if not pieces or not pieces[0]:
            raise CliError("empty mask shape name; use shape:NAME[:key=value...]")
        name, params = pieces[0], {}
        for piece in pieces[1:]:
            if "=" not in piece:
                raise CliError(f"bad mask parameter {piece!r}; use key=value")
            key, value = piece.split("=", 1)
            try:
                params[key.strip()] = _parse_number(value)
            except ValueError as err:
                raise CliError(f"bad mask parameter {piece!r}: {err}") from err
        try:
            return make_mask(grid, name, **params)
        except ValueError as err:
            raise CliError(str(err)) from err
    path = Path(spec)
    if not path.is_file():
        raise CliError(f"mask file not found: {path}")
    try:
        image = read_pgm(path)
    except ValueError as err:
        raise CliError(f"{path}: {err}") from err
    if grid.dim != 2:
        raise CliError("PGM masks are only supported for --dim 2")
    if image.shape != grid.shape:
        raise CliError(
            f"mask size {image.shape[1]}x{image.shape[0]} does not match "
            f"grid {grid.n}x{grid.n}"
        )
    return DomainMask(grid, (image.T != 0).astype(bool))


def parse_config(argv: list[str] | None = None) -> RunSetup:
    """Read the config file's settings, override them with the flags, and validate."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            args = parser.parse_args(argv, namespace=_read_config_file(parser, args.config))
    except argparse.ArgumentError as err:
        raise CliError(str(err)) from err
    if args.k is None:
        raise CliError("--k is required (or set k in the config file)")
    try:
        grid = GridSpec(dim=args.dim, n=args.grid)
        mask = None if args.mask is None else _parse_mask(args.mask, grid)
        cfg = SchemeConfig(
            k=args.k,
            variant=ALGORITHM_NAMES[args.algorithm],
            tau=args.tau,
            bc=args.bc,
            mask=mask,
            n_max=args.max_iters,
        )
    except ValueError as err:
        raise CliError(str(err)) from err
    return RunSetup(
        grid=grid,
        cfg=cfg,
        seed=args.seed,
        out_dir=args.out_dir,
        snapshot_every=args.snapshot_every,
        dump_fields=_BOOLS[args.dump_fields],
    )


# ---------------------------------------------------------------------------
# writers


def _format_float(x: float) -> str:
    return format(float(x), ".17g")


def write_energy_csv(trace: EnergyTrace, path: Path | str):
    """CSV trace: iter,energy,min_value,max_norm_dev,sigma,secant_iters,stopped."""
    lines = ["iter,energy,min_value,max_norm_dev,sigma,secant_iters,stopped"]
    for row in trace:
        sigma = "" if row.sigma is None else _format_float(row.sigma)
        lines.append(
            ",".join(
                (
                    str(row.iteration),
                    _format_float(row.energy),
                    _format_float(row.min_value),
                    _format_float(row.max_norm_dev),
                    sigma,
                    str(row.secant_iters),
                    "1" if row.stopped else "0",
                )
            )
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_pgm(image: np.ndarray, path: Path | str):
    """Binary P5 PGM, maxval 255; rows are the second array axis."""
    img = np.asarray(image, dtype=np.uint8)
    if img.ndim != 2:
        raise ValueError("PGM images must be 2D")
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii")
    Path(path).write_bytes(header + img.tobytes())


def read_pgm(path: Path | str) -> np.ndarray:
    """Read a binary P5 PGM with maxval <= 255 into a (rows, cols) array."""
    data = Path(path).read_bytes()
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4 and pos < len(data):
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    if len(fields) < 4 or fields[0] != b"P5":
        raise ValueError("not a binary (P5) PGM file")
    width, height, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    if maxval > 255:
        raise ValueError(f"PGM maxval {maxval} exceeds 255")
    pos += 1  # single whitespace after maxval
    raster = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=pos)
    return raster.reshape(height, width)


def write_vtk_labels(labels: np.ndarray, grid: GridSpec, path: Path | str):
    """Legacy ASCII VTK structured points with one integer label per node."""
    if labels.ndim != 3:
        raise ValueError("VTK label export expects a 3D label array")
    h = grid.spacing
    lines = [
        "# vtk DataFile Version 3.0",
        "partition labels",
        "ASCII",
        "DATASET STRUCTURED_POINTS",
        f"DIMENSIONS {grid.n} {grid.n} {grid.n}",
        f"ORIGIN {-np.pi:.17g} {-np.pi:.17g} {-np.pi:.17g}",
        f"SPACING {h:.17g} {h:.17g} {h:.17g}",
        f"POINT_DATA {grid.num_nodes}",
        "SCALARS label int 1",
        "LOOKUP_TABLE default",
    ]
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
        # VTK orders points with the first axis varying fastest: the planes of
        # the last axis in turn, holding one plane's strings and the words left
        # over from the previous plane's lines of nine
        words: list[str] = []
        for plane in np.moveaxis(labels, -1, 0):
            words += map(str, plane.ravel(order="F").astype(np.int64).tolist())
            full = len(words) - len(words) % 9
            f.writelines(" ".join(words[i : i + 9]) + "\n" for i in range(0, full, 9))
            del words[:full]
        f.write(" ".join(words) + "\n" if words else "")


def export_labels(state: PartitionState, path: Path | str):
    """Write the label map: P5 PGM in 2D, legacy VTK in 3D."""
    labels = label_map(state)
    if labels.ndim == 2:  # the k labels spread over the gray levels 0..255
        write_pgm(np.round(labels.T * (255.0 / (state.k - 1))).astype(np.uint8), path)
    else:
        write_vtk_labels(labels, state.grid, path)


def dump_fields(state: PartitionState, out_dir: Path):
    """Raw little-endian float64 part values plus a text sidecar."""
    values = np.ascontiguousarray(state.values, dtype="<f8")
    (out_dir / "fields.bin").write_bytes(values.tobytes())
    sidecar = "\n".join(
        (
            f"k = {state.k}",
            f"dim = {state.grid.dim}",
            f"n = {state.grid.n}",
            "dtype = float64 little-endian",
            "order = part-major, C-contiguous over grid axes",
        )
    )
    (out_dir / "fields.txt").write_text(sidecar + "\n")


# ---------------------------------------------------------------------------
# entry point


def _label_path(setup: RunSetup, stem: str) -> Path:
    """Where a label map goes: ``stem.pgm`` in 2D, ``stem.vtk`` in 3D."""
    return setup.out_dir / f"{stem}.{'pgm' if setup.grid.dim == 2 else 'vtk'}"


def main(argv: list[str] | None = None) -> int:
    try:
        setup = parse_config(argv)
        setup.out_dir.mkdir(parents=True, exist_ok=True)
    except (CliError, OSError) as err:
        print(f"optpart: error: {err}", file=sys.stderr)
        return 2

    cfg = setup.cfg

    try:
        init = voronoi_init(setup.grid, cfg.k, setup.seed, cfg.bc, cfg.mask)
    except (InitFailed, ValueError) as err:
        print(f"optpart: error: {err}", file=sys.stderr)
        return 1

    def snapshot(state: PartitionState, row: TraceRow):
        if setup.snapshot_every > 0 and row.iteration % setup.snapshot_every == 0:
            export_labels(state, _label_path(setup, f"labels_{row.iteration:05d}"))

    try:
        final, trace = run(cfg, init, on_iteration=snapshot)
    except DegeneratePart as err:
        write_energy_csv(err.trace, setup.out_dir / "trace.csv")
        print(f"optpart: error: iteration {err.iteration}: {err}", file=sys.stderr)
        return 1

    write_energy_csv(trace, setup.out_dir / "trace.csv")
    export_labels(final, _label_path(setup, "labels"))
    if setup.dump_fields:
        dump_fields(final, setup.out_dir)

    last = trace[-1]
    why = "stopped" if last.stopped else "iteration cap reached"
    print(
        f"{why} at iteration {last.iteration}: energy {last.energy:.12g} "
        f"(trace: {setup.out_dir / 'trace.csv'})"
    )
    return 0
