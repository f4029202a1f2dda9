"""Command-line parsing, file writers, and the end-to-end entry point."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import optpart.grid
from optpart import (
    GridSpec,
    PartitionState,
    SchemeConfig,
    label_map,
    make_mask,
    run,
    voronoi_init,
)
from optpart.cli import (
    CliError,
    _build_parser,
    _parse_mask,
    _parse_number,
    dump_fields,
    export_labels,
    main,
    parse_config,
    read_pgm,
    write_energy_csv,
    write_pgm,
    write_vtk_labels,
)
from optpart.scheme import TraceRow


def make_row(iteration=0, energy=1.0, sigma=None, stopped=False):
    return TraceRow(
        iteration=iteration,
        energy=energy,
        norms=(1.0, 1.0),
        min_value=0.0,
        sigma=sigma,
        secant_iters=0,
        stopped=stopped,
    )


# ---------------------------------------------------------------------------
# configuration parsing


def test_parse_number_fractions_and_decimals():
    assert _parse_number("1/128") == 1.0 / 128.0
    assert _parse_number(" 0.25 ") == 0.25
    assert _parse_number("3") == 3.0
    with pytest.raises(ValueError):
        _parse_number("three")
    with pytest.raises(ValueError, match="zero denominator"):
        _parse_number("1/0")


def test_parse_config_defaults():
    setup = parse_config(["--k", "4"])
    assert setup.grid.dim == 2
    assert setup.grid.n == 256
    assert setup.cfg.k == 4
    assert setup.cfg.variant == "four_step"
    assert setup.cfg.tau == (0.1,)
    assert setup.cfg.bc == "periodic"
    assert setup.cfg.n_max == 2000
    assert setup.seed == 0
    assert setup.snapshot_every == 0
    assert not setup.dump_fields


def test_parse_config_requires_k():
    with pytest.raises(CliError):
        parse_config([])


def test_parse_config_algorithm_names():
    for name, variant in [
        ("four-step", "four_step"),
        ("three-step-1", "three_step_linear"),
        ("three-step-2", "three_step_geometric"),
        ("three-step-1-ed", "three_step_linear_ed"),
        ("three-step-2-ed", "three_step_geometric_ed"),
    ]:
        setup = parse_config(["--k", "2", "--algorithm", name])
        assert setup.cfg.variant == variant


def test_parse_config_tau_list_fractions():
    setup = parse_config(["--k", "2", "--tau", "1/128,1/64,0.5"])
    assert setup.cfg.tau == (1.0 / 128.0, 1.0 / 64.0, 0.5)
    assert parse_config(["--k", "2", "--tau", "1/4"]).cfg.tau == (0.25,)
    with pytest.raises(CliError):
        parse_config(["--k", "2", "--tau", "1/128,oops"])
    with pytest.raises(CliError):
        parse_config(["--k", "2", "--tau", ","])


def test_parse_config_rejects_masked_periodic_runs():
    with pytest.raises(CliError):
        parse_config(["--k", "2", "--mask", "shape:disk"])
    setup = parse_config(["--k", "2", "--bc", "dirichlet", "--mask", "shape:disk", "--grid", "32"])
    assert setup.cfg.mask is not None


def test_parse_config_reads_and_merges_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# a comment\n"
        "k = 3\n"
        "grid = 32\n"
        "tau = 1/4, 1/2\n"
        "max-iters = 7   # hyphen keys work too\n"
        "algorithm = three-step-2\n"
    )
    setup = parse_config(["--config", str(cfg)])
    assert setup.cfg.k == 3
    assert setup.grid.n == 32
    assert setup.cfg.tau == (0.25, 0.5)
    assert setup.cfg.n_max == 7
    assert setup.cfg.variant == "three_step_geometric"
    override = parse_config(["--config", str(cfg), "--grid", "16", "--k", "2"])
    assert override.grid.n == 16
    assert override.cfg.k == 2


def test_parse_config_bad_config_lines(tmp_path):
    missing = tmp_path / "nope.cfg"
    with pytest.raises(CliError):
        parse_config(["--config", str(missing), "--k", "2"])
    bad = tmp_path / "bad.cfg"
    bad.write_text("k: 2\n")
    with pytest.raises(CliError):
        parse_config(["--config", str(bad)])


def parser_flags() -> set[str]:
    """Every option string of the parser except -h/--help."""
    return set(_build_parser()._option_string_actions) - {"-h", "--help"}


# Each setting a config file can hold: a value for the file, a different one
# for the command line, and what parse_config makes of it.  The file's value
# differs from the default, so a setting the file fails to set shows up.
SETTINGS = {
    "--k": ("3", "4", lambda s: s.cfg.k),
    "--tau": ("1/4, 1/2", "0.3", lambda s: s.cfg.tau),
    "--grid": ("32", "8", lambda s: s.grid.n),
    "--dim": ("3", "2", lambda s: s.grid.dim),
    "--algorithm": ("three-step-2", "three-step-1-ed", lambda s: s.cfg.variant),
    "--bc": ("dirichlet", "periodic", lambda s: s.cfg.bc),
    "--mask": ("shape:disk", "shape:star5", lambda s: s.cfg.mask and s.cfg.mask.nodes.size),
    "--seed": ("5", "7", lambda s: s.seed),
    "--max-iters": ("10", "20", lambda s: s.cfg.n_max),
    "--out-dir": ("from-file", "from-flag", lambda s: s.out_dir),
    "--snapshot-every": ("5", "7", lambda s: s.snapshot_every),
    "--dump-fields": ("yes", "off", lambda s: s.dump_fields),
}


def test_settings_cases_cover_every_flag():
    assert set(SETTINGS) == parser_flags() - {"--config"}


@pytest.mark.parametrize("spelling", ["hyphen", "underscore"])
@pytest.mark.parametrize("flag", sorted(SETTINGS))
def test_config_key_is_read_as_its_flag_and_the_flag_wins(tmp_path, flag, spelling):
    in_file, on_line, get = SETTINGS[flag]
    base = {"--k": "2", "--grid": "16", **({"--bc": "dirichlet"} if flag == "--mask" else {})}
    base.pop(flag, None)
    argv = [arg for item in base.items() for arg in item]
    key = flag[2:] if spelling == "hyphen" else flag[2:].replace("-", "_")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {in_file}\n")

    from_file = get(parse_config([*argv, "--config", str(cfg)]))
    assert from_file == get(parse_config([*argv, flag, in_file]))
    if flag != "--k":  # --k has no default
        assert from_file != get(parse_config(argv))
    expected = get(parse_config([*argv, flag, on_line]))
    assert expected != from_file
    assert get(parse_config([*argv, "--config", str(cfg), flag, on_line])) == expected
    assert get(parse_config([*argv, flag, on_line, "--config", str(cfg)])) == expected


@pytest.mark.parametrize(
    "line",
    ["max_iter = 3", "algoritm = three-step-2-ed", "config = other.cfg",
     "tau_schedule = 0.05, 0.1", "tau-schedule = 0.05, 0.1", "dump_fields = ture"],
)
def test_parse_config_rejects_unknown_keys_and_bad_values(tmp_path, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"k = 2\ngrid = 16\n{line}\n")
    key = line.split("=")[0].strip()
    with pytest.raises(CliError, match=f"run.cfg:3: config key '{key}'"):
        parse_config(["--config", str(cfg)])


def test_readme_flags_table_matches_the_parser():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("### Flags", 1)[1].split("\n\n", 2)[1]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    documented = [row.split("`")[1] for row in rows]
    assert len(documented) == len(set(documented))
    assert set(documented) == parser_flags()


def test_parse_mask_shape_and_errors():
    grid = GridSpec(dim=2, n=32)
    mask = _parse_mask("shape:disk:radius=1.5", grid)
    assert 0 < mask.nodes.size < grid.num_nodes
    with pytest.raises(CliError):
        _parse_mask("shape:disk:radius", grid)
    with pytest.raises(CliError):
        _parse_mask("shape:warp_core", grid)
    with pytest.raises(CliError):
        _parse_mask("shape:", grid)


def test_parse_mask_from_pgm_file(tmp_path):
    grid = GridSpec(dim=2, n=16)
    image = np.zeros((16, 16), dtype=np.uint8)
    image[4:12, 4:12] = 255
    path = tmp_path / "mask.pgm"
    write_pgm(image, path)
    mask = _parse_mask(str(path), grid)
    assert mask.nodes.size == 64
    with pytest.raises(CliError):
        _parse_mask(str(path), GridSpec(dim=2, n=32))
    with pytest.raises(CliError):
        _parse_mask(str(path), GridSpec(dim=3, n=16))
    with pytest.raises(CliError):
        _parse_mask(str(tmp_path / "missing.pgm"), grid)


# ---------------------------------------------------------------------------
# writers


def test_energy_csv_format(tmp_path):
    path = tmp_path / "trace.csv"
    write_energy_csv([], path)
    assert path.read_text() == "iter,energy,min_value,max_norm_dev,sigma,secant_iters,stopped\n"
    trace = [
        make_row(iteration=0, energy=1.0 / 3.0),
        make_row(iteration=1, energy=2.0, sigma=-0.5, stopped=True),
    ]
    write_energy_csv(trace, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert lines[1].split(",") == ["0", "0.33333333333333331", "0", "0", "", "0", "0"]
    assert lines[2].split(",") == ["1", "2", "0", "0", "-0.5", "0", "1"]


def test_pgm_roundtrip_and_header_handling(tmp_path):
    image = np.arange(48, dtype=np.uint8).reshape(6, 8)
    path = tmp_path / "img.pgm"
    write_pgm(image, path)
    assert np.array_equal(read_pgm(path), image)
    # a comment between header fields is legal
    raw = path.read_bytes()
    commented = raw[:3] + b"# made by hand\n" + raw[3:]
    (tmp_path / "c.pgm").write_bytes(commented)
    assert np.array_equal(read_pgm(tmp_path / "c.pgm"), image)
    (tmp_path / "bad.pgm").write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(ValueError):
        read_pgm(tmp_path / "bad.pgm")
    (tmp_path / "deep.pgm").write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(ValueError):
        read_pgm(tmp_path / "deep.pgm")
    with pytest.raises(ValueError):
        write_pgm(np.zeros((2, 2, 2)), tmp_path / "3d.pgm")


def test_export_labels_2d_orientation(tmp_path):
    grid = GridSpec(dim=2, n=8)
    vals = np.zeros((2,) + grid.shape)
    vals[0, :4, :] = 1.0  # part 0 owns the x < 0 half
    vals[1, 4:, :] = 1.0
    state = PartitionState(grid, vals / np.sqrt(grid.cell_volume * 32.0))
    path = tmp_path / "labels.pgm"
    export_labels(state, path)
    image = read_pgm(path)
    assert image.shape == (8, 8)
    assert set(np.unique(image)) == {0, 255}
    # image rows are the y axis, columns the x axis
    assert np.all(image[:, :4] == 0)
    assert np.all(image[:, 4:] == 255)


def test_export_labels_3d_vtk(tmp_path):
    grid = GridSpec(dim=3, n=4)
    vals = np.zeros((2,) + grid.shape)
    vals[0, :2] = 1.0
    vals[1, 2:] = 1.0
    norm = np.sqrt(grid.cell_volume * 32.0)
    state = PartitionState(grid, vals / norm)
    path = tmp_path / "labels.vtk"
    export_labels(state, path)
    text = path.read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    assert "DIMENSIONS 4 4 4" in text
    assert "POINT_DATA 64" in text
    start = text.index("LOOKUP_TABLE default") + 1
    flat = np.array(" ".join(text[start:]).split(), dtype=int)
    assert flat.size == 64
    assert np.array_equal(flat.reshape(grid.shape, order="F"), label_map(state))


def old_write_vtk_labels(labels, grid, path):
    """The per-value writer the vectorised one replaced: the byte reference."""
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
    flat = labels.ravel(order="F")
    lines.extend(" ".join(str(int(v)) for v in flat[i : i + 9]) for i in range(0, flat.size, 9))
    Path(path).write_text("\n".join(lines) + "\n")


def test_vtk_writer_holds_one_plane_of_strings(tmp_path):
    # 28^3 = 21952 = 2439 * 9 + 1 nodes: the strings of every value at once
    # took 1.50 MB; a plane's take tens of kB
    grid = GridSpec(dim=3, n=28)
    labels = label_map(voronoi_init(grid, 8, rng_seed=0))
    write_vtk_labels(labels, grid, tmp_path / "warm.vtk")
    tracemalloc.start()
    write_vtk_labels(labels, grid, tmp_path / "labels.vtk")
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 0.3e6
    text = (tmp_path / "labels.vtk").read_text().splitlines()
    assert len(text[-1].split()) == 1
    old_write_vtk_labels(labels, grid, tmp_path / "old.vtk")
    assert (tmp_path / "labels.vtk").read_bytes() == (tmp_path / "old.vtk").read_bytes()


@pytest.mark.parametrize("n,k", [(4, 2), (6, 16), (8, 11), (10, 5), (12, 3)])
def test_vtk_writer_matches_the_per_value_writer_byte_for_byte(tmp_path, n, k):
    # n^3 = 64, 216, 512, 1000 and 1728 nodes leave 1, 0, 8, 1 and 0 values
    # on the last line, which holds 9 when full
    grid = GridSpec(dim=3, n=n)
    state = voronoi_init(grid, k, rng_seed=n + k)
    labels = label_map(state)
    write_vtk_labels(labels, grid, tmp_path / "new.vtk")
    old_write_vtk_labels(labels, grid, tmp_path / "old.vtk")
    assert (tmp_path / "new.vtk").read_bytes() == (tmp_path / "old.vtk").read_bytes()
    export_labels(state, tmp_path / "export.vtk")
    assert (tmp_path / "export.vtk").read_bytes() == (tmp_path / "old.vtk").read_bytes()


@pytest.mark.parametrize("dim,n,k,variant,mask_name,name", [
    (2, 32, 3, "three_step_linear_ed", "disk", "labels.pgm"),
    (3, 12, 4, "four_step", None, "labels.vtk"),
])
def test_export_writes_the_carried_label_map(tmp_path, monkeypatch, dim, n, k, variant,
                                             mask_name, name):
    # a run's iterate carries the label map its step wrote: the export writes
    # it without a top_two pass over the stack, byte for byte what label_map gives
    grid = GridSpec(dim, n)
    mask = make_mask(grid, mask_name) if mask_name else None
    cfg = SchemeConfig(k=k, variant=variant, tau=0.1, bc="dirichlet", mask=mask, n_max=5)
    final, _ = run(cfg, voronoi_init(grid, k, 0, "dirichlet", mask))
    with monkeypatch.context() as patched:
        patched.setattr(optpart.grid, "top_two", None)
        export_labels(final, tmp_path / name)
    export_labels(PartitionState(grid, final.values), tmp_path / ("dense-" + name))
    assert (tmp_path / name).read_bytes() == (tmp_path / ("dense-" + name)).read_bytes()


def test_dump_fields_roundtrip(tmp_path):
    grid = GridSpec(dim=2, n=8)
    state = voronoi_init(grid, 2, rng_seed=0)
    dump_fields(state, tmp_path)
    raw = np.frombuffer((tmp_path / "fields.bin").read_bytes(), dtype="<f8")
    assert np.array_equal(raw.reshape(state.values.shape), state.values)
    sidecar = (tmp_path / "fields.txt").read_text()
    assert "k = 2" in sidecar
    assert "n = 8" in sidecar
    assert "float64" in sidecar


# ---------------------------------------------------------------------------
# entry point


def run_main(tmp_path, *extra):
    argv = ["--k", "2", "--grid", "16", "--tau", "0.3", "--seed", "1", "--out-dir", str(tmp_path)]
    argv.extend(extra)
    return main(argv)


def test_main_happy_path_is_reproducible(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["--k", "2", "--grid", "16", "--tau", "0.3", "--seed", "1", "--out-dir", str(out_a)]) == 0
    assert main(["--k", "2", "--grid", "16", "--tau", "0.3", "--seed", "1", "--out-dir", str(out_b)]) == 0
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
    assert (out_a / "labels.pgm").read_bytes() == (out_b / "labels.pgm").read_bytes()
    header, first = (out_a / "trace.csv").read_text().splitlines()[:2]
    assert header.startswith("iter,energy")
    assert first.startswith("0,")


@pytest.mark.parametrize("argv, code, text", [
    (["--help"], 0, "usage: optpart"), (["--k", "2", "--grid", "7"], 2, "optpart: error: n must be even"),
], ids=["help", "bad-grid"])
def test_python_m_optpart_runs_the_command(tmp_path, argv, code, text):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "optpart", *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == code, done.stderr
    assert text in done.stdout + done.stderr


def assert_output_does_not_depend_on_blas_threads(tmp_path, argv, names):
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "optpart", *argv, "--out-dir", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outs.append(out)
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_3d_dirichlet_output_does_not_depend_on_blas_threads(tmp_path):
    # at 28^3 the sine transform's (27, 27) @ (27, 729) products are large
    # enough for OpenBLAS to split them across threads
    argv = ["--k", "8", "--dim", "3", "--grid", "28", "--bc", "dirichlet", "--tau", "0.2",
            "--algorithm", "four-step", "--seed", "3", "--max-iters", "200"]
    assert_output_does_not_depend_on_blas_threads(tmp_path, argv, ("trace.csv", "labels.vtk"))


@pytest.mark.parametrize("argv", [
    # 61 of 127 sine modes: (127, 127) @ (127, 61) products per part
    ["--grid", "128", "--bc", "dirichlet", "--mask", "shape:star5", "--tau", "0.05",
     "--algorithm", "three-step-1-ed"],
    # |m| <= 13 of 64: the last axis' (128, 28) @ (28, 128) product per part
    ["--grid", "128", "--bc", "periodic", "--tau", "0.25", "--algorithm", "three-step-2-ed"],
    # 62 of 191 sine modes, every node: OpenBLAS would sum the (191, 62) @ (62, 191)
    # product in another order on two threads, but run pins it to one
    ["--grid", "192", "--bc", "dirichlet", "--tau", "0.05", "--algorithm", "four-step"],
    # every mode: the (191, 191) kernel's products, and the energy's
    ["--grid", "192", "--bc", "dirichlet", "--tau", "0.004", "--algorithm", "four-step"],
], ids=["masked", "periodic", "unmasked-192", "unmasked-192-every-mode"])
def test_2d_kept_mode_output_does_not_depend_on_blas_threads(tmp_path, argv):
    argv = ["--k", "6", "--seed", "3", "--max-iters", "60", *argv]
    assert_output_does_not_depend_on_blas_threads(tmp_path, argv, ("trace.csv", "labels.pgm"))


def test_main_snapshots_every_n(tmp_path):
    assert run_main(tmp_path, "--snapshot-every", "5", "--max-iters", "12") == 0
    names = sorted(p.name for p in tmp_path.glob("labels_*.pgm"))
    assert names[0] == "labels_00000.pgm"
    assert "labels_00005.pgm" in names
    assert all(int(n[7:12]) % 5 == 0 for n in names)


def test_main_dump_fields_size(tmp_path):
    assert run_main(tmp_path, "--dump-fields", "--max-iters", "5") == 0
    blob = (tmp_path / "fields.bin").read_bytes()
    assert len(blob) == 2 * 16 * 16 * 8


def test_main_iteration_cap_exit(tmp_path, capsys):
    assert run_main(tmp_path, "--max-iters", "2") == 0
    out = capsys.readouterr().out
    assert "iteration cap reached at iteration 2" in out


def test_main_config_error_exit(tmp_path, capsys):
    assert main(["--out-dir", str(tmp_path)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["", "sub"], ids=["is-a-file", "under-a-file"])
def test_main_unusable_out_dir_is_a_config_error(tmp_path, capsys, sub):
    blocker = tmp_path / "F"
    blocker.write_text("")
    assert main(["--k", "2", "--grid", "8", "--out-dir", str(blocker / sub)]) == 2
    assert capsys.readouterr().err.startswith("optpart: error: ")
    assert blocker.read_text() == ""


def test_main_rejects_zero_grid_in_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 2\ngrid = 0\n")
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert "n must be even" in capsys.readouterr().err


def test_main_rejects_zero_max_iters_in_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 2\ngrid = 16\nmax_iters = 0\n")
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert "n_max" in capsys.readouterr().err


def test_main_rejects_zero_max_iters_flag(tmp_path, capsys):
    assert main(["--k", "2", "--grid", "16", "--max-iters", "0",
                 "--out-dir", str(tmp_path)]) == 2
    assert "n_max" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize("line", ["mask =", "tau =", "tau = ,"])
def test_main_rejects_empty_config_values(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"k = 2\ngrid = 16\nbc = dirichlet\n{line}\n")
    assert main(["--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--tau", "1/0"],
        ["--tau", "0.1,1/0"],
        ["--bc", "dirichlet", "--mask", "shape:disk:radius=1/0"],
    ],
    ids=["tau", "tau-list", "mask"],
)
def test_main_rejects_zero_denominators(tmp_path, capsys, flags):
    assert main(["--k", "2", "--grid", "16", *flags, "--out-dir", str(tmp_path)]) == 2
    assert "zero denominator" in capsys.readouterr().err


def test_main_init_failure_exit(tmp_path, capsys):
    code = main(
        [
            "--k", "8", "--grid", "8", "--bc", "dirichlet",
            "--mask", "shape:disk:radius=0.5", "--out-dir", str(tmp_path),
        ]
    )
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_main_rejects_unknown_flags():
    with pytest.raises(SystemExit):
        main(["--k", "2", "--frobnicate"])
    with pytest.raises(SystemExit):
        main(["--k", "2", "--tau", "0.3", "--tau-schedule", "0.05,0.1"])
    # a flag is spelled out in full, as its config key is
    for abbreviated in (["--max-iter", "3"], ["--alg", "three-step-1"], ["--snap", "4"]):
        with pytest.raises(SystemExit):
            main(["--k", "2", *abbreviated])


def test_help_shows_only_real_defaults(monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    text = _build_parser().format_help()
    assert "(default: None)" not in text
    assert "(default: 256)" in text


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--k", "1"], "--k: expected an integer >= 2"),
        (["--seed", "-1"], "--seed: expected an integer >= 0"),
        (["--snapshot-every", "-3"], "--snapshot-every: expected an integer >= 0"),
        (["--tau", "inf"], "positive and finite"),
        (["--tau", "0.1,nan"], "positive and finite"),
    ],
    ids=["k", "seed", "snapshot-every", "tau-inf", "tau-nan"],
)
def test_main_rejects_out_of_range_values(tmp_path, capsys, flags, message):
    argv = ["--k", "2", "--grid", "16", "--max-iters", "3", *flags, "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


def test_main_degenerate_run_writes_its_trace(tmp_path, capsys):
    argv = ["--k", "4", "--grid", "24", "--bc", "dirichlet", "--tau", "1.0", "--seed", "1"]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 1
    assert "iteration 4: part 3 degenerated" in capsys.readouterr().err
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[0].startswith("iter,energy")
    assert len(lines) == 5
    assert lines[-1].startswith("3,")


def test_main_3d_snapshots_are_vtk(tmp_path):
    argv = ["--k", "2", "--dim", "3", "--grid", "8", "--max-iters", "3", "--snapshot-every", "2"]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names[:2] == ["labels.vtk", "labels_00000.vtk"]
    assert not list(tmp_path.glob("*.pgm"))


def test_main_three_dimensional_run(tmp_path):
    code = main(
        [
            "--k", "2", "--dim", "3", "--grid", "8", "--tau", "0.4",
            "--max-iters", "30", "--out-dir", str(tmp_path),
        ]
    )
    assert code == 0
    assert (tmp_path / "labels.vtk").is_file()
    assert (tmp_path / "trace.csv").is_file()
