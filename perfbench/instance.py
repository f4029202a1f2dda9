"""One solve of one benchmark workload, in a fresh process, reported as JSON.

    python3 perfbench/instance.py --workload NAME --seed N --out DIR [--trace]

Makes the calls the optpart CLI makes (make_mask, voronoi_init, run,
write_energy_csv, export_labels), times each, checks the final state and
prints one JSON line.  Every process pays the cold spectral tables and FFT
plans, as a CLI user does, and its peak RSS is that of this one solve.

With --trace, the public names that optpart.scheme calls are replaced by
wrappers that record one span per call (name, start, end, parent) in memory.
Self times are computed after the solve, so the timed loop only appends to a
list.  Without --trace nothing is wrapped.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

# numpy and scipy are imported before the clock starts: setup_s charges
# optpart's own import, not the interpreter's scientific stack.
import numpy as np
import scipy.fft  # noqa: F401

from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"

# Names looked up in optpart.scheme's namespace at call time, so wrapping the
# module attribute reaches every call the scheme makes.
TRACED_NAMES = (
    "diffuse_stack",
    "positivity_step",
    "ortho_step_ratio",
    "ortho_pos_step_linear",
    "ortho_pos_step_geometric",
    "norm_step",
    "dirichlet_energy",
    "partition_norms",
    "stopping_check",
    "energy_decrease_wrap",
    "apply_sigma",
)

NORM_TOL = 1e-12


class Tracer:
    """In-memory spans: [name, start, end, parent index, note]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn, note=None):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as err:
                span[4] = type(err).__name__
                raise
            finally:
                span[2] = perf_counter()
                open_.pop()
            if note is not None:
                span[4] = note(args, out)
            return out

        return traced

    def layers(self) -> dict:
        """Per name: calls, self time, and the notes the wrappers attached."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict] = {}
        for (name, t0, t1, _, note), inner in zip(self.spans, child):
            rec = out.setdefault(name, {"calls": 0, "self_ms": 0.0, "notes": {}})
            rec["calls"] += 1
            rec["self_ms"] += 1e3 * (t1 - t0 - inner)
            if isinstance(note, str):
                rec["notes"][note] = rec["notes"].get(note, 0) + 1
            elif note is not None:
                rec["notes"]["bytes"] = rec["notes"].get("bytes", 0) + note
        return out


def _notes(name):
    if name == "diffuse_stack":
        return lambda args, out: int(args[0].nbytes + out.nbytes)
    if name == "energy_decrease_wrap":
        return lambda args, out: "corrected" if out[1] is not None else None
    return None


def _frozen(prev, row) -> bool:
    """True for a row where the correction failed and the previous iterate was kept.

    The keep-previous fallback records the failed shift and recomputes the
    previous state's energy, which is then bitwise equal to the row before.
    """
    return row.sigma is not None and row.energy == prev.energy


def _check(final, trace, cfg, files) -> list[str]:
    from optpart import max_support_overlap, partition_norms

    errors = []
    if float(final.values.min()) < 0.0:
        errors.append(f"negative value {final.values.min():.3e}")
    overlap = max_support_overlap(final)
    if overlap != 0.0:
        errors.append(f"supports overlap: {overlap:.3e}")
    dev = float(np.max(np.abs(partition_norms(final) - 1.0)))
    if dev > NORM_TOL:
        errors.append(f"norm deviation {dev:.3e}")
    if cfg.mask is not None and np.any(final.values[:, ~cfg.mask.indicator] != 0.0):
        errors.append("nonzero value outside the mask")
    if cfg.energy_decreasing:
        rises = [r.iteration for p, r in zip(trace, trace[1:]) if r.energy > p.energy]
        if rises:
            errors.append(f"energy increased at iterations {rises[:5]}")
    csv_lines = files[0].read_text().count("\n")
    if csv_lines != len(trace) + 1:
        errors.append(f"trace.csv has {csv_lines} lines for {len(trace)} rows")
    if files[1].stat().st_size == 0:
        errors.append(f"{files[1].name} is empty")
    return errors


def solve(workload: str, seed: int, out_dir: Path, trace_on: bool) -> dict:
    spec = WORKLOADS[workload]
    t0 = perf_counter()
    sys.path.insert(0, str(SRC))
    import optpart
    import optpart.scheme
    from optpart import GridSpec, SchemeConfig, label_map, make_mask, run, voronoi_init
    from optpart.cli import export_labels, write_energy_csv

    if Path(optpart.__file__).resolve().parent.parent != SRC:
        raise RuntimeError(f"imported optpart from {optpart.__file__}, not {SRC}")
    t1 = perf_counter()
    grid = GridSpec(spec["dim"], spec["n"])
    mask = make_mask(grid, spec["mask"]) if spec["mask"] else None
    t2 = perf_counter()
    init = voronoi_init(grid, spec["k"], seed, spec["bc"], mask)
    t3 = perf_counter()
    cfg = SchemeConfig(
        k=spec["k"], variant=spec["variant"], tau=spec["tau"], bc=spec["bc"], mask=mask
    )

    tracer = Tracer() if trace_on else None
    missing = []
    solver = run
    if tracer is not None:
        for name in TRACED_NAMES:
            fn = getattr(optpart.scheme, name, None)
            if fn is None:
                missing.append(name)
            else:
                setattr(optpart.scheme, name, tracer.wrap(name, fn, _notes(name)))
        solver = tracer.wrap("run", run)

    stamps: list[float] = []
    t4 = perf_counter()
    final, trace = solver(cfg, init, on_iteration=lambda s, r: stamps.append(perf_counter()))
    t5 = perf_counter()

    out_dir.mkdir(parents=True, exist_ok=True)
    files = (out_dir / "trace.csv", out_dir / ("labels.pgm" if grid.dim == 2 else "labels.vtk"))
    write_energy_csv(trace, files[0])
    export_labels(final, files[1])
    t6 = perf_counter()

    labels = np.ascontiguousarray(label_map(final), dtype="<i8")
    return {
        "errors": _check(final, trace, cfg, files),
        "import_ms": 1e3 * (t1 - t0),
        "make_mask_ms": 1e3 * (t2 - t1),
        "voronoi_init_ms": 1e3 * (t3 - t2),
        "setup_s": t3 - t0,
        "solve_s": t5 - t4,
        "export_ms": 1e3 * (t6 - t5),
        "wall_s": (t3 - t0) + (t6 - t4),
        "bytes_written": sum(f.stat().st_size for f in files),
        "iter_ms": [1e3 * d for d in np.diff(stamps)],
        # stamps[i] follows trace[i], so iteration i ran between stamps i-1 and i
        "uncorrected": [row.sigma is None for row in trace[1:]],
        "iterations": trace[-1].iteration,
        "frozen_rows": sum(_frozen(p, r) for p, r in zip(trace, trace[1:])),
        # a frozen iterate makes the label check fire, so the run reports a stop
        "false_stop": len(trace) > 1 and trace[-1].stopped and _frozen(trace[-2], trace[-1]),
        "energy": trace[-1].energy,
        "labels_sha256": hashlib.sha256(labels.tobytes()).hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": tracer.layers() if tracer is not None else None,
        "missing": missing,
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()
    print(json.dumps(solve(args.workload, args.seed, args.out, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
