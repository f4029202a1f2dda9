"""Benchmark for optpart: end-to-end solve metrics and a traced per-layer run.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Every solve runs in a fresh single-threaded
process (perfbench/instance.py), one after another, and pays the cold
spectral tables and FFT plans as a CLI user does.  A run solves the
workload's reference instance first, then instances derived from --seed,
until --seconds have passed.  Each instance is solved REPEATS times and every
time is the fastest of its repeats; the repeats must agree exactly, the
reference instance must match reference.json, and every final state is
checked.  Any failure makes the run exit 1.

--trace 0 reports the bounded end-to-end metrics: the median time of an
iteration that needed no energy correction, pooled over the run, the median
set-up time (optpart import, mask and Voronoi init) and the peak RSS of the
run.  --trace 1 also solves each instance once traced, and reports per-layer
self times and counts, summed over the traced solves, with the tracing
overhead.  Both print the unbounded outcomes too: the tail and mean of all
iteration times, the per-solve solve, export and wall times, the iterations,
and the failure and false-stop shares.

Every metric is printed as "<workload> <name> <value> <unit>"; the last line
is one JSON object with correct, attempted, failed and metrics.
--record-reference rewrites reference.json from the current source tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path
from time import perf_counter

from workloads import REFERENCE_SEED, WORKLOADS, instance_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
REFERENCE = HERE / "reference.json"

REPEATS = 5
# A run starts no further instance after RUN_LIMIT_S and kills any solve
# still going at DEADLINE_S, so it ends within 180 s.
RUN_LIMIT_S = 100
DEADLINE_S = 170
ENERGY_RTOL = 1e-12

SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

PROJECTIONS = ("positivity_step", "ortho_step_ratio", "ortho_pos_step_linear",
               "ortho_pos_step_geometric")

END_TO_END_UNITS = {
    "uncorrected_iter_ms.p50": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def solve(workload: str, seed: int, trace: bool, deadline: float) -> dict:
    """Run one instance in its own process; return its report or the error."""
    timeout = max(1.0, deadline - perf_counter())
    out = WORK / f"{workload}-{seed}-{int(trace)}"
    cmd = [sys.executable, str(HERE / "instance.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)] + (["--trace"] if trace else [])
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **SINGLE_THREAD},
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"seed": seed, "errors": [f"timed out after {timeout:.0f} s"]}
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"seed": seed, "errors": [f"exit {proc.returncode}: {tail[0]}"]}
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"seed": seed, "errors": ["no JSON result on stdout"]}
    report["seed"] = seed
    return report


def best_of(workload: str, seed: int, deadline: float) -> dict:
    """Solve one instance REPEATS times and keep the fastest of each time.

    The processes do identical work, so iteration i costs the same in each;
    the minimum drops most of the slowdown that other tenants of a shared
    machine cause in some of them.  The results must agree exactly.
    """
    runs = [solve(workload, seed, False, deadline) for _ in range(REPEATS)]
    failed = [r for r in runs if r["errors"]]
    if failed:
        return failed[0]
    first = runs[0]
    if any(r[k] != first[k] for r in runs for k in ("iterations", "labels_sha256", "energy")):
        first["errors"].append("repeated solves of one instance disagree")
        return first
    best = {k: min(r[k] for r in runs) for k in ("setup_s", "solve_s", "export_ms", "wall_s")}
    best["iter_ms"] = [min(t) for t in zip(*(r["iter_ms"] for r in runs))]
    best["peak_rss_mb"] = max(r["peak_rss_mb"] for r in runs)
    best["solve_s_median"] = statistics.median(r["solve_s"] for r in runs)
    return {**first, **best}


def check_reference(workload: str, report: dict) -> None:
    if report["errors"]:
        return
    ref = json.loads(REFERENCE.read_text()).get(workload)
    if ref is None:
        report["errors"].append("no reference recorded")
        return
    if report["iterations"] != ref["iterations"]:
        report["errors"].append(f"iterations {report['iterations']} != {ref['iterations']}")
    if report["labels_sha256"] != ref["labels_sha256"]:
        report["errors"].append("label map differs from the reference")
    if abs(report["energy"] - ref["energy"]) > ENERGY_RTOL * abs(ref["energy"]):
        report["errors"].append(f"energy {report['energy']!r} != {ref['energy']!r}")


def end_to_end(reports: list[dict]) -> dict[str, float]:
    """The bounded metrics: medians, except the peak RSS of the whole run.

    The iteration time leaves out iterations that ran the energy correction:
    how many need it varies from none to half between instances of the -ed
    workloads, which would move a median over all iterations by a third.
    """
    return {
        "uncorrected_iter_ms.p50": statistics.median(
            ms for r in reports for ms, plain in zip(r["iter_ms"], r["uncorrected"]) if plain
        ),
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
    }


def outcomes(reports: list[dict]) -> dict[str, tuple]:
    """Printed in every run and bounded in none.

    The tail and mean of the iteration times move with the share of
    iterations that need a correction and with the machine's other load; the
    totals, the CSV export among them, move with the number of iterations
    until the labels settle, which varies severalfold between seeds.
    """
    iters = [ms for r in reports for ms in r["iter_ms"]]
    return {
        "iter_ms.p90": (statistics.quantiles(iters, n=10, method="inclusive")[8], "ms"),
        "iter_ms.mean": (statistics.fmean(iters), "ms"),
        "solve_s": (statistics.median(r["solve_s"] for r in reports), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in reports), "s"),
        "export_ms": (statistics.median(r["export_ms"] for r in reports), "ms"),
        "iterations": (statistics.median(r["iterations"] for r in reports), "count"),
        "false_stop_share": (sum(r["false_stop"] for r in reports) / len(reports), "1"),
    }


def per_layer(workload: str, plain: list[dict], traced: list[dict]) -> dict[str, tuple]:
    """Per-layer metrics summed over the traced solves, with their units."""
    def total(name, key="self_ms"):
        return sum(r["layers"].get(name, {}).get(key, 0) for r in traced)

    def note(name, key):
        return sum(r["layers"].get(name, {}).get("notes", {}).get(key, 0) for r in traced)

    iterations = sum(r["iterations"] for r in traced)
    diffuse_calls = total("diffuse_stack", "calls")
    corrected = note("energy_decrease_wrap", "corrected")
    failed = note("energy_decrease_wrap", "SecantFailed")
    needed = corrected + failed
    span_ms = sum(rec["self_ms"] for r in traced for rec in r["layers"].values())
    traced_solve = sum(r["solve_s"] for r in traced)
    silent = sorted({n for r in traced for n in r["missing"]}
                    | {n for n in WORKLOADS[workload]["busy"] if total(n, "calls") == 0})
    for name in silent:
        print(f"{workload} FLAG layer {name} recorded no calls", file=sys.stderr)
    return {
        "initial.import_ms": (total_of(traced, "import_ms"), "ms"),
        "initial.make_mask_ms": (total_of(traced, "make_mask_ms"), "ms"),
        "initial.voronoi_init_ms": (total_of(traced, "voronoi_init_ms"), "ms"),
        "diffusion.diffuse_stack_ms": (total("diffuse_stack"), "ms"),
        "diffusion.diffuse_stack_calls": (diffuse_calls, "count"),
        "diffusion.ms_per_call": (total("diffuse_stack") / max(diffuse_calls, 1), "ms"),
        "diffusion.bytes_per_call_computed":
            (note("diffuse_stack", "bytes") / max(diffuse_calls, 1), "B"),
        "projection.project_ms": (sum(total(n) for n in PROJECTIONS), "ms"),
        "projection.project_calls": (sum(total(n, "calls") for n in PROJECTIONS), "count"),
        "projection.norm_step_ms": (total("norm_step"), "ms"),
        "projection.norm_step_calls": (total("norm_step", "calls"), "count"),
        "grid.dirichlet_energy_ms": (total("dirichlet_energy"), "ms"),
        "grid.dirichlet_energy_calls": (total("dirichlet_energy", "calls"), "count"),
        "grid.dirichlet_energy_calls_per_iter":
            (total("dirichlet_energy", "calls") / max(iterations, 1), "1/iter"),
        "grid.partition_norms_ms": (total("partition_norms"), "ms"),
        "scheme.correction_self_ms": (total("energy_decrease_wrap"), "ms"),
        "scheme.corrections_needed": (needed, "count"),
        "scheme.secant_trials": (total("apply_sigma", "calls"), "count"),
        "scheme.correction_failed": (failed, "count"),
        # base: scheme.corrections_needed; 1 when no correction was needed
        "scheme.correction_success_ratio": (corrected / needed if needed else 1.0, "1"),
        "scheme.apply_sigma_self_ms": (total("apply_sigma"), "ms"),
        "scheme.stopping_check_ms": (total("stopping_check"), "ms"),
        "scheme.run_self_ms": (total("run"), "ms"),
        "scheme.frozen_rows": (sum(r["frozen_rows"] for r in traced), "count"),
        "cli.export_ms": (total_of(traced, "export_ms"), "ms"),
        "cli.bytes_written": (total_of(traced, "bytes_written"), "B"),
        "trace.overhead_pct":
            (100.0 * (traced_solve / sum(r["solve_s_median"] for r in plain) - 1.0), "%"),
        "trace.accounted_pct": (100.0 * span_ms / (1e3 * traced_solve), "%"),
        "trace.silent_layers": (len(silent), "count"),
    }


def total_of(reports: list[dict], key: str) -> float:
    return sum(r[key] for r in reports)


def bench(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload: reference check, then timed solves."""
    start = perf_counter()
    deadline = start + DEADLINE_S
    plain, traced = [], []
    limit = min(seconds, RUN_LIMIT_S)
    instance = REFERENCE_SEED
    while True:
        plain.append(best_of(workload, instance, deadline))
        if trace:
            traced.append(solve(workload, instance, True, deadline))
        # Start another instance only if it should end by about the limit,
        # so a run lasts about --seconds whatever the instance sizes.
        elapsed = perf_counter() - start
        if elapsed + 0.5 * elapsed / len(plain) >= limit:
            break
        instance = instance_seed(seed, len(plain) - 1)
    check_reference(workload, plain[0])
    reports = plain + traced
    for r in traced:
        if not r["errors"] and r["frozen_rows"] != r["layers"].get(
                "energy_decrease_wrap", {}).get("notes", {}).get("SecantFailed", 0):
            r["errors"].append("frozen rows disagree with traced correction failures")
    failures = [r for r in reports if r["errors"]]
    for r in failures:
        print(f"{workload} FAIL seed {r['seed']}: {'; '.join(r['errors'])}",
              file=sys.stderr)
    shown = {"failed_share": (len(failures) / len(reports), "1")}
    metrics: dict[str, tuple] = {}
    if not failures:
        shown.update(outcomes(plain))
        if trace:
            metrics = {**shown, **per_layer(workload, plain, traced)}
        else:
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(plain).items()}
    for name, (value, unit) in {**metrics, **shown}.items():
        print(f"{workload} {name} {value:.6g} {unit}")
    return {
        "correct": not failures,
        "attempted": len(reports),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def stamp() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    cpu = platform.processor() or platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        models = [ln.split(":", 1)[1].strip() for ln in cpuinfo.read_text().splitlines()
                  if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def record_reference() -> int:
    refs = {}
    for workload in WORKLOADS:
        r = solve(workload, REFERENCE_SEED, False, perf_counter() + DEADLINE_S)
        if r["errors"]:
            print(f"{workload}: {r['errors']}", file=sys.stderr)
            return 1
        refs[workload] = {"seed": REFERENCE_SEED, "iterations": r["iterations"],
                          "labels_sha256": r["labels_sha256"], "energy": r["energy"]}
    REFERENCE.write_text(json.dumps(refs, indent=2) + "\n")
    return 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args()

    if not (ROOT / "src" / "optpart" / "__init__.py").is_file():
        print(f"error: no optpart source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    print("stamp " + json.dumps(stamp()))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {w: bench(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    shutil.rmtree(WORK, ignore_errors=True)
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
