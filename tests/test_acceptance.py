"""End-to-end checks of the ten advertised guarantees, one test per item.

Run with ``pytest tests/test_acceptance.py -v`` for one pass/fail line per
criterion; add ``-s`` to see the summary line each test prints.
"""

import time

import numpy as np
import pytest

from optpart import (
    GridSpec,
    PartitionState,
    SchemeConfig,
    dirichlet_energy,
    label_map,
    make_mask,
    max_support_overlap,
    partition_norms,
    run,
    voronoi_init,
)
from optpart.cli import export_labels, read_pgm, write_pgm
from optpart.projection import (
    ortho_pos_step_geometric,
    ortho_pos_step_linear,
    ortho_step_ratio,
)

from multipliers import densify, recover_multipliers
from test_diffusion import dense_dirichlet_kernel, dense_periodic_kernel, heat

NORM_TOL = 1e-12


def report(num: int, desc: str, failures: list[str]):
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num:02d}: {status} - {desc}")
    assert not failures, f"criterion {num:02d}: " + "; ".join(failures[:10])


class InvariantAuditor:
    """Per-iteration constraint check collected through the run callback."""

    def __init__(self, mask=None):
        self.failures: list[str] = []
        self.iterations = 0
        self.outside = None if mask is None else mask.indicator == 0.0

    def __call__(self, state: PartitionState, row) -> None:
        self.iterations = row.iteration
        v = state.values
        if v.min() < 0.0:
            self.failures.append(f"iter {row.iteration}: negative nodal value")
        if np.abs(partition_norms(state) - 1.0).max() > NORM_TOL:
            self.failures.append(f"iter {row.iteration}: norm deviation > {NORM_TOL}")
        if max_support_overlap(state) != 0.0:
            self.failures.append(f"iter {row.iteration}: overlapping supports")
        if self.outside is not None and v[:, self.outside].any():
            self.failures.append(f"iter {row.iteration}: mass outside the domain mask")


ALL_VARIANTS = (
    "four_step",
    "three_step_linear",
    "three_step_geometric",
    "three_step_linear_ed",
    "three_step_geometric_ed",
)


def test_criterion_01_exact_constraints_all_variants():
    grid = GridSpec(dim=2, n=64)
    failures: list[str] = []
    start = time.perf_counter()
    for variant in ALL_VARIANTS:
        for k in (2, 4, 8):
            init = voronoi_init(grid, k, rng_seed=0)
            audit = InvariantAuditor()
            cfg = SchemeConfig(k=k, variant=variant, tau=0.1, n_max=300)
            run(cfg, init, on_iteration=audit)
            failures.extend(f"{variant} k={k}: {msg}" for msg in audit.failures)
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime budget exceeded: {elapsed:.1f}s >= 30s")
    report(1, f"constraints exact every iteration, 15 runs in {elapsed:.1f}s", failures)


def test_criterion_02_spectral_diffusion_accuracy():
    failures: list[str] = []
    g = GridSpec(dim=2, n=64)
    xx, yy = g.meshgrid()

    cases = [
        ("cos(x)", np.cos(xx), 0.25, np.exp(-0.25), "periodic"),
        ("cos(2x)cos(3y)", np.cos(2 * xx) * np.cos(3 * yy), 0.1, np.exp(-1.3), "periodic"),
        (
            "lowest closed-box mode",
            np.sin((xx + np.pi) / 2.0) * np.sin((yy + np.pi) / 2.0),
            1.0,
            np.exp(-0.5),
            "dirichlet",
        ),
    ]
    for name, f, tau, decay, bc in cases:
        got = heat(f, g, tau, bc)
        rel = np.abs(got - decay * f).max() / np.abs(decay * f).max()
        if rel > 1e-12:
            failures.append(f"{name}: eigenmode decay error {rel:.2e}")

    rng = np.random.default_rng(7)
    f = rng.standard_normal(g.shape)
    f_dir = f.copy()
    f_dir[0, :] = 0.0
    f_dir[:, 0] = 0.0
    for name, field, bc in [
        ("periodic", f, "periodic"),
        ("closed box", f_dir, "dirichlet"),
    ]:
        two = heat(heat(field, g, 0.07, bc), g, 0.05, bc)
        one = heat(field, g, 0.12, bc)
        err = np.abs(two - one).max()
        if err > 1e-12:
            failures.append(f"{name}: composition defect {err:.2e}")

    g8 = GridSpec(dim=2, n=8)
    kp = dense_periodic_kernel(8, 0.3)
    kd = dense_dirichlet_kernel(8, 0.5)
    rng = np.random.default_rng(11)
    for trial in range(20):
        f = rng.standard_normal(g8.shape)
        err = np.abs(heat(f, g8, 0.3, "periodic") - kp @ f @ kp.T).max()
        if err > 1e-13:
            failures.append(f"dense periodic oracle trial {trial}: {err:.2e}")
        f[0, :] = 0.0
        f[:, 0] = 0.0
        want = np.zeros(g8.shape)
        want[1:, 1:] = kd @ f[1:, 1:] @ kd.T
        err = np.abs(heat(f, g8, 0.5, "dirichlet") - want).max()
        if err > 1e-13:
            failures.append(f"dense closed-box oracle trial {trial}: {err:.2e}")

    report(2, "spectral semigroup matches analytic decay and dense oracle", failures)


def test_criterion_03_projection_multiplier_identities():
    steps = {
        "four_step": ortho_step_ratio,
        "three_step_linear": ortho_pos_step_linear,
        "three_step_geometric": ortho_pos_step_geometric,
    }
    failures: list[str] = []
    start = time.perf_counter()
    for variant, step in steps.items():
        for k in (2, 3, 4):
            rng = np.random.default_rng(1000 + 10 * k)
            lo = 0.0 if variant == "four_step" else -1.0
            before = rng.uniform(lo, 1.0, size=(k, 10_000))
            after = densify(step, before)
            d = recover_multipliers(before, after, 0.1, variant)
            tag = f"{variant} k={k}"
            if d.max_residual > 1e-12:
                failures.append(f"{tag}: residual {d.max_residual:.2e}")
            if d.positivity.min() < 0.0:
                failures.append(f"{tag}: negative positivity multiplier")
            if np.abs(d.positivity * after).max() > 1e-12:
                failures.append(f"{tag}: complementarity defect")
            if not np.array_equal(d.ortho, np.swapaxes(d.ortho, 0, 1)):
                failures.append(f"{tag}: coupling multipliers not symmetric")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime budget exceeded: {elapsed:.1f}s >= 5s")
    report(3, f"multiplier identities hold on 10^4 tuples per case ({elapsed:.1f}s)", failures)


def test_criterion_04_energy_dissipation_wrapped_vs_plain():
    grid = GridSpec(dim=2, n=128)
    failures: list[str] = []
    start = time.perf_counter()
    for k in (4, 8):
        init = voronoi_init(grid, k, rng_seed=0)
        wrapped = SchemeConfig(k=k, variant="three_step_geometric_ed", tau=0.05)
        _, trace = run(wrapped, init)
        energies = [r.energy for r in trace]
        bad = sum(b > a for a, b in zip(energies, energies[1:]))
        if bad:
            failures.append(f"k={k}: corrected run shows {bad} energy increases")
        plain = SchemeConfig(k=k, variant="three_step_geometric", tau=0.05)
        _, plain_trace = run(plain, init)
        plain_e = [r.energy for r in plain_trace]
        ups = sum(b > a for a, b in zip(plain_e, plain_e[1:]))
        if ups < 1:
            failures.append(f"k={k}: plain run never increased, nothing to correct")
    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        failures.append(f"runtime budget exceeded: {elapsed:.1f}s >= 120s")
    report(4, f"corrected runs monotone, plain runs oscillate ({elapsed:.1f}s)", failures)


def test_criterion_05_rapid_initial_decrease():
    grid = GridSpec(dim=2, n=64)
    init = voronoi_init(grid, 4, rng_seed=0)
    cfg = SchemeConfig(k=4, variant="four_step", tau=0.1, n_max=20)
    _, trace = run(cfg, init)
    failures: list[str] = []
    if len(trace) < 21:
        failures.append(f"run settled after only {len(trace) - 1} iterations")
    elif not trace[20].energy < trace[0].energy:
        failures.append(
            f"no decrease: E20 = {trace[20].energy:.6g} vs E0 = {trace[0].energy:.6g}"
        )
    report(5, "energy after 20 iterations strictly below the initial energy", failures)


def test_criterion_06_stopping_fires_before_the_cap():
    grid = GridSpec(dim=2, n=64)
    failures: list[str] = []
    for variant in ("four_step", "three_step_linear"):
        for seed in range(5):
            init = voronoi_init(grid, 4, rng_seed=seed)
            cfg = SchemeConfig(k=4, variant=variant, tau=0.1, n_max=2000)
            _, trace = run(cfg, init)
            if not trace[-1].stopped:
                failures.append(f"{variant} seed {seed}: hit the iteration cap")
    report(6, "all 10 runs reach the label-map fixed point before 2000 iterations", failures)


def test_criterion_07_mask_containment_with_warmup_schedule():
    grid = GridSpec(dim=2, n=128)
    mask = make_mask(grid, "star5")
    schedule = (1.0 / 128, 1.0 / 64, 1.0 / 32, 1.0 / 16, 1.0 / 8)
    failures: list[str] = []
    outside = mask.indicator == 0.0

    init = voronoi_init(grid, 5, rng_seed=0, bc="dirichlet", mask=mask)
    audit = InvariantAuditor(mask=mask)
    cfg = SchemeConfig(
        k=5, variant="three_step_geometric", tau=schedule, bc="dirichlet", mask=mask
    )
    final, trace = run(cfg, init, on_iteration=audit)
    failures.extend(audit.failures)
    if np.any(final.values[:, outside] != 0.0):
        failures.append("final state leaks outside the star")
    part_sizes = np.sum(final.values > 0.0, axis=(1, 2))
    if (part_sizes == 0).any():
        failures.append(f"empty parts in the final partition: sizes {part_sizes.tolist()}")
    if not trace[-1].stopped:
        failures.append("plain run hit the iteration cap")

    audit_ed = InvariantAuditor(mask=mask)
    cfg_ed = SchemeConfig(
        k=5, variant="three_step_geometric_ed", tau=schedule, bc="dirichlet", mask=mask
    )
    final_ed, trace_ed = run(cfg_ed, init, on_iteration=audit_ed)
    failures.extend(f"corrected run: {m}" for m in audit_ed.failures)
    if np.any(final_ed.values[:, outside] != 0.0):
        failures.append("corrected run leaks outside the star")
    if not trace_ed[-1].stopped:
        failures.append("corrected run hit the iteration cap")
    report(7, "masked runs keep every node outside the star at exactly zero", failures)


def test_criterion_08_cross_scheme_agreement(tmp_path):
    grid = GridSpec(dim=2, n=64)
    init = voronoi_init(grid, 4, rng_seed=0)
    finals = {}
    failures: list[str] = []
    for variant in ("four_step", "three_step_linear", "three_step_geometric"):
        cfg = SchemeConfig(k=4, variant=variant, tau=0.01, n_max=2000)
        final, trace = run(cfg, init)
        if not trace[-1].stopped:
            failures.append(f"{variant}: hit the iteration cap")
        if final.values.min() < 0.0 or max_support_overlap(final) != 0.0:
            failures.append(f"{variant}: final state violates constraints")
        finals[variant] = label_map(final)

    # expected-equality check: disagreement produces diff images, not a failure
    names = sorted(finals)
    mismatch_notes = []
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            diff = finals[a] != finals[b]
            count = int(diff.sum())
            if count:
                path = tmp_path / f"diff_{a}_vs_{b}.pgm"
                write_pgm((diff.T * 255).astype(np.uint8), path)
                if not path.is_file():
                    failures.append(f"diff image for {a} vs {b} not written")
                mismatch_notes.append(f"{a} vs {b}: {count}/{diff.size} nodes ({path})")
    agreement = "label maps identical" if not mismatch_notes else "; ".join(mismatch_notes)
    report(8, f"cross-scheme agreement (expected-equality): {agreement}", failures)


def test_criterion_09_periodic_tiling_seam(tmp_path):
    grid = GridSpec(dim=2, n=64)
    init = voronoi_init(grid, 4, rng_seed=0)
    cfg = SchemeConfig(k=4, variant="four_step", tau=0.1, n_max=2000)
    final, trace = run(cfg, init)
    failures: list[str] = []
    if not trace[-1].stopped:
        failures.append("run did not converge")
    base_path = tmp_path / "base.pgm"
    tiled_path = tmp_path / "tiled.pgm"
    export_labels(final, base_path)
    base = read_pgm(base_path)
    # the torus's image tiled 2x2, written and read back as one image
    write_pgm(np.tile(base, (2, 2)), tiled_path)
    tiled = read_pgm(tiled_path)
    if tiled.shape != (128, 128):
        failures.append(f"tiled image has shape {tiled.shape}")
    if not np.array_equal(tiled, np.tile(base, (2, 2))):
        failures.append("tiled image is not the 2x2 repetition of the base image")
    if not np.array_equal(tiled[64, :], tiled[0, :]):
        failures.append("horizontal seam row differs from row 0")
    if not np.array_equal(tiled[:, 64], tiled[:, 0]):
        failures.append("vertical seam column differs from column 0")
    report(9, "periodic label map tiles with exact seams", failures)


def test_criterion_10_three_dimensional_smoke():
    grid = GridSpec(dim=3, n=32)
    init = voronoi_init(grid, 4, rng_seed=0)
    audit = InvariantAuditor()
    cfg = SchemeConfig(k=4, variant="four_step", tau=np.pi / 16.0, n_max=500)
    final, trace = run(cfg, init, on_iteration=audit)
    failures = list(audit.failures)
    if not (trace[-1].stopped or len(trace) == 501):
        failures.append("run ended without stopping or reaching the cap")
    if final.values.min() < 0.0:
        failures.append("negative value in the final 3D state")
    report(10, f"3D run keeps all constraints for {len(trace) - 1} iterations", failures)
