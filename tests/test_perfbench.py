"""The benchmark's reference solutions still come out of the current source.

Each workload's reference instance is solved once by ``perfbench/instance.py``
in a fresh process and held to ``perfbench/reference.json`` by the rule
``perfbench/run.py`` applies, so a change that moves a reference shows up in
the tests and not only in a benchmark run.  Five more masked2d-ed instances,
three of which run the energy correction, and three more box3d instances, are
pinned the same way, so that a change that is not bitwise is held to more
than one instance of each.  Nothing under ``perfbench/`` is
written: the solve's files go to a temporary directory, and ``-B`` keeps the
interpreter from caching bytecode there.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())
ENERGY_RTOL = 1e-12


def solve(tmp_path, workload: str, seed: int) -> dict:
    """The report of one solve of a workload instance, which must pass its checks."""
    cmd = [sys.executable, "-B", str(PERFBENCH / "instance.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(tmp_path)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["errors"] == []
    return report


@pytest.mark.parametrize("workload", sorted(REFERENCE))
def test_benchmark_reference_instance(tmp_path, workload):
    ref = REFERENCE[workload]
    report = solve(tmp_path, workload, ref["seed"])
    assert report["iterations"] == ref["iterations"]
    assert report["labels_sha256"] == ref["labels_sha256"]
    assert abs(report["energy"] - ref["energy"]) <= ENERGY_RTOL * abs(ref["energy"])


def masked_outcome(tmp_path, seed: int) -> tuple[int, int, str]:
    report = solve(tmp_path, "masked2d-ed", seed)
    return report["iterations"], report["uncorrected"].count(False), report["labels_sha256"]


# masked2d-ed instances that run the energy correction, which the reference
# instance (seed 0) never does: iterations, corrected iterations, label map
CORRECTED_MASKED = {
    2: (96, 25, "1427765880b3fe0b7cacdf546cd83cf534b2c313dafe2de0fc70aef4ef059d47"),
    3: (77, 23, "e32d11ff6d7f0a19c19043cf7e754581a4a17350aec14b807d7d8034dcf6d603"),
    4: (107, 15, "9af95875bae6c61003986ea798f5994e84ebc8084f5f2a527e5db1becef87a74"),
}


@pytest.mark.parametrize("seed", sorted(CORRECTED_MASKED))
def test_corrected_masked_instance(tmp_path, seed):
    assert masked_outcome(tmp_path, seed) == CORRECTED_MASKED[seed]


# masked2d-ed instances that, like the reference one, run no correction
UNCORRECTED_MASKED = {
    1: (61, 0, "759a751249e96e95a7e4c7f736f1babad9c8026b3799adbc0a05b7c7ee047665"),
    5: (69, 0, "637099bebbdc5f705cd205bf56d39bbc92de823fc6151b0e4cdca1282d2789ca"),
}


@pytest.mark.parametrize("seed", sorted(UNCORRECTED_MASKED))
def test_uncorrected_masked_instance(tmp_path, seed):
    assert masked_outcome(tmp_path, seed) == UNCORRECTED_MASKED[seed]


# box3d instances beside the reference one (seed 0): iterations, label map
BOX3D = {
    1: (160, "d3da4cd78fccbbafa25da37c935d837ed0bdcc7be0aaec846ef0544029557601"),
    2: (117, "bd726fab1cd7be2c33f57b64a6508e23a096a9644877a19889ef8448748442c2"),
    3: (117, "8d2f0cf41d8240d2a419c108e1b076ddbc970d4a8de053e09b48cb6e2aaa08af"),
}


@pytest.mark.parametrize("seed", sorted(BOX3D))
def test_box3d_instance(tmp_path, seed):
    report = solve(tmp_path, "box3d", seed)
    assert (report["iterations"], report["labels_sha256"]) == BOX3D[seed]
