"""The benchmark's reference solutions still come out of the current source.

Each workload's reference instance is solved once by ``perfbench/instance.py``
in a fresh process and held to ``perfbench/reference.json`` by the rule
``perfbench/run.py`` applies, so a change that moves a reference shows up in
the tests and not only in a benchmark run.  Two masked2d-ed instances that
run the energy correction, and three more box3d instances, are pinned the
same way, so that a change that is not bitwise is held to more than one
instance of each.  Nothing under ``perfbench/`` is
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


@pytest.mark.parametrize("workload", sorted(REFERENCE))
def test_benchmark_reference_instance(tmp_path, workload):
    ref = REFERENCE[workload]
    cmd = [sys.executable, "-B", str(PERFBENCH / "instance.py"), "--workload", workload,
           "--seed", str(ref["seed"]), "--out", str(tmp_path)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["errors"] == []
    assert report["iterations"] == ref["iterations"]
    assert report["labels_sha256"] == ref["labels_sha256"]
    assert abs(report["energy"] - ref["energy"]) <= ENERGY_RTOL * abs(ref["energy"])


# masked2d-ed instances that run the energy correction, which the reference
# instance (seed 0) never does: iterations, corrected iterations, label map
CORRECTED_MASKED = {
    2: (96, 25, "1427765880b3fe0b7cacdf546cd83cf534b2c313dafe2de0fc70aef4ef059d47"),
    3: (77, 23, "e32d11ff6d7f0a19c19043cf7e754581a4a17350aec14b807d7d8034dcf6d603"),
}


@pytest.mark.parametrize("seed", sorted(CORRECTED_MASKED))
def test_corrected_masked_instance(tmp_path, seed):
    cmd = [sys.executable, "-B", str(PERFBENCH / "instance.py"), "--workload", "masked2d-ed",
           "--seed", str(seed), "--out", str(tmp_path)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["errors"] == []
    corrected = report["uncorrected"].count(False)
    assert (report["iterations"], corrected, report["labels_sha256"]) == CORRECTED_MASKED[seed]


# box3d instances beside the reference one (seed 0): iterations, label map
BOX3D = {
    1: (160, "d3da4cd78fccbbafa25da37c935d837ed0bdcc7be0aaec846ef0544029557601"),
    2: (117, "bd726fab1cd7be2c33f57b64a6508e23a096a9644877a19889ef8448748442c2"),
    3: (117, "8d2f0cf41d8240d2a419c108e1b076ddbc970d4a8de053e09b48cb6e2aaa08af"),
}


@pytest.mark.parametrize("seed", sorted(BOX3D))
def test_box3d_instance(tmp_path, seed):
    cmd = [sys.executable, "-B", str(PERFBENCH / "instance.py"), "--workload", "box3d",
           "--seed", str(seed), "--out", str(tmp_path)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["errors"] == []
    assert (report["iterations"], report["labels_sha256"]) == BOX3D[seed]
