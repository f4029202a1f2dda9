"""The benchmark's reference solutions still come out of the current source.

Each workload's reference instance is solved once by ``perfbench/instance.py``
in a fresh process and held to ``perfbench/reference.json`` by the rule
``perfbench/run.py`` applies, so a change that moves a reference shows up in
the tests and not only in a benchmark run.  Nothing under ``perfbench/`` is
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
