"""The benchmark's reference solutions still come out of the current source.

Each workload's reference instance is solved once by ``perfbench/instance.py``
in a fresh process and held to ``perfbench/reference.json`` by the rule
``perfbench/run.py`` applies, so a change that moves a reference shows up in
the tests and not only in a benchmark run.  Nine more masked2d-ed instances
(seeds 1-9), six of which run the energy correction, five more torus2d-ed
instances (seeds 1-5) and three more box3d instances are pinned the same way,
so that a change that is not bitwise is held to more than one instance of
each.  A 30 s benchmark run solves about seeds 1-8 of masked2d-ed and 1-5 of
torus2d-ed, so each instance it reaches there is pinned.  Each reference instance is also solved traced,
as ``perfbench/run.py --trace`` does.  Nothing under ``perfbench/`` is
written: the solve's files go to a temporary directory, ``-B`` keeps the
interpreter from caching bytecode there, and the workload table is read with
``runpy``, which caches none either.
"""

import json
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())
WORKLOADS = runpy.run_path(str(PERFBENCH / "workloads.py"))["WORKLOADS"]
ENERGY_RTOL = 1e-12


def solve(tmp_path, workload: str, seed: int, *flags: str) -> dict:
    """The report of one solve of a workload instance, which must pass its checks."""
    cmd = [sys.executable, "-B", str(PERFBENCH / "instance.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(tmp_path), *flags]
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


@pytest.mark.parametrize("workload", sorted(REFERENCE))
def test_traced_reference_instance(tmp_path, workload):
    # every traced name is found and every busy layer records calls, so no
    # layer reads as zero; the heat step's bytes note reads the state it takes
    ref = REFERENCE[workload]
    report = solve(tmp_path, workload, ref["seed"], "--trace")
    assert report["missing"] == []
    layers = report["layers"]
    assert [name for name in WORKLOADS[workload]["busy"]
            if layers.get(name, {}).get("calls", 0) == 0] == []
    assert layers["diffuse_stack"]["notes"]["bytes"] > 0
    # tracing moves no result
    assert (report["iterations"], report["labels_sha256"]) == (ref["iterations"],
                                                               ref["labels_sha256"])


def masked_outcome(tmp_path, seed: int) -> tuple[int, int, str]:
    report = solve(tmp_path, "masked2d-ed", seed)
    return report["iterations"], report["uncorrected"].count(False), report["labels_sha256"]


# masked2d-ed instances that run the energy correction, which the reference
# instance (seed 0) never does: iterations, corrected iterations, label map
CORRECTED_MASKED = {
    2: (96, 25, "1427765880b3fe0b7cacdf546cd83cf534b2c313dafe2de0fc70aef4ef059d47"),
    3: (77, 23, "e32d11ff6d7f0a19c19043cf7e754581a4a17350aec14b807d7d8034dcf6d603"),
    4: (107, 15, "9af95875bae6c61003986ea798f5994e84ebc8084f5f2a527e5db1becef87a74"),
    7: (90, 3, "23ed4a0a5d92a872d0eb6f5cefe34a9e5c4f61f0cf9e04d43f3be5b2e9f6f124"),
    8: (83, 26, "01f22c674030b3cdae2b3523f2c505c17bb1620f9d1aef2fb4807c3d5496d39a"),
    9: (85, 26, "80c3c047aea8d4a5a39edbc0c77540c9418441638b4dc38aec7f16481df5670c"),
}


@pytest.mark.parametrize("seed", sorted(CORRECTED_MASKED))
def test_corrected_masked_instance(tmp_path, seed):
    assert masked_outcome(tmp_path, seed) == CORRECTED_MASKED[seed]


# masked2d-ed instances that, like the reference one, run no correction
UNCORRECTED_MASKED = {
    1: (61, 0, "759a751249e96e95a7e4c7f736f1babad9c8026b3799adbc0a05b7c7ee047665"),
    5: (69, 0, "637099bebbdc5f705cd205bf56d39bbc92de823fc6151b0e4cdca1282d2789ca"),
    6: (92, 0, "58a89ad49da3a44a032aa31e122b642715fce3d33fcc668a5ebee4b1e637d88a"),
}


@pytest.mark.parametrize("seed", sorted(UNCORRECTED_MASKED))
def test_uncorrected_masked_instance(tmp_path, seed):
    assert masked_outcome(tmp_path, seed) == UNCORRECTED_MASKED[seed]


# torus2d-ed instances beside the reference one (seed 0): iterations, label map
TORUS = {
    1: (127, "252a7a41f6e0957899fff40363c384220d47d6c7f4eda8ed16bad4d0526ec614"),
    2: (53, "702d8bca65011a18db3e31c7ce2ef8c2a6b54e0a0831f1c0e7f7790756a7bb82"),
    3: (115, "a160cee034d30f28664b03f47fdae8803032b2255c1db079d48b6ff3bac2f86b"),
    4: (238, "45c34eec9ee41d84d6549c70bc3fb22f8b98aba9cc1d8309217a24e84937bd7d"),
    5: (93, "6e0ccfd1abf2810ff09d956ef4988ea30535c61fb45df0a4f92a8326279e5e66"),
}


@pytest.mark.parametrize("seed", sorted(TORUS))
def test_torus_instance(tmp_path, seed):
    report = solve(tmp_path, "torus2d-ed", seed)
    assert (report["iterations"], report["labels_sha256"]) == TORUS[seed]


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
