"""Determinism of the benchmark's counts and stream hashes.

    python3 -m pytest perfbench/tests

Two traced runs of the real command with the same seed must report the same
count metrics and the same stream hash, and the parallel_certs slice must
stream the same hash at one and at two jobs.  About a minute on two cores.
"""

import json
import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from run import run_rep  # noqa: E402
from workloads import WORKLOADS, golden_hash, load_golden  # noqa: E402

COUNTS = (
    "enumeration.memo_states",
    "multidegree.candidates_per_table",
    "tensor.sections_per_candidate",
    "drop.success_ratio",
    "drop.steps_per_certificate",
    "drop.search_fallbacks",
    "verify.table_samples",
    "verify.side_rejections",
    "verify.bytes_per_verdict",
)


def traced_run(workload: str, seed: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.splitlines()
    stream_hash = next(ln.split()[1] for ln in lines if ln.startswith("stream_hash "))
    return stream_hash, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_same_counts_and_hash(workload):
    hash1, first = traced_run(workload, 5)
    hash2, second = traced_run(workload, 5)
    assert first["correct"] and second["correct"]
    assert hash1 == hash2
    for name in COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_parallel_slice_hash_does_not_depend_on_jobs(tmp_path):
    w = WORKLOADS["parallel_certs"]
    hashes = []
    for jobs in (1, 2):
        rep = run_rep({"workload": w.name, "sample_seed": 0, "jobs": jobs,
                       "work_dir": str(tmp_path), "setup": False})
        assert rep["failed"] == 0 and rep["verified"] == w.n
        hashes.append(rep["stream_hash"])
    assert hashes[0] == hashes[1] == golden_hash(w, 0, load_golden())
