"""The benchmark's workloads: which family slice each one verifies, and why.

Every workload is a closed loop driven from one process: one
``verify_family`` call per repetition, each in a fresh interpreter, so every
repetition pays the same cold set-up a command-line run pays.

* ``exhaustive_rho0`` -- the swap-free (21,6,24) family with ``rho_max=0``,
  canonical prefix, one job, JSONL without certificates.  The range walk is
  a small share of the time and set-up is tiny, so nearly all time is in the
  per-table kernels (table, multidegree, tensor, drop).  It bypasses
  unranking, the counting dynamic program (DP) and inter-process traffic.
* ``sampled_two_swap`` -- a seeded uniform sample of the two-swap stratum of
  (23,6,26), one job.  The only workload that hits all four two-swap classes
  (disjoint, cycle1, cycle2, repeated), the cycle side conditions and extra
  candidate multidegrees.  Every table is unranked from the root and the
  1.7 s DP dominates set-up.
* ``parallel_certs`` -- the swap-bearing stratum of (22,6,25), canonical
  prefix, a fork pool of up to two jobs, certificates in every verdict line,
  plus a checkpoint file.  Same per-table kernels, but the parent does the
  ordered merge, chained hash and checkpoint write of ten-times larger
  lines, so it is the only workload that shows work added to the parent.

Exhaustive workloads verify a fixed canonical prefix, so their input does not
depend on the seed.  The sampled workload takes its sampling seed from the
benchmark seed (see ``sample_seed``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")


@dataclass(frozen=True)
class Workload:
    name: str
    g: int
    r: int
    d: int
    rho_max: int | None
    stratum: str
    mode: str
    n: int                    # tables verified per repetition
    max_jobs: int
    emit_certificates: bool
    checkpoint: bool
    identity: int             # exact size of the stratum, from the paper


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload("exhaustive_rho0", 21, 6, 24, 0, "all", "exhaustive",
                 n=1_500, max_jobs=1, emit_certificates=False,
                 checkpoint=False, identity=1_385_670),
        Workload("sampled_two_swap", 23, 6, 26, None, "two_swap", "sampled",
                 n=2_000, max_jobs=1, emit_certificates=False,
                 checkpoint=False, identity=6_201_981_786),
        Workload("parallel_certs", 22, 6, 25, None, "has_swap", "exhaustive",
                 n=4_000, max_jobs=2, emit_certificates=True,
                 checkpoint=True, identity=128_035_908),
    )
}


def jobs_for(workload: Workload) -> int:
    """Pool size: the workload's job count, never more than usable cores."""
    return max(1, min(workload.max_jobs, len(os.sched_getaffinity(0))))


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def sample_seed(workload: Workload, seed: int, golden: dict) -> int:
    """Sampling seed used for benchmark seed ``seed`` (0 for exhaustive runs).

    A seed with a recorded golden hash is used as is, which is how the
    held-out seed is run.  Any other seed picks one of the recorded
    development seeds, so every run has a golden hash to check against.
    """
    if workload.mode != "sampled":
        return 0
    entry = golden[workload.name]
    if str(seed) in entry["hashes"] or seed == entry["heldout"]["seed"]:
        return seed
    dev = sorted(int(s) for s in entry["hashes"])
    return dev[seed % len(dev)]


def golden_hash(workload: Workload, sampling_seed: int, golden: dict) -> str:
    entry = golden[workload.name]
    if entry["n"] != workload.n:
        raise ValueError(
            f"golden hashes for {workload.name} were recorded at n={entry['n']},"
            f" the workload verifies n={workload.n}; re-record them"
        )
    if entry.get("heldout", {}).get("seed") == sampling_seed:
        return entry["heldout"]["hash"]
    return entry["hashes"][str(sampling_seed)]
