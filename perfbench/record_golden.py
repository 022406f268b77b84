"""Record the golden stream hashes the correctness gate compares against.

    python3 perfbench/record_golden.py [WORKLOAD ...]

Verifies each workload's slice once per recorded sampling seed, refuses to
record a run with a failed verdict or a wrong stratum size, and rewrites
``golden.json``.  Re-record only when the verdict stream is meant to change.
The sampled workload has eight development seeds and one held-out seed,
kept aside so that a performance claim can be checked on a seed that was
not used while the change was written.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import OUT, run_rep
from workloads import GOLDEN_PATH, WORKLOADS, jobs_for

DEV_SEEDS = tuple(range(1, 9))
HELDOUT_SEED = 424_242


def record(name: str) -> dict:
    w = WORKLOADS[name]
    seeds = DEV_SEEDS + (HELDOUT_SEED,) if w.mode == "sampled" else (0,)
    work_dir = os.path.join(OUT, f"record-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    hashes = {}
    try:
        for seed in seeds:
            rep = run_rep({"workload": name, "sample_seed": seed,
                           "jobs": jobs_for(w), "work_dir": work_dir,
                           "setup": False})
            if rep["failed"] or rep["total_in_stratum"] != w.identity:
                raise SystemExit(f"{name} seed {seed}: refusing to record {rep}")
            hashes[seed] = rep["stream_hash"]
            print(name, seed, rep["stream_hash"], flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    entry = {"n": w.n, "hashes": {str(s): h for s, h in hashes.items()
                                  if s != HELDOUT_SEED}}
    if w.mode == "sampled":
        entry["heldout"] = {"seed": HELDOUT_SEED, "hash": hashes[HELDOUT_SEED]}
    return entry


def main() -> None:
    names = sys.argv[1:] or sorted(WORKLOADS)
    golden = {}
    if os.path.exists(GOLDEN_PATH):
        with open(GOLDEN_PATH, encoding="utf-8") as fh:
            golden = json.load(fh)
    for name in names:
        golden[name] = record(name)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
