"""Family-verification benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repetitions of the workload (see ``workloads.py``), each in a fresh
interpreter, until ``--seconds`` have passed, checks every repetition's
output, prints each metric by name with its unit, and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, medians over repetitions:

* ``tables_per_s``: tables verified / wall time of the ``verify_family``
  call, including the set-up inside it that every command-line run pays;
* ``setup_s``: cold ``TableEnumerator`` + ``total()`` (+ ``sample_indices``
  for the sampled workload), timed separately, several times per run;
* ``peak_rss_mb``: peak resident set of the repetition process or any of
  its pool workers, whichever is larger.

Both timings are calibrated to a nominal machine speed by a probe loop run
before and after each timed phase (see ``calibrate.py``); the raw medians
are printed beside them as ``raw_tables_per_s`` and ``raw_setup_s``.

``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer split from the traced ones (see ``tracer.py``), plus the tracing
overhead: untraced over traced ``tables_per_s``.  Spans of the last traced
repetition stay in ``.perfbench-out/trace/``.

The correctness gate, on every repetition: no failed verdict, all tables
verified, the stratum size equals the paper's identity, and the chained
stream hash equals the recorded golden hash for the workload and sampling
seed (``golden.json``); with a checkpoint, it holds the same count and hash.
Any mismatch prints ``"correct": false`` and exits 1.  The exit code is 2
when the package source is missing.  Beside each run the script prints the
usable core count, the Python version and the probe rate before and after
the repetitions, and appends the whole record to
``.perfbench-out/runs.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")
REP = os.path.join(HERE, "rep.py")
REP_TIMEOUT_S = 150

sys.path.insert(0, HERE)
from calibrate import REF_MOPS, probe_mops  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    golden_hash,
    jobs_for,
    load_golden,
    sample_seed,
)

END_TO_END_UNITS = {"tables_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "enumeration.count_s": "s",
    "enumeration.memo_states": "count",
    "enumeration.walk_us_per_table": "us",
    "enumeration.self_us_per_table": "us",
    "table.us_per_table": "us",
    "multidegree.us_per_table": "us",
    "multidegree.candidates_per_table": "count",
    "tensor.us_per_table": "us",
    "tensor.sections_per_candidate": "count",
    "drop.us_per_candidate": "us",
    "drop.replay_us_per_pass": "us",
    "drop.self_us_per_table": "us",
    "drop.success_ratio": "ratio",
    "drop.steps_per_certificate": "count",
    "drop.search_fallbacks": "count",
    "verify.self_us_per_table": "us",
    "verify.table_ms_p50": "ms",
    "verify.table_ms_p99": "ms",
    "verify.table_samples": "count",
    "verify.side_rejections": "count",
    "verify.stream_us_per_table": "us",
    "verify.bytes_per_verdict": "B",
    "verify.parent_cpu_share": "ratio",
    "verify.worker_util": "ratio",
    "trace.overhead_ratio": "ratio",
}


def run_rep(spec: dict) -> dict:
    """Run one repetition in its own process group and parse its result."""
    proc = subprocess.Popen(
        [sys.executable, REP, json.dumps(spec)], cwd=ROOT,
        stdout=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=REP_TIMEOUT_S)
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"repetition exited with code {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def gate(rep: dict, workload, expected_hash: str) -> list[str]:
    """Mismatches between one repetition's output and the recorded truth."""
    errors = []
    if rep["failed"]:
        errors.append(f"{rep['failed']} tables failed verification")
    if rep["verified"] != workload.n:
        errors.append(f"verified {rep['verified']} of {workload.n} tables")
    if rep["total_in_stratum"] != workload.identity:
        errors.append(f"stratum size {rep['total_in_stratum']}"
                      f" != {workload.identity}")
    if rep["stream_hash"] != expected_hash:
        errors.append(f"stream hash {rep['stream_hash']} != golden {expected_hash}")
    ck = rep["checkpoint"]
    if workload.checkpoint and ck != {"done": workload.n,
                                      "stream_hash": rep["stream_hash"]}:
        errors.append(f"checkpoint {ck} does not match the stream")
    return errors


def median_of(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(ROOT, "src", "llschain", "__init__.py")):
        print(f"llschain source not found under {ROOT}/src", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    golden = load_golden()
    seed = sample_seed(workload, args.seed, golden)
    expected = golden_hash(workload, seed, golden)
    jobs = jobs_for(workload)
    context = {"nproc": len(os.sched_getaffinity(0)),
               "python": platform.python_version(),
               "ref_mops": REF_MOPS,
               "probe_mops_start": probe_mops()}

    work_dir = os.path.join(OUT, f"work-{os.getpid()}")
    trace_dir = os.path.join(OUT, "trace", f"{workload.name}-seed{args.seed}")
    base = {"workload": workload.name, "sample_seed": seed, "jobs": jobs,
            "work_dir": work_dir}
    plain: list[dict] = []
    traced: list[dict] = []
    errors: list[str] = []
    deadline = time.perf_counter() + args.seconds
    try:
        # start another round only if one as long as the last still fits
        round_s = 0.0
        while not errors and (not plain or time.perf_counter() + round_s <= deadline):
            round_start = time.perf_counter()
            plain.append(run_rep({**base, "setup": not args.trace}))
            errors += gate(plain[-1], workload, expected)
            if args.trace and not errors:
                shutil.rmtree(trace_dir, ignore_errors=True)
                os.makedirs(trace_dir)
                traced.append(run_rep({**base, "setup": False,
                                       "trace_dir": trace_dir}))
                errors += gate(traced[-1], workload, expected)
            round_s = time.perf_counter() - round_start
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    context["probe_mops_end"] = probe_mops()

    reps = plain + traced
    attempted = sum(r["verified"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if args.trace:
        metrics = {name: statistics.median(r["layers"][name] for r in traced)
                   for name in LAYER_UNITS if traced and name in traced[0]["layers"]}
        for key in ("bytes_per_verdict", "parent_cpu_share", "worker_util"):
            metrics[f"verify.{key}"] = median_of(plain, key)
        if traced:
            metrics["trace.overhead_ratio"] = (
                median_of(plain, "tables_per_s") / median_of(traced, "tables_per_s"))
        units = LAYER_UNITS
    else:
        metrics = {
            "tables_per_s": median_of(plain, "tables_per_s"),
            "setup_s": statistics.median(s for r in plain for s in r["setup_s"]),
            "peak_rss_mb": median_of(plain, "peak_rss_mb"),
        }
        units = END_TO_END_UNITS

    print(f"workload {workload.name} seed {args.seed} sample_seed {seed}"
          f" jobs {jobs} tables/rep {workload.n}"
          f" reps {len(plain)} untraced + {len(traced)} traced")
    print("context " + " ".join(f"{k}={v if isinstance(v, str) else round(v, 3)}"
                                for k, v in context.items()))
    print(f"stream_hash {reps[-1]['stream_hash']}")
    print(f"raw_tables_per_s {median_of(plain, 'raw_tables_per_s'):.6g} 1/s")
    if not args.trace:
        raw_setup = statistics.median(s for r in plain for s in r["raw_setup_s"])
        print(f"raw_setup_s {raw_setup:.6g} s")
    print(f"failed_frac {failed / max(1, attempted)} ratio")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for err in errors:
        print(f"GATE FAILED: {err}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "runs.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": workload.name, "seed": args.seed,
                             "trace": args.trace, "context": context,
                             **result}) + "\n")
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
