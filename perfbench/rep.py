"""One repetition of a benchmark workload, run in a fresh interpreter.

    python3 perfbench/rep.py '<json spec>'

The spec names the workload, sampling seed, job count, a scratch directory
for the verdict stream and, for a traced repetition, a directory for spans.
The repetition times cold enumerator set-up a few times, then one
``verify_family`` call, and prints one JSON line with the timings, the
report fields the correctness gate checks, and resource usage of this
process and its pool workers.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from llschain import verify  # noqa: E402
from llschain.enumeration import TableEnumerator  # noqa: E402

from calibrate import probe_mops, speed  # noqa: E402
from tracer import Tracer, layer_metrics, load_spans  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SETUP_MIN_SAMPLES = 3
SETUP_MIN_SECONDS = 0.5


def time_setup(w: Workload, sampling_seed: int) -> list[float]:
    """Cold set-up: a fresh enumerator's exact count, plus the sample draw."""
    samples: list[float] = []
    spent = 0.0
    while len(samples) < SETUP_MIN_SAMPLES and spent < SETUP_MIN_SECONDS:
        t0 = time.perf_counter()
        enum = TableEnumerator(w.g, w.r, w.d, w.rho_max, w.stratum)
        enum.total()
        if w.mode == "sampled":
            enum.sample_indices(w.n, sampling_seed)
        samples.append(time.perf_counter() - t0)
        spent += samples[-1]
        del enum
    return samples


def family_config(w: Workload, sampling_seed: int, jobs: int,
                  work_dir: str) -> verify.FamilyConfig:
    return verify.FamilyConfig(
        g=w.g, r=w.r, d=w.d, rho_max=w.rho_max, stratum=w.stratum,
        mode=w.mode, seed=sampling_seed, jobs=jobs,
        n=w.n if w.mode == "sampled" else None,
        limit=w.n if w.mode == "exhaustive" else None,
        emit_certificates=w.emit_certificates,
        out_path=os.path.join(work_dir, "verdicts.jsonl"),
        checkpoint_path=(os.path.join(work_dir, "run.ck")
                         if w.checkpoint else None),
    )


def cpu_seconds(who: int) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def run(spec: dict) -> dict:
    w = WORKLOADS[spec["workload"]]
    sampling_seed = spec["sample_seed"]
    work_dir = spec["work_dir"]
    trace_dir = spec.get("trace_dir")
    probe0 = probe_mops()
    setup = time_setup(w, sampling_seed) if spec.get("setup", True) else []
    probe1 = probe_mops() if setup else probe0
    os.makedirs(work_dir, exist_ok=True)
    config = family_config(w, sampling_seed, spec["jobs"], work_dir)
    outputs = [p for p in (config.out_path, config.checkpoint_path) if p]
    for path in outputs:   # a stale checkpoint would resume instead of verify
        if os.path.exists(path):
            os.remove(path)

    tracer = None
    if trace_dir:
        tracer = Tracer(trace_dir)
        tracer.install()
    self0 = cpu_seconds(resource.RUSAGE_SELF)
    kids0 = cpu_seconds(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    try:
        report = verify.verify_family(config)
    finally:
        wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.restore()
            tracer.dump()
    parent_cpu = cpu_seconds(resource.RUSAGE_SELF) - self0
    worker_cpu = cpu_seconds(resource.RUSAGE_CHILDREN) - kids0
    probe2 = probe_mops()

    out_bytes = os.path.getsize(config.out_path)
    checkpoint = None
    if config.checkpoint_path:
        with open(config.checkpoint_path, encoding="utf-8") as fh:
            ck = json.load(fh)
        checkpoint = {"done": ck["done"], "stream_hash": ck["stream_hash"]}
    for path in outputs:
        os.remove(path)

    # jobs == 1 verifies in this process, so it is its own worker
    busy = worker_cpu if config.jobs > 1 else parent_cpu
    setup_speed, verify_speed = speed(probe0, probe1), speed(probe1, probe2)
    result = {
        "setup_s": [t * setup_speed for t in setup],
        "raw_setup_s": setup,
        "tables_per_s": report.verified / wall / verify_speed,
        "raw_tables_per_s": report.verified / wall,
        "verified": report.verified,
        "failed": report.failed,
        "total_in_stratum": report.total_in_stratum,
        "stream_hash": report.stream_hash,
        "checkpoint": checkpoint,
        "bytes_per_verdict": out_bytes / max(1, report.verified),
        "parent_cpu_share": parent_cpu / max(1e-9, parent_cpu + worker_cpu),
        "worker_util": busy / (config.jobs * wall),
        "peak_rss_mb": max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        ) / 1024,
    }
    if tracer is not None:
        result["layers"] = layer_metrics(load_spans(trace_dir))
    return result


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
