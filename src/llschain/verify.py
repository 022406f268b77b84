"""Theorem-level verification: one table, or a whole family with rho <= 2.

For a single table, the verifier walks the candidate multidegrees in order
and passes at the first one where every potential section drops and, for
the two 3-cycle shapes, the extra side condition holds:

  cycle1:  the tensor row (j0-1, j0), pairing the lower rows of the first
           swap (j0, j0+1) and the second (j0-1, j0+1), has a unique
           potential section whose support avoids both swap columns;
  cycle2:  one of three alternatives on the doubled shared row: (a) it has
           no potential sections on both sides of the swap columns, or its
           doubled value meets the twist boundary at offset (b) one, or
           (c) two with degree 2 at both swap columns.

Disjoint-swap and cycle2 verdicts carry the left-weighted requirement as a
recorded flag with the minimal weight vector attached.

A family run covers one index sequence, ``TableEnumerator.run_indices``: the
stratum's range or a seeded sample, cut to ``limit`` from its start.  Its
chunks are consecutive slices of that sequence, verified in order or by
worker processes.  Verdicts stream as JSONL with a chained stream hash, and
a checkpoint after every merged chunk records how many indices are done and
the JSONL's length.  A resume cuts off lines written past it and continues
the same sequence, so rerunning the identical command after a stop or a
hard kill finishes exactly the uninterrupted run.  The report aggregates
per-class counts and the structural invariant checks (spanning bound, swap
bound, disconnection bound) observed along the way.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import hashlib
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field

from .chain import left_weighted_weights
from .drop import DropCertificate, DropContext, drop_all, replay_certificate
from .enumeration import TableEnumerator
from .multidegree import TwistVector, iter_candidate_multidegrees
from .table import (
    DegeneracyClass,
    VanishingTable,
    classify_degeneracy,
    rho_accounting,
    validate_table,
)

# Not called here; imported so that perfbench/tracer.py can wrap these names.
from .multidegree import component_degrees  # noqa: F401
from .table import exceptional_rows, find_swaps, lambda_sequence  # noqa: F401
from .tensor import build_tensor_table, extract_potential_sections  # noqa: F401

SIDE_NOT_APPLICABLE = "not_applicable"

# examples kept in chunk counters, checkpoints and reports alike
_FAILURE_EXAMPLES = 100
_VIOLATION_EXAMPLES = 20
# tables per worker task, and per checkpoint
_CHUNK_SIZE = 2000


@dataclass
class Verdict:
    table_hash: str
    degeneracy: DegeneracyClass
    passing: bool
    w: TwistVector | None
    certificate: DropCertificate | None
    side_condition: str
    left_weighted_required: bool
    left_weighted_min: tuple[int, ...] | None
    candidates_tried: int
    rho_total: int
    invariant_violations: tuple[str, ...] = ()
    diagnostics: tuple[str, ...] = ()
    index: int | None = None

    def to_json(self, with_certificate: bool = False) -> dict:
        out: dict = {
            "table": self.table_hash,
            "class": self.degeneracy.to_json(),
            "pass": self.passing,
            "side": self.side_condition,
            "tried": self.candidates_tried,
            "rho_total": self.rho_total,
        }
        if self.index is not None:
            out["index"] = self.index
        if self.w is not None:
            out["w"] = self.w.to_json()
        if self.left_weighted_required:
            out["left_weighted"] = list(self.left_weighted_min or ())
        if self.invariant_violations:
            out["violations"] = list(self.invariant_violations)
        if self.diagnostics:
            out["diagnostics"] = list(self.diagnostics)
        if with_certificate and self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        elif self.certificate is not None:
            out["certificate_steps"] = len(self.certificate.steps)
        return out


def _cycle1_side(klass: DegeneracyClass, ctx: DropContext) -> str | None:
    j0, i0, i1 = klass.j0, klass.i0, klass.i1
    secs = [s for s in ctx.sections if s.row == (j0 - 1, j0)]
    if len(secs) == 1 and not secs[0].covers(i0) and not secs[0].covers(i1):
        return "cycle1_unique_avoiding"
    return None


def _cycle2_side(table: VanishingTable, klass: DegeneracyClass,
                 ctx: DropContext) -> str | None:
    j0, i0, i1 = klass.j0, klass.i0, klass.i1
    secs = [s for s in ctx.sections if s.row == (j0 - 1, j0 - 1)]
    has_left = any(s.end < i0 for s in secs)
    has_right = any(s.start > i1 for s in secs)
    if not (has_left and has_right):
        return "cycle2_a"
    ext = ctx.w.extended()
    n = table.n_columns
    a_i0 = table.a[i0 - 1][j0 - 1]
    a_after = (
        table.a[i1][j0 - 1] if i1 < n else table.virtual_last_a()[j0 - 1]
    )
    if 2 * a_i0 == ext[i0] - 1 and 2 * a_after == ext[i1 + 1] + 1:
        return "cycle2_b"
    if (
        2 * a_i0 == ext[i0] - 2
        and 2 * a_after == ext[i1 + 1] + 2
        and ctx.degree[i0 - 1] == 2
        and ctx.degree[i1 - 1] == 2
    ):
        return "cycle2_c"
    return None


def _default_invariants(table: VanishingTable, ctx: DropContext) -> list[str]:
    """Structural facts checked at the default multidegree."""
    out = []
    cover = ctx.cover
    for i in range(1, ctx.n):
        # sections covering 1-based columns i and i + 1
        crossing = (cover[i - 1] & cover[i]).bit_count()
        if crossing > 3:
            out.append(f"spanning_count {crossing} > 3 at column {i}")
    n_swaps = len(table.swaps)
    if n_swaps > table.rho:
        out.append(f"{n_swaps} swaps exceed rho = {table.rho}")
    per_row = collections.Counter(s.row for s in ctx.sections)
    exc_rows = {j for (_, j) in table.exceptional}
    for row, cnt in per_row.items():
        if cnt > 1 and not (row[0] in exc_rows or row[1] in exc_rows):
            out.append(f"row {row} disconnected without exceptional row")
    return out


def verify_table(table: VanishingTable, index: int | None = None) -> Verdict:
    """Search the candidate multidegrees for a certified pass."""
    validate_table(table)
    breakdown = rho_accounting(table)
    klass = classify_degeneracy(table)

    lw_required = klass.kind in ("disjoint", "cycle2")
    lw_min = (
        left_weighted_weights(table.chain, table.d)
        if lw_required and table.chain.genus >= 2
        else None
    )

    diagnostics: list[str] = []
    violations: tuple[str, ...] = ()
    tried = 0
    for pos, w in enumerate(iter_candidate_multidegrees(table)):
        context = DropContext(table, w)
        if pos == 0:
            violations = tuple(_default_invariants(table, context))
        tried += 1
        result = drop_all(context)
        if not result.success:
            diagnostics.append(
                f"candidate {pos}: {len(result.remaining)} sections stuck"
                + (" (search truncated)" if result.search_truncated else "")
            )
            continue
        if klass.kind == "cycle1":
            side = _cycle1_side(klass, context)
            if side is None:
                diagnostics.append(f"candidate {pos}: cycle1 side condition fails")
                continue
        elif klass.kind == "cycle2":
            side = _cycle2_side(table, klass, context)
            if side is None:
                diagnostics.append(f"candidate {pos}: cycle2 side condition fails")
                continue
        else:
            side = SIDE_NOT_APPLICABLE
        if not replay_certificate(result.certificate, context):
            diagnostics.append(f"candidate {pos}: certificate does not replay")
            continue
        certificate = result.certificate
        diagnostics = []  # a passing verdict reports no diagnostics
        break
    else:
        w, certificate, side = None, None, "none"
    return Verdict(
        table_hash=table.hash,
        degeneracy=klass,
        passing=certificate is not None,
        w=w,
        certificate=certificate,
        side_condition=side,
        left_weighted_required=lw_required,
        left_weighted_min=lw_min,
        candidates_tried=tried,
        rho_total=breakdown.total,
        invariant_violations=violations,
        diagnostics=tuple(diagnostics),
        index=index,
    )


# -- family runs -------------------------------------------------------------


@dataclass
class FamilyConfig:
    g: int
    r: int
    d: int
    rho_max: int | None = None
    mode: str = "exhaustive"
    n: int | None = None
    seed: int = 0
    stratum: str = "all"
    jobs: int = 1
    out_path: str | None = None
    checkpoint_path: str | None = None
    emit_certificates: bool = False
    limit: int | None = None

    def spec_key(self) -> tuple:
        return (self.g, self.r, self.d, self.rho_max, self.stratum)


@dataclass
class Report:
    g: int
    r: int
    d: int
    stratum: str
    mode: str
    seed: int
    total_in_stratum: int
    verified: int
    passed: int
    failed: int
    class_counts: dict = field(default_factory=dict)
    side_counts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    invariant_violations: int = 0
    violation_examples: list = field(default_factory=list)
    stream_hash: str = ""
    elapsed_seconds: float = 0.0
    resumed_from: int = 0

    def to_json(self) -> dict:
        return {
            "family": {"g": self.g, "r": self.r, "d": self.d},
            "stratum": self.stratum,
            "mode": self.mode,
            "seed": self.seed,
            "total_in_stratum": self.total_in_stratum,
            "verified": self.verified,
            "passed": self.passed,
            "failed": self.failed,
            "class_counts": self.class_counts,
            "side_counts": self.side_counts,
            "failures": self.failures[:_FAILURE_EXAMPLES],
            "invariant_violations": self.invariant_violations,
            "violation_examples": self.violation_examples[:_VIOLATION_EXAMPLES],
            "stream_hash": self.stream_hash,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "resumed_from": self.resumed_from,
        }


@functools.lru_cache(maxsize=None)
def _worker_enumerator(spec: tuple) -> TableEnumerator:
    return TableEnumerator(*spec)


def _new_counters() -> dict:
    return {
        "passed": 0, "failed": 0, "classes": {}, "sides": {},
        "failures": [], "violations": 0, "violation_examples": [],
    }


def _merge_counters(counters: dict, chunk: dict) -> None:
    for key in ("passed", "failed", "violations"):
        counters[key] += chunk[key]
    for key in ("classes", "sides"):
        for name, cnt in chunk[key].items():
            counters[key][name] = counters[key].get(name, 0) + cnt
    for key, cap in (("failures", _FAILURE_EXAMPLES),
                     ("violation_examples", _VIOLATION_EXAMPLES)):
        counters[key] = (counters[key] + chunk[key])[:cap]


def _verify_chunk(args: tuple) -> tuple[list[str], dict]:
    spec, indices, emit_certs = args
    items = _worker_enumerator(spec).iter_slice(indices)
    lines: list[str] = []
    counters = _new_counters()
    for idx, table in items:
        verdict = verify_table(table, index=idx)
        record = verdict.to_json(with_certificate=emit_certs)
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
        kind = verdict.degeneracy.kind
        counters["classes"][kind] = counters["classes"].get(kind, 0) + 1
        side = verdict.side_condition
        counters["sides"][side] = counters["sides"].get(side, 0) + 1
        if verdict.passing:
            counters["passed"] += 1
        else:
            counters["failed"] += 1
            if len(counters["failures"]) < _FAILURE_EXAMPLES:
                counters["failures"].append(
                    {"index": idx, "table": verdict.table_hash}
                )
        if verdict.invariant_violations:
            counters["violations"] += len(verdict.invariant_violations)
            if len(counters["violation_examples"]) < _VIOLATION_EXAMPLES:
                counters["violation_examples"].append(
                    {"index": idx, "violations": list(verdict.invariant_violations)}
                )
    return lines, counters


def _checkpoint_spec(config: FamilyConfig) -> list:
    """Every setting a resumed run must share with the run it continues."""
    return [config.g, config.r, config.d, config.rho_max, config.stratum,
            config.mode, config.seed, config.n, config.emit_certificates]


def _load_checkpoint(config: FamilyConfig) -> dict:
    """The saved checkpoint, or {} when there is none to resume from."""
    path = config.checkpoint_path
    if not path or not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if obj.get("spec") != _checkpoint_spec(config):
        raise ValueError("checkpoint does not match this run")
    return obj


def _open_output(config: FamilyConfig, checkpoint: dict):
    """The JSONL handle, cut back to the checkpoint's length on resume.

    Lines written after the last checkpoint (a hard kill leaves them) are
    dropped, so the resumed file equals the uninterrupted one.
    """
    path = config.out_path
    if not checkpoint:
        return open(path, "w", encoding="utf-8")
    length = checkpoint.get("out_bytes")
    if length is None:
        raise ValueError(f"checkpoint records no length for {path}")
    if not os.path.exists(path) or os.path.getsize(path) < length:
        raise ValueError(f"{path} is missing or shorter than its checkpoint")
    os.truncate(path, length)
    return open(path, "a", encoding="utf-8")


def _save_checkpoint(config: FamilyConfig, done: int, stream_hash: str,
                     counters: dict, out_fh) -> None:
    """Atomically record progress, after the JSONL it covers is on disk."""
    if not config.checkpoint_path:
        return
    out_bytes = None
    if out_fh:
        out_fh.flush()
        os.fsync(out_fh.fileno())
        out_bytes = os.fstat(out_fh.fileno()).st_size
    payload = {
        "spec": _checkpoint_spec(config),
        "done": done,
        "stream_hash": stream_hash,
        "counters": counters,
        "out_bytes": out_bytes,
    }
    tmp = config.checkpoint_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, config.checkpoint_path)


def _chain_hash(prev: str, line: str) -> str:
    return hashlib.sha256((prev + line).encode()).hexdigest()


def verify_family(config: FamilyConfig) -> Report:
    """Verify a whole (g, r, d) stratum, streaming verdicts to JSONL."""
    started = time.time()
    if config.r != 6:
        # the default multidegree, and so every verdict, is defined for r = 6
        raise ValueError(f"verification is defined for r = 6, got r = {config.r}")
    if config.jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {config.jobs}")
    spec = config.spec_key()
    enum = _worker_enumerator(spec)
    indices = enum.run_indices(config.mode, config.n, config.seed, config.limit)

    checkpoint = _load_checkpoint(config)
    done = resumed_from = checkpoint.get("done", 0)
    stream_hash = checkpoint.get("stream_hash", "")
    counters = checkpoint.get("counters") or _new_counters()

    tasks = ((spec, indices[lo:lo + _CHUNK_SIZE], config.emit_certificates)
             for lo in range(done, len(indices), _CHUNK_SIZE))
    with contextlib.ExitStack() as stack:
        out_fh = None
        if config.out_path:
            out_fh = stack.enter_context(_open_output(config, checkpoint))
        results = map(_verify_chunk, tasks)
        if config.jobs > 1:
            pool = stack.enter_context(
                multiprocessing.get_context("fork").Pool(config.jobs))
            results = pool.imap(_verify_chunk, tasks)
        for lines, chunk_counters in results:
            for line in lines:
                if out_fh:
                    out_fh.write(line + "\n")
                stream_hash = _chain_hash(stream_hash, line)
            done += len(lines)
            _merge_counters(counters, chunk_counters)
            _save_checkpoint(config, done, stream_hash, counters, out_fh)

    return Report(
        g=config.g, r=config.r, d=config.d,
        stratum=config.stratum, mode=config.mode, seed=config.seed,
        total_in_stratum=enum.total(),
        verified=done,
        passed=counters["passed"],
        failed=counters["failed"],
        class_counts=dict(sorted(counters["classes"].items())),
        side_counts=dict(sorted(counters["sides"].items())),
        failures=counters["failures"],
        invariant_violations=counters["violations"],
        violation_examples=counters["violation_examples"],
        stream_hash=stream_hash,
        elapsed_seconds=time.time() - started,
        resumed_from=resumed_from,
    )
