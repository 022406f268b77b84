"""Theorem-level verification: one table, or a whole family with rho <= 2.

For a single table, the verifier walks the candidate multidegrees in order
and passes at the first one where every potential section drops and, for
the two 3-cycle shapes, the extra side condition holds:

  cycle1:  the row pairing the two first-swap rows has a unique potential
           section whose support avoids both swap columns;
  cycle2:  one of three alternatives on the doubled shared row: (a) it has
           no potential sections on both sides of the swap columns, or its
           doubled value meets the twist boundary at offset (b) one, or
           (c) two with degree 2 at both swap columns.

Disjoint-swap and cycle2 verdicts carry the left-weighted requirement as a
recorded flag with the minimal weight vector attached.

Family runs stream verdicts as JSONL with a chained stream hash, checkpoint
on table count, partition the enumeration by index ranges for worker
processes, and aggregate a report with per-class counts and the structural
invariant checks (spanning bound, swap bound, disconnection bound) observed
along the way.
"""

from __future__ import annotations

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
from .tensor import PotentialSection, build_tensor_table, extract_potential_sections

# Not called here; imported so that perfbench/tracer.py can wrap these names.
from .multidegree import component_degrees  # noqa: F401
from .table import exceptional_rows, find_swaps, lambda_sequence  # noqa: F401

SIDE_NOT_APPLICABLE = "not_applicable"


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


def _sections_of_row(sections: list[PotentialSection],
                     row: tuple[int, int]) -> list[PotentialSection]:
    key = (min(row), max(row))
    return [s for s in sections if s.row == key]


def _cycle1_side(klass: DegeneracyClass,
                 sections: list[PotentialSection]) -> str | None:
    j0, i0, i1 = klass.j0, klass.i0, klass.i1
    secs = _sections_of_row(sections, (j0 - 1, j0))
    if len(secs) == 1 and not secs[0].covers(i0) and not secs[0].covers(i1):
        return "cycle1_unique_avoiding"
    return None


def _cycle2_side(table: VanishingTable, klass: DegeneracyClass,
                 w: TwistVector, sections: list[PotentialSection],
                 degs: tuple[int, ...]) -> str | None:
    j0, i0, i1 = klass.j0, klass.i0, klass.i1
    secs = _sections_of_row(sections, (j0 - 1, j0 - 1))
    has_left = any(s.end < i0 for s in secs)
    has_right = any(s.start > i1 for s in secs)
    if not (has_left and has_right):
        return "cycle2_a"
    ext = w.extended()
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
        and degs[i0 - 1] == 2
        and degs[i1 - 1] == 2
    ):
        return "cycle2_c"
    return None


def _default_invariants(table: VanishingTable,
                        sections: list[PotentialSection]) -> list[str]:
    """Structural facts checked at the default multidegree."""
    out = []
    n = table.n_columns
    crossing = [0] * (n + 1)
    per_row: dict[tuple[int, int], int] = {}
    for s in sections:
        per_row[s.row] = per_row.get(s.row, 0) + 1
        for i in range(s.start, s.end):
            crossing[i] += 1
    for i in range(1, n):
        if crossing[i] > 3:
            out.append(f"spanning_count {crossing[i]} > 3 at column {i}")
    n_swaps = len(table.swaps)
    if n_swaps > table.rho:
        out.append(f"{n_swaps} swaps exceed rho = {table.rho}")
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
    tt = build_tensor_table(table)

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
        sections = extract_potential_sections(tt, w)
        if pos == 0:
            violations = tuple(_default_invariants(table, sections))
        tried += 1
        context = DropContext(tt, w, sections)
        result = drop_all(tt, w, sections, context=context)
        if not result.success:
            diagnostics.append(
                f"candidate {pos}: {len(result.remaining)} sections stuck"
                + (" (search truncated)" if result.search_truncated else "")
            )
            continue
        if klass.kind == "cycle1":
            side = _cycle1_side(klass, sections)
            if side is None:
                diagnostics.append(f"candidate {pos}: cycle1 side condition fails")
                continue
        elif klass.kind == "cycle2":
            side = _cycle2_side(table, klass, w, sections, context.degree)
            if side is None:
                diagnostics.append(f"candidate {pos}: cycle2 side condition fails")
                continue
        else:
            side = SIDE_NOT_APPLICABLE
        if not replay_certificate(result.certificate, tt, w, context=context):
            diagnostics.append(f"candidate {pos}: certificate does not replay")
            continue
        return Verdict(
            table_hash=table.hash,
            degeneracy=klass,
            passing=True,
            w=w,
            certificate=result.certificate,
            side_condition=side,
            left_weighted_required=lw_required,
            left_weighted_min=lw_min,
            candidates_tried=tried,
            rho_total=breakdown.total,
            invariant_violations=violations,
            index=index,
        )
    return Verdict(
        table_hash=table.hash,
        degeneracy=klass,
        passing=False,
        w=None,
        certificate=None,
        side_condition="none",
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
    chunk_size: int = 2000
    out_path: str | None = None
    checkpoint_path: str | None = None
    checkpoint_every: int = 50_000
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
            "failures": self.failures[:100],
            "invariant_violations": self.invariant_violations,
            "violation_examples": self.violation_examples[:20],
            "stream_hash": self.stream_hash,
            "elapsed_seconds": round(self.elapsed_seconds, 3),
            "resumed_from": self.resumed_from,
        }


_WORKER_CACHE: dict[tuple, TableEnumerator] = {}


def _worker_enumerator(spec: tuple) -> TableEnumerator:
    enum = _WORKER_CACHE.get(spec)
    if enum is None:
        g, r, d, rho_max, stratum = spec
        enum = TableEnumerator(g, r, d, rho_max, stratum)
        _WORKER_CACHE[spec] = enum
    return enum


def _verify_chunk(args: tuple) -> tuple[list[str], dict]:
    spec, payload, emit_certs = args
    enum = _worker_enumerator(spec)
    if payload[0] == "range":
        items = enum.iter_range(payload[1], payload[2])
    else:
        items = enum.iter_indices(list(payload[1]))
    lines: list[str] = []
    counters: dict = {
        "passed": 0, "failed": 0, "classes": {}, "sides": {},
        "failures": [], "violations": 0, "violation_examples": [],
    }
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
            if len(counters["failures"]) < 100:
                counters["failures"].append(
                    {"index": idx, "table": verdict.table_hash}
                )
        if verdict.invariant_violations:
            counters["violations"] += len(verdict.invariant_violations)
            if len(counters["violation_examples"]) < 20:
                counters["violation_examples"].append(
                    {"index": idx, "violations": list(verdict.invariant_violations)}
                )
    return lines, counters


def _chunks(config: FamilyConfig, total: int, skip: int):
    if config.mode == "exhaustive":
        end = total if config.limit is None else min(total, skip + config.limit)
        pos = skip
        while pos < end:
            size = min(config.chunk_size, end - pos)
            yield ("range", pos, size)
            pos += size
    else:
        enum = _worker_enumerator(config.spec_key())
        indices = enum.sample_indices(config.n or 0, config.seed)
        if config.limit is not None:
            indices = indices[: skip + config.limit]
        for lo in range(skip, len(indices), config.chunk_size):
            yield ("indices", tuple(indices[lo : lo + config.chunk_size]))


def _checkpoint_spec(config: FamilyConfig) -> list:
    """Every setting a resumed run must share with the run it continues."""
    return [config.g, config.r, config.d, config.rho_max, config.stratum,
            config.mode, config.seed, config.n, config.emit_certificates]


def _load_checkpoint(config: FamilyConfig) -> tuple[int, str, dict]:
    path = config.checkpoint_path
    if not path or not os.path.exists(path):
        return 0, "", {}
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if obj.get("spec") != _checkpoint_spec(config):
        raise ValueError("checkpoint does not match this run")
    return obj["done"], obj["stream_hash"], obj.get("counters", {})


def _save_checkpoint(config: FamilyConfig, done: int, stream_hash: str,
                     counters: dict) -> None:
    if not config.checkpoint_path:
        return
    payload = {
        "spec": _checkpoint_spec(config),
        "done": done,
        "stream_hash": stream_hash,
        "counters": counters,
    }
    tmp = config.checkpoint_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    os.replace(tmp, config.checkpoint_path)


def _chain_hash(prev: str, line: str) -> str:
    return hashlib.sha256((prev + line).encode()).hexdigest()


def verify_family(config: FamilyConfig) -> Report:
    """Verify a whole (g, r, d) stratum, streaming verdicts to JSONL."""
    started = time.time()
    enum = _worker_enumerator(config.spec_key())
    total = enum.total()
    if config.mode == "sampled":
        if config.n is None:
            raise ValueError("sampled mode needs n")
        stream_total = min(config.n, total)
    else:
        stream_total = total

    done, stream_hash, counters = _load_checkpoint(config)
    resumed_from = done
    counters.setdefault("passed", 0)
    counters.setdefault("failed", 0)
    counters.setdefault("classes", {})
    counters.setdefault("sides", {})
    counters.setdefault("failures", [])
    counters.setdefault("violations", 0)
    counters.setdefault("violation_examples", [])

    out_fh = None
    if config.out_path:
        out_fh = open(config.out_path, "a" if done else "w", encoding="utf-8")

    def merge(lines: list[str], chunk_counters: dict) -> None:
        nonlocal stream_hash, done
        for line in lines:
            if out_fh:
                out_fh.write(line + "\n")
            stream_hash = _chain_hash(stream_hash, line)
        done += len(lines)
        for key in ("passed", "failed", "violations"):
            counters[key] += chunk_counters[key]
        for key in ("classes", "sides"):
            for name, cnt in chunk_counters[key].items():
                counters[key][name] = counters[key].get(name, 0) + cnt
        counters["failures"].extend(
            chunk_counters["failures"][: max(0, 1000 - len(counters["failures"]))]
        )
        counters["violation_examples"].extend(
            chunk_counters["violation_examples"][
                : max(0, 20 - len(counters["violation_examples"]))
            ]
        )

    spec = config.spec_key()
    tasks = ((spec, payload, config.emit_certificates)
             for payload in _chunks(config, stream_total, done))
    try:
        if config.jobs > 1:
            with multiprocessing.get_context("fork").Pool(config.jobs) as pool:
                for lines, chunk_counters in pool.imap(_verify_chunk, tasks):
                    merge(lines, chunk_counters)
                    _save_checkpoint(config, done, stream_hash, counters)
        else:
            for task in tasks:
                merge(*_verify_chunk(task))
                if done % config.checkpoint_every < config.chunk_size:
                    _save_checkpoint(config, done, stream_hash, counters)
    finally:
        if out_fh:
            out_fh.close()
    _save_checkpoint(config, done, stream_hash, counters)

    return Report(
        g=config.g, r=config.r, d=config.d,
        stratum=config.stratum, mode=config.mode, seed=config.seed,
        total_in_stratum=total,
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
