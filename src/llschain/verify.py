"""Theorem-level verification: one table, or a whole family with rho <= 2.

For a single table, the verifier walks the candidate multidegrees in order
and passes at the first one where every potential section drops and, for
the two 3-cycle shapes, the extra side condition holds:

  cycle1:  the tensor row (j0-1, j0), pairing the lower rows of the first
           swap (j0, j0+1) and the second (j0-1, j0+1), has a unique
           potential section whose support avoids both swap columns.
           The row matters: two-swap index 29,823,789 of (23,6,26), a
           seed-7 sample, passes at its default multidegree, but read at
           (j0, j0+1) the condition fails at every candidate whose
           sections all drop (pinned in tests/test_verify.py);
  cycle2:  one of three alternatives on the doubled shared row: (a) it has
           no potential sections on both sides of the swap columns, or its
           doubled value meets the twist boundary at offset (b) one, or
           (c) two with degree 2 at both swap columns.

Disjoint-swap and cycle2 verdicts carry the left-weighted requirement as a
recorded flag with the minimal weight vector attached.

A family run covers one index sequence, ``TableEnumerator.run_indices``:
the stratum's range or a seeded sample, cut to ``limit`` from its start.
Its chunks, consecutive slices of 2,000 indices of that sequence, are the
units of checkpointing; its tasks are the units of work.  A run in process
verifies each chunk as one task.  A run with several jobs cuts each chunk
into tasks of at most 250 indices, none straddling two chunks, for a fork
pool of no more workers than tasks, and merges their results in stream
order; so a worker sends, and the parent holds, a few hundred lines at a
time rather than a chunk's.  Verdicts stream as JSONL with a chained stream
hash, and a checkpoint after every chunk's last task records how many
indices are done and the JSONL's length.  A resume cuts off lines written
past it and continues the same sequence, so rerunning the identical command
after a stop or a hard kill finishes exactly the uninterrupted run; the
pool workers of a run killed outright exit by themselves, quietly, at once
when idle and otherwise after their current table.  A pool worker lost
while the run goes on (say, to the OOM killer) takes its tasks with it: the
parent sees its pipe end, stops the other workers, raises
``ChildProcessError`` naming the worker, and the run can be resumed from
its last checkpoint.
One ``Tally`` holds the run's counts: pass/fail, per-class and per-side
counts, and the structural invariant checks (spanning bound, swap bound,
disconnection bound) observed along the way.  Each task fills one, the run
merges them in stream order, the checkpoint saves the merged tally and
``Report`` extends it; a checkpoint of an older layout does not match any
run.

A run's ``--emit-certs`` choice reaches each table as
``verify_table(table, index, with_certificate)``.  A verdict holds a
certificate only if one is to be written, and always the step count of a
pass.  With certificates, a passing candidate's certificate is rendered
and replayed by ``replay_certificate``; without, its greedy moves are
judged in line by the same judge, which re-derives each drop from the full
state, so only the rendering of the steps, which such a line never holds,
goes unchecked.  The line then carries ``certificate_steps`` in place of
``certificate``, and is otherwise the same.

A verdict line is ``json.dumps(verdict.to_json(), sort_keys=True,
separators=(",", ":"))``, but ``Verdict.to_line`` writes it without
building that dict: it spells the keys out in sorted order, formats ints
with ``%d``, takes the class and ``w`` texts cached on their frozen
objects, the certificate text from ``DropCertificate.to_text`` (whose
section fragments are cached), and sends the free strings (table hash,
side, violations, diagnostics) through ``json.dumps``.  ``to_json`` stays the
structural form, and the tests hold ``to_line`` equal to it.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import hashlib
import itertools
import json
import multiprocessing
import os
import time
from dataclasses import asdict, dataclass, field

from .chain import left_weighted_weights
from .drop import DropCertificate, DropContext, _replay, drop_all, replay_certificate
from .enumeration import TableEnumerator
from .multidegree import TwistVector, iter_candidate_multidegrees
from .table import (
    DegeneracyClass,
    VanishingTable,
    classify_degeneracy,
    pair_list,
    rho_accounting,
    validate_table,
)

# Not called here; imported so that perfbench/tracer.py can wrap these names.
from .multidegree import component_degrees  # noqa: F401
from .table import exceptional_rows, find_swaps, lambda_sequence  # noqa: F401
from .tensor import build_tensor_table, extract_potential_sections  # noqa: F401

SIDE_NOT_APPLICABLE = "not_applicable"

# examples a Tally keeps
_FAILURE_EXAMPLES = 100
_VIOLATION_EXAMPLES = 20
# first entry of a checkpoint's spec; a checkpoint of another layout is refused
_CHECKPOINT_LAYOUT = "tally+tail"
# bytes of the verdict file, before its checkpointed length, whose sha256 the
# checkpoint keeps, so that a resume cuts back only that file
_TAIL_BYTES = 4096
# tables per checkpoint, and per task of a run verified in process
_CHUNK_SIZE = 2000
# most tables per pool task; a pool task is a slice of one chunk, so the lines
# a worker sends, and the parent holds, stay small
_TASK_SIZE = 250
# json.dumps separators of a verdict line
_COMPACT = (",", ":")


@dataclass
class Verdict:
    table_hash: str
    degeneracy: DegeneracyClass
    passing: bool
    w: TwistVector | None
    certificate: DropCertificate | None
    certificate_steps: int | None
    side_condition: str
    left_weighted_required: bool
    left_weighted_min: tuple[int, ...] | None
    candidates_tried: int
    rho_total: int
    invariant_violations: tuple[str, ...] = ()
    diagnostics: tuple[str, ...] = ()
    index: int | None = None

    def to_json(self) -> dict:
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
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        elif self.certificate_steps is not None:
            out["certificate_steps"] = self.certificate_steps
        return out

    def to_line(self) -> str:
        """The JSONL line of :meth:`to_json`, that is
        ``json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))``,
        spelled out key by key in sorted order."""
        parts = []
        if self.certificate is not None:
            parts.append('"certificate":' + self.certificate.to_text())
        elif self.certificate_steps is not None:
            parts.append('"certificate_steps":%d' % self.certificate_steps)
        parts.append('"class":' + self.degeneracy.json_text)
        if self.diagnostics:
            parts.append('"diagnostics":' + json.dumps(list(self.diagnostics),
                                                       separators=_COMPACT))
        if self.index is not None:
            parts.append('"index":%d' % self.index)
        if self.left_weighted_required:
            parts.append('"left_weighted":[%s]' % ",".join(
                map(str, self.left_weighted_min or ())))
        parts.append('"pass":%s,"rho_total":%d,"side":%s,"table":%s,"tried":%d' % (
            "true" if self.passing else "false", self.rho_total,
            json.dumps(self.side_condition), json.dumps(self.table_hash),
            self.candidates_tried))
        if self.invariant_violations:
            parts.append('"violations":' + json.dumps(
                list(self.invariant_violations), separators=_COMPACT))
        if self.w is not None:
            parts.append('"w":' + self.w.json_text)
        return "{%s}" % ",".join(parts)


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


def _side_condition(table: VanishingTable, klass: DegeneracyClass,
                    ctx: DropContext) -> str | None:
    """The side label a candidate passes with, or None if it fails its
    class's side condition; only the 3-cycle shapes have one."""
    if klass.kind == "cycle1":
        return _cycle1_side(klass, ctx)
    if klass.kind == "cycle2":
        return _cycle2_side(table, klass, ctx)
    return SIDE_NOT_APPLICABLE


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
    # rows with more than one section, in row-major order
    per_pair = collections.Counter(ctx.pair_of)
    pairs = pair_list(table.r)
    exc_rows = {j for (_, j) in table.exceptional}
    for p in sorted(p for p, cnt in per_pair.items() if cnt > 1):
        row = pairs[p]
        if not (row[0] in exc_rows or row[1] in exc_rows):
            out.append(f"row {row} disconnected without exceptional row")
    return out


def verify_table(table: VanishingTable, index: int | None = None,
                 with_certificate: bool = False) -> Verdict:
    """Search the candidate multidegrees for a certified pass.

    A passing candidate's drops are checked again from the full state: with
    `with_certificate`, its certificate is rendered and replayed through
    `replay_certificate`, and the verdict holds it; without, the judge
    `_replay` re-derives the greedy's moves, and the verdict holds only
    their count."""
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
                f"candidate {pos}: {len(result.remaining)} sections stuck")
            continue
        side = _side_condition(table, klass, context)
        if side is None:
            diagnostics.append(f"candidate {pos}: {klass.kind} side condition fails")
            continue
        if with_certificate:
            certificate = result.certificate
            replays = replay_certificate(certificate, context)
        else:
            certificate = None
            replays = _replay(context, result.moves)
        if not replays:
            diagnostics.append(f"candidate {pos}: certificate does not replay")
            continue
        steps = len(result.moves)
        diagnostics = []  # a passing verdict reports no diagnostics
        break
    else:
        w, certificate, steps, side = None, None, None, "none"
    return Verdict(
        table_hash=table.hash,
        degeneracy=klass,
        passing=steps is not None,
        w=w,
        certificate=certificate,
        certificate_steps=steps,
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


@dataclass(kw_only=True)
class Tally:
    """A family run's counts; only the first failures and violation examples
    are kept."""

    passed: int = 0
    failed: int = 0
    class_counts: dict = field(default_factory=dict)
    side_counts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    invariant_violations: int = 0
    violation_examples: list = field(default_factory=list)

    def add(self, verdict: Verdict) -> None:
        kind, side = verdict.degeneracy.kind, verdict.side_condition
        self.class_counts[kind] = self.class_counts.get(kind, 0) + 1
        self.side_counts[side] = self.side_counts.get(side, 0) + 1
        if verdict.passing:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < _FAILURE_EXAMPLES:
                self.failures.append(
                    {"index": verdict.index, "table": verdict.table_hash})
        if verdict.invariant_violations:
            self.invariant_violations += len(verdict.invariant_violations)
            if len(self.violation_examples) < _VIOLATION_EXAMPLES:
                self.violation_examples.append(
                    {"index": verdict.index,
                     "violations": list(verdict.invariant_violations)})

    def merge(self, other: Tally) -> None:
        """Fold in the counts of the verdicts that follow this tally's."""
        self.passed += other.passed
        self.failed += other.failed
        self.invariant_violations += other.invariant_violations
        for mine, theirs in ((self.class_counts, other.class_counts),
                             (self.side_counts, other.side_counts)):
            for name, cnt in theirs.items():
                mine[name] = mine.get(name, 0) + cnt
        self.failures = (self.failures + other.failures)[:_FAILURE_EXAMPLES]
        self.violation_examples = (
            self.violation_examples + other.violation_examples
        )[:_VIOLATION_EXAMPLES]


@dataclass
class Report(Tally):
    g: int
    r: int
    d: int
    stratum: str
    mode: str
    seed: int
    total_in_stratum: int
    verified: int
    stream_hash: str = ""
    elapsed_seconds: float = 0.0
    resumed_from: int = 0

    def to_json(self) -> dict:
        out = asdict(self)
        out["family"] = {key: out.pop(key) for key in ("g", "r", "d")}
        out["elapsed_seconds"] = round(self.elapsed_seconds, 3)
        return out


@functools.lru_cache(maxsize=None)
def _worker_enumerator(spec: tuple) -> TableEnumerator:
    return TableEnumerator(*spec)


def _serve(conn, parent_ends: list) -> None:
    """A pool worker: verifies each task that comes down `conn` and sends
    back its result, or the exception it raised.  It first closes its copies
    of the parent's end of every pool pipe, so that it meets the end of its
    own pipe, and exits quietly, when the parent closes it or dies; it exits
    the same way when its parent has died while it sends a result."""
    for end in parent_ends:
        end.close()
    with contextlib.suppress(EOFError, ConnectionError):
        while True:
            task = conn.recv()
            try:
                result = _verify_task(task)
            except Exception as exc:  # the parent raises it
                result = exc
            conn.send(result)


def _pool_results(tasks, jobs: int):
    """The results of `tasks`, in order, from a fork pool of `jobs` workers.

    Each worker has a pipe of its own and holds at most two tasks, the one
    it verifies and the next, and at most 2 * `jobs` tasks are out beyond
    the results merged, so a worker holds one task's lines at a time and the
    parent at most 2 * `jobs` tasks'.  Workers share no lock, and one exits
    only when the pool is closed or its parent has died, so a worker whose
    pipe ends while the run goes on was lost (say, to the OOM killer) with
    its tasks: this raises ``ChildProcessError`` naming it, and the pool is
    closed as it unwinds."""
    # imported here: a run in process needs no pipes
    from multiprocessing.connection import wait

    context = multiprocessing.get_context("fork")
    workers: dict = {}  # the parent's end of each pipe: (worker, its tasks)
    numbered = enumerate(tasks)
    results: dict = {}
    sent = merged = 0

    def lost(worker):
        worker.join()
        return ChildProcessError(
            f"pool worker {worker.pid} exited with status {worker.exitcode} "
            f"while the run went on; rerun the same command to resume")

    try:
        for _ in range(jobs):
            conn, child = context.Pipe()
            worker = context.Process(target=_serve, daemon=True,
                                     args=(child, [*workers, conn]))
            worker.start()
            child.close()
            workers[conn] = worker, collections.deque()
        while True:
            # a task to each worker with none, then one more to each
            for depth in (1, 2):
                for conn, (worker, held) in workers.items():
                    if len(held) >= depth or sent - merged >= 2 * jobs:
                        continue
                    item = next(numbered, None)
                    if item is None:
                        break
                    try:
                        conn.send(item[1])
                    except ConnectionError:
                        raise lost(worker) from None
                    held.append(item[0])
                    sent += 1
            if merged == sent:
                return
            for conn in wait(list(workers)):
                worker, held = workers[conn]
                try:
                    result = conn.recv()
                except (EOFError, OSError):
                    raise lost(worker) from None
                if isinstance(result, Exception):
                    raise result
                results[held.popleft()] = result
            while merged in results:
                yield results.pop(merged)
                merged += 1
    finally:
        for conn, (worker, _) in workers.items():
            conn.close()
            worker.terminate()
        for worker, _ in workers.values():
            worker.join()


def _verify_task(args: tuple) -> tuple[list[str], Tally]:
    """The verdict lines and tally of one task, a slice of one chunk.  In a
    pool worker, `parent` is the pid of the run that forked it, and a worker
    whose parent has died exits quietly with status 0 after its current
    table, since no one is left to read the task; a task run in the parent
    has `parent` None."""
    spec, indices, emit_certs, parent = args
    lines: list[str] = []
    tally = Tally()
    for idx, table in _worker_enumerator(spec).iter_indices(indices):
        verdict = verify_table(table, index=idx, with_certificate=emit_certs)
        lines.append(verdict.to_line())
        tally.add(verdict)
        if parent is not None and os.getppid() != parent:
            os._exit(0)
    return lines, tally


def _task_bounds(start: int, end: int, size: int):
    """(lo, hi) of each task of indices start..end: consecutive slices of at
    most `size`, cut at every chunk boundary start + k * _CHUNK_SIZE."""
    for chunk in range(start, end, _CHUNK_SIZE):
        stop = min(chunk + _CHUNK_SIZE, end)
        for lo in range(chunk, stop, size):
            yield lo, min(lo + size, stop)


def _checkpoint_spec(config: FamilyConfig) -> list:
    """Every setting a resumed run must share with the run it continues,
    after a marker of the checkpoint's layout."""
    return [_CHECKPOINT_LAYOUT, config.g, config.r, config.d, config.rho_max,
            config.stratum, config.mode, config.seed, config.n,
            config.emit_certificates]


def _load_checkpoint(config: FamilyConfig) -> dict:
    """The saved checkpoint, or {} when there is none to resume from."""
    path = config.checkpoint_path
    if not path or not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if obj.get("spec") != _checkpoint_spec(config):
        raise ValueError("checkpoint does not match this run")
    if obj.get("out_bytes") is not None and not config.out_path:
        # the stream hash covers lines that only that file holds
        raise ValueError("checkpoint records a verdict file; resume with --out")
    return obj


def _tail_digest(path: str, length: int) -> str:
    """The sha256 of the last (at most ``_TAIL_BYTES``) bytes of ``path``
    before offset ``length``."""
    start = max(0, length - _TAIL_BYTES)
    with open(path, "rb") as fh:
        fh.seek(start)
        return hashlib.sha256(fh.read(length - start)).hexdigest()


def _open_output(config: FamilyConfig, checkpoint: dict):
    """The JSONL handle, cut back to the checkpoint's length on resume.

    Lines written after the last checkpoint (a hard kill leaves them) are
    dropped, so the resumed file equals the uninterrupted one.  The file is
    cut only if its bytes before that length end as the checkpointed file's
    did, wherever it now lives; any other file is left as it is.
    """
    path = config.out_path
    if not checkpoint:
        return open(path, "w", encoding="utf-8")
    length = checkpoint.get("out_bytes")
    if length is None:
        raise ValueError(f"checkpoint records no length for {path}")
    if not os.path.exists(path) or os.path.getsize(path) < length:
        raise ValueError(f"{path} is missing or shorter than its checkpoint")
    if _tail_digest(path, length) != checkpoint.get("out_tail"):
        raise ValueError(f"{path} is not the verdict file of this checkpoint")
    os.truncate(path, length)
    return open(path, "a", encoding="utf-8")


def _save_checkpoint(config: FamilyConfig, done: int, stream_hash: str,
                     tally: Tally, out_fh) -> None:
    """Atomically record progress, after the JSONL it covers is on disk."""
    if not config.checkpoint_path:
        return
    out_bytes = out_tail = None
    if out_fh:
        out_fh.flush()
        os.fsync(out_fh.fileno())
        out_bytes = os.fstat(out_fh.fileno()).st_size
        out_tail = _tail_digest(config.out_path, out_bytes)
    payload = {
        "spec": _checkpoint_spec(config),
        "done": done,
        "stream_hash": stream_hash,
        "tally": asdict(tally),
        "out_bytes": out_bytes,
        "out_tail": out_tail,
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
    tally = Tally(**checkpoint.get("tally", {}))

    end = len(indices)
    # in process a chunk is one task: there is no message to shrink, and each
    # task restarts the walk and the drop context's resume
    size = _CHUNK_SIZE if config.jobs == 1 else _TASK_SIZE
    # no more workers than tasks, and none when nothing is left
    jobs = len(list(itertools.islice(
        _task_bounds(done, end, size), config.jobs)))
    parent = os.getpid() if jobs > 1 else None
    tasks = ((spec, indices[lo:hi], config.emit_certificates, parent)
             for lo, hi in _task_bounds(done, end, size))
    with contextlib.ExitStack() as stack:
        out_fh = None
        if config.out_path:
            out_fh = stack.enter_context(_open_output(config, checkpoint))
        results = map(_verify_task, tasks)
        if jobs > 1:
            results = stack.enter_context(
                contextlib.closing(_pool_results(tasks, jobs)))
        for lines, task_tally in results:
            for line in lines:
                if out_fh:
                    out_fh.write(line + "\n")
                stream_hash = _chain_hash(stream_hash, line)
            done += len(lines)
            tally.merge(task_tally)
            # a checkpoint after each chunk's last task
            if (done - resumed_from) % _CHUNK_SIZE == 0 or done == end:
                _save_checkpoint(config, done, stream_hash, tally, out_fh)

    return Report(
        g=config.g, r=config.r, d=config.d,
        stratum=config.stratum, mode=config.mode, seed=config.seed,
        total_in_stratum=enum.total(),
        verified=done,
        stream_hash=stream_hash,
        elapsed_seconds=time.time() - started,
        resumed_from=resumed_from,
        **vars(tally),
    )
