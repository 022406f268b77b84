"""Span tracer for the benchmark's traced run, installed from outside the package.

``Tracer.install`` replaces the functions ``llschain.verify`` calls on the hot
path -- the names it imports, plus ``TableEnumerator.total``, ``iter_range``
and ``iter_indices`` -- with timing wrappers, and ``restore`` puts the
originals back.  Generators are timed per ``next``.  Nothing under ``src/``
changes.  The one private hook is ``llschain.drop._search``, wrapped only to
count how often ``drop_all`` falls back from the greedy schedule to search.

Each call records a span ``(id, parent, name, start_ns, end_ns, table,
value)`` in memory: ``table`` is the enumeration index of the table being
verified, ``value`` a per-call count (see ``Tracer.install``).  Pool workers
are forked with the wrappers in place; each writes its spans to its own file
when its chunk's enumeration stream ends, because pool workers are killed
rather than exited.  The parent writes its spans in ``dump``.

Layers are the modules on the hot path.  ``chain`` work (left-weighted
weights) is counted inside ``verify``; ``render`` and ``cli`` are not on it.
A span's self time is its duration minus that of its child spans.  The
parent's ``verify_family`` span uses process CPU time instead of wall time,
so that waiting for pool workers is not counted as work.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
from collections import Counter, defaultdict
from time import perf_counter_ns, process_time_ns

LAYER = {
    "TableEnumerator.total": "enumeration",
    "TableEnumerator.iter_range": "enumeration",
    "TableEnumerator.iter_indices": "enumeration",
    "validate_table": "table",
    "lambda_sequence": "table",
    "rho_accounting": "table",
    "find_swaps": "table",
    "classify_degeneracy": "table",
    "exceptional_rows": "table",
    "iter_candidate_multidegrees": "multidegree",
    "component_degrees": "multidegree",
    "build_tensor_table": "tensor",
    "extract_potential_sections": "tensor",
    "DropContext": "drop",
    "drop_all": "drop",
    "replay_certificate": "drop",
    "drop._search": "drop",
    "verify_family": "verify",
    "verify_table": "verify",
    "chunk": "verify",   # one enumeration stream: _verify_chunk's JSON and counters
}
_WALKS = ("TableEnumerator.iter_range", "TableEnumerator.iter_indices")


class _TracedIter:
    """Times each ``next`` of a generator; a top-level enumeration stream
    also opens a ``chunk`` span that closes when the stream is exhausted."""

    __slots__ = ("_tracer", "_name", "_it", "_chunk", "_indexed")

    def __init__(self, tracer: "Tracer", name: str, it, chunk: bool,
                 indexed: bool):
        self._tracer, self._name, self._it = tracer, name, it
        self._chunk = chunk
        self._indexed = indexed

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        if self._chunk is True:
            self._chunk = tracer.open("chunk")
        frame = tracer.open(self._name)
        try:
            item = next(self._it)
        except StopIteration:
            tracer.close(frame, 0)
            if self._chunk:
                tracer.close(self._chunk, None)
                self._chunk = None
                if tracer.in_worker:
                    tracer.dump()
            raise
        except BaseException:
            tracer.close(frame, None)
            raise
        if self._indexed:
            frame[4] = item[0]
        tracer.close(frame, 1)
        return item


class Tracer:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.spans: list[tuple] = []
        self.in_worker = False
        self._stack: list[list] = []
        self._next_id = 0
        self._saved: list[tuple] = []
        self._active = False
        os.register_at_fork(after_in_child=self._after_fork)

    # -- spans ---------------------------------------------------------------

    def _after_fork(self) -> None:
        if self._active:
            self.spans = []
            self._stack = []
            self.in_worker = True

    def open(self, name: str, table: int | None = None) -> list:
        stack = self._stack
        self._next_id += 1
        if stack:
            parent = stack[-1]
            frame = [self._next_id, parent[0], name, 0,
                     parent[4] if table is None else table]
        else:
            frame = [self._next_id, 0, name, 0, table]
        stack.append(frame)
        frame[3] = perf_counter_ns()
        return frame

    def close(self, frame: list, value) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        self.spans.append((frame[0], frame[1], frame[2], frame[3], end,
                           frame[4], value))

    def dump(self) -> None:
        """Append this process's spans to its own file and forget them."""
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.jsonl")
        keys = ("id", "parent", "name", "start_ns", "end_ns", "table", "value")
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
        self.spans = []

    # -- wrappers ------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _call(self, name: str, fn, value_of=None, index_kw: str | None = None,
              cpu: bool = False):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer.open(name, kwargs.get(index_kw) if index_kw else None)
            cpu0 = process_time_ns() if cpu else 0
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if cpu:
                    value = process_time_ns() - cpu0
                elif value_of is not None and result is not None:
                    value = value_of(args, result)
                else:
                    value = None
                tracer.close(frame, value)
        return traced

    def _gen(self, name: str, fn, indexed: bool = False):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            top = indexed and not (stack and stack[-1][2] in _WALKS)
            return _TracedIter(tracer, name, fn(*args, **kwargs), top, indexed)
        return traced

    def install(self) -> None:
        """Wrap the hot-path functions.  Span values: ``total`` -> DP memo
        states, ``extract_potential_sections`` -> sections, ``drop_all`` ->
        certificate steps (-1 on failure), ``replay_certificate`` -> 1/0,
        generator ``next`` -> 1 per item / 0 at the end, ``verify_family``
        -> process CPU ns."""
        from llschain import drop, verify
        from llschain.enumeration import TableEnumerator

        plain = ("validate_table", "lambda_sequence", "rho_accounting",
                 "find_swaps", "classify_degeneracy", "exceptional_rows",
                 "component_degrees", "build_tensor_table", "DropContext")
        for name in plain:
            self._patch(verify, name, self._call(name, getattr(verify, name)))
        self._patch(verify, "extract_potential_sections", self._call(
            "extract_potential_sections", verify.extract_potential_sections,
            lambda args, res: len(res)))
        self._patch(verify, "drop_all", self._call(
            "drop_all", verify.drop_all,
            lambda args, res: len(res.certificate.steps) if res.success else -1))
        self._patch(verify, "replay_certificate", self._call(
            "replay_certificate", verify.replay_certificate,
            lambda args, res: int(res)))
        self._patch(verify, "verify_table", self._call(
            "verify_table", verify.verify_table, index_kw="index"))
        self._patch(verify, "verify_family", self._call(
            "verify_family", verify.verify_family, cpu=True))
        self._patch(verify, "iter_candidate_multidegrees", self._gen(
            "iter_candidate_multidegrees", verify.iter_candidate_multidegrees))
        self._patch(TableEnumerator, "total", self._call(
            "TableEnumerator.total", TableEnumerator.total,
            lambda args, res: len(getattr(args[0], "_memo", ()))))
        for name in ("iter_range", "iter_indices"):
            self._patch(TableEnumerator, name, self._gen(
                f"TableEnumerator.{name}", getattr(TableEnumerator, name),
                indexed=True))
        if hasattr(drop, "_search"):
            self._patch(drop, "_search", self._call("drop._search", drop._search))
        self._active = True

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []
        self._active = False


# -- analysis -----------------------------------------------------------------


def load_spans(out_dir: str) -> list[dict]:
    spans = []
    for path in sorted(glob.glob(os.path.join(out_dir, "spans-*.jsonl"))):
        pid = int(os.path.basename(path)[6:-6])
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                span = json.loads(line)
                span["pid"] = pid
                spans.append(span)
    return spans


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer self times and counts, normalised per table or per call."""
    covered: dict[tuple, int] = defaultdict(int)
    for s in spans:
        if s["parent"]:
            covered[(s["pid"], s["parent"])] += s["end_ns"] - s["start_ns"]
    self_ns: Counter = Counter()
    calls: Counter = Counter()
    dur_ns: Counter = Counter()
    values: dict[str, list] = defaultdict(list)
    table_ms = []
    for s in spans:
        name = s["name"]
        dur = s["end_ns"] - s["start_ns"]
        busy = s["value"] if name == "verify_family" else dur
        self_ns[name] += max(0, busy - covered[(s["pid"], s["id"])])
        calls[name] += 1
        dur_ns[name] += dur
        if s["value"] is not None:
            values[name].append(s["value"])
        if name == "verify_table":
            table_ms.append(dur / 1e6)

    tables = calls["verify_table"]
    if tables < 1:
        raise ValueError("trace holds no verify_table span")
    layer_self = Counter()
    for name, ns in self_ns.items():
        layer_self[LAYER[name]] += ns

    def us_per(ns: float, base: int) -> float:
        return ns / 1e3 / base if base else 0.0

    drops = values["drop_all"]
    certs = [v for v in drops if v >= 0]
    replays = calls["replay_certificate"]
    candidates = sum(values["iter_candidate_multidegrees"])
    walk = self_ns["TableEnumerator.iter_range"] + self_ns["TableEnumerator.iter_indices"]
    stream = self_ns["verify_family"] + self_ns["chunk"]
    table_ms.sort()
    return {
        "enumeration.count_s": dur_ns["TableEnumerator.total"] / 1e9,
        "enumeration.memo_states": max(values["TableEnumerator.total"], default=0),
        "enumeration.walk_us_per_table": us_per(walk, tables),
        "enumeration.self_us_per_table": us_per(layer_self["enumeration"], tables),
        "table.us_per_table": us_per(layer_self["table"], tables),
        "multidegree.us_per_table": us_per(layer_self["multidegree"], tables),
        "multidegree.candidates_per_table": candidates / tables,
        "tensor.us_per_table": us_per(layer_self["tensor"], tables),
        "tensor.sections_per_candidate":
            sum(values["extract_potential_sections"]) / max(1, calls["extract_potential_sections"]),
        "drop.us_per_candidate": us_per(layer_self["drop"] - self_ns["replay_certificate"],
                                        calls["drop_all"]),
        "drop.replay_us_per_pass": us_per(dur_ns["replay_certificate"], replays),
        "drop.self_us_per_table": us_per(layer_self["drop"], tables),
        "drop.success_ratio": len(certs) / max(1, len(drops)),
        "drop.steps_per_certificate": sum(certs) / max(1, len(certs)),
        "drop.search_fallbacks": calls["drop._search"],
        "verify.self_us_per_table": us_per(layer_self["verify"], tables),
        "verify.table_ms_p50": statistics.median(table_ms),
        "verify.table_ms_p99": (statistics.quantiles(table_ms, n=100)[98]
                                if tables >= 2 else table_ms[0]),
        "verify.table_samples": tables,
        # a candidate whose drop succeeded is either rejected by the cycle
        # side condition or replayed, so the difference counts rejections
        "verify.side_rejections": len(certs) - replays,
        "verify.stream_us_per_table": us_per(stream, tables),
    }
