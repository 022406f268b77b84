"""Iterated section dropping: the combinatorial independence check.

Potential sections in a fixed unimaginative multidegree are eliminated one
batch at a time by three rules:

  (i)   a section that uniquely attains the minimal a-value (or b-value)
        among the remaining sections covering some column may be dropped;
  (ii)  if at most two sections remain in a genus-1 column and none of them
        involves a row exceptional there, all of them may be dropped;
  (iii) a block of columns u..v whose interior has degree 2, with at most
        three sections in each endpoint column and at most three crossing
        any adjacent pair, both endpoints semicritical and one endpoint
        critical with no section ending (resp. starting) there, may be
        emptied wholesale.

A genus-1 column is semicritical when it carries a box-adding row, the
minimal remaining a- and b-values add to at least 2d-2, and no remaining
section pairs the box-adding row with a row exceptional in that column;
critical when additionally the minima are not both one less than the
doubled box-adding row.

Dropping everything certifies linear independence of the sections.  The
engine runs a deterministic greedy schedule (left and right rule-(i)
sweeps, then rule (ii), then rule-(iii) blocks, to a fixpoint) and falls
back to a bounded exhaustive search over rule orders if the greedy schedule
stalls.  Every drop is recorded in a replayable certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .multidegree import TwistVector, component_degrees
from .tensor import PotentialSection, TensorTable, extract_potential_sections

CERTIFICATE_VERSION = 1

_SEARCH_MAX_NODES = 2_000
_SEARCH_MAX_DEPTH = 64


class MalformedCertificate(ValueError):
    pass


class DropContext:
    """Static data shared by all rule evaluations for one (table, w) pair."""

    __slots__ = (
        "n", "d2", "genera", "degree", "delta", "exc", "sections", "pair_of",
        "ta", "tb", "start0", "end0", "by_col", "bit", "blocks", "dd_pair",
    )

    def __init__(self, tt: TensorTable, w: TwistVector,
                 sections: list[PotentialSection]):
        base = tt.base
        self.n = base.n_columns
        self.d2 = 2 * base.d
        self.genera = base.chain.genera
        self.degree = component_degrees(w, base.chain)
        self.delta = list(base.shape.delta[1:])
        exc = base.exceptional
        self.exc = [frozenset(j for (c, j) in exc if c == x + 1) for x in range(self.n)]
        self.sections = sections
        self.pair_of = [tt.pair_index(s.row) for s in sections]
        self.ta = tt.ta
        self.tb = tt.tb
        self.start0 = [s.start - 1 for s in sections]
        self.end0 = [s.end - 1 for s in sections]
        self.by_col = [[] for _ in range(self.n)]
        for idx, s in enumerate(sections):
            for x in range(s.start - 1, s.end):
                self.by_col[x].append(idx)
        self.bit = [1 << idx for idx in range(len(sections))]
        self.dd_pair = [
            tt.pair_index((dj, dj)) if dj is not None else None for dj in self.delta
        ]
        self.blocks = self._candidate_blocks()

    def _candidate_blocks(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            if self.genera[u] != 1:
                continue
            for v in range(u + 1, self.n):
                if self.genera[v] == 1:
                    out.append((u, v))
                # interior from u+1 to v must all have degree 2
                if self.degree[v] != 2:
                    break
        return out

    def alive_at(self, alive: int, x: int) -> list[int]:
        return [i for i in self.by_col[x] if (alive >> i) & 1]


def _col_minima(ctx: DropContext, secs: list[int], x: int) -> tuple[int, int]:
    mina = min(ctx.ta[x][ctx.pair_of[i]] for i in secs)
    minb = min(ctx.tb[x][ctx.pair_of[i]] for i in secs)
    return mina, minb


def _semicritical(ctx: DropContext, alive: int, x: int,
                  want_critical: bool = False) -> bool:
    dj = ctx.delta[x]
    if dj is None:
        return False
    secs = ctx.alive_at(alive, x)
    if secs:
        mina, minb = _col_minima(ctx, secs, x)
        if mina + minb < ctx.d2 - 2:
            return False
        for i in secs:
            j1, j2 = ctx.sections[i].row
            if dj in (j1, j2):
                other = j1 + j2 - dj
                if other != dj and other in ctx.exc[x]:
                    return False
        if want_critical:
            p = ctx.dd_pair[x]
            if mina == ctx.ta[x][p] - 1 and minb == ctx.tb[x][p] - 1:
                return False
    return True


def _rule_i(ctx: DropContext, alive: int, x: int):
    """Unique-minimum drop in column x: returns (side, index) or None."""
    secs = ctx.alive_at(alive, x)
    if not secs:
        return None
    if len(secs) == 1:
        return ("a", secs[0])
    ta, tb, pair_of = ctx.ta[x], ctx.tb[x], ctx.pair_of
    best_a = best_b = None
    lo_a = lo_b = None
    count_a = count_b = 0
    for i in secs:
        p = pair_of[i]
        va, vb = ta[p], tb[p]
        if lo_a is None or va < lo_a:
            lo_a, best_a, count_a = va, i, 1
        elif va == lo_a:
            count_a += 1
        if lo_b is None or vb < lo_b:
            lo_b, best_b, count_b = vb, i, 1
        elif vb == lo_b:
            count_b += 1
    if count_a == 1:
        return ("a", best_a)
    if count_b == 1:
        return ("b", best_b)
    return None


def _rule_ii(ctx: DropContext, alive: int, x: int):
    if ctx.genera[x] != 1:
        return None
    secs = ctx.alive_at(alive, x)
    if not secs or len(secs) > 2:
        return None
    for i in secs:
        for j in ctx.sections[i].row:
            if j in ctx.exc[x]:
                return None
    return secs


def _rule_iii(ctx: DropContext, alive: int, u: int, v: int,
              require_anchored: bool = False):
    secs_u = ctx.alive_at(alive, u)
    secs_v = ctx.alive_at(alive, v)
    if len(secs_u) > 3 or len(secs_v) > 3:
        return None
    if require_anchored and (not secs_u or not secs_v):
        return None
    dropped = [
        i for i in range(len(ctx.sections))
        if alive & ctx.bit[i] and ctx.start0[i] <= v and ctx.end0[i] >= u
    ]
    if not dropped:
        return None
    for k in range(u, v):
        crossing = sum(
            1 for i in dropped if ctx.start0[i] <= k and ctx.end0[i] >= k + 1
        )
        if crossing > 3:
            return None
    if not (_semicritical(ctx, alive, u) and _semicritical(ctx, alive, v)):
        return None
    arm_left = _semicritical(ctx, alive, u, want_critical=True) and not any(
        ctx.end0[i] == u for i in dropped
    )
    arm_right = _semicritical(ctx, alive, v, want_critical=True) and not any(
        ctx.start0[i] == v for i in dropped
    )
    if not (arm_left or arm_right):
        return None
    return dropped


def _sec_json(ctx: DropContext, i: int) -> dict:
    s = ctx.sections[i]
    return {"row": list(s.row), "start": s.start, "end": s.end}


def _greedy(ctx: DropContext, alive: int, steps: list[dict]) -> int:
    n = ctx.n
    while alive:
        progress = False
        for sweep in (range(n), range(n - 1, -1, -1)):
            for x in sweep:
                while True:
                    act = _rule_i(ctx, alive, x)
                    if act is None:
                        break
                    side, i = act
                    steps.append({"rule": "i", "column": x + 1, "min": side,
                                  "section": _sec_json(ctx, i)})
                    alive &= ~ctx.bit[i]
                    progress = True
        if progress:
            continue
        for x in range(n):
            secs = _rule_ii(ctx, alive, x)
            if secs:
                steps.append({"rule": "ii", "column": x + 1,
                              "sections": [_sec_json(ctx, i) for i in secs]})
                for i in secs:
                    alive &= ~ctx.bit[i]
                progress = True
                break
        if progress:
            continue
        # prefer blocks anchored by live sections at both endpoints; fall
        # back to the liberal rule only when no anchored block applies
        for anchored in (True, False):
            for (u, v) in ctx.blocks:
                dropped = _rule_iii(ctx, alive, u, v, require_anchored=anchored)
                if dropped:
                    steps.append({"rule": "iii", "start": u + 1, "end": v + 1,
                                  "sections": [_sec_json(ctx, i) for i in dropped]})
                    for i in dropped:
                        alive &= ~ctx.bit[i]
                    progress = True
                    break
            if progress:
                break
        if not progress:
            break
    return alive


def _all_actions(ctx: DropContext, alive: int):
    for x in range(ctx.n):
        act = _rule_i(ctx, alive, x)
        if act is not None:
            side, i = act
            yield ({"rule": "i", "column": x + 1, "min": side,
                    "section": _sec_json(ctx, i)}, ctx.bit[i])
    for x in range(ctx.n):
        secs = _rule_ii(ctx, alive, x)
        if secs:
            mask = 0
            for i in secs:
                mask |= ctx.bit[i]
            yield ({"rule": "ii", "column": x + 1,
                    "sections": [_sec_json(ctx, i) for i in secs]}, mask)
    for (u, v) in ctx.blocks:
        dropped = _rule_iii(ctx, alive, u, v)
        if dropped:
            mask = 0
            for i in dropped:
                mask |= ctx.bit[i]
            yield ({"rule": "iii", "start": u + 1, "end": v + 1,
                    "sections": [_sec_json(ctx, i) for i in dropped]}, mask)


def _search(ctx: DropContext, alive: int,
            max_nodes: int = _SEARCH_MAX_NODES) -> tuple[list[dict] | None, bool]:
    """Exhaustive bounded search over rule orders, from the given state.

    Returns (steps, truncated); steps is None when no emptying order was
    found within the node budget.
    """
    dead: set[int] = set()
    nodes = 0
    truncated = False

    def go(state: int, depth: int) -> list[dict] | None:
        nonlocal nodes, truncated
        if state == 0:
            return []
        if state in dead or depth > _SEARCH_MAX_DEPTH:
            return None
        nodes += 1
        if nodes > max_nodes:
            truncated = True
            return None
        for step, mask in _all_actions(ctx, state):
            rest = go(state & ~mask, depth + 1)
            if rest is not None:
                return [step] + rest
        dead.add(state)
        return None

    return go(alive, 0), truncated


@dataclass(frozen=True)
class DropCertificate:
    """Replayable elimination trace for one (table, multidegree) pair."""

    table_hash: str
    w: TwistVector
    steps: tuple[dict, ...]
    version: int = CERTIFICATE_VERSION

    def rule_iii_blocks(self) -> list[tuple[int, int]]:
        return [(s["start"], s["end"]) for s in self.steps if s["rule"] == "iii"]

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "table": self.table_hash,
            "w": self.w.to_json(),
            "steps": list(self.steps),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "DropCertificate":
        try:
            return cls(
                table_hash=obj["table"],
                w=TwistVector.from_json(obj["w"]),
                steps=tuple(obj["steps"]),
                version=obj["version"],
            )
        except (KeyError, TypeError) as err:
            raise MalformedCertificate(str(err)) from err


@dataclass
class DropResult:
    success: bool
    certificate: DropCertificate | None
    remaining: list[PotentialSection] = field(default_factory=list)
    search_truncated: bool = False

    def __bool__(self) -> bool:
        return self.success


def is_semicritical(tt: TensorTable, w: TwistVector, column: int,
                    remaining: list[PotentialSection]) -> bool:
    ctx = DropContext(tt, w, list(remaining))
    alive = (1 << len(remaining)) - 1
    return _semicritical(ctx, alive, column - 1)


def is_critical(tt: TensorTable, w: TwistVector, column: int,
                remaining: list[PotentialSection]) -> bool:
    ctx = DropContext(tt, w, list(remaining))
    alive = (1 << len(remaining)) - 1
    return _semicritical(ctx, alive, column - 1, want_critical=True)


def drop_all(tt: TensorTable, w: TwistVector,
             sections: list[PotentialSection] | None = None,
             max_nodes: int = _SEARCH_MAX_NODES,
             context: DropContext | None = None) -> DropResult:
    """Try to drop every potential section; failure is a value, not an error."""
    if sections is None:
        sections = extract_potential_sections(tt, w)
    ctx = context if context is not None else DropContext(tt, w, sections)
    full = (1 << len(sections)) - 1
    steps: list[dict] = []
    stuck = _greedy(ctx, full, steps)
    table_hash = tt.base.hash
    if stuck == 0:
        cert = DropCertificate(table_hash, w, tuple(steps))
        return DropResult(True, cert)
    if max_nodes > 0:
        found, truncated = _search(ctx, full, max_nodes=max_nodes)
        if found is not None:
            cert = DropCertificate(table_hash, w, tuple(found))
            return DropResult(True, cert)
    else:
        truncated = True
    remaining = [sections[i] for i in range(len(sections)) if stuck & ctx.bit[i]]
    return DropResult(False, None, remaining, search_truncated=truncated)


def replay_certificate(cert: DropCertificate, tt: TensorTable,
                       w: TwistVector,
                       context: DropContext | None = None) -> bool:
    """Re-run a certificate step by step, checking each precondition.

    True iff every step names live sections, its rule really applies at that
    moment with exactly the recorded drop set, and the final state is empty.
    """
    if cert.version != CERTIFICATE_VERSION:
        raise MalformedCertificate(f"unsupported version {cert.version}")
    if cert.w != w:
        return False
    if context is not None:
        ctx = context
        sections = ctx.sections
    else:
        sections = extract_potential_sections(tt, w)
        ctx = DropContext(tt, w, sections)
    index = {
        (tuple(s.row), s.start, s.end): i for i, s in enumerate(sections)
    }
    alive = (1 << len(sections)) - 1

    def lookup(obj) -> int | None:
        try:
            key = (tuple(obj["row"]), obj["start"], obj["end"])
        except (KeyError, TypeError) as err:
            raise MalformedCertificate(f"bad section reference: {obj}") from err
        i = index.get(key)
        if i is None or not alive & ctx.bit[i]:
            return None
        return i

    for step in cert.steps:
        rule = step.get("rule")
        if rule == "i":
            x = step["column"] - 1
            act = _rule_i(ctx, alive, x)
            if act is None:
                return False
            side, i = act
            target = lookup(step["section"])
            if target is None or side != step["min"] or target != i:
                return False
            alive &= ~ctx.bit[i]
        elif rule == "ii":
            x = step["column"] - 1
            secs = _rule_ii(ctx, alive, x)
            if secs is None:
                return False
            listed = [lookup(o) for o in step["sections"]]
            if None in listed or sorted(listed) != sorted(secs):
                return False
            for i in secs:
                alive &= ~ctx.bit[i]
        elif rule == "iii":
            u, v = step["start"] - 1, step["end"] - 1
            if (u, v) not in ctx.blocks:
                return False
            dropped = _rule_iii(ctx, alive, u, v)
            if dropped is None:
                return False
            listed = [lookup(o) for o in step["sections"]]
            if None in listed or sorted(listed) != sorted(dropped):
                return False
            for i in dropped:
                alive &= ~ctx.bit[i]
        else:
            raise MalformedCertificate(f"unknown rule {rule!r}")
    return alive == 0
