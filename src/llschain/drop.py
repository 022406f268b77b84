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

One `DropContext(table, w)` per candidate holds everything the rules read,
and it sees the sections one way only: as bitmasks, bit i standing for
`sections[i]`, the `(row, start, end)` key a step names it by.  A state is
the mask of the live sections.  The greedy schedule, the search and replay
all ask one primitive, `_find`, which drop a rule allows at a column or
block in a given state; it answers (side, mask), the mask of the sections
to drop.  `_step` alone writes certificate steps.  A certificate is bound
to the hash of its table and to `w`, and replay checks that binding against
the context it replays on; it accepts a certificate iff each step is
exactly the drop its rule allows at that place at that moment (same rule,
same side, same set of sections) and nothing remains at the end.

Building a context is linear in columns and sections: the masks come from
one pass over the sections' ends, and `cover` from one running OR over the
columns.  Replay reads each step's sections as a mask too, through one
key-to-bit map, and compares it with the mask `_find` returns.

`_find` reads the state only through the mask of the place it is asked
about: `alive & cover[x]` at a column x (rules i and ii), the live sections
covering x, and `alive & reach[(u, v)]` on a block (rule iii), the live
sections meeting it.  Its answer is a function of that masked state.  The
greedy schedule records, per place, the masked state at which `_find` last
found nothing there, and skips the place while that state is unchanged:
the skipped call would find nothing again, so the schedule, and with it
every certificate, is the one the greedy without skips produces.  Search
and replay keep no such record and ask `_find` at every place they visit.
Where a rule needs section indices (the minima of rule i, the rows of rule
ii, the JSON of a step) it walks the set bits in ascending order, so a
step lists its sections in index order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .multidegree import MultidegreeError, TwistVector, degrees_unimaginative
from .table import VanishingTable, pair_list
from .tensor import PotentialSection, pair_positions, section_runs

CERTIFICATE_VERSION = 1

_SEARCH_MAX_NODES = 2_000


class MalformedCertificate(ValueError):
    pass


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class DropContext:
    """Static data shared by all rule evaluations for one (table, w) pair.

    The rules are defined only for an unimaginative `w`, so any other is
    rejected (the component degrees are computed once, for that check and
    for ``degree``); one pass over :func:`~llschain.tensor.section_runs`
    then records each section's key, its row's position (``pair_of``) and
    its bits.  Sections are read only through masks, bit i standing for
    ``sections[i]``: ``starts[x]`` and ``ends[x]`` hold the sections
    starting or ending at column x, ``cover[x]`` those covering it (one
    running OR over the columns, adding ``starts[x]`` and then clearing
    ``ends[x]``), and ``reach[(u, v)]`` those meeting block (u, v), the OR of
    ``cover[u..v]``; its keys are the blocks rule (iii) considers.
    ``table_hash`` and ``w`` are what a certificate replayed on this context
    must be bound to.
    """

    __slots__ = (
        "table_hash", "w", "n", "d2", "genera", "degree", "delta", "exc",
        "sections", "pair_of", "ta", "tb", "blocks", "dd_pair", "cover",
        "starts", "ends", "reach",
    )

    def __init__(self, table: VanishingTable, w: TwistVector):
        runs = section_runs(table, w)   # checks w's length, total and bounds
        self.n = n = table.n_columns
        ext = w.extended()
        self.genera = genera = table.chain.genera
        self.degree = degree = tuple(ext[i + 1] - ext[i] for i in range(1, n + 1))
        if not degrees_unimaginative(genera, degree):
            raise MultidegreeError("twist vector is not unimaginative")
        cols = table.columns
        self.table_hash = table.hash
        self.w = w
        self.d2 = 2 * table.d
        self.delta = table.shape.delta[1:]
        self.exc = [col.exc for col in cols]
        self.ta = tuple(col.ta for col in cols)
        self.tb = tuple(col.tb for col in cols)
        pairs = pair_list(table.r)
        section = PotentialSection._make
        self.sections = [section((pairs[p], s + 1, e + 1)) for p, s, e in runs]
        self.pair_of = [p for p, _, _ in runs]
        starts, ends = [0] * n, [0] * n
        bit = 1
        for _, s, e in runs:
            starts[s] |= bit
            ends[e] |= bit
            bit <<= 1
        cover = []
        cur = 0
        for x in range(n):
            cur |= starts[x]
            cover.append(cur)
            cur &= ~ends[x]
        self.cover, self.starts, self.ends = cover, starts, ends
        pos = pair_positions(table.r)
        self.dd_pair = [pos[dj, dj] if dj is not None else None
                        for dj in self.delta]
        self.reach = reach = {}
        for u in range(n):
            if genera[u] != 1:
                continue
            mask = cover[u]
            for v in range(u + 1, n):
                mask |= cover[v]
                if genera[v] == 1:
                    reach[u, v] = mask
                # interior from u+1 to v must all have degree 2
                if degree[v] != 2:
                    break
        self.blocks = list(reach)


def _semicritical(ctx: DropContext, alive: int, x: int) -> int:
    """Level of column x: 0 none, 1 semicritical, 2 critical."""
    dj = ctx.delta[x]
    if dj is None:
        return 0
    live = alive & ctx.cover[x]
    if not live:
        return 2
    ta, tb, pair_of = ctx.ta[x], ctx.tb[x], ctx.pair_of
    mina = minb = ctx.d2
    m = live
    while m:
        low = m & -m
        m ^= low
        p = pair_of[low.bit_length() - 1]
        if ta[p] < mina:
            mina = ta[p]
        if tb[p] < minb:
            minb = tb[p]
    if mina + minb < ctx.d2 - 2:
        return 0
    exc = ctx.exc[x]
    if exc:
        m = live
        while m:
            low = m & -m
            m ^= low
            j1, j2 = ctx.sections[low.bit_length() - 1].row
            if dj in (j1, j2):
                other = j1 + j2 - dj
                if other != dj and other in exc:
                    return 0
    p = ctx.dd_pair[x]
    if mina == ctx.ta[x][p] - 1 and minb == ctx.tb[x][p] - 1:
        return 1
    return 2


def _rule_iii(ctx: DropContext, alive: int, block: tuple[int, int],
              anchored: bool):
    """Rule (iii) on block (u, v): every live section meeting the block."""
    u, v = block
    cover = ctx.cover
    at_u = alive & cover[u]
    at_v = alive & cover[v]
    if at_u.bit_count() > 3 or at_v.bit_count() > 3:
        return None
    if anchored and (not at_u or not at_v):
        return None
    dropped = alive & ctx.reach[block]
    if not dropped:
        return None
    for k in range(u, v):
        if (dropped & cover[k] & cover[k + 1]).bit_count() > 3:
            return None
    level_u = _semicritical(ctx, alive, u)
    if not level_u:
        return None
    level_v = _semicritical(ctx, alive, v)
    if not level_v:
        return None
    arm_left = level_u == 2 and not dropped & ctx.ends[u]
    arm_right = level_v == 2 and not dropped & ctx.starts[v]
    if not (arm_left or arm_right):
        return None
    return (None, dropped)


def _find(ctx: DropContext, alive: int, rule: str, where, anchored: bool = False):
    """The drop that `rule` allows at `where` in state `alive`, or None.

    `where` is a 0-based column for rules i and ii and a 0-based block
    (u, v) from `ctx.blocks` for rule iii; `anchored` restricts rule iii to
    blocks with live sections at both endpoints.  The drop is returned as
    (side, mask of the sections dropped), where side is the minimum ("a" or
    "b") that rule i used and None for the other rules.
    """
    if rule == "iii":
        return _rule_iii(ctx, alive, where, anchored)
    x = where
    live = alive & ctx.cover[x]
    if not live:
        return None
    if rule == "ii":
        if ctx.genera[x] != 1 or live.bit_count() > 2:
            return None
        for i in _bits(live):
            for j in ctx.sections[i].row:
                if j in ctx.exc[x]:
                    return None
        return (None, live)
    # rule (i): a unique minimal a-value, else a unique minimal b-value
    if not live & (live - 1):
        return ("a", live)
    ta, tb, pair_of = ctx.ta[x], ctx.tb[x], ctx.pair_of
    best_a = best_b = None
    lo_a = lo_b = None
    count_a = count_b = 0
    m = live
    while m:
        low = m & -m
        m ^= low
        i = low.bit_length() - 1
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
        return ("a", 1 << best_a)
    if count_b == 1:
        return ("b", 1 << best_b)
    return None


def _step(ctx: DropContext, rule: str, where, side, mask: int) -> dict:
    """The certificate record of one drop found by `_find`."""
    if rule == "i":
        return {"rule": "i", "column": where + 1, "min": side,
                "section": ctx.sections[mask.bit_length() - 1].to_json()}
    secs = [ctx.sections[i].to_json() for i in _bits(mask)]
    if rule == "ii":
        return {"rule": "ii", "column": where + 1, "sections": secs}
    u, v = where
    return {"rule": "iii", "start": u + 1, "end": v + 1, "sections": secs}


def _greedy(ctx: DropContext, alive: int, steps: list[dict]) -> int:
    n, cover = ctx.n, ctx.cover
    sweep = [*range(n), *reversed(range(n))]
    # after the rule-(i) sweeps stall: rule (ii), then blocks anchored by
    # live sections at both endpoints, then the liberal rule (iii); each
    # place carries the mask its rule reads the state through
    fallbacks = ([("ii", x, False, cover[x]) for x in range(n)]
                 + [("iii", b, True, ctx.reach[b]) for b in ctx.blocks]
                 + [("iii", b, False, ctx.reach[b]) for b in ctx.blocks])
    # the masked state at which _find last found nothing at each place; an
    # empty state finds nothing anywhere, so 0 serves as the start value
    idle_i = [0] * n
    idle = [0] * len(fallbacks)
    while alive:
        progress = False
        for x in sweep:
            if alive & cover[x] == idle_i[x]:
                continue
            while (found := _find(ctx, alive, "i", x)) is not None:
                steps.append(_step(ctx, "i", x, *found))
                alive &= ~found[1]
                progress = True
            idle_i[x] = alive & cover[x]
        if progress:
            continue
        for k, (rule, where, anchored, reads) in enumerate(fallbacks):
            if alive & reads == idle[k]:
                continue
            found = _find(ctx, alive, rule, where, anchored)
            if found is not None:
                steps.append(_step(ctx, rule, where, *found))
                alive &= ~found[1]
                break
            idle[k] = alive & reads
        else:
            break
    return alive


def _all_actions(ctx: DropContext, alive: int):
    """Every drop applicable in state `alive`, as (step, mask) pairs."""
    places = ([("i", x) for x in range(ctx.n)] + [("ii", x) for x in range(ctx.n)]
              + [("iii", b) for b in ctx.blocks])
    for rule, where in places:
        found = _find(ctx, alive, rule, where)
        if found is not None:
            yield _step(ctx, rule, where, *found), found[1]


def _search(ctx: DropContext, alive: int,
            max_nodes: int = _SEARCH_MAX_NODES) -> tuple[list[dict] | None, bool]:
    """Exhaustive bounded search over rule orders, from the given state.

    Returns (steps, truncated); steps is None when no emptying order was
    found within the node budget.  Every drop empties at least one live
    section, so no order is longer than the number of sections.
    """
    dead: set[int] = set()
    nodes = 0
    truncated = False

    def go(state: int) -> list[dict] | None:
        nonlocal nodes, truncated
        if state == 0:
            return []
        if state in dead:
            return None
        nodes += 1
        if nodes > max_nodes:
            truncated = True
            return None
        for step, mask in _all_actions(ctx, state):
            rest = go(state & ~mask)
            if rest is not None:
                return [step] + rest
        dead.add(state)
        return None

    return go(alive), truncated


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
            if not isinstance(obj["steps"], list):
                raise TypeError("steps must be a list")
            return cls(
                table_hash=obj["table"],
                w=TwistVector.from_json(obj["w"]),
                steps=tuple(obj["steps"]),
                version=obj["version"],
            )
        except (KeyError, TypeError, MultidegreeError) as err:
            raise MalformedCertificate(str(err)) from err


@dataclass
class DropResult:
    success: bool
    certificate: DropCertificate | None
    remaining: list[PotentialSection] = field(default_factory=list)
    search_truncated: bool = False


def drop_all(ctx: DropContext) -> DropResult:
    """Try to drop every section of `ctx`, by the greedy schedule and then a
    bounded search; failure is a value, not an error."""
    full = (1 << len(ctx.sections)) - 1
    steps: list[dict] = []
    stuck = _greedy(ctx, full, steps)
    if stuck == 0:
        cert = DropCertificate(ctx.table_hash, ctx.w, tuple(steps))
        return DropResult(True, cert)
    found, truncated = _search(ctx, full)
    if found is not None:
        cert = DropCertificate(ctx.table_hash, ctx.w, tuple(found))
        return DropResult(True, cert)
    remaining = [ctx.sections[i] for i in _bits(stuck)]
    return DropResult(False, None, remaining, search_truncated=truncated)


def _section_key(ref) -> tuple:
    """The `(row, start, end)` key of one section named in a step."""
    row, start, end = ref["row"], ref["start"], ref["end"]
    if not (type(row) is list and len(row) == 2 and type(row[0]) is int
            and type(row[1]) is int and type(start) is int
            and type(end) is int):
        raise MalformedCertificate(f"bad section {ref!r}")
    return (row[0], row[1]), start, end


def _parse_step(ctx: DropContext, step) -> tuple:
    """(rule, where, side, section keys in the step's order) of one step.

    `where` is None when the step names a column or block outside the chain
    or a block that rule (iii) does not consider.
    """
    try:
        rule = step["rule"]
        if rule == "i":
            place, side, refs = (step["column"],), step["min"], [step["section"]]
        elif rule == "ii":
            place, side, refs = (step["column"],), None, step["sections"]
        elif rule == "iii":
            place, side, refs = (step["start"], step["end"]), None, step["sections"]
        else:
            raise MalformedCertificate(f"unknown rule {rule!r}")
        if set(map(type, place)) != {int}:
            raise MalformedCertificate(f"bad place in step {step!r}")
        keys = [_section_key(o) for o in refs]
    except (KeyError, TypeError) as err:
        raise MalformedCertificate(f"bad step {step!r}: {err}") from err
    if rule == "iii":
        where = (place[0] - 1, place[1] - 1)
        return rule, where if where in ctx.reach else None, side, keys
    where = place[0] - 1
    return rule, where if 0 <= where < ctx.n else None, side, keys


def replay_certificate(cert: DropCertificate, ctx: DropContext) -> bool:
    """Re-run a certificate step by step against the drop rules.

    True iff the certificate is bound to the context's table hash and `w`,
    each step is exactly the drop its rule allows at that place at that
    moment (same side, same set of sections), and the final state is empty.
    A step's sections are compared as a mask: a key the context does not
    hold, or one named twice, rejects the step.  Raises MalformedCertificate
    for a step that cannot be read.
    """
    if cert.version != CERTIFICATE_VERSION:
        raise MalformedCertificate(f"unsupported version {cert.version}")
    if cert.table_hash != ctx.table_hash or cert.w != ctx.w:
        return False
    bit_of = {key: 1 << i for i, key in enumerate(ctx.sections)}
    alive = (1 << len(ctx.sections)) - 1
    for step in cert.steps:
        rule, where, side, keys = _parse_step(ctx, step)
        if where is None:
            return False
        mask = 0
        for key in keys:
            bit = bit_of.get(key, 0)
            if mask & bit or not bit:
                return False
            mask |= bit
        if _find(ctx, alive, rule, where) != (side, mask):
            return False
        alive &= ~mask
    return alive == 0
