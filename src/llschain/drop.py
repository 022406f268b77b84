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
engine runs one deterministic greedy schedule (left and right rule-(i)
sweeps, then rule (ii), then rule-(iii) blocks with live sections at both
endpoints, then the liberal rule (iii), to a fixpoint) and records every
drop as a move, from which a replayable certificate is rendered on demand.
Whether it empties a state does not depend on that order, by the following
lemma.

Monotonicity lemma.  Let every row of every column sum to at most d
(a_j + b_j <= d, which `validate_table` checks).  If `_find` allows a drop
of mask M by rule R at place P in state S, then `_find` by rule R at P
(rule iii in its liberal form) is not None in every state S' contained in
S that meets M.

Proof.  Rule (i): the section of M is live in S', and a unique minimal a-
(or b-) value among the live sections at the column stays unique among
fewer, so rule (i) finds a drop there, on side a if not on side b.
Rule (ii): the live sections at the column in S' are a nonempty subset of
M: at most two, none involving an exceptional row.  Rule (iii) on block
(u, v): the live sections at each endpoint and those crossing each
adjacent pair are subsets of those in S, so each count stays at most
three; the drop, the sections of S' meeting the block, is the part of M
still live in S', so it is nonempty, and none of it ends at u (starts at
v) if none of M did.  The minimal
a- and b-values over fewer sections can only rise, so an endpoint
semicritical in S stays semicritical in S' (the exceptional-pair clause
reads fewer sections too).  Criticality is the one clause that is not
visibly monotone: the minima rising to exactly the box-adding row's sums
minus one makes an endpoint only semicritical.  Suppose an endpoint x is
critical in S and only semicritical in S'.  A column without live sections
is critical, so S' has live sections at x, and with p the pair (dj, dj) of
the box-adding row dj its minima are mina' = ta[p] - 1 and
minb' = tb[p] - 1, so mina' + minb' = 2 (a_dj + b_dj) - 2 <= 2d - 2.  As x
is semicritical in S, mina + minb >= 2d - 2, and mina <= mina',
minb <= minb'; so mina = mina', minb = minb', and x was only semicritical
in S, a contradiction.  The critical endpoint that armed the drop in S
stays critical, and rule (iii) finds a drop at (u, v) in S'.  (At a
box-adding column of a valid table the row sum a_dj + b_dj is exactly d.)

Order independence.  The greedy stops only in a state T closed under all
three rules, rule (iii) in its liberal form.  Suppose an order of drops
M_1, ..., M_k empties the state S_0 the greedy started from, and T is not
empty.  Let M_j be the first to meet T.  T misses M_1, ..., M_{j-1}, so T
lies in S_{j-1}, the state in which M_j was allowed, and by the lemma
M_j's rule finds a drop at M_j's place in T: a contradiction.  So the
greedy empties every state some order empties, and its failure is the
verdict of every order.  `tests/test_drop.py` checks the lemma as a
property on validated tables and the greedy against an exhaustive search
over rule orders.

One `DropContext(table, w)` per candidate holds everything the rules read,
and it sees the sections one way only: as bitmasks, bit i standing for
`sections[i]`, the `(row, start, end)` key a step names it by.  A state is
the mask of the live sections.  The greedy schedule and replay both ask
one primitive, `_find`, which drop a rule allows at a column or block in a
given state; it answers (side, mask), the mask of the sections to drop.

Moves and certificates.  The greedy records each drop as a move, the tuple
``(rule, where, side, mask)`` with `where` and (side, mask) exactly as
`_find` took and returned them, and `drop_all` returns the moves.  A
certificate is the moves rendered as JSON-ready steps, one `_step` dict per
move with 1-based places and each section named by its key; `_step` alone
writes steps, and `DropResult.certificate` calls it only when the
certificate is first read, so a run that writes no certificate builds no
step.  A certificate is bound to the hash of its table and to `w`.

Replay is a reader plus one judge.  The judge, `_replay(ctx, moves)`,
starts from the full state, asks `_find` for each move's rule at its place
in the current state, requires exactly the move's side and mask, removes
the mask, and requires the empty state at the end.  It keeps no record of
the greedy's and reads no state the greedy tracked, so judging the greedy's
own moves re-derives every drop.  `replay_certificate` checks the version
and the binding to the context's table hash and `w`, and hands the judge
the moves its reader reads off the steps.

Bit order and resume.  The bits number the sections in the order the
section scan (`tensor.scan_runs`) closes their runs: by the column where a
run stops appearing, then by row position.  No rule reads that order: each
rule asks about a place and answers a set of sections, the greedy visits
places in a fixed order, and rule (i)'s minimum is unique when it drops.
So the moves are the same section sets under any numbering, and wherever
sections are listed, in a step of rule (ii) or (iii) and in the sections a
failed greedy leaves, they are listed in row-major order, sorted by the
position of their row in `pair_list` and then by start, whatever their
bits.  Tests check this against random renumberings.

Neighbouring tables of a range walk share most of their columns, and the
scan resumes at the first column where the new call differs (see the
`tensor` module).  Each thread keeps one context slot: the scan behind the
last context it built, and that context.  A run closed before the resumed
column read only shared columns, so the first runs of the new scan are the
previous scan's, in the same order, and the new context keeps the previous
one's first sections with their bits: their keys, rows and `starts`/`ends`
entries are sliced and masked from it, never mutated, so an earlier
context stays valid.  Only the runs closed from the resumed column on are
added.  `cover` and `started` (sections starting at or before each column)
are running ORs, and are rebuilt from the first column where an added
section starts; before it they are the previous context's, masked.  The
sections meeting block (u, v) are those that start at or before v and end
at or after u, `started[v] & unended[u]`, with `unended` the suffix OR of
`ends`; the list of blocks depends only on the genera and the degrees and
is kept while they are.  The context's slot is its own: `section_runs` and
`extract_potential_sections` scan in another, so calls to them between two
contexts do not disturb the resume.

Building a context is linear in columns and sections, and along a range
walk in the rescanned columns and the sections added.  The reader,
`_read_moves`, reads each step in one pass: its rule, its place and then
each section, type-checking every field (an int is exactly an int, a row
exactly a list of two ints) and or-ing each section's
bit from one key-to-bit map into the move's mask.  A section the context
does not hold, or one named twice, or a place outside the chain (rule iii:
a block the context does not consider) makes the step a rejected move,
None, but the rest of the step is still read, so a malformed field anywhere
in a step raises MalformedCertificate whether or not the step would be
rejected.  The reader yields one move at a time and the judge stops at the
first move it rejects, so a step after a rejected one is never read.

A certificate's JSON text is written by `DropCertificate.to_text` in sorted
key order, each section's fragment `{"end":..,"row":[..],"start":..}` taken
from a cache keyed on its four ints.

`_find` reads the state only through the mask of the place it is asked
about: `alive & cover[x]` at a column x (rules i and ii), the live sections
covering x, and `alive & started[v] & unended[u]` on a block (u, v) (rule
iii), the live sections meeting it.  Its answer is a function of that
masked state.  The greedy schedule records, per place, the masked state at
which `_find` last found nothing there, and skips the place while that
state is unchanged: the skipped call would find nothing again, so the
schedule, and with it every move list, is the one the greedy without skips
produces.  The judge keeps no such record and asks `_find` at every move.
"""

from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass, field

from .enumeration import _bits
from .multidegree import MultidegreeError, TwistVector, degrees_unimaginative
from .table import VanishingTable, pair_list
from .tensor import PotentialSection, _Scan, pair_positions, scan_runs

CERTIFICATE_VERSION = 1


class MalformedCertificate(ValueError):
    pass


class _LastContext(_Scan):
    """The scan behind the last `DropContext` built in this thread, and that
    context once it is complete (None until then), so that the next context
    resumes from exactly the scan it read."""

    def __init__(self) -> None:
        super().__init__()
        self.context: DropContext | None = None


_last_context = _LastContext()


class DropContext:
    """Static data shared by all rule evaluations for one (table, w) pair.

    The rules are defined only for an unimaginative `w`, so any other is
    rejected (the component degrees are computed once, for that check and
    for ``degree``).  The sections come from :func:`~llschain.tensor.scan_runs`
    in this thread's context slot, numbered in the order the scan closed
    their runs; each has its key in ``sections``, its row's position in
    ``pair_of`` and its bit.  Sections are read only through masks, bit i
    standing for ``sections[i]``: ``starts[x]`` and ``ends[x]`` hold the
    sections starting or ending at column x, ``cover[x]`` those covering it
    (one running OR over the columns, adding ``starts[x]`` and then clearing
    ``ends[x]``), ``started[x]`` those starting at or before x and
    ``unended[x]`` those ending at or after x, so that the sections meeting
    block (u, v) are ``started[v] & unended[u]``.  ``blocks`` lists the
    blocks rule (iii) considers.  ``table_hash`` and ``w`` are what a
    certificate replayed on this context must be bound to.

    The first sections the scan kept from the previous scan in the slot
    (those closed before the first column it rescanned) are the previous
    context's first sections, with the same bits.  Their keys and masks are
    taken from that context, sliced and masked, never mutated, and only the
    other sections are added; ``cover`` and ``started`` are rebuilt from the
    first column where one of those starts.  ``blocks`` is the previous
    context's while the genera and the degrees are.
    """

    __slots__ = (
        "table_hash", "w", "n", "d2", "genera", "degree", "delta", "exc",
        "sections", "pair_of", "ta", "tb", "diagonal", "cover",
        "starts", "ends", "started", "unended", "blocks",
    )

    def __init__(self, table: VanishingTable, w: TwistVector):
        slot = _last_context
        prev, slot.context = slot.context, None
        # checks w's length, total and bounds
        kept = scan_runs(slot, table, w)
        if prev is None:
            kept = 0
        self.n = n = table.n_columns
        ext = slot.ext
        self.genera = genera = table.chain.genera
        self.degree = degree = tuple(map(operator.sub, ext[2:], ext[1:-1]))
        if prev is not None and prev.genera is genera and prev.degree == degree:
            self.blocks = prev.blocks
        else:
            if not degrees_unimaginative(genera, degree):
                raise MultidegreeError("twist vector is not unimaginative")
            self.blocks = _blocks(genera, degree)
        cols = table.columns
        self.table_hash = table.hash
        self.w = w
        self.d2 = 2 * table.d
        self.delta = table.shape.delta[1:]
        self.exc = list(map(_exc_of, cols))
        self.ta = tuple(map(_ta_of, cols))
        self.tb = tuple(map(_tb_of, cols))
        self.diagonal = _diagonal(table.r)
        new = slot.out[kept:]
        if kept:
            low = (1 << kept) - 1
            sections, pair_of = prev.sections[:kept], prev.pair_of[:kept]
            starts = [m & low for m in prev.starts]
            ends = [m & low for m in prev.ends]
        else:
            sections, pair_of, starts, ends = [], [], [0] * n, [0] * n
        pairs = pair_list(table.r)
        sections += [_section((pairs[p], s + 1, e + 1)) for p, s, e in new]
        pair_of += [p for p, _, _ in new]
        bit, first = 1 << kept, n
        for _, s, e in new:
            starts[s] |= bit
            ends[e] |= bit
            bit <<= 1
            if s < first:
                first = s
        # before `first` only the kept sections start, end or cover a column
        if kept and first:
            cover = [m & low for m in prev.cover[:first]]
            started = [m & low for m in prev.started[:first]]
            cur, begun = cover[-1] & ~ends[first - 1], started[-1]
        else:
            cover, started, cur, begun, first = [], [], 0, 0, 0
        for x in range(first, n):
            begun |= starts[x]
            started.append(begun)
            cur |= starts[x]
            cover.append(cur)
            cur &= ~ends[x]
        unended = [0] * n
        cur = 0
        for x in range(n - 1, -1, -1):
            cur |= ends[x]
            unended[x] = cur
        self.sections, self.pair_of = sections, pair_of
        self.starts, self.ends, self.cover = starts, ends, cover
        self.started, self.unended = started, unended
        slot.context = self


_exc_of = operator.attrgetter("exc")
_ta_of = operator.attrgetter("ta")
_tb_of = operator.attrgetter("tb")
# a PotentialSection from its (row, start, end), without a Python-level call
_section = functools.partial(tuple.__new__, PotentialSection)


@functools.lru_cache(maxsize=None)
def _diagonal(r: int) -> tuple[int, ...]:
    """The position in `pair_list` (r) of each doubled row (j, j)."""
    pos = pair_positions(r)
    return tuple(pos[j, j] for j in range(r + 1))


def _blocks(genera, degree) -> tuple[tuple[int, int], ...]:
    """The blocks (u, v) rule (iii) considers, 0-based: genus-1 endpoints
    and an interior of degree-2 columns."""
    n = len(genera)
    blocks = []
    for u in range(n):
        if genera[u] != 1:
            continue
        for v in range(u + 1, n):
            if genera[v] == 1:
                blocks.append((u, v))
            # interior from u+1 to v must all have degree 2
            if degree[v] != 2:
                break
    return tuple(blocks)


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
    p = ctx.diagonal[dj]
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
    dropped = alive & ctx.started[v] & ctx.unended[u]
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
    (u, v), one of `ctx.blocks`, for rule iii; `anchored` restricts rule
    iii to blocks with live sections at both endpoints.  The drop is
    returned as (side, mask of the sections dropped), where side is the
    minimum ("a" or "b") that rule i used and None for the other rules.
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


def _listed(ctx: DropContext, mask: int) -> list[PotentialSection]:
    """The sections of `mask` in row-major order: by the position of their
    row in `pair_list`, then by start."""
    sections, pair_of = ctx.sections, ctx.pair_of
    return [sections[i] for i in sorted(
        _bits(mask), key=lambda i: (pair_of[i], sections[i].start))]


def _step(ctx: DropContext, rule: str, where, side, mask: int) -> dict:
    """The certificate record of one drop found by `_find`."""
    if rule == "i":
        return {"rule": "i", "column": where + 1, "min": side,
                "section": ctx.sections[mask.bit_length() - 1].to_json()}
    secs = [sec.to_json() for sec in _listed(ctx, mask)]
    if rule == "ii":
        return {"rule": "ii", "column": where + 1, "sections": secs}
    u, v = where
    return {"rule": "iii", "start": u + 1, "end": v + 1, "sections": secs}


def _greedy(ctx: DropContext, alive: int, moves: list[tuple]) -> int:
    """Run the greedy schedule from state `alive`, appending each drop to
    `moves` as the move ``(rule, where, side, mask)`` `_find` found, and
    return the state it stalls in (0 when it empties `alive`)."""
    n, cover, started, unended = ctx.n, ctx.cover, ctx.started, ctx.unended
    blocks = ctx.blocks
    nb = len(blocks)
    sweep = [*range(n), *reversed(range(n))]
    # after the rule-(i) sweeps stall, place k is rule (ii) at column k for
    # k < n, then each block anchored by live sections at both endpoints,
    # then each block for the liberal rule (iii); reads[k] is the mask its
    # rule reads the state through
    meets = [started[v] & unended[u] for u, v in blocks]
    reads = cover + meets + meets
    # the masked state at which _find last found nothing at each place; an
    # empty state finds nothing anywhere, so 0 serves as the start value
    idle_i = [0] * n
    idle = [0] * len(reads)
    while alive:
        progress = False
        for x in sweep:
            if alive & cover[x] == idle_i[x]:
                continue
            while (found := _find(ctx, alive, "i", x)) is not None:
                moves.append(("i", x, *found))
                alive &= ~found[1]
                progress = True
            idle_i[x] = alive & cover[x]
        if progress:
            continue
        for k, mask in enumerate(reads):
            if alive & mask == idle[k]:
                continue
            if k < n:
                rule, where, anchored = "ii", k, False
            else:
                rule, where, anchored = "iii", blocks[(k - n) % nb], k < n + nb
            found = _find(ctx, alive, rule, where, anchored)
            if found is not None:
                moves.append((rule, where, *found))
                alive &= ~found[1]
                break
            idle[k] = alive & mask
        else:
            break
    return alive


@functools.lru_cache(maxsize=8192)
def _section_text(j1: int, j2: int, start: int, end: int) -> str:
    """The sorted compact JSON of a section.  A family of n columns has at
    most 28 n (n + 1) / 2 sections, which the cache holds for n <= 23."""
    return '{"end":%d,"row":[%d,%d],"start":%d}' % (end, j1, j2, start)


@dataclass(frozen=True)
class DropCertificate:
    """Replayable elimination trace for one (table, multidegree) pair."""

    table_hash: str
    w: TwistVector
    steps: tuple[dict, ...]
    version: int = CERTIFICATE_VERSION

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "table": self.table_hash,
            "w": self.w.to_json(),
            "steps": list(self.steps),
        }

    def to_text(self) -> str:
        """``json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))``
        for steps as `_step` writes them, spelled out in sorted key order
        with each section's text taken from `_section_text`.  A step of
        another rule raises MalformedCertificate."""
        parts = []
        for step in self.steps:
            rule = step["rule"]
            if rule == "i":
                sec = step["section"]
                j1, j2 = sec["row"]
                parts.append('{"column":%d,"min":"%s","rule":"i","section":%s}' % (
                    step["column"], step["min"],
                    _section_text(j1, j2, sec["start"], sec["end"])))
                continue
            if rule not in ("ii", "iii"):
                raise MalformedCertificate(f"unknown rule {rule!r}")
            secs = ",".join([_section_text(*sec["row"], sec["start"], sec["end"])
                             for sec in step["sections"]])
            if rule == "ii":
                parts.append('{"column":%d,"rule":"ii","sections":[%s]}'
                             % (step["column"], secs))
            else:
                parts.append('{"end":%d,"rule":"iii","sections":[%s],"start":%d}'
                             % (step["end"], secs, step["start"]))
        return '{"steps":[%s],"table":%s,"version":%d,"w":%s}' % (
            ",".join(parts), json.dumps(self.table_hash), self.version,
            self.w.json_text)

    @classmethod
    def from_json(cls, obj: dict) -> "DropCertificate":
        try:
            if not isinstance(obj["steps"], list):
                raise TypeError("steps must be a list")
            if type(obj["version"]) is not int:
                raise TypeError("version must be an int")
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
    """The greedy's outcome on one context: whether it emptied the state, its
    moves ``(rule, where, side, mask)`` in order, and the sections it left
    stuck, in row-major order.  ``certificate`` is rendered from the moves
    through `_step` when it is first read, and is None unless the greedy
    succeeded."""

    success: bool
    context: DropContext = field(repr=False, compare=False)
    moves: list[tuple]
    remaining: list[PotentialSection] = field(default_factory=list)

    @functools.cached_property
    def certificate(self) -> DropCertificate | None:
        if not self.success:
            return None
        ctx = self.context
        return DropCertificate(ctx.table_hash, ctx.w,
                               tuple([_step(ctx, *move) for move in self.moves]))


def drop_all(ctx: DropContext) -> DropResult:
    """Try to drop every section of `ctx` by the greedy schedule; failure is
    a value, not an error.  By the monotonicity lemma (module docstring) no
    other rule order empties a state the greedy leaves stuck."""
    moves: list[tuple] = []
    stuck = _greedy(ctx, (1 << len(ctx.sections)) - 1, moves)
    if stuck:
        return DropResult(False, ctx, moves, _listed(ctx, stuck))
    return DropResult(True, ctx, moves)


def _replay(ctx: DropContext, moves) -> bool:
    """The judge: True iff, from the full state of `ctx`, each move
    ``(rule, where, side, mask)`` is exactly the drop `_find` allows at its
    place in the state the moves before it leave (rule iii in its liberal
    form), and the moves leave the state empty.  A move of None, a step the
    reader could not place, is rejected.  `moves` is consumed one move at a
    time, so a move is judged before the next one is read."""
    alive = (1 << len(ctx.sections)) - 1
    for move in moves:
        if move is None:
            return False
        rule, where, side, mask = move
        if _find(ctx, alive, rule, where) != (side, mask):
            return False
        alive &= ~mask
    return alive == 0


def _read_moves(cert: DropCertificate, ctx: DropContext):
    """The reader: the move each step of `cert` names, one step at a time.

    Every field of a step is read, and type-checked, before its move is
    yielded, so a malformed field anywhere in a step raises
    MalformedCertificate.  A step placed outside the chain (rule iii: on a
    block the context does not consider), or naming a section the context
    does not hold, or one twice, yields None.
    """
    bit_of = {key: 1 << i for i, key in enumerate(ctx.sections)}
    n, blocks = ctx.n, ctx.blocks
    for step in cert.steps:
        try:
            rule = step["rule"]
            if rule == "i":
                x, side, refs = step["column"], step["min"], (step["section"],)
                placed = type(x) is int
            elif rule == "ii":
                x, side, refs = step["column"], None, step["sections"]
                placed = type(x) is int
            elif rule == "iii":
                u, v, side, refs = step["start"], step["end"], None, step["sections"]
                placed = type(u) is int and type(v) is int
            else:
                raise MalformedCertificate(f"unknown rule {rule!r}")
            if not placed:
                raise MalformedCertificate(f"bad place in step {step!r}")
            # every section is read before a missing or repeated one rejects
            # the step, so a malformed section later in the step still raises
            mask = 0
            held = True
            for ref in refs:
                row, start, end = ref["row"], ref["start"], ref["end"]
                if not (type(row) is list and len(row) == 2
                        and type(row[0]) is int and type(row[1]) is int
                        and type(start) is int and type(end) is int):
                    raise MalformedCertificate(f"bad section {ref!r}")
                bit = bit_of.get(((row[0], row[1]), start, end), 0)
                if mask & bit or not bit:
                    held = False
                mask |= bit
        except (KeyError, TypeError) as err:
            raise MalformedCertificate(f"bad step {step!r}: {err}") from err
        if rule == "iii":
            where = (u - 1, v - 1)
            placed = where in blocks
        else:
            where = x - 1
            placed = 1 <= x <= n
        yield (rule, where, side, mask) if placed and held else None


def replay_certificate(cert: DropCertificate, ctx: DropContext) -> bool:
    """Re-run a certificate step by step against the drop rules.

    True iff the certificate is bound to the context's table hash and `w`,
    each step is exactly the drop its rule allows at that place at that
    moment (same side, same set of sections), and the final state is empty.
    A step's sections are compared as a mask: a key the context does not
    hold, or one named twice, rejects the step.  Raises MalformedCertificate
    for a version other than the int CERTIFICATE_VERSION, or for a step that
    cannot be read: every field of a step is read, and checked, before the
    step is judged, and a step after a rejected one is not read.
    """
    version = cert.version
    if type(version) is not int or version != CERTIFICATE_VERSION:
        raise MalformedCertificate(f"unsupported version {version!r}")
    if cert.table_hash != ctx.table_hash or cert.w != ctx.w:
        return False
    return _replay(ctx, _read_moves(cert, ctx))
