"""Enumeration of refined tables on pure elliptic chains, within a defect budget.

A table is grown column by column.  At each genus-1 column one row may take
sum d (gaining a box; the delta row) and every other row takes sum d-1 minus
an optional extra slack; the defect budget pays one unit per missing delta
and one per unit of slack.  Initial ramification of the first column spends
from the same budget.  Validity of a column choice is just distinctness of
the resulting next-column values and the bound a <= d; swaps are the column
choices that invert the relative order of two rows.

Enumeration order is canonical: ramification vectors first, then per-column
choices ordered by (delta row, slack assignment), so the stream of tables is
reproducible and can be partitioned by index ranges.  Column choices are
generated valid by construction, never filtered, on an int bitmask of a
state's row values (bit v is set iff some row has value v): the rows other
than the delta row lift by one shift, a clash with the delta row is one bit
test, and a slack move moves one lifted bit up by one or two.  Subtree sizes
come from an exact dynamic program on ``(column, mask, budget)`` whose value
is a vector: the completions that add no swap, one swap, and two or more.
One pass serves every stratum.  The count keeps only these vectors: each
state's choice list is built, read once and dropped, and no value tuple is
built for a successor.

Walks run over nodes keyed by the labeled state: a node holds the state's
column choices in canonical order and the prefix sums of their children's
stratum counts, so unranking an index takes one bisection per column
(rank/unrank by counting, Nijenhuis & Wilf, *Combinatorial Algorithms*,
1978).  A choice carries its delta row and slack moves, and the walk builds
a child's labeled row values from its parent's only when it enters it.
This powers uniform deterministic sampling (unranking seeded random
indices) and the stratified range streams used for the big verification
runs.  ``run_indices`` is the one map from a run's mode, sample size, seed
and limit to the indices it covers (a ``range`` or a sorted list), and
``iter_indices`` streams any slice of it by one walk.  The walk keeps its
path and each column's a- and b-tuples on stacks, so a range steps from
leaf to leaf and consecutive tables share their leading column tuples,
after which the section scan and the table hash resume.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate, combinations
from typing import Callable, Iterable, Iterator, Sequence

from .chain import ChainCurve, build_elliptic_chain
from .table import VanishingTable, rho_accounting, table_from_columns, validate_table

MAX_BUDGET = 2
# Walk nodes kept before the node cache is cleared: about 1.6 kB each, so
# at most ~6.4 MB.  2,000 uniform two-swap samples of (23,6,26) visit 2,564
# distinct nodes (4.0 MB), 20,000 visit 3,196; a range walk visits far fewer.
# The walk never re-enters a node on its path, but different prefixes reach
# the same labeled state: without the cache the walk alone took ~28 instead
# of ~13 us per (21,6,24) rho-0 range table, ~450 instead of ~67 us per
# two-swap sample.
_NODE_CAP = 4096

STRATA: dict[str, Callable[[int], bool]] = {
    "all": lambda s: True,
    "swap_free": lambda s: s == 0,
    "has_swap": lambda s: s >= 1,
    "one_swap": lambda s: s == 1,
    "le1_swap": lambda s: s <= 1,
    "two_swap": lambda s: s == 2,
}


class EnumerationError(ValueError):
    pass


def _ram_vectors(rows: int, budget: int) -> list[tuple[int, ...]]:
    """Nondecreasing nonnegative ramification vectors with sum <= budget."""
    out = [tuple([0] * rows)]
    if budget >= 1:
        out.append(tuple([0] * (rows - 1) + [1]))
    if budget >= 2:
        if rows >= 2:
            out.append(tuple([0] * (rows - 2) + [1, 1]))
        out.append(tuple([0] * (rows - 1) + [2]))
    return sorted(out)


# A column choice is one flat tuple, cheaper to build and smaller than a
# NamedTuple holding a tuple: ``(mask, cost, swaps, delta, row, value, ...)``.
# ``mask`` holds the successor's row values (bit v for value v), ``delta`` is
# the row that keeps its value (None if none does), and each ``row, value``
# pair after it moves a slack row; every other row gains one.
_Choice = tuple


def _successor(a: tuple[int, ...], ch: _Choice) -> tuple[int, ...]:
    """The labeled row values that choice ``ch`` makes from ``a``."""
    new_a = [v + 1 for v in a]
    delta = ch[3]
    if delta is not None:
        new_a[delta] = a[delta]
    for k in range(4, len(ch), 2):
        new_a[ch[k]] = ch[k + 1]
    return tuple(new_a)


def _column_choices(a: Sequence[int], budget: int, d: int) -> list[_Choice]:
    """All valid column continuations from distinct row values ``a`` (each
    at most ``d``), in canonical order.

    Only valid choices are built, on the bitmask of the values.  For each
    delta row, of value ``dv``, the base successor keeps the delta row's
    value and lifts every other row by one: ``(mask ^ bit) << 1 | bit`` for
    ``bit = 1 << dv``.  It collides only where the row just below the delta
    row lands on it (bit ``dv - 1`` of ``mask`` is set), and then that row
    must take slack.  A slack row moves its lifted bit up by one or two, and
    is admitted when its new value is at most ``d`` and free, or freed by
    the other slack row.
    """
    out: list[_Choice] = []
    emit = out.append
    mask = 0
    for v in a:
        mask |= 1 << v
    lifted = mask << 1                          # every row up one
    rows = range(len(a))
    # a row at d cannot gain one, so it must be the delta row
    deltas = (a.index(d),) if mask >> d & 1 else (*rows, None)
    for delta in deltas:
        if delta is None:
            cost, occ, clash, dv = 1, lifted, None, None
        else:
            cost, dv = 0, a[delta]
            bit = 1 << dv
            occ = (mask ^ bit) << 1 | bit
            # the row just below the delta row, if any, lands on it
            clash = a.index(dv - 1) if lifted & bit else None
        spare = budget - cost
        if spare < 0:   # only the last choice, no delta row, costs a unit
            break
        if clash is None:
            emit((occ, cost, 0, delta))
        if not spare:
            continue
        # A clash leaves one mover, whose lifted bit is the delta row's.  A
        # row given one extra overtakes only a delta row just above it (so
        # only the clashing row swaps); given two, it overtakes the row just
        # above it or a delta row two above.
        movers = rows if clash is None else (clash,)
        for j in movers:
            x = a[j]
            if j != delta and x + 2 <= d and not occ >> x + 2 & 1:
                emit((occ | 4 << x if j == clash else occ ^ 6 << x, cost + 1,
                      int(j == clash), delta, j, x + 2))
        if spare < 2:
            continue
        for j in movers:
            x = a[j]
            if j != delta and x + 3 <= d and not occ >> x + 3 & 1:
                emit((occ | 8 << x if j == clash else occ ^ 10 << x, cost + 2,
                      (mask >> x + 1 & 1) + (dv == x + 2), delta, j, x + 3))
        # Two rows given one extra each: both new values must be free once
        # the two leave their lifted bits (a clashing row's is the delta
        # row's, so it stays).  A clash must be one of the two.
        fits = [j for j in rows if j != delta and a[j] + 2 <= d]
        if clash is None:
            pairs: Iterable[tuple[int, int]] = combinations(fits, 2)
        elif clash in fits:
            pairs = [(min(j, clash), max(j, clash)) for j in fits if j != clash]
        else:
            continue
        for j1, j2 in pairs:
            x1, x2 = a[j1], a[j2]
            rest = occ
            if j1 != clash:
                rest ^= 2 << x1
            if j2 != clash:
                rest ^= 2 << x2
            add = 4 << x1 | 4 << x2
            if not rest & add:
                emit((rest | add, cost + 2, int(clash is not None), delta,
                      j1, x1 + 2, j2, x2 + 2))
    return out


def _bits(mask: int) -> list[int]:
    """The indices of the set bits of ``mask``, ascending: for a state's
    mask, its row values, sorted."""
    vals = []
    while mask:
        low = mask & -mask
        vals.append(low.bit_length() - 1)
        mask ^= low
    return vals


def _locate(cums: list[int], skip: int) -> tuple[int, int]:
    """The child of a node holding its ``skip``-th leaf, given the prefix
    sums ``cums`` of the children's counts, and the offset left inside it."""
    k = bisect_right(cums, skip)
    if k == len(cums):
        # skip is not below the node's count, so no child holds it
        raise EnumerationError("offset out of range")
    return k, (skip - cums[k - 1] if k else skip)


class TableEnumerator:
    """Canonical, resumable, exactly countable stream of valid tables."""

    def __init__(self, g: int, r: int, d: int, rho_max: int | None = None,
                 stratum: str = "all"):
        if g < 1 or r < 0 or d < 0:
            raise EnumerationError("bad family parameters")
        rho = g - (r + 1) * (g + r - d)
        if rho < 0:
            raise EnumerationError(f"infeasible family: rho = {rho} < 0")
        if rho_max is None:
            rho_max = min(rho, MAX_BUDGET)
        if rho_max < 0:
            raise EnumerationError(f"rho_max must be non-negative, got {rho_max}")
        if rho_max > rho:
            raise EnumerationError(f"rho_max {rho_max} exceeds rho = {rho}")
        if rho_max > MAX_BUDGET:
            raise EnumerationError(
                f"defect budgets above {MAX_BUDGET} are not supported"
            )
        if stratum not in STRATA:
            raise EnumerationError(f"unknown stratum {stratum!r}")
        self.g, self.r, self.d = g, r, d
        self.rho, self.rho_max = rho, rho_max
        self.stratum = stratum
        accept = STRATA[stratum]
        # _weights[s][t]: 1 when s swaps so far and t more (capped) are accepted
        self._weights = [
            tuple(int(accept(min(MAX_BUDGET, s + t))) for t in range(3))
            for s in range(3)
        ]
        self.chain: ChainCurve = build_elliptic_chain(g)
        self._start = tuple(range(-1, r))   # column -1, see _roots
        self._memo: dict[tuple[int, int, int], tuple[int, int, int]] = {}
        self._nodes: dict[tuple, tuple[list[_Choice], list[int]]] = {}

    # -- counting ----------------------------------------------------------

    def _vector(self, i: int, mask: int, budget: int) -> tuple[int, int, int]:
        """Completions of a state after column i (its row values as a
        bitmask), split by the swaps they add: none, one, two or more."""
        if i == self.g:
            return (1, 0, 0)
        key = (i, mask, budget)
        memo = self._memo
        hit = memo.get(key)
        if hit is not None:
            return hit
        n0 = n1 = n2 = 0
        for ch in _column_choices(_bits(mask), budget, self.d):
            # most children are memo hits: look them up here, not by a call
            child = (i + 1, ch[0], budget - ch[1])
            sub = memo.get(child)
            if sub is None:
                sub = self._vector(*child)
            c0, c1, c2 = sub
            if ch[2]:   # a column choice adds at most one swap
                n1, n2 = n1 + c0, n2 + c1 + c2
            else:
                n0, n1, n2 = n0 + c0, n1 + c1, n2 + c2
        vec = memo[key] = (n0, n1, n2)
        return vec

    def _count(self, i: int, mask: int, budget: int, swaps: int) -> int:
        """Completions of a state after column i that the stratum accepts,
        given the capped swap count ``swaps`` of the path so far."""
        n0, n1, n2 = self._vector(i, mask, budget)
        w0, w1, w2 = self._weights[swaps]
        return w0 * n0 + w1 * n1 + w2 * n2

    def _roots(self) -> list[_Choice]:
        """The initial states in canonical order, as choices from column -1.

        Row j of column -1 sits at ``j - 1``, so lifting every row by one
        gives the unramified ``0, 1, ..., r``; a ramification vector is
        slack on top of that, paid from the same budget.
        """
        out = []
        for m in _ram_vectors(self.r + 1, self.rho_max):
            a1 = [j + e for j, e in enumerate(m)]
            slack = [x for j, e in enumerate(m) if e for x in (j, j + e)]
            out.append((sum(1 << v for v in a1), sum(m), 0, None, *slack))
        return out

    def total(self) -> int:
        return sum(self._count(0, ch[0], self.rho_max - ch[1], 0)
                   for ch in self._roots())

    # -- walking -----------------------------------------------------------

    def _node(self, i: int, a: tuple[int, ...], budget: int,
              swaps: int) -> tuple[list[_Choice], list[int]]:
        """The column choices of a labeled state after column ``i``, and the
        prefix sums of their children's counts.

        ``cums[k]`` is the stratum count of the children of choices
        ``0..k``.  Column -1 is the root, whose choices are the initial
        states.
        """
        node_key = (i, a, budget, swaps)
        node = self._nodes.get(node_key)
        if node is not None:
            return node
        choices = self._roots() if i < 0 else _column_choices(a, budget, self.d)
        cums = list(accumulate(
            self._count(i + 1, ch[0], budget - ch[1], min(MAX_BUDGET, swaps + ch[2]))
            for ch in choices))
        if len(self._nodes) >= _NODE_CAP:
            self._nodes.clear()
        node = self._nodes[node_key] = (choices, cums)
        return node

    def _walk(self, indices: Iterable[int]) -> Iterator[tuple[int, VanishingTable]]:
        """Yield (index, table) for strictly ascending, in-range indices.

        ``path`` holds the nodes entered, each with the indices of its first
        leaf and past its last and its state's budget and swap count; an
        index climbs to the deepest one still holding it and descends from
        there by bisection.  ``cols`` holds column -1 and then the labeled
        row values of the children entered, each built from its parent's
        on entry, and ``b_cols`` their b-values ``d - cols[k]``, so
        consecutive tables share the tuples of their common leading columns:
        a leaf's table has a-columns ``cols[1:-1]`` and b-columns
        ``b_cols[2:]``.
        """
        d, g = self.d, self.g
        root = self._node(-1, self._start, self.rho_max, 0)
        path = [(root, 0, root[1][-1], self.rho_max, 0)]
        cols: list[tuple[int, ...]] = [self._start]
        b_cols: list[tuple[int, ...]] = [()]
        for idx in indices:
            while idx >= path[-1][2]:
                path.pop()
            del cols[len(path):], b_cols[len(path):]
            (choices, cums), lo, _, budget, swaps = path[-1]
            while True:
                k, skip = _locate(cums, idx - lo)
                ch = choices[k]
                a = _successor(cols[-1], ch)
                cols.append(a)
                b_cols.append(tuple([d - v for v in a]))
                if len(cols) > g + 1:
                    break
                budget -= ch[1]
                swaps = min(MAX_BUDGET, swaps + ch[2])
                lo, hi = idx - skip, lo + cums[k]
                choices, cums = node = self._node(len(cols) - 2, a, budget, swaps)
                path.append((node, lo, hi, budget, swaps))
            yield idx, VanishingTable(self.chain, self.r, d, tuple(cols[1:-1]),
                                      tuple(b_cols[2:]))

    def iter_range(self, start: int, count: int) -> Iterator[tuple[int, VanishingTable]]:
        """Yield (index, table) for the canonical slice [start, start+count)."""
        if start < 0 or count < 0:
            raise EnumerationError("bad range")
        return self._walk(range(start, min(start + count, self.total())))

    def sample_indices(self, n: int, seed: int) -> list[int]:
        if n < 0:
            raise EnumerationError(f"sample size must be non-negative, got {n}")
        total = self.total()
        n = min(n, total)
        rng = random.Random(seed)
        return sorted(rng.sample(range(total), n))

    def iter_indices(self, indices: Iterable[int]) -> Iterator[tuple[int, VanishingTable]]:
        """Yield (index, table) for strictly ascending stratum indices, a
        range or a list, each checked when the walk reaches it."""
        total = self.total()

        def checked() -> Iterator[int]:
            prev = None
            for idx in indices:
                if prev is not None and idx <= prev:
                    raise EnumerationError("indices must be strictly ascending")
                if not 0 <= idx < total:
                    raise EnumerationError(f"index {idx} out of range ({total} tables)")
                yield idx
                prev = idx
        return self._walk(checked())

    def run_indices(self, mode: str, n: int | None, seed: int | None,
                    limit: int | None) -> range | list[int]:
        """The indices a run covers, in stream order: ``range(total)`` for an
        exhaustive run or the seeded sample of ``n`` for a sampled one, cut
        to its first ``limit``.  An exhaustive run takes no ``n``.

        The arguments are checked before the family is counted, so a caller
        can reject bad ones before it creates any output.  A run that stops
        and resumes covers a prefix of this sequence, and so a resumed run
        with the same arguments covers exactly the uninterrupted run's.
        """
        if mode not in ("exhaustive", "sampled"):
            raise EnumerationError(
                f"mode must be exhaustive or sampled, got {mode!r}")
        if mode == "sampled" and (n is None or seed is None):
            raise EnumerationError("sampled mode needs n and seed")
        if mode != "sampled" and n is not None:
            raise EnumerationError(
                "n is a sample size, for sampled mode only; cut an exhaustive "
                "run with limit (--limit)")
        if n is not None and n < 0:
            raise EnumerationError(f"n must be non-negative, got {n}")
        if limit is not None and limit < 0:
            raise EnumerationError(f"limit must be non-negative, got {limit}")
        if mode == "exhaustive":
            return range(self.total())[:limit]
        return self.sample_indices(n, seed)[:limit]


class OracleSpaceTooLarge(EnumerationError):
    pass


def count_small_oracle(g: int, r: int, d: int, rho_max: int,
                       node_limit: int = 10_000_000) -> int:
    """Brute-force table count on a pure chain: no pruning, post-hoc filter.

    Generates every choice of strictly increasing first column and, per
    column, every distinct b-tuple obeying the sum bounds and the one-sum-d
    genericity rule, then keeps the tables whose defect total fits the
    budget.  Only for small search spaces; raises once ``node_limit``
    internal nodes are visited.
    """
    chain = build_elliptic_chain(g)
    rows = r + 1
    nodes = 0

    def b_columns(a_col: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        def rec(j: int, used: set[int], acc: list[int], full: int):
            nonlocal nodes
            nodes += 1
            if nodes > node_limit:
                raise OracleSpaceTooLarge("oracle exceeded its node budget")
            if j == rows:
                yield tuple(acc)
                return
            for bj in range(d - a_col[j] + 1):
                if bj in used:
                    continue
                f = 1 if a_col[j] + bj == d else 0
                if full + f > 1:
                    continue
                used.add(bj)
                acc.append(bj)
                yield from rec(j + 1, used, acc, full + f)
                acc.pop()
                used.remove(bj)

        yield from rec(0, set(), [], 0)

    count = 0

    def grow(i: int, a_col: tuple[int, ...], a_cols: list, b_cols: list):
        nonlocal count, nodes
        if i == g:
            table = table_from_columns(chain, r, d, a_cols, b_cols)
            validate_table(table)
            if rho_accounting(table).total <= rho_max:
                count += 1
            return
        for b_col in b_columns(a_col):
            nxt = tuple(d - bj for bj in b_col)
            grow(i + 1, nxt, a_cols + [nxt] if i + 1 < g else a_cols,
                 b_cols + [b_col])

    for a1 in combinations(range(d + 1), rows):
        grow(0, a1, [a1], [])
    return count
