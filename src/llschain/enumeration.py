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
generated valid by construction, never filtered.  Subtree sizes come from an
exact dynamic program on sorted value tuples whose value is a vector: the
completions that add no swap, one swap, and two or more.  One pass serves
every stratum.  The count keeps only these vectors: each state's choice list
is built, read once and dropped.

Walks run over nodes keyed by the labeled state: a node holds the state's
children in canonical order and the prefix sums of their stratum counts, so
unranking an index takes one bisection per column (rank/unrank by counting,
Nijenhuis & Wilf, *Combinatorial Algorithms*, 1978).  This powers uniform
deterministic sampling (unranking seeded random indices) and the stratified
range streams used for the big verification runs.  ``run_indices`` is the
one map from a run's mode, sample size, seed and limit to the indices it
covers (a ``range`` or a sorted list), and ``iter_indices`` streams any slice
of it by one walk.  The walk keeps its path and each column's a- and
b-tuples on stacks, so a range steps from leaf to leaf and consecutive
tables share their leading column tuples, after which the section scan and
the table hash resume.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
from typing import Callable, Iterable, Iterator, NamedTuple

from .chain import ChainCurve, build_elliptic_chain
from .table import VanishingTable, rho_accounting, table_from_columns, validate_table

MAX_BUDGET = 2
# Walk nodes kept before the node cache is cleared: about 1.8 kB each, so
# at most ~7.5 MB.  2,000 uniform two-swap samples of (23,6,26) visit 2,564
# distinct nodes (4.7 MB), 20,000 visit 3,196; a range walk visits far fewer.
# The walk never re-enters a node on its path, but different prefixes reach
# the same labeled state: without the cache the walk alone took ~45 instead
# of ~10 us per (21,6,24) rho-0 range table, 700-950 instead of ~87 us per
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


class _Choice(NamedTuple):   # a tuple: cheaper to build than a frozen dataclass
    new_a: tuple[int, ...]
    cost: int
    swaps: int


def _column_choices(a: tuple[int, ...], budget: int, d: int) -> list[_Choice]:
    """All valid column continuations from row values ``a``, canonical order.

    Only valid choices are built.  For each delta row the base successor
    keeps the delta row's value and lifts every other row by one; it can
    collide only where the row just below the delta row lands on it, and
    then that row must take slack.  A slack row is admitted when its new
    value is at most ``d`` and free, or freed by the other slack row.
    """
    rows = len(a)
    out: list[_Choice] = []

    def emit(new_a: list[int], cost: int, swaps: int) -> None:
        out.append(_Choice(tuple(new_a), cost, swaps))

    full = [j for j in range(rows) if a[j] >= d]   # rows that cannot gain one
    if len(full) > 1:
        return out
    held = set(a)
    lifted = {v + 1: j for j, v in enumerate(a)}   # value -> row, every row up one
    for delta in full or [*range(rows), None]:
        cost = 0 if delta is not None else 1
        spare = budget - cost
        if spare < 0:
            continue
        base = [v + 1 for v in a]
        occ = lifted
        clash = None
        if delta is not None:
            stay = base[delta] = a[delta]
            occ = dict(lifted)
            del occ[stay + 1]
            clash = occ.get(stay)   # the row just below the delta row
            occ[stay] = delta
        if clash is None:
            emit(base, cost, 0)
        if not spare:
            continue
        # A clash leaves one mover.  A row given one extra overtakes only a
        # delta row just above it (so only the clashing row swaps); given
        # two, it overtakes the row just above it or a delta row two above.
        movers = range(rows) if clash is None else (clash,)
        for j in movers:
            v = a[j] + 2
            if j != delta and v <= d and v not in occ:
                new_a = base.copy()
                new_a[j] = v
                emit(new_a, cost + 1, int(j == clash))
        if spare < 2:
            continue
        for j in movers:
            v = a[j] + 3
            if j != delta and v <= d and v not in occ:
                new_a = base.copy()
                new_a[j] = v
                emit(new_a, cost + 2, (v - 2 in held)
                     + (delta is not None and a[delta] == v - 1))
        for j1 in range(rows):
            v1 = a[j1] + 2
            if j1 == delta or v1 > d:
                continue
            for j2 in range(j1 + 1, rows):
                v2 = a[j2] + 2
                if (j2 == delta or v2 > d or clash not in (None, j1, j2)
                        or occ.get(v1, j2) != j2 or occ.get(v2, j1) != j1):
                    continue
                new_a = base.copy()
                new_a[j1] = v1
                new_a[j2] = v2
                emit(new_a, cost + 2, int(clash is not None))
    return out


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
        self._memo: dict[tuple, tuple[int, int, int]] = {}
        self._nodes: dict[tuple, tuple[list[tuple], list[int]]] = {}

    # -- counting ----------------------------------------------------------

    def _vector(self, i: int, vals: tuple[int, ...],
                budget: int) -> tuple[int, int, int]:
        """Completions of a state after column i (vals sorted ascending),
        split by the swaps they add: none, one, two or more."""
        if i == self.g:
            return (1, 0, 0)
        key = (i, vals, budget)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        n0 = n1 = n2 = 0
        for ch in _column_choices(vals, budget, self.d):
            c0, c1, c2 = self._vector(i + 1, tuple(sorted(ch.new_a)),
                                      budget - ch.cost)
            if ch.swaps:   # a column choice adds at most one swap
                n1, n2 = n1 + c0, n2 + c1 + c2
            else:
                n0, n1, n2 = n0 + c0, n1 + c1, n2 + c2
        vec = self._memo[key] = (n0, n1, n2)
        return vec

    def _count(self, i: int, vals: tuple[int, ...], budget: int, swaps: int) -> int:
        """Completions of a state after column i that the stratum accepts,
        given the capped swap count ``swaps`` of the path so far."""
        n0, n1, n2 = self._vector(i, vals, budget)
        w0, w1, w2 = self._weights[swaps]
        return w0 * n0 + w1 * n1 + w2 * n2

    def _roots(self) -> list[tuple[tuple[int, ...], int]]:
        """Initial (a^1, remaining budget) states in canonical order."""
        out = []
        for m in _ram_vectors(self.r + 1, self.rho_max):
            a1 = tuple(j + m[j] for j in range(self.r + 1))
            out.append((a1, self.rho_max - sum(m)))
        return out

    def total(self) -> int:
        return sum(self._count(0, a1, b, 0) for a1, b in self._roots())

    # -- walking -----------------------------------------------------------

    def _node(self, i: int, a: tuple[int, ...], budget: int,
              swaps: int) -> tuple[list[tuple], list[int]]:
        """The children of a state after column ``i``, and their prefix sums.

        A child is ``(a, budget, swaps)``: its labeled row values, the budget
        left and the capped swap count.
        ``cums[k]`` is the stratum count of children ``0..k``.  Column -1 is
        the root, whose children are the initial states.
        """
        node_key = (i, a, budget, swaps)
        node = self._nodes.get(node_key)
        if node is not None:
            return node
        if i < 0:
            children = [(a1, b, 0) for a1, b in self._roots()]
        else:
            children = [
                (ch.new_a, budget - ch.cost, min(MAX_BUDGET, swaps + ch.swaps))
                for ch in _column_choices(a, budget, self.d)
            ]
        cums = list(accumulate(self._count(i + 1, tuple(sorted(new_a)), b, s)
                               for new_a, b, s in children))
        if len(self._nodes) >= _NODE_CAP:
            self._nodes.clear()
        node = self._nodes[node_key] = (children, cums)
        return node

    def _walk(self, indices: Iterable[int]) -> Iterator[tuple[int, VanishingTable]]:
        """Yield (index, table) for strictly ascending, in-range indices.

        ``path`` holds the nodes entered, each with the indices of its first
        leaf and past its last; an index climbs to the deepest one still
        holding it and descends from there by bisection.  ``cols`` holds the
        row values of the children chosen and ``b_cols`` their b-values
        ``d - cols[k]``, so consecutive tables share the tuples of their
        common leading columns: a leaf's table has a-columns ``cols[:-1]``
        and b-columns ``b_cols[1:]``.
        """
        d, g = self.d, self.g
        root = self._node(-1, (), self.rho_max, 0)
        path = [(root, 0, root[1][-1])]
        cols: list[tuple[int, ...]] = []
        b_cols: list[tuple[int, ...]] = []
        for idx in indices:
            while idx >= path[-1][2]:
                path.pop()
            del cols[len(path) - 1:], b_cols[len(path) - 1:]
            (children, cums), lo, _ = path[-1]
            while True:
                k, skip = _locate(cums, idx - lo)
                a, budget, swaps = children[k]
                cols.append(a)
                b_cols.append(tuple([d - v for v in a]))
                if len(cols) > g:
                    break
                lo, hi = idx - skip, lo + cums[k]
                children, cums = node = self._node(len(cols) - 1, a, budget, swaps)
                path.append((node, lo, hi))
            yield idx, VanishingTable(self.chain, self.r, d, tuple(cols[:-1]),
                                      tuple(b_cols[1:]))

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
        to its first ``limit``.

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
        if n is not None and n < 0:
            raise EnumerationError(f"n must be non-negative, got {n}")
        if limit is not None and limit < 0:
            raise EnumerationError(f"limit must be non-negative, got {limit}")
        if mode == "exhaustive":
            return range(self.total())[:limit]
        return self.sample_indices(n, seed)[:limit]


def enumerate_tables(g: int, r: int, d: int, rho_max: int | None = None,
                     mode: str = "exhaustive", n: int | None = None,
                     seed: int | None = None,
                     stratum: str = "all") -> Iterator[VanishingTable]:
    """Stream valid tables, exhaustively or as a seeded uniform sample: the
    tables of :meth:`TableEnumerator.run_indices`, checked and counted
    before this returns."""
    enum = TableEnumerator(g, r, d, rho_max, stratum)
    pairs = enum.iter_indices(enum.run_indices(mode, n, seed, None))
    return (table for _, table in pairs)


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
    from itertools import combinations

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
