"""Vanishing tables of refined limit linear series on a chain.

A table stores, for each component Z_i and each row j = 0..r, the pair
(a^i_j, b^i_j) of vanishing orders at P_i and Q_i of a distinguished basis.
Rows are indexed so that a^1_j is strictly increasing, and refinedness means
a^{i+1}_j = d - b^i_j at every node.

The shape calculus attaches to each table the integer sequences

    lambda[i][j]  with  a^{i+1}_j = g(i) + j - lambda[i][j],

where the virtual column N+1 is read off the right-hand vanishing orders as
a^{N+1}_j = d - b^N_j.  With that convention the step from lambda[i-1] to
lambda[i] is, row by row, genus(Z_i) - (d - a^i_j - b^i_j): one box is added
in the row whose column sum is d, nothing changes at sum d-1, and boxes are
removed where the sum drops lower.  Summing the steps gives the defect
identity

    initial_ramification + box_removals + missing_deltas = rho - end_slack,

which is what bounds all degeneracy by rho.

Column-local facts are hash-consed: :func:`column` keeps one :class:`Column`
per distinct ``(genus, d, a_i, b_i)``, holding the column's tensor sums, its
in-column swaps, exceptional rows and box-adding row, and its share of the
checks of :func:`validate_table`.  Families repeat their columns heavily (a
canonical range of 1,500 tables has under a hundred distinct columns,
2,000 uniform two-swap samples about 6,000), so each fact is computed once per
distinct column rather than once per table.  The shape rows ``lam[i]``,
``bar_lam[i]`` and ``bar_counts[i]`` are cached the same way on
``(a^{i+1}, g(i))``.  Both are ``lru_cache``s of ``_CACHE_CAP`` entries,
which bounds their memory on runs that touch many columns.  The free functions
:func:`lambda_sequence`, :func:`find_swaps` and :func:`exceptional_rows`
compute the same facts afresh from the whole table.

:meth:`VanishingTable.table_hash` hashes the ``%s`` text of the table's
tuples, most of which is formatting.  Neighbouring tables of a range walk
share their leading column tuples, so the hash keeps the previous table's
per-column repr strings in one slot per thread and formats only the
columns from the first one whose ``a`` or ``b`` tuple is a different object.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .chain import ChainCurve


class TableError(ValueError):
    pass


class RefinednessViolation(TableError):
    def __init__(self, column: int, row: int):
        self.column, self.row = column, row
        super().__init__(f"a^{column}_{row} != d - b^{column - 1}_{row}")


class DuplicateVanishing(TableError):
    def __init__(self, column: int, subcolumn: str):
        self.column, self.subcolumn = column, subcolumn
        super().__init__(f"repeated {subcolumn}-value in column {column}")


class SumExceedsD(TableError):
    def __init__(self, column: int, row: int):
        self.column, self.row = column, row
        super().__init__(f"a+b > d at column {column}, row {row}")


class NegativeOrder(TableError):
    def __init__(self, column: int, row: int, subcolumn: str):
        self.column, self.row, self.subcolumn = column, row, subcolumn
        super().__init__(f"negative {subcolumn}-value at column {column}, row {row}")


class GenericityViolation(TableError):
    def __init__(self, column: int, message: str):
        self.column = column
        super().__init__(f"column {column}: {message}")


class CanonicalOrderViolation(TableError):
    pass


class InvalidSeries(TableError):
    pass


@dataclass(frozen=True)
class VanishingTable:
    """Column-major table of vanishing-order pairs for a chain of N components.

    ``a[i][j]`` and ``b[i][j]`` are 0-indexed in the column i; the public
    column numbering used in errors, swaps and certificates is 1-based.

    The derived facts ``columns``, ``shape``, ``swaps``, ``exceptional`` and
    ``hash`` are computed on first use and cached on the table, so each is
    computed once per table however many readers it has.  ``columns`` are
    the interned :class:`Column` objects; the next three are assembled from
    them, and ``hash`` is :meth:`table_hash`.
    """

    chain: ChainCurve
    r: int
    d: int
    a: tuple[tuple[int, ...], ...]
    b: tuple[tuple[int, ...], ...]

    @property
    def n_columns(self) -> int:
        return len(self.a)

    @property
    def g(self) -> int:
        return self.chain.genus

    @property
    def rho(self) -> int:
        return self.g - (self.r + 1) * (self.g + self.r - self.d)

    def virtual_last_a(self) -> tuple[int, ...]:
        """a^{N+1}_j = d - b^N_j, the row values past the right end."""
        return tuple(self.d - bj for bj in self.b[-1])

    def to_json(self) -> dict:
        n, r = self.n_columns, self.r
        return {
            "r": r,
            "d": self.d,
            "genera": list(self.chain.genera),
            "a": [[self.a[i][j] for i in range(n)] for j in range(r + 1)],
            "b": [[self.b[i][j] for i in range(n)] for j in range(r + 1)],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "VanishingTable":
        """Inverse of :meth:`to_json`; malformed JSON raises TableError.

        A missing ``genera`` key means every component has genus 1.
        """
        try:
            r, d, a_rows, b_rows = obj["r"], obj["d"], obj["a"], obj["b"]
            n = len(a_rows[0])
            genera = obj["genera"] if "genera" in obj else [1] * n
            rows = [*a_rows, *b_rows]
            entries = [r, d, *genera, *(v for row in rows for v in row)]
        except (KeyError, TypeError, AttributeError, IndexError) as err:
            raise TableError(f"malformed table JSON: {err!r}") from err
        if (any(type(v) is not int for v in entries)
                or not len(a_rows) == len(b_rows) == r + 1
                or any(len(row) != n for row in rows)):
            raise TableError("table JSON needs integers r and d, and r + 1 "
                             "rows of equally many integers in a and in b")
        if type(genera) is not list or len(genera) != n:
            raise TableError("table JSON genera, when given, must list one "
                             "integer genus per column")
        a, b = tuple(zip(*a_rows)), tuple(zip(*b_rows))
        return cls(ChainCurve(tuple(genera)), r, d, a, b)

    def table_hash(self) -> str:
        """The first 16 hex digits of the sha256 of
        ``"%d;%d;%s;%s;%s" % (r, d, genera, a, b)``.

        The payload is assembled from per-column repr strings, resumed from
        the previous call (one slot per thread, see :class:`_HashSlot`):
        the strings of the columns before the first one whose ``a`` or
        ``b`` tuple is not the same object as the previous table's are
        reused, and only the rest are formatted.  Identity rather than
        equality, since ``(1, 2) == (True, 2)`` but their reprs differ.
        """
        slot = _last_hash
        r, d, genera, a, b = self.r, self.d, self.chain.genera, self.a, self.b
        if slot.genera is not genera or slot.rd != (r, d):
            slot.head = "%d;%d;%s;" % (r, d, genera)
            slot.genera, slot.rd = genera, (r, d)
        prev_a, prev_b, ra, rb = slot.a, slot.b, slot.ra, slot.rb
        k, n = 0, min(len(a), len(b), len(prev_a), len(prev_b))
        while k < n and a[k] is prev_a[k] and b[k] is prev_b[k]:
            k += 1
        del ra[k:], rb[k:]
        slot.a = slot.b = ()   # until the strings below are complete
        ra.extend(map(repr, a[k:]))
        rb.extend(map(repr, b[k:]))
        slot.a, slot.b = a, b
        payload = slot.head + _seq_str(a, ra) + ";" + _seq_str(b, rb)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    @cached_property
    def columns(self) -> tuple[Column, ...]:
        d = self.d
        return tuple(column(genus, d, ai, bi)
                     for genus, ai, bi in zip(self.chain.genera, self.a, self.b))

    @cached_property
    def shape(self) -> LambdaSequence:
        """:func:`lambda_sequence`, assembled from cached rows and columns."""
        cols, a, genera = self.columns, self.a, self.chain.genera
        n = len(cols)
        prev, bar, counts = _shape_row(a[0], 0)
        lam_rows, bar_rows, count_rows = [prev], [bar], [counts]
        delta: list[int | None] = [None]
        gi = 0
        for i, col in enumerate(cols, 1):
            gi += genera[i - 1]
            nxt = a[i] if i < n else col.next_a
            row, bar, counts = _shape_row(nxt, gi)
            if nxt == col.next_a:
                delta.append(col.box)
            else:  # not refined at this node: compare the rows themselves
                delta.append(next((j for j, (v, u) in enumerate(zip(row, prev))
                                   if v > u), None))
            lam_rows.append(row)
            bar_rows.append(bar)
            count_rows.append(counts)
            prev = row
        return LambdaSequence(tuple(lam_rows), tuple(bar_rows), tuple(delta),
                              tuple(count_rows))

    @cached_property
    def swaps(self) -> tuple[Swap, ...]:
        return tuple(Swap(i, (j, k), minimal)
                     for i, col in enumerate(self.columns, 1)
                     for j, k, minimal in col.swaps)

    @cached_property
    def exceptional(self) -> frozenset[tuple[int, int]]:
        return frozenset((i, j) for i, col in enumerate(self.columns, 1)
                         for j in col.exc)

    @cached_property
    def hash(self) -> str:
        return self.table_hash()


class _HashSlot(threading.local):
    """The previous call of :meth:`VanishingTable.table_hash` in this
    thread: the payload head ``"%d;%d;%s;" % (r, d, genera)`` for ``rd`` =
    (r, d) and the ``genera`` object, and the ``a`` and ``b`` columns with
    their repr strings ``ra`` and ``rb``."""

    def __init__(self) -> None:
        self.rd = self.genera = self.head = None
        self.a = self.b = ()
        self.ra: list[str] = []
        self.rb: list[str] = []


_last_hash = _HashSlot()


def _seq_str(seq, reprs: list[str]) -> str:
    """``str(seq)``, joined from the reprs of its items for a tuple."""
    if type(seq) is not tuple:
        return str(seq)
    return "(" + ", ".join(reprs) + ("," if len(reprs) == 1 else "") + ")"


@lru_cache(maxsize=None)
def pair_list(r: int) -> tuple[tuple[int, int], ...]:
    """Unordered row pairs (j <= j'), sorted by total then first entry."""
    pairs = [(j1, j2) for j1 in range(r + 1) for j2 in range(j1, r + 1)]
    pairs.sort(key=lambda p: (p[0] + p[1], p[0]))
    return tuple(pairs)


# entries per cache, least recently used evicted first: a full column cache
# holds about 8.4 MB (1.0 kB per column), a full shape-row cache about 3.4 MB
# (0.4 kB per row).  2,000 uniform two-swap samples of (23,6,26) hold
# 5,811-5,972 distinct columns (seeds 1-8 and 424242), so they fit.  16,000
# seed-1 samples in one process hold 9,164 and build 9,709 columns, 0.61 per
# table against 0.57 uncapped.
_CACHE_CAP = 8192
_NO_ROWS: frozenset[int] = frozenset()


@lru_cache(maxsize=None)
def packing(r: int, d: int) -> tuple[int, int, int]:
    """(f, ones, guard) of the packed tensor sums ``Column.pa``/``pb``.

    Pair p of :func:`pair_list` (r) holds its sum, at most 2d, in bits
    p*f .. p*f + f - 2 of one int; bit p*f + f - 1 is its guard and stays
    clear.  ``ones`` has a 1 in the lowest bit of every field and ``guard``
    the guard bits, so ``((packed | guard) - lo * ones) & guard`` flags, at
    each pair's guard bit, the sums of at least lo, for 0 <= lo <= 2d + 1
    (no field borrows, as 2d + 1 <= 2^(f-1)).
    """
    f = (2 * d).bit_length() + 1
    ones = sum(1 << (p * f) for p in range(len(pair_list(r))))
    return f, ones, ones << (f - 1)


class Column:
    """The facts of one column (a, b) of genus `genus` that no other column
    affects.  Built once per distinct key by :func:`column`.

    ``height`` is the row count (-1 when a and b differ in length).
    ``next_a`` is d - b, the refined a-column of the next component.
    ``ta``/``tb`` are the tensor sums over :func:`pair_list`, and ``pa``/``pb``
    the same sums packed into one int each (see :func:`packing`; None when a
    sum lies outside 0..2d, which only an invalid column has).  ``swaps``
    holds ``(j, k, minimal)`` per order inversion, ``exc`` the rows below
    sum d - 1 (genus 1) or d (genus 0), and ``box`` the first row with
    genus + a_j + b_j > d, which is the column's delta whenever the next
    column's a equals ``next_a``.  ``removals`` is the sum over rows of
    max(0, d - genus - a_j - b_j), the boxes the shape loses across the
    column on a refined table.  ``fault`` is the first sign, duplicate or
    sum violation as (exception class, arguments after the column), and
    ``generic`` the genericity message, if any.
    """

    __slots__ = ("genus", "height", "next_a", "ta", "tb", "pa", "pb", "swaps",
                 "exc", "box", "removals", "fault", "generic")

    def __init__(self, genus: int, d: int, a: tuple[int, ...],
                 b: tuple[int, ...]):
        h = len(a)
        self.genus = genus
        self.height = h if len(b) == h else -1
        self.next_a = tuple(d - bj for bj in b)
        self.ta = self.tb = self.pa = self.pb = None
        self.swaps, self.exc, self.box, self.removals = (), _NO_ROWS, None, 0
        self.fault = self.generic = None
        if self.height < 0:
            return
        rows = range(h)
        pairs = pair_list(h - 1)
        self.ta = tuple(a[j1] + a[j2] for j1, j2 in pairs)
        self.tb = tuple(b[j1] + b[j2] for j1, j2 in pairs)
        if all(0 <= v <= 2 * d for v in self.ta + self.tb):
            f = packing(h - 1, d)[0]
            self.pa = sum(v << (p * f) for p, v in enumerate(self.ta))
            self.pb = sum(v << (p * f) for p, v in enumerate(self.tb))
        sums = [a[j] + b[j] for j in rows]
        self.swaps = tuple(
            (j, k, abs(a[j] - a[k]) == 1 and abs(b[j] - b[k]) == 1
             and (sums[j] == d or sums[k] == d))
            for j in rows for k in range(j + 1, h)
            if (a[j] - a[k] > 0) == (b[j] - b[k] > 0)
        )
        bound = d - 1 if genus == 1 else d
        self.exc = frozenset(j for j in rows if sums[j] < bound) or _NO_ROWS
        self.box = next((j for j in rows if genus + sums[j] > d), None)
        self.removals = sum(max(0, d - genus - s) for s in sums)
        self.fault = _column_fault(d, a, b, sums)
        full = sums.count(d)
        if genus == 1 and full > 1:
            self.generic = "two rows of sum d in a genus-1 column"
        elif genus != 1 and full != h:
            self.generic = "genus-0 column with a row below sum d"


def _column_fault(d: int, a, b, sums) -> tuple | None:
    """The first per-column violation, in :func:`validate_table`'s order."""
    for j in range(len(a)):
        if a[j] < 0:
            return NegativeOrder, (j, "a")
        if b[j] < 0:
            return NegativeOrder, (j, "b")
    if len(set(a)) != len(a):
        return DuplicateVanishing, ("a",)
    if len(set(b)) != len(b):
        return DuplicateVanishing, ("b",)
    for j, total in enumerate(sums):
        if total > d:
            return SumExceedsD, (j,)
    return None


# column(genus, d, a, b): the interned Column of that key
column = lru_cache(maxsize=_CACHE_CAP)(Column)


@lru_cache(maxsize=_CACHE_CAP)
def _shape_row(nxt: tuple[int, ...], gi: int) -> tuple:
    """(lam, bar_lam, bar_counts) rows for a^{i+1} = nxt and g(i) = gi."""
    lam = tuple(gi + j - v for j, v in enumerate(nxt))
    bar = tuple(gi + j - v for j, v in enumerate(sorted(nxt)))
    return lam, bar, _bar_counts(bar)


def table_from_columns(chain: ChainCurve, r: int, d: int,
                       a_cols, b_cols) -> VanishingTable:
    return VanishingTable(chain, r, d,
                          tuple(tuple(c) for c in a_cols),
                          tuple(tuple(c) for c in b_cols))


def table_from_lambda(chain: ChainCurve, r: int, d: int, a1,
                      lam) -> VanishingTable:
    """Rebuild the table from its initial column and shape sequence.

    ``lam[i][j]`` for i = 1..N determines a^{i+1}_j = g(i) + j - lam[i][j];
    the final row of ``lam`` fixes b^N.  Inverse of :func:`lambda_sequence`
    on valid data.
    """
    n = chain.n_components
    a_cols = [tuple(a1)]
    for i in range(1, n):
        gi = chain.genus_prefix(i)
        a_cols.append(tuple(gi + j - lam[i][j] for j in range(r + 1)))
    gn = chain.genus
    b_cols = [
        tuple(d - a_cols[i + 1][j] for j in range(r + 1)) for i in range(n - 1)
    ]
    b_cols.append(tuple(d - (gn + j - lam[n][j]) for j in range(r + 1)))
    return table_from_columns(chain, r, d, a_cols, b_cols)


def validate_table(table: VanishingTable) -> None:
    """Check every table invariant, raising on the first violation.

    Columns are reported 1-based.  Genus-1 columns admit at most one row of
    sum d; genus-0 columns must have every row at sum d, so a genus-0
    column with a row below d raises GenericityViolation.  The phases run
    in a fixed order: per-column checks (height, signs, duplicates, sums)
    column by column, then first-column order, then refinedness, then
    genericity; all but the order and refinedness phases read the cached
    :class:`Column` verdicts.
    """
    n, r, d = table.n_columns, table.r, table.d
    if n != table.chain.n_components:
        raise TableError("table width disagrees with chain length")
    if n < 1 or r < 0 or d < 0:
        raise TableError("dimensions out of range")
    cols = table.columns
    for i, col in enumerate(cols, 1):
        if col.height != r + 1:
            raise TableError(f"column {i} has wrong height")
        if col.fault is not None:
            kind, args = col.fault
            raise kind(i, *args)
    for j in range(r):
        if table.a[0][j] >= table.a[0][j + 1]:
            raise CanonicalOrderViolation("first column must be strictly increasing")
    _check_refined(table)
    for i, col in enumerate(cols, 1):
        if col.generic:
            raise GenericityViolation(i, col.generic)


def _check_refined(table: VanishingTable) -> None:
    """Raise :class:`RefinednessViolation` at the first node where
    a^{i+1} != d - b^i, at its first differing row."""
    a, cols = table.a, table.columns
    for i in range(1, len(a)):
        expected = cols[i - 1].next_a
        if a[i] != expected:
            j = next((j for j, (u, v) in enumerate(zip(a[i], expected))
                      if u != v), min(len(a[i]), len(expected)))
            raise RefinednessViolation(i + 1, j)


@dataclass(frozen=True)
class LambdaSequence:
    """Shape sequence lambda[i][j] (i = 0..N), its sorted variant, and deltas.

    ``delta[i]`` is the row gaining a box at column i, if any; only genus-1
    columns can carry one.  ``bar_lam`` is computed from the independently
    sorted subcolumns and is weakly decreasing in j; ``bar_counts[i]``
    caches, per column, how many rows have at least 1, 2, 3, ... boxes.
    """

    lam: tuple[tuple[int, ...], ...]
    bar_lam: tuple[tuple[int, ...], ...]
    delta: tuple[int | None, ...]
    bar_counts: tuple[tuple[int, ...], ...]

    def bar_count(self, i: int, ell: int) -> int:
        """Number of rows of bar_lam[i] with at least ell boxes."""
        counts = self.bar_counts[i]
        return counts[ell - 1] if ell <= len(counts) else 0


def _bar_counts(bar_row: tuple[int, ...]) -> tuple[int, ...]:
    top = max(bar_row, default=0)
    return tuple(
        sum(1 for v in bar_row if v >= ell) for ell in range(1, top + 1)
    )


def lambda_sequence(table: VanishingTable) -> LambdaSequence:
    n, r = table.n_columns, table.r
    chain = table.chain
    rng = range(r + 1)
    lam = [tuple(j - table.a[0][j] for j in rng)]
    bar_lam = [tuple(j - v for j, v in enumerate(sorted(table.a[0])))]
    for i in range(1, n + 1):
        gi = chain.genus_prefix(i)
        nxt = table.a[i] if i < n else table.virtual_last_a()
        lam.append(tuple(gi + j - nxt[j] for j in rng))
        bar_lam.append(tuple(gi + j - v for j, v in enumerate(sorted(nxt))))
    delta: list[int | None] = [None]
    for i in range(1, n + 1):
        up = [j for j in rng if lam[i][j] > lam[i - 1][j]]
        delta.append(up[0] if up else None)
    return LambdaSequence(
        tuple(lam), tuple(bar_lam), tuple(delta),
        tuple(_bar_counts(row) for row in bar_lam),
    )


@dataclass(frozen=True)
class RhoBreakdown:
    initial_ramification: int
    exceptional_defect: int
    missing_delta: int
    total: int
    rho: int


def rho_accounting(table: VanishingTable) -> RhoBreakdown:
    """Split the degeneracy budget into its three sources.

    Raises :class:`InvalidSeries` when the total exceeds rho; on valid tables
    the slack rho - total equals the extra vanishing of b^N beyond the
    minimal staircase.

    Both per-column terms are read off the interned columns.  On a refined
    table lambda[i-1][j] - lambda[i][j] = d - genus_i - a^i_j - b^i_j, so
    the box removals are the sum of ``Column.removals``, and a genus-1
    column misses its delta iff it has no box-adding row.  Raises
    :class:`RefinednessViolation` on a table that is not refined at some
    node, where that identity does not hold.
    """
    _check_refined(table)
    cols = table.columns
    ram = sum(v - j for j, v in enumerate(table.a[0]))
    exc = sum(col.removals for col in cols)
    missing = sum(1 for col in cols if col.genus == 1 and col.box is None)
    total = ram + exc + missing
    rho = table.rho
    if total > rho:
        raise InvalidSeries(f"defect total {total} exceeds rho = {rho}")
    return RhoBreakdown(ram, exc, missing, total, rho)


@dataclass(frozen=True)
class Swap:
    """Order inversion between two rows inside one column (1-based)."""

    column: int
    rows: tuple[int, int]
    minimal: bool


def find_swaps(table: VanishingTable) -> list[Swap]:
    n, r, d = table.n_columns, table.r, table.d
    out = []
    for i in range(n):
        ai, bi = table.a[i], table.b[i]
        for j in range(r + 1):
            for k in range(j + 1, r + 1):
                da = ai[j] - ai[k]
                db = bi[j] - bi[k]
                if (da > 0) == (db > 0):
                    minimal = (
                        abs(da) == 1
                        and abs(db) == 1
                        and (ai[j] + bi[j] == d or ai[k] + bi[k] == d)
                    )
                    out.append(Swap(i + 1, (j, k), minimal))
    return out


def exceptional_rows(table: VanishingTable) -> set[tuple[int, int]]:
    """(column, row) pairs whose sum falls below d-1 (genus 1) or d (genus 0)."""
    n, r, d = table.n_columns, table.r, table.d
    out = set()
    for i in range(n):
        bound = d - 1 if table.chain.genera[i] == 1 else d
        ai, bi = table.a[i], table.b[i]
        for j in range(r + 1):
            if ai[j] + bi[j] < bound:
                out.add((i + 1, j))
    return out


@dataclass(frozen=True)
class DegeneracyClass:
    """One of no_swap / single / repeated / disjoint / cycle1 / cycle2 / other.

    For two-swap classes i0 < i1 are the swap columns.  ``j0`` follows the
    row conventions of each shape: repeated and cycle2 swap rows (j0-1, j0)
    first, cycle1 swaps (j0, j0+1) first, and both cycles swap
    (j0-1, j0+1) second.  Disjoint carries (j0, i0) and (j1, i1) with j the
    upper row of each pair.
    """

    kind: str
    i0: int | None = None
    i1: int | None = None
    j0: int | None = None
    j1: int | None = None
    rows: tuple[int, int] | None = None

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        for key in ("i0", "i1", "j0", "j1"):
            v = getattr(self, key)
            if v is not None:
                out[key] = v
        if self.rows is not None:
            out["rows"] = list(self.rows)
        return out

    @cached_property
    def json_text(self) -> str:
        """:meth:`to_json` as sorted compact JSON, built once per object."""
        parts = ['"%s":%d' % (key, v) for key, v in (
            ("i0", self.i0), ("i1", self.i1), ("j0", self.j0), ("j1", self.j1))
            if v is not None]
        parts.append('"kind":' + json.dumps(self.kind))
        if self.rows is not None:
            parts.append('"rows":[%s]' % ",".join(map(str, self.rows)))
        return "{%s}" % ",".join(parts)


def classify_degeneracy(table: VanishingTable) -> DegeneracyClass:
    """Sort a table with at most two swaps into the two-swap taxonomy.

    Configurations outside the taxonomy come back as ``other``; this never
    raises.
    """
    swaps = table.swaps
    if not swaps:
        return DegeneracyClass("no_swap")
    if len(swaps) == 1:
        s = swaps[0]
        return DegeneracyClass("single", i0=s.column, rows=s.rows)
    if len(swaps) != 2:
        return DegeneracyClass("other")
    s0, s1 = sorted(swaps, key=lambda s: s.column)
    if s0.column == s1.column:
        return DegeneracyClass("other")
    p0, p1 = set(s0.rows), set(s1.rows)
    adjacent0 = s0.rows[1] == s0.rows[0] + 1
    adjacent1 = s1.rows[1] == s1.rows[0] + 1
    if p0 == p1 and adjacent0:
        return DegeneracyClass("repeated", i0=s0.column, i1=s1.column,
                               j0=s0.rows[1])
    if not (p0 & p1) and adjacent0 and adjacent1:
        return DegeneracyClass("disjoint", i0=s0.column, i1=s1.column,
                               j0=s0.rows[1], j1=s1.rows[1])
    if adjacent0 and len(p0 & p1) == 1:
        j_lo, j_hi = s0.rows
        # first swap (j0, j0+1), second (j0-1, j0+1): shared row on top
        if p1 == {j_lo - 1, j_hi} and j_lo >= 1:
            return DegeneracyClass("cycle1", i0=s0.column, i1=s1.column, j0=j_lo)
        # first swap (j0-1, j0), second (j0-1, j0+1): shared row below
        if p1 == {j_lo, j_hi + 1}:
            return DegeneracyClass("cycle2", i0=s0.column, i1=s1.column, j0=j_hi)
    return DegeneracyClass("other")
