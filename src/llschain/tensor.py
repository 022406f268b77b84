"""Tensor-square tables and potentially appearing sections.

The tensor table of a vanishing table has one row per unordered pair
(j, j'), with entries a^i_j + a^i_{j'} and b^i_j + b^i_{j'}.  In a fixed
bounded multidegree of total degree 2d, a row is potentially appearing in
column i when a^i >= c_i and b^i >= 2d - c_{i+1}; strictness of the first
(second) inequality makes it potentially starting (ending).  At the ends of
the chain there is no node to glue through, so a section may start in
column 1 and end in column N without strictness.

A potential section is a maximal contiguous run of appearing columns,
trimmed on the left until it potentially starts and on the right until it
potentially ends.  Appearing columns shaved off in the trim belong to no
section.  :func:`section_runs` is the one scan that finds them, read by
``DropContext(table, w)`` and by :func:`extract_potential_sections`.  It
compares all rows of a column at once: each column holds its sums packed
one field per row pair with a guard bit on top, so a subtraction and a mask
yield the "at least c" flag of every row (a SWAR compare, after Lamport,
*Multiple byte processing with full-word instructions*, CACM 1975), and the
scan costs a few big-int operations per column plus a few steps per section
rather than a comparison per row and column.

Neighbouring tables of a range walk share most of their columns (on the
(21,6,24) rho-0 family the first changed column has median 18 of 21), and
the scan at a column depends only on that column, its two twist values and
the state the columns before it left.  So the scan keeps its previous call
in one slot per thread and resumes at the first column where the new call
differs.  Sorted samples share less (consecutive seed-1 two-swap samples
of (23,6,26): a median 6 leading columns); no shared column means a rescan.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .multidegree import MultidegreeError, TwistVector
from .table import TableError, VanishingTable, packing, pair_list


@lru_cache(maxsize=None)
def pair_positions(r: int) -> dict[tuple[int, int], int]:
    """Position of each pair of :func:`pair_list` (r) in that list."""
    return {pair: p for p, pair in enumerate(pair_list(r))}


@dataclass(frozen=True)
class TensorTable:
    base: VanishingTable
    pairs: tuple[tuple[int, int], ...]
    ta: tuple[tuple[int, ...], ...]
    tb: tuple[tuple[int, ...], ...]

    @property
    def n_columns(self) -> int:
        return self.base.n_columns

    @property
    def d2(self) -> int:
        return 2 * self.base.d


def build_tensor_table(table: VanishingTable) -> TensorTable:
    """The tensor table, from the sums cached on the table's columns."""
    cols = table.columns
    return TensorTable(table, pair_list(table.r),
                       tuple(col.ta for col in cols),
                       tuple(col.tb for col in cols))


class PotentialSection(NamedTuple):
    """Maximal support interval of one tensor row, columns 1-based inclusive;
    as a tuple, the key a certificate step names it by."""

    row: tuple[int, int]
    start: int
    end: int

    def covers(self, i: int) -> bool:
        return self.start <= i <= self.end

    def to_json(self) -> dict:
        return {"row": list(self.row), "start": self.start, "end": self.end}


class _Scan(threading.local):
    """The previous call of :func:`section_runs` in this thread, kept so
    that the next call on a table sharing a prefix of columns resumes where
    the two differ.

    ``key`` is ``(r, d, n)``, or None while no complete scan is held;
    ``cols`` and ``ext`` are that call's columns and extended twist vector.
    Per column x, ``states[x]`` is the scan state before it,
    ``(waiting, opened, prev, len(out))``, ``begins[x]`` the pairs whose
    section started there and ``endable[x]`` the pairs that may end there;
    ``out`` holds the runs in the order they closed.
    """

    def __init__(self) -> None:
        self.key = self.cols = self.ext = None
        self.states: list[tuple[int, int, int, int]] = []
        self.begins: list[int] = []
        self.endable: list[int] = []
        self.out: list[tuple[int, int, int]] = []


_last_scan = _Scan()


def section_runs(table: VanishingTable, w: TwistVector) -> list[tuple[int, int, int]]:
    """(pair position, first column, last column) of every potential section,
    0-based, in row-major order, left to right within a row.

    One left-to-right pass over the columns' packed sums (see
    :func:`~llschain.table.packing`) flags, at each column, the appearing,
    startable and endable pairs as three masks of guard bits.  A pair's run
    opens where it starts appearing; its section starts at the run's first
    startable column, and when the run closes its end is found by stepping
    back to the last endable column.

    Column x reads only its packed sums, ``ext[x+1]``, ``ext[x+2]`` and its
    position, so the pass resumes from the previous call (one slot per
    thread, see :class:`_Scan`): with equal ``(r, d, n)`` it restarts at
    the first column that is not the same interned :class:`Column` or whose
    two twist values differ (at most the last column), from the state saved
    before it.  A run still open there takes its first column from the last
    begin mask before it, and a run that closed earlier read only the
    shared ``endable`` entries.  A table whose first column differs from the
    previous call's resumes at column 0.
    """
    cols = table.columns
    n = len(cols)
    d2 = 2 * table.d
    if w.n_components != n:
        raise MultidegreeError("twist vector length disagrees with table")
    if w.D != d2:
        raise MultidegreeError(f"expected total degree {d2}, got {w.D}")
    if not w.bounded:
        raise MultidegreeError("twist vector is not bounded")
    if any(col.pa is None for col in cols):
        raise TableError("tensor sums outside 0..2d: the table is not valid")
    f, ones, guard = packing(table.r, table.d)
    ext = w.extended()
    last = _last_scan
    key = (table.r, table.d, n)
    k = 0
    if last.key == key:
        # column x reads ext[x + 1] and ext[x + 2]; as ext[1] is always 0,
        # the first column reading a changed value is the first x whose
        # ext[x + 2] changed
        prev_cols, prev_ext = last.cols, last.ext
        while (k < n - 1 and cols[k] is prev_cols[k]
               and ext[k + 2] == prev_ext[k + 2]):
            k += 1
    last.key = None   # until this scan completes
    states, begins, endable, out = last.states, last.begins, last.endable, last.out
    # open runs whose section has not started yet, open runs whose section
    # has, the pairs appearing at the previous column, and the runs closed
    waiting, opened, prev, m = states[k] if k else (0, 0, 0, 0)
    del states[k:], begins[k:], endable[k:], out[m:]
    first = {}        # guard bit -> first column of its open section
    mask, x = opened, k
    while mask:       # an open run began at its bit's last begin before k
        x -= 1
        hit = mask & begins[x]
        mask ^= hit
        while hit:
            bit = hit & -hit
            hit ^= bit
            first[bit] = x

    def close(mask: int, x: int) -> None:
        # the runs of `mask` last appeared at column x - 1
        while mask:
            bit = mask & -mask
            mask ^= bit
            s = first[bit]
            e = x - 1
            while e >= s and not endable[e] & bit:
                e -= 1
            if e >= s:
                out.append(((bit.bit_length() - 1) // f, s, e))

    for x in range(k, n):
        col = cols[x]
        states.append((waiting, opened, prev, len(out)))
        ge_a = (col.pa | guard) - ext[x + 1] * ones
        ge_b = (col.pb | guard) - (d2 - ext[x + 2]) * ones
        here = ge_a & ge_b & guard
        if opened & ~here:
            close(opened & ~here, x)
            opened &= here
        waiting = (waiting & here) | (here & ~prev)
        begin = waiting if x == 0 else waiting & (ge_a - ones)
        begins.append(begin)
        if begin:
            waiting ^= begin
            opened |= begin
            while begin:
                bit = begin & -begin
                begin ^= bit
                first[bit] = x
        endable.append(here if x == n - 1 else here & (ge_b - ones))
        prev = here
    close(opened, n)
    last.key, last.cols, last.ext = key, cols, ext
    return sorted(out)


def extract_potential_sections(table: VanishingTable,
                               w: TwistVector) -> list[PotentialSection]:
    """All potential sections in row-major order, left to right within a row."""
    pairs = pair_list(table.r)
    return [PotentialSection(pairs[p], s + 1, e + 1)
            for p, s, e in section_runs(table, w)]
