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
``DropContext(table, w)`` and by :func:`extract_potential_sections`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .multidegree import MultidegreeError, TwistVector
from .table import VanishingTable, pair_list


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


def section_runs(table: VanishingTable, w: TwistVector) -> list[tuple[int, int, int]]:
    """(pair position, first column, last column) of every potential section,
    0-based, in row-major order, left to right within a row."""
    cols = table.columns
    n = len(cols)
    d2 = 2 * table.d
    if w.n_components != n:
        raise MultidegreeError("twist vector length disagrees with table")
    if w.D != d2:
        raise MultidegreeError(f"expected total degree {d2}, got {w.D}")
    if not w.bounded:
        raise MultidegreeError("twist vector is not bounded")
    ext = w.extended()
    ta = [col.ta for col in cols]
    tb = [col.tb for col in cols]
    out = []
    for p in range(len(pair_list(table.r))):
        x = 0
        while x < n:
            if ta[x][p] < ext[x + 1] or tb[x][p] < d2 - ext[x + 2]:
                x += 1
                continue
            s = x
            x += 1
            while x < n and ta[x][p] >= ext[x + 1] and tb[x][p] >= d2 - ext[x + 2]:
                x += 1
            e = x - 1
            while s <= e and s != 0 and ta[s][p] == ext[s + 1]:
                s += 1
            while e >= s and e != n - 1 and tb[e][p] == d2 - ext[e + 2]:
                e -= 1
            if s <= e:
                out.append((p, s, e))
    return out


def extract_potential_sections(table: VanishingTable,
                               w: TwistVector) -> list[PotentialSection]:
    """All potential sections in row-major order, left to right within a row."""
    pairs = pair_list(table.r)
    return [PotentialSection(pairs[p], s + 1, e + 1)
            for p, s, e in section_runs(table, w)]
