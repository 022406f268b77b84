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
section.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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

    def pair_index(self, pair: tuple[int, int]) -> int:
        try:
            return pair_positions(self.base.r)[min(pair), max(pair)]
        except KeyError:
            raise ValueError(f"{pair} is not a row pair of this table") from None


def build_tensor_table(table: VanishingTable) -> TensorTable:
    """The tensor table, from the sums cached on the table's columns."""
    cols = table.columns
    return TensorTable(table, pair_list(table.r),
                       tuple(col.ta for col in cols),
                       tuple(col.tb for col in cols))


@dataclass(frozen=True)
class PotentialSection:
    """Maximal support interval of one tensor row, columns 1-based inclusive."""

    row: tuple[int, int]
    start: int
    end: int

    def covers(self, i: int) -> bool:
        return self.start <= i <= self.end

    def to_json(self) -> dict:
        return {"row": list(self.row), "start": self.start, "end": self.end}


def extract_potential_sections(tt: TensorTable, w: TwistVector) -> list[PotentialSection]:
    """All potential sections in row-major order, left to right within a row."""
    n = tt.n_columns
    d2 = tt.d2
    if w.n_components != n:
        raise MultidegreeError("twist vector length disagrees with table")
    if w.D != d2:
        raise MultidegreeError(f"expected total degree {d2}, got {w.D}")
    if not w.bounded:
        raise MultidegreeError("twist vector is not bounded")
    ext = w.extended()
    out = []
    for p, pair in enumerate(tt.pairs):
        x = 0
        while x < n:
            ax = tt.ta[x][p]
            bx = tt.tb[x][p]
            if ax < ext[x + 1] or bx < d2 - ext[x + 2]:
                x += 1
                continue
            run_start = x
            x += 1
            while x < n and tt.ta[x][p] >= ext[x + 1] and tt.tb[x][p] >= d2 - ext[x + 2]:
                x += 1
            run_end = x - 1
            s = run_start
            while s <= run_end and s != 0 and tt.ta[s][p] == ext[s + 1]:
                s += 1
            e = run_end
            while e >= s and e != n - 1 and tt.tb[e][p] == d2 - ext[e + 2]:
                e -= 1
            if s <= e:
                out.append(PotentialSection(pair, s + 1, e + 1))
    return out
