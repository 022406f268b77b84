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
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cached_property

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

    The derived facts ``shape``, ``swaps``, ``exceptional`` and ``hash`` are
    computed on first use, by the free functions of this module and by
    :meth:`table_hash`, and cached on the table, so each is computed once
    per table however many readers it has.
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
        a_rows, b_rows = obj["a"], obj["b"]
        r = obj["r"]
        n = len(a_rows[0])
        genera = obj.get("genera")
        chain = ChainCurve(tuple(genera) if genera else (1,) * n)
        a = tuple(tuple(a_rows[j][i] for j in range(r + 1)) for i in range(n))
        b = tuple(tuple(b_rows[j][i] for j in range(r + 1)) for i in range(n))
        return cls(chain, r, obj["d"], a, b)

    def table_hash(self) -> str:
        payload = "%d;%d;%s;%s;%s" % (
            self.r, self.d, self.chain.genera, self.a, self.b,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    @cached_property
    def shape(self) -> LambdaSequence:
        return lambda_sequence(self)

    @cached_property
    def swaps(self) -> tuple[Swap, ...]:
        return tuple(find_swaps(self))

    @cached_property
    def exceptional(self) -> frozenset[tuple[int, int]]:
        return frozenset(exceptional_rows(self))

    @cached_property
    def hash(self) -> str:
        return self.table_hash()


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


def validate_table(table: VanishingTable,
                   allow_exceptional_genus0: bool = False) -> None:
    """Check every table invariant, raising on the first violation.

    Columns are reported 1-based.  Genus-1 columns admit at most one row of
    sum d; genus-0 columns must have every row at sum d unless
    ``allow_exceptional_genus0`` is set.
    """
    n, r, d = table.n_columns, table.r, table.d
    if n != table.chain.n_components:
        raise TableError("table width disagrees with chain length")
    if n < 1 or r < 0 or d < 0:
        raise TableError("dimensions out of range")
    for i in range(n):
        ai, bi = table.a[i], table.b[i]
        if len(ai) != r + 1 or len(bi) != r + 1:
            raise TableError(f"column {i + 1} has wrong height")
        for j in range(r + 1):
            if ai[j] < 0:
                raise NegativeOrder(i + 1, j, "a")
            if bi[j] < 0:
                raise NegativeOrder(i + 1, j, "b")
        if len(set(ai)) != r + 1:
            raise DuplicateVanishing(i + 1, "a")
        if len(set(bi)) != r + 1:
            raise DuplicateVanishing(i + 1, "b")
        for j in range(r + 1):
            if ai[j] + bi[j] > d:
                raise SumExceedsD(i + 1, j)
    for j in range(r):
        if table.a[0][j] >= table.a[0][j + 1]:
            raise CanonicalOrderViolation("first column must be strictly increasing")
    for i in range(1, n):
        for j in range(r + 1):
            if table.a[i][j] != d - table.b[i - 1][j]:
                raise RefinednessViolation(i + 1, j)
    for i in range(n):
        ai, bi = table.a[i], table.b[i]
        full = sum(1 for j in range(r + 1) if ai[j] + bi[j] == d)
        if table.chain.genera[i] == 1:
            if full > 1:
                raise GenericityViolation(i + 1, "two rows of sum d in a genus-1 column")
        elif full != r + 1 and not allow_exceptional_genus0:
            raise GenericityViolation(i + 1, "genus-0 column with a row below sum d")


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
    """
    lam = table.shape
    n, r = table.n_columns, table.r
    ram = sum(table.a[0][j] - j for j in range(r + 1))
    exc = 0
    for i in range(1, n + 1):
        for j in range(r + 1):
            drop = lam.lam[i - 1][j] - lam.lam[i][j]
            if drop > 0:
                exc += drop
    missing = sum(
        1
        for i in range(1, n + 1)
        if table.chain.genera[i - 1] == 1 and lam.delta[i] is None
    )
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
