"""Twist vectors and unimaginative multidegrees.

A multidegree of total degree D on an N-component chain is encoded by the
twist vector w = (c_2, ..., c_N) with the conventions c_1 = 0 and
c_{N+1} = D: component Z_i carries degree c_{i+1} - c_i.  A multidegree of
total degree 2d is unimaginative when it puts 0 on every genus-0 component
and 2 or 3 on every genus-1 component; gamma_i counts the 3s among the first
i columns.

The default multidegree for r = 6 places its six 3s at the columns where the
sorted shape counts cross fixed thresholds; the candidate generator then
relocates single 3s inside their flexibility windows and toward swap columns.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .chain import ChainCurve
from .table import LambdaSequence, VanishingTable


class MultidegreeError(ValueError):
    pass


class ThresholdNotAttained(MultidegreeError):
    def __init__(self, rule: int, description: str):
        self.rule = rule
        super().__init__(f"rule {rule}: no column with {description}")


@dataclass(frozen=True)
class TwistVector:
    """w = (c_2, ..., c_N) for fixed total degree D; c_1 = 0, c_{N+1} = D."""

    D: int
    c: tuple[int, ...]

    @property
    def n_components(self) -> int:
        return len(self.c) + 1

    def extended(self) -> tuple[int, ...]:
        """1-indexed (_, c_1, ..., c_{N+1}) with the end conventions filled in."""
        return (0, 0, *self.c, self.D)

    @property
    def bounded(self) -> bool:
        c = self.c
        return not c or (min(c) >= 0 and max(c) <= self.D)

    def to_json(self) -> dict:
        return {"D": self.D, "c": list(self.c)}

    @functools.cached_property
    def json_text(self) -> str:
        """:meth:`to_json` as sorted compact JSON, built once per vector."""
        return '{"D":%d,"c":[%s]}' % (self.D, ",".join(map(str, self.c)))

    @classmethod
    def from_json(cls, obj: dict) -> "TwistVector":
        """Inverse of :meth:`to_json`; malformed JSON raises MultidegreeError."""
        try:
            D, c = obj["D"], tuple(obj["c"])
        except (KeyError, TypeError) as err:
            raise MultidegreeError(f"malformed twist vector JSON: {err!r}") from err
        if not all(type(v) is int for v in (D, *c)):
            raise MultidegreeError("twist vector JSON needs integers D and c")
        return cls(D, c)


def component_degrees(w: TwistVector, chain: ChainCurve | None = None) -> tuple[int, ...]:
    """Degree of each component; requires w bounded."""
    if not w.bounded:
        raise MultidegreeError("twist vector is not bounded")
    if chain is not None and chain.n_components != w.n_components:
        raise MultidegreeError("twist vector length disagrees with chain")
    ext = w.extended()
    return tuple(ext[i + 1] - ext[i] for i in range(1, w.n_components + 1))


def degrees_unimaginative(genera, degs) -> bool:
    """The unimaginative rule on component degrees: 0 on every genus-0
    component, 2 or 3 on every genus-1 component."""
    for genus, deg in zip(genera, degs):
        if genus == 0 and deg != 0:
            return False
        if genus == 1 and deg not in (2, 3):
            return False
    return True


def is_unimaginative(w: TwistVector, chain: ChainCurve) -> bool:
    try:
        degs = component_degrees(w, chain)
    except MultidegreeError:
        return False
    return degrees_unimaginative(chain.genera, degs)


def gamma_profile(w: TwistVector, chain: ChainCurve) -> tuple[int, ...]:
    """gamma_i = number of degree-3 columns among the first i."""
    if not is_unimaginative(w, chain):
        raise MultidegreeError("gamma profile needs an unimaginative multidegree")
    degs = component_degrees(w, chain)
    out = []
    acc = 0
    for deg in degs:
        acc += 1 if deg == 3 else 0
        out.append(acc)
    return tuple(out)


def twist_from_threes(chain: ChainCurve, d: int, threes) -> TwistVector:
    """Unimaginative twist vector with degree 3 exactly at the given columns."""
    threes = set(threes)
    c = []
    acc = 0
    for i in range(1, chain.n_components):
        genus = chain.genera[i - 1]
        if genus == 1:
            acc += 3 if i in threes else 2
        elif i in threes:
            raise MultidegreeError(f"column {i} has genus 0")
        c.append(acc)
    return TwistVector(2 * d, tuple(c))


def degree_three_columns(w: TwistVector, chain: ChainCurve) -> tuple[int, ...]:
    degs = component_degrees(w, chain)
    return tuple(i + 1 for i, deg in enumerate(degs) if deg == 3)


def _pair_count(lam: LambdaSequence, i: int, ell1: int, ell2: int) -> int:
    return lam.bar_count(i, ell1) + lam.bar_count(i, ell2)


def _first_at(lam: LambdaSequence, n: int, ell1: int, ell2: int, value: int) -> int | None:
    for i in range(1, n + 1):
        if _pair_count(lam, i, ell1, ell2) == value:
            return i
    return None


def _after_last_at(lam: LambdaSequence, n: int, ell1: int, ell2: int, value: int) -> int | None:
    last = None
    for i in range(1, n + 1):
        if _pair_count(lam, i, ell1, ell2) == value:
            last = i
    if last is None or last >= n:
        return None
    return last + 1


def default_threes(table: VanishingTable) -> tuple[int, ...]:
    """The six degree-3 columns of the default multidegree (r = 6 only)."""
    if table.r != 6:
        raise MultidegreeError("default multidegree is defined for r = 6")
    chain = table.chain
    n = table.n_columns
    if chain.genera[0] != 1 or chain.genera[-1] != 1:
        raise MultidegreeError("default multidegree needs genus-1 end components")
    lam = table.shape
    picks = [1]
    rules = [
        (2, _first_at(lam, n, 1, 2, 5), "bar counts 1+2 = 5"),
        (3, _first_at(lam, n, 1, 3, 7), "bar counts 1+3 = 7"),
        (4, _after_last_at(lam, n, 1, 3, 7), "column after last bar counts 1+3 = 7"),
        (5, _after_last_at(lam, n, 2, 3, 9), "column after last bar counts 2+3 = 9"),
    ]
    for rule, col, description in rules:
        if col is None:
            raise ThresholdNotAttained(rule, description)
        picks.append(col)
    picks.append(n)
    if len(set(picks)) != 6:
        raise MultidegreeError(f"default 3-columns collide: {picks}")
    if any(chain.genera[i - 1] != 1 for i in picks):
        raise MultidegreeError(f"default 3-column of genus 0: {picks}")
    return tuple(sorted(picks))


def default_multidegree(table: VanishingTable) -> TwistVector:
    return twist_from_threes(table.chain, table.d, default_threes(table))


def twist_vanishing_components(w: TwistVector, w2: TwistVector) -> frozenset[int]:
    """Components where the twist map from w2 to w vanishes identically.

    Component i is in the set iff the partial sum of c2_j - c_j over
    j > i exceeds the minimum over all tails.
    """
    if len(w.c) != len(w2.c):
        raise MultidegreeError("twist vectors have different lengths")
    if w.D != w2.D:
        raise MultidegreeError("twist vectors have different total degrees")
    n = w.n_components
    ext, ext2 = w.extended(), w2.extended()
    tails = [0] * (n + 1)
    for i in range(n - 1, 0, -1):
        tails[i] = tails[i + 1] + (ext2[i + 1] - ext[i + 1])
    lo = min(tails[1 : n + 1])
    return frozenset(i for i in range(1, n + 1) if tails[i] > lo)


def _flex_window(table: VanishingTable, rule: int,
                 exc_columns: set[int]) -> list[int]:
    """Admissible target columns for relocating the rule-th 3."""
    lam = table.shape
    chain = table.chain
    n = table.n_columns
    genus1 = [i for i in range(1, n + 1) if chain.genera[i - 1] == 1]
    if rule == 1:
        out = [1]
        for i in genus1:
            if i == 1 or i in exc_columns:
                continue
            if _pair_count(lam, i, 1, 2) <= 4 and lam.bar_lam[i][0] <= 2:
                out.append(i)
        return out
    if rule == 2:
        return [
            i for i in genus1
            if _pair_count(lam, i, 1, 2) == 5 and _pair_count(lam, i - 1, 1, 2) == 4
        ]
    if rule == 3:
        lo = _first_at(lam, n, 1, 2, 6)
        hi = _first_at(lam, n, 1, 3, 7)
        if lo is None or hi is None:
            return []
        return [i for i in genus1 if lo <= i <= hi]
    if rule == 4:
        lo = _after_last_at(lam, n, 1, 3, 7)
        hi = _after_last_at(lam, n, 2, 3, 8)
        if lo is None or hi is None:
            return []
        return [i for i in genus1 if lo <= i <= hi]
    if rule == 5:
        return [
            i for i in genus1
            if _pair_count(lam, i, 2, 3) == 10 and _pair_count(lam, i - 1, 2, 3) == 9
        ]
    if rule == 6:
        out = [n]
        for i in genus1:
            if i == n or i in exc_columns:
                continue
            if _pair_count(lam, i - 1, 2, 3) >= 10 and lam.bar_lam[i - 1][6] >= 1:
                out.append(i)
        return out
    raise ValueError(f"no rule {rule}")


def iter_candidate_multidegrees(table: VanishingTable):
    """Lazily yield the default multidegree, then its single-3 relocations,
    then the swap-targeted moves.

    Relocations keep the other five 3s of the default in place and are
    ordered left-to-right by target column.  Swap moves pull the nearest 3
    from the left or the right onto each swap column.  The sequence is
    deterministic and duplicate-free.
    """
    chain, d = table.chain, table.d
    base = default_threes(table)
    yield twist_from_threes(chain, d, base)
    seen = {base}
    exc_columns = {i for (i, _) in table.exceptional}

    moves: list[tuple[int, int]] = []
    for rule in range(1, 7):
        current = base[rule - 1]
        for target in _flex_window(table, rule, exc_columns):
            if target != current:
                moves.append((target, rule))
    for target, rule in sorted(moves):
        threes = tuple(sorted(base[: rule - 1] + (target,) + base[rule:]))
        if len(set(threes)) == 6 and threes not in seen:
            seen.add(threes)
            yield twist_from_threes(chain, d, threes)

    for swap in table.swaps:
        s = swap.column
        if s in base or chain.genera[s - 1] != 1:
            continue
        left = [t for t in base if t < s]
        right = [t for t in base if t > s]
        for src in ([max(left)] if left else []) + ([min(right)] if right else []):
            threes = tuple(sorted(t for t in base if t != src) + [s])
            if threes not in seen:
                seen.add(threes)
                yield twist_from_threes(chain, d, threes)
