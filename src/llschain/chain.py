"""Chain curves: genus-0/1 components glued in a path.

A chain is an ordered list of smooth components Z_1, ..., Z_N, each of genus
0 or 1, with Q_i glued to P_{i+1}.  The total genus is the number of genus-1
components.  A chain carries no node weights: the left-weighted hypothesis of
the disjoint and 3-cycle cases is a condition on weights l_1, ..., l_{M-1}
between consecutive genus-1 components, and verdicts report the minimal such
weights, ``left_weighted_weights(chain, d)``, which depend only on g and d.
``is_left_weighted`` is the defining inequality on a weight tuple.
"""

from __future__ import annotations

from dataclasses import dataclass


class ChainError(ValueError):
    pass


@dataclass(frozen=True)
class ChainCurve:
    """An ordered chain of genus-0/1 components, leftmost first."""

    genera: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.genera) == 0:
            raise ChainError("chain needs at least one component")
        if any(g not in (0, 1) for g in self.genera):
            raise ChainError("component genera must be 0 or 1")

    @property
    def n_components(self) -> int:
        return len(self.genera)

    @property
    def genus(self) -> int:
        return sum(self.genera)

    def genus_prefix(self, i: int) -> int:
        """g(i): number of genus-1 components among Z_1..Z_i (i from 0 to N)."""
        if not 0 <= i <= len(self.genera):
            raise ChainError(f"component index {i} out of range")
        return sum(self.genera[:i])


def build_elliptic_chain(g: int) -> ChainCurve:
    """Pure chain of g genus-1 components."""
    if g < 1:
        raise ChainError(f"genus must be positive, got {g}")
    return ChainCurve((1,) * g)


def left_weighted_weights(chain: ChainCurve, d: int) -> tuple[int, ...]:
    """Lexicographically minimal positive weights making the chain left-weighted.

    Built right to left: the last weight is 1 and each earlier weight equals
    4d times the sum of all weights to its right, which is the smallest value
    satisfying the defining inequality.
    """
    if d < 1:
        raise ChainError(f"degree must be positive, got {d}")
    m = chain.genus
    if m < 2:
        raise ChainError("left-weighting needs at least two genus-1 components")
    weights = [1]
    suffix = 1
    for _ in range(m - 2):
        w = max(1, 4 * d * suffix)
        weights.append(w)
        suffix += w
    return tuple(reversed(weights))


def is_left_weighted(weights: tuple[int, ...], d: int) -> bool:
    """True iff l_i >= 4d * (l_{i+1} + ... + l_{M-1}) for every i."""
    suffix = 0
    for w in reversed(weights):
        if w < 4 * d * suffix:
            return False
        suffix += w
    return True
