"""Chain curves: genus-0/1 components glued in a path.

A chain is an ordered list of smooth components Z_1, ..., Z_N, each of genus
0 or 1, with Q_i glued to P_{i+1}.  The total genus is the number of genus-1
components.  Optional node weights l_1, ..., l_{M-1} record, abstractly, the
number of nodes separating consecutive genus-1 components; they carry the
"left-weighted" degeneration data and are not cross-checked against actual
genus-0 insertions.
"""

from __future__ import annotations

from dataclasses import dataclass


class ChainError(ValueError):
    pass


@dataclass(frozen=True)
class ChainCurve:
    """An ordered chain of genus-0/1 components, leftmost first."""

    genera: tuple[int, ...]
    node_weights: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.genera) == 0:
            raise ChainError("chain needs at least one component")
        if any(g not in (0, 1) for g in self.genera):
            raise ChainError("component genera must be 0 or 1")
        if self.node_weights is not None:
            m = self.genus
            if self.genera[0] != 1 or self.genera[-1] != 1:
                raise ChainError("node weights require genus-1 end components")
            if len(self.node_weights) != m - 1:
                raise ChainError(
                    f"expected {m - 1} node weights, got {len(self.node_weights)}"
                )
            if any(w < 1 for w in self.node_weights):
                raise ChainError("node weights must be positive")

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

    @property
    def is_pure_elliptic(self) -> bool:
        return all(g == 1 for g in self.genera)

    def with_weights(self, weights: tuple[int, ...]) -> "ChainCurve":
        return ChainCurve(self.genera, tuple(weights))

    def to_json(self) -> dict:
        out: dict = {"genera": list(self.genera)}
        if self.node_weights is not None:
            out["node_weights"] = list(self.node_weights)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "ChainCurve":
        weights = obj.get("node_weights")
        return cls(
            tuple(obj["genera"]),
            tuple(weights) if weights is not None else None,
        )


def build_elliptic_chain(g: int) -> ChainCurve:
    """Pure chain of g genus-1 components, with no node weights."""
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


def is_left_weighted(chain: ChainCurve, d: int) -> bool:
    """True iff l_i >= 4d * (l_{i+1} + ... + l_{M-1}) for every i."""
    if chain.node_weights is None:
        raise ChainError("chain has no node weights")
    ws = chain.node_weights
    suffix = 0
    for w in reversed(ws):
        if w < 4 * d * suffix:
            return False
        suffix += w
    return True
