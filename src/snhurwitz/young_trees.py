"""Young trees in a diagram and the combinatorial route to central characters.

A Young tree of order r is a set of r boxes of a diagram whose induced
graph is connected and acyclic, where an edge joins two boxes exactly when
they share a row or column with no other chosen box strictly between them.
The signed, weighted count of these trees evaluates the central character
of the class (r,1^{d−r}); Frobenius's formula in the beta-numbers of λ
gives the same value in closed form for every r.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from fractions import Fraction
from math import comb, factorial, perm, prod
from typing import NamedTuple

from .errors import BudgetError, ExactnessError
from .partitions import DEFAULT_BF_BUDGET, Partition


class Box(NamedTuple):
    """A diagram box at (row, col), 1-indexed."""

    row: int
    col: int


@dataclass(frozen=True)
class YoungTree:
    boxes: tuple[Box, ...]
    edges: tuple[tuple[Box, Box], ...]
    vert: int  # number of vertical (same-column) edges
    weight: int  # product of l(p)! over maximal one-line paths p

    @property
    def order(self) -> int:
        return len(self.boxes)

    def to_json(self) -> dict:
        return {
            "boxes": [[b.row, b.col] for b in self.boxes],
            "vert": self.vert,
            "weight": str(self.weight),
        }


def _runs(boxes: tuple[Box, ...]) -> tuple[list[list[Box]], list[list[Box]]]:
    """Boxes grouped by row and by column, each group sorted along the line."""
    rows: dict[int, list[Box]] = {}
    cols: dict[int, list[Box]] = {}
    for b in boxes:
        rows.setdefault(b.row, []).append(b)
        cols.setdefault(b.col, []).append(b)
    row_groups = [sorted(g, key=lambda b: b.col) for _, g in sorted(rows.items())]
    col_groups = [sorted(g, key=lambda b: b.row) for _, g in sorted(cols.items())]
    return row_groups, col_groups


def _tree_from_boxes(bs: tuple[Box, ...]) -> YoungTree | None:
    """Build the YoungTree on bs, or None if the induced graph is not a tree."""
    r = len(bs)
    row_groups, col_groups = _runs(bs)
    n_edges = sum(len(g) - 1 for g in row_groups) + sum(len(g) - 1 for g in col_groups)
    if n_edges != r - 1:
        return None
    # acyclic with r-1 edges, so connectivity is the remaining tree condition
    parent = {b: b for b in bs}

    def find(x: Box) -> Box:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for group in row_groups + col_groups:
        root = find(group[0])
        for b in group[1:]:
            parent[find(b)] = root
    root = find(bs[0])
    if any(find(b) != root for b in bs):
        return None
    edges = []
    for group in row_groups + col_groups:
        edges.extend(zip(group, group[1:]))
    vert = sum(len(g) - 1 for g in col_groups)
    weight = 1
    for g in row_groups + col_groups:
        if len(g) >= 2:
            weight *= factorial(len(g) - 1)
    return YoungTree(boxes=bs, edges=tuple(edges), vert=vert, weight=weight)


def enumerate_trees(lam: Partition, r: int) -> list[YoungTree]:
    """All Young trees of order r in the diagram, in a fixed deterministic
    order; BudgetError if its C(|λ|, r) box subsets exceed DEFAULT_BF_BUDGET."""
    if not 1 <= r <= lam.size:
        raise ValueError(f"r must be in 1..{lam.size}, got {r}")
    subsets = comb(lam.size, r)
    if subsets > DEFAULT_BF_BUDGET:
        raise BudgetError(f"{subsets} box subsets exceed the budget {DEFAULT_BF_BUDGET}")
    all_boxes = [Box(i, j) for i, j in lam.boxes()]
    out = []
    for subset in combinations(all_boxes, r):
        tree = _tree_from_boxes(subset)
        if tree is not None:
            out.append(tree)
    return out


def central_character_from_trees(lam: Partition, r: int) -> int:
    """Σ (−1)^vert · weight over Young trees of order r in lam.

    Equals the central character of the class (r,1^{d−r}) at λ under the
    marked-cycle normalization d!/(r(d−r)!); for r ≥ 2 that is the ordinary
    central character.
    """
    return sum((-1) ** t.vert * t.weight for t in enumerate_trees(lam, r))


def frobenius_central_character(r: int, lam: Partition) -> int:
    """Frobenius's formula for the class (r,1^{d−r}) central character:

    f(λ) = (1/r)·Σ_i (β_i)_r·∏_{j≠i} (β_i − r − β_j)/(β_i − β_j),

    over the beta-numbers β_i = λ_i + ℓ(λ) − i, with (β)_r the falling
    factorial, so only β_i ≥ r contribute.  Any 1 ≤ r ≤ d; at r = 1 it
    gives d, the marked-cycle normalization of the tree count.
    """
    d = lam.size
    if not 1 <= r <= d:
        raise ValueError(f"r must be in 1..{d}, got {r}")
    n = lam.length
    beta = [part + n - i for i, part in enumerate(lam.parts, 1)]
    total = sum((Fraction(perm(b, r) * prod(b - r - c for c in beta if c != b),
                          r * prod(b - c for c in beta if c != b))
                 for b in beta if b >= r), Fraction(0))
    if total.denominator != 1:
        raise ExactnessError(f"Frobenius formula not integral for r={r}, lam={lam} (bug)")
    return int(total)


def count_straight_trees(lam: Partition, r: int) -> int:
    """Number of Young trees lying in a single row or column.

    For r ≥ 2 every choice of r collinear boxes is one such tree; for r = 1
    each box counts once.
    """
    if r < 1:
        raise ValueError("r must be positive")
    if r == 1:
        return lam.size
    return sum(comb(v, r) for v in lam.parts) + sum(comb(v, r) for v in lam.conjugate().parts)


__all__ = [
    "Box",
    "YoungTree",
    "enumerate_trees",
    "central_character_from_trees",
    "frobenius_central_character",
    "count_straight_trees",
]
