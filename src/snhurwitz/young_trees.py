"""Young trees in a diagram and the combinatorial route to central characters.

A Young tree of order r is a set of r boxes of a diagram whose induced
graph is connected and acyclic, where an edge joins two boxes exactly when
they share a row or column with no other chosen box strictly between them.
The signed, weighted count of these trees evaluates the central character
of the class (r,1^{d−r}); closed forms exist for r = 2, 3, 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, factorial
from typing import Iterable, NamedTuple

from .errors import ExactnessError
from .partitions import Partition


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


def _check_inside(lam: Partition, boxes: Iterable[Box]) -> None:
    for b in boxes:
        if not lam.contains_box(b.row, b.col):
            raise ValueError(f"box {tuple(b)} lies outside the diagram {lam}")


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


def induced_graph(lam: Partition, boxes: Iterable[Box]) -> list[tuple[Box, Box]]:
    """Edges of the row/column-adjacency graph on the given boxes.

    Within a line, exactly the consecutive chosen boxes are joined (any box
    strictly between two others blocks their edge).
    """
    bs = tuple(Box(*b) for b in boxes)
    _check_inside(lam, bs)
    if len(set(bs)) != len(bs):
        raise ValueError("boxes must be distinct")
    row_groups, col_groups = _runs(bs)
    edges = []
    for group in row_groups + col_groups:
        edges.extend(zip(group, group[1:]))
    return edges


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
    """All Young trees of order r in the diagram, in a fixed deterministic order."""
    if not 1 <= r <= lam.size:
        raise ValueError(f"r must be in 1..{lam.size}, got {r}")
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
    """Closed forms for the class (r,1^{d−r}) central character, r ∈ {2,3,4}.

    Written in terms of diagonal hook arms b_i = λ_i − i and legs
    a_i = λ'_i − i over the s diagonal boxes.
    """
    d = lam.size
    if r not in (2, 3, 4):
        raise ValueError(f"closed form only for r in {{2,3,4}}, got {r}")
    if d < r:
        raise ValueError(f"need |λ| ≥ r, got {d} < {r}")
    conj = lam.conjugate()
    s = sum(1 for i in range(1, lam.length + 1) if lam.part(i) >= i)
    bs = [lam.part(i) - i for i in range(1, s + 1)]
    as_ = [conj.part(i) - i for i in range(1, s + 1)]
    if r == 2:
        num = sum(b * (b + 1) - a * (a + 1) for b, a in zip(bs, as_))
        den = 2
    elif r == 3:
        num = sum(b * (b + 1) * (2 * b + 1) + a * (a + 1) * (2 * a + 1) for b, a in zip(bs, as_))
        num -= 3 * d * (d - 1)
        den = 6
    else:
        num = sum(
            b**2 * (b + 1) ** 2 - a**2 * (a + 1) ** 2 - (4 * d - 6) * (b * (b + 1) - a * (a + 1))
            for b, a in zip(bs, as_)
        )
        den = 4
    if num % den:
        raise ExactnessError(f"closed form not integral for r={r}, lam={lam} (bug)")
    return num // den


def straighten(lam: Partition, box: Box) -> Box:
    """Image of a box under the row-unfolding map into the hook diagram
    (d+1−l(λ), 1^{l(λ)−1}).

    Boxes in the first row or column stay put; any other box of row i moves
    to row 1 at column Σ_{k<i} λ_k − i + j + 1, appending the tail of row i
    right after everything already unfolded.  The map is a bijection onto
    the hook's boxes.
    """
    b = Box(*box)
    if not lam.contains_box(b.row, b.col):
        raise ValueError(f"box {tuple(b)} lies outside the diagram {lam}")
    if b.row == 1 or b.col == 1:
        return b
    return Box(1, sum(lam.parts[: b.row - 1]) - b.row + b.col + 1)


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


def hook_envelope(lam: Partition) -> Partition:
    """The hook diagram (d+1−l(λ), 1^{l(λ)−1}) that the straightening map targets."""
    return Partition([lam.size + 1 - lam.length] + [1] * (lam.length - 1))


__all__ = [
    "Box",
    "YoungTree",
    "induced_graph",
    "enumerate_trees",
    "central_character_from_trees",
    "frobenius_central_character",
    "straighten",
    "count_straight_trees",
    "hook_envelope",
]
