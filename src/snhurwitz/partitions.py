"""Integer partitions: the index set for diagrams, irreducibles, and conjugacy classes.

A partition is stored canonically as a weakly decreasing tuple of positive
integers; exponent notation such as ``"2,1^5"`` exists only at the parse
boundary.  The empty partition is the unique partition of 0.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from operator import index
from typing import Iterable, Iterator

from .errors import CeilingError, ExactnessError, PartitionParseError

#: Largest degree `partitions_of` will enumerate unless told otherwise.
DEFAULT_ENUMERATION_CEILING = 30
#: States one brute-force walk may visit: the permutation-level oracles'
#: transitions for one spec, or the box subsets of one Young-tree walk.
DEFAULT_BF_BUDGET = 4_000_000


class Partition:
    """A weakly decreasing sequence of positive integers.

    `parts` and `size` (the sum of the parts, written |θ|) are read-only
    slots: any write or delete raises AttributeError, so a partition stays
    immutable and hashable.
    """

    __slots__ = ("parts", "size")

    def __init__(self, parts: Iterable[int] = ()):
        p = tuple(sorted(map(index, parts), reverse=True))
        for v in p:
            if v <= 0:
                raise ValueError(f"partition parts must be positive, got {v}")
        object.__setattr__(self, "parts", p)
        object.__setattr__(self, "size", sum(p))

    def __setattr__(self, name, value):
        raise AttributeError(f"Partition is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Partition is immutable; cannot delete {name!r}")

    def __reduce__(self):
        return (Partition, (self.parts,))

    @property
    def length(self) -> int:
        """Number of parts, written l(θ)."""
        return len(self.parts)

    @property
    def colength(self) -> int:
        """size − length, the minimal transposition count of the class."""
        return self.size - len(self.parts)

    def part(self, i: int) -> int:
        """The i-th part (1-indexed), 0 past the end."""
        if i < 1:
            raise IndexError("parts are 1-indexed")
        return self.parts[i - 1] if i <= len(self.parts) else 0

    def multiplicity(self, v: int) -> int:
        """Number of parts equal to v."""
        return self.parts.count(v)

    def conjugate(self) -> "Partition":
        """The transposed diagram."""
        if not self.parts:
            return self
        cols = [0] * self.parts[0]
        for v in self.parts:
            for j in range(v):
                cols[j] += 1
        return Partition(cols)

    def centralizer_order(self) -> int:
        """∏ m_i! · i^{m_i}; the group order divided by the class size."""
        out = 1
        for v in set(self.parts):
            m = self.parts.count(v)
            out *= factorial(m) * v**m
        return out

    def contains_box(self, row: int, col: int) -> bool:
        """Whether the box at (row, col), 1-indexed, lies inside the diagram."""
        return 1 <= row <= len(self.parts) and 1 <= col <= self.parts[row - 1]

    def boxes(self) -> Iterator[tuple[int, int]]:
        """All (row, col) boxes of the diagram, row-major."""
        for i, v in enumerate(self.parts, start=1):
            for j in range(1, v + 1):
                yield (i, j)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, idx):
        return self.parts[idx]

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __lt__(self, other: "Partition") -> bool:
        return self.parts < other.parts

    def __le__(self, other: "Partition") -> bool:
        return self.parts <= other.parts

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.parts)

    def __repr__(self) -> str:
        return f"Partition({self.parts!r})"


def parse(text: str) -> Partition:
    """Parse comma-separated parts with optional ``p^k`` exponents.

    ``"3,1^2"`` and ``"1,3,1"`` both parse to (3,1,1).  An empty or
    whitespace-only string is the partition of 0.
    """
    parts: list[int] = []
    stripped = text.strip()
    if not stripped:
        return Partition()
    for token in stripped.split(","):
        token = token.strip()
        if "^" in token:
            base_s, _, exp_s = token.partition("^")
            try:
                base, exp = int(base_s), int(exp_s)
            except ValueError:
                raise PartitionParseError(f"malformed token {token!r}") from None
            if exp < 1:
                raise PartitionParseError(f"nonpositive exponent in token {token!r}")
        else:
            try:
                base, exp = int(token), 1
            except ValueError:
                raise PartitionParseError(f"malformed token {token!r}") from None
        if base < 1:
            raise PartitionParseError(f"nonpositive part in token {token!r}")
        parts.extend([base] * exp)
    return Partition(parts)


@lru_cache(maxsize=None)
def _partition_tuples(d: int, max_part: int) -> tuple[tuple[int, ...], ...]:
    if d == 0:
        return ((),)
    out = []
    for first in range(min(d, max_part), 0, -1):
        for rest in _partition_tuples(d - first, first):
            out.append((first,) + rest)
    return tuple(out)


def partitions_of(d: int) -> list[Partition]:
    """All partitions of d in descending lexicographic order: (d) first, (1^d) last."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    if d > DEFAULT_ENUMERATION_CEILING:
        raise CeilingError(f"d={d} exceeds the enumeration ceiling {DEFAULT_ENUMERATION_CEILING}")
    return [Partition(t) for t in _partition_tuples(d, d if d else 1)]


@lru_cache(maxsize=None)
def sub_multisets(parts: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Every (taken, rest) split of a weakly decreasing part tuple's multiset.

    Each distinct sub-multiset is taken once, in decreasing lexicographic
    order: for each distinct part, largest first, t copies are taken for
    t from its multiplicity down to 0.
    """
    out: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), ())]
    for v in sorted(set(parts), reverse=True):
        m = parts.count(v)
        out = [(taken + (v,) * t, rest + (v,) * (m - t))
               for taken, rest in out for t in range(m, -1, -1)]
    return tuple(out)


@lru_cache(maxsize=None)
def _dimension(parts: tuple[int, ...]) -> int:
    d = sum(parts)
    conj = Partition(parts).conjugate().parts
    hooks = 1
    for i, row in enumerate(parts, start=1):
        for j in range(1, row + 1):
            hooks *= row - j + conj[j - 1] - i + 1
    num = factorial(d)
    if num % hooks:
        raise ExactnessError("hook product does not divide d! (bug)")
    return num // hooks


def dimension(lam: Partition) -> int:
    """Dimension of the irreducible representation indexed by lam (hook lengths)."""
    return _dimension(lam.parts)
