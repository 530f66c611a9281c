"""Integer partitions: the index set for diagrams, irreducibles, and conjugacy classes.

A partition is stored canonically as a weakly decreasing tuple of positive
integers; exponent notation such as ``"2,1^5"`` exists only at the parse
boundary.  The empty partition is the unique partition of 0.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import Iterable, Iterator

from .errors import CeilingError, ExactnessError, PartitionParseError

#: Largest degree `partitions_of` will enumerate unless told otherwise.
DEFAULT_ENUMERATION_CEILING = 30


class Partition:
    """A weakly decreasing sequence of positive integers."""

    __slots__ = ("_parts", "_size")

    def __init__(self, parts: Iterable[int] = ()):
        p = tuple(sorted((int(v) for v in parts), reverse=True))
        for v in p:
            if v <= 0:
                raise ValueError(f"partition parts must be positive, got {v}")
        self._parts = p
        self._size = sum(p)

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def size(self) -> int:
        """Sum of the parts, written |θ|."""
        return self._size

    @property
    def length(self) -> int:
        """Number of parts, written l(θ)."""
        return len(self._parts)

    @property
    def colength(self) -> int:
        """size − length, the minimal transposition count of the class."""
        return self._size - len(self._parts)

    def part(self, i: int) -> int:
        """The i-th part (1-indexed), 0 past the end."""
        if i < 1:
            raise IndexError("parts are 1-indexed")
        return self._parts[i - 1] if i <= len(self._parts) else 0

    def multiplicity(self, v: int) -> int:
        """Number of parts equal to v."""
        return self._parts.count(v)

    def conjugate(self) -> "Partition":
        """The transposed diagram."""
        if not self._parts:
            return self
        cols = [0] * self._parts[0]
        for v in self._parts:
            for j in range(v):
                cols[j] += 1
        return Partition(cols)

    def centralizer_order(self) -> int:
        """∏ m_i! · i^{m_i}; the group order divided by the class size."""
        out = 1
        for v in set(self._parts):
            m = self._parts.count(v)
            out *= factorial(m) * v**m
        return out

    def contains_box(self, row: int, col: int) -> bool:
        """Whether the box at (row, col), 1-indexed, lies inside the diagram."""
        return 1 <= row <= len(self._parts) and 1 <= col <= self._parts[row - 1]

    def boxes(self) -> Iterator[tuple[int, int]]:
        """All (row, col) boxes of the diagram, row-major."""
        for i, v in enumerate(self._parts, start=1):
            for j in range(1, v + 1):
                yield (i, j)

    def __iter__(self) -> Iterator[int]:
        return iter(self._parts)

    def __len__(self) -> int:
        return len(self._parts)

    def __getitem__(self, idx):
        return self._parts[idx]

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self._parts == other._parts

    def __hash__(self) -> int:
        return hash(self._parts)

    def __lt__(self, other: "Partition") -> bool:
        return self._parts < other._parts

    def __le__(self, other: "Partition") -> bool:
        return self._parts <= other._parts

    def __str__(self) -> str:
        return ",".join(str(v) for v in self._parts)

    def __repr__(self) -> str:
        return f"Partition({self._parts!r})"


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


def partitions_of(d: int, ceiling: int = DEFAULT_ENUMERATION_CEILING) -> list[Partition]:
    """All partitions of d in descending lexicographic order: (d) first, (1^d) last."""
    if d < 0:
        raise ValueError("d must be nonnegative")
    if d > ceiling:
        raise CeilingError(f"d={d} exceeds the enumeration ceiling {ceiling}")
    return [Partition(t) for t in _partition_tuples(d, d if d else 1)]


def splits(theta: Partition, d1: int) -> list[tuple[Partition, Partition]]:
    """All ways to split the part multiset of theta into (ω ⊢ d1, σ ⊢ |θ|−d1).

    Each distinct sub-multiset ω appears exactly once, paired with its
    complement.  The result may be empty.
    """
    if not 1 <= d1 < theta.size:
        raise ValueError(f"d1 must satisfy 1 <= d1 < {theta.size}, got {d1}")
    values = sorted(set(theta.parts), reverse=True)
    mults = [theta.multiplicity(v) for v in values]
    out: list[tuple[Partition, Partition]] = []

    def go(idx: int, remaining: int, chosen: list[int]):
        if remaining == 0:
            omega = [v for v, take in zip(values, chosen) for _ in range(take)]
            sigma = [
                v
                for v, take, m in zip(values, chosen, mults)
                for _ in range(m - take)
            ]
            sigma += [v for v, m in zip(values[idx:], mults[idx:]) for _ in range(m)]
            out.append((Partition(omega), Partition(sigma)))
            return
        if idx == len(values):
            return
        v, m = values[idx], mults[idx]
        for take in range(min(m, remaining // v), -1, -1):
            go(idx + 1, remaining - take * v, chosen + [take])

    go(0, d1, [])
    out.sort(key=lambda pair: pair[0].parts, reverse=True)
    return out


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
