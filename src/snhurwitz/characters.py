"""Exact irreducible characters of the symmetric group.

χ is read from whole columns {λ: χ_λ(μ)} of the character table, each built
by the border-strip (Murnaghan–Nakayama) rule on beta-sets held as bit
masks.  λ ⊢ d sits on d beads: part λ_i (i from 1) at bit λ_i + d − i, so
the zero parts fill the low bits and each λ has one mask.  The column walk
starts from the empty diagram on d beads and adds μ's parts as border
strips, smallest first: a bead at p moves to an empty p + r, with the sign
of the beads strictly between.

`chi`, `chi_column` (behind `cache warm`) and `character_ratio` read the
same columns, memoized on (d, μ-suffix) in the `CharCache` passed in.
`_column` is the one constructor of a χ column: it grows μ's column from
that of μ's suffix μ[1:].  `walk_columns` visits every μ ⊢ d by a
depth-first walk of the suffix tree that builds each column through
`_column` from the parent column it holds, and keeps only the columns on
its path in that memo; the conjecture 1 and theorem B sweeps read their
columns from it, in bounded memory.
`central_column` keeps a second memo on the same cache: columns of
class-sum eigenvalues {λ parts: f_μ(λ)}, each built once per μ from μ's χ
column with every value checked to be an integer; `central_character` and
`hurwitz` read every f there.  `chi_column` and `central_column` read a χ
column through one memoized tuple per degree, `_bead_masks(d)`: the masks
of the λ ⊢ d in `partitions_of` order.  `chi` reads one value with one
memo lookup for μ's column and one for λ's mask, and `character_ratio`
returns the one module-level `_ZERO` for every zero χ (a Fraction is
immutable, so sharing it is safe), building a Fraction only for a nonzero
χ.  The entry recursion, which strips μ's parts from one λ, is kept in
tests/oracles.py as the independent cross-check.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import factorial

from .errors import CeilingError, ExactnessError, SizeMismatchError
from .partitions import DEFAULT_ENUMERATION_CEILING, Partition, _dimension, _partition_tuples


class CharCache:
    """Two column memos, with the zero values dropped: χ columns
    {(d, μ-suffix): {d-bead mask of λ: χ_λ(μ)}} in `_values`, and central
    columns {μ parts: {λ parts: f_μ(λ)}} in `_central`.

    The χ memo keeps every column `chi`, `chi_column`, `character_ratio`
    and `central_column` build.  The columns `walk_columns` adds are
    transient: each is dropped once the walk has left its subtree.

    In memory only: recomputing is faster than loading from disk.  `path` is
    kept for callers that pass it positionally and must be None.  A memo hit
    always equals recomputation.  `stats()` counts the χ values the χ memo
    answers without a walk: p(d) for each whole column (|μ| = d, not a
    proper suffix), so filling every column of degree m counts p(m)² at m.
    The degree-0 column and the central columns are not counted.
    """

    def __init__(self, path=None, max_degree: int = DEFAULT_ENUMERATION_CEILING):
        if path is not None:
            raise ValueError("the character memo is in memory only; path must be None")
        self.max_degree = max_degree
        self._values: dict[tuple[int, tuple[int, ...]], dict[int, int]] = {}
        self._central: dict[tuple[int, ...], dict[int, int]] = {}

    def stats(self) -> dict:
        by_degree: dict[int, int] = {}
        for (d, mu) in self._values:
            if mu and sum(mu) == d:
                by_degree[d] = by_degree.get(d, 0) + len(_partition_tuples(d, d))
        return {
            "entries": sum(by_degree.values()),
            "by_degree": dict(sorted(by_degree.items())),
            "path": None,
            "max_degree": self.max_degree,
        }


_DEFAULT_CACHE = CharCache()
#: the ratio `character_ratio` returns for every zero χ
_ZERO = Fraction(0)


@lru_cache(maxsize=None)
def _bead_mask(parts: tuple[int, ...]) -> int:
    """λ's beta-set on d = |λ| beads."""
    d = sum(parts)
    zeros = d - len(parts)
    return sum(1 << (part + d - 1 - i) for i, part in enumerate(parts)) | (1 << zeros) - 1


@lru_cache(maxsize=None)
def _bead_masks(d: int) -> tuple[int, ...]:
    """The bead masks of the λ ⊢ d, in partitions_of order."""
    return tuple(map(_bead_mask, _partition_tuples(d, d)))


def _grow(column: dict[int, int], r: int) -> dict[int, int]:
    """Add a border strip of length r to every diagram of a column."""
    between = (1 << (r - 1)) - 1
    out: dict[int, int] = {}
    for mask, value in column.items():
        tails = mask & ~(mask >> r)  # set bits p with bit p + r clear
        while tails:
            low = tails & -tails
            tails ^= low
            new = mask ^ low ^ (low << r)
            if ((mask >> low.bit_length()) & between).bit_count() & 1:
                out[new] = out.get(new, 0) - value
            else:
                out[new] = out.get(new, 0) + value
    return {mask: value for mask, value in out.items() if value}


def _column(d: int, mu: tuple[int, ...], columns: dict) -> dict[int, int]:
    """{d-bead mask of λ: χ_λ(μ)} over the λ ⊢ |μ| with χ_λ(μ) ≠ 0."""
    key = (d, mu)
    hit = columns.get(key)
    if hit is None:
        hit = _grow(_column(d, mu[1:], columns), mu[0]) if mu else {(1 << d) - 1: 1}
        columns[key] = hit
    return hit


def _checked(d: int, cache: CharCache | None) -> CharCache:
    """The cache to read, once degree d is known to be within its ceiling."""
    cache = cache or _DEFAULT_CACHE
    if d > cache.max_degree:
        raise CeilingError(f"degree {d} exceeds cache ceiling {cache.max_degree}")
    return cache


def walk_columns(d: int, cache: CharCache | None = None) -> Iterator[tuple[int, ...]]:
    """Yield the parts of every μ ⊢ d once, with μ's column in the χ memo
    while the caller holds μ.

    The μ-suffixes are walked depth first: a child (a,) + s of suffix s has
    a ≥ s[0], and the parts still to add number 0 or are each ≥ a.  Each
    column is built by `_column` from its parent's, which the walk holds in
    the memo, and a column the walk added is dropped once its subtree is
    done, also when the walk is closed early; columns already in the memo
    stay.  So at most one column per suffix length is held, rather than
    every suffix's.  The ceiling is checked
    when the walk is made, before any column is built.
    """
    memo = _checked(d, cache)._values

    def visit(mu: tuple[int, ...], rest: int) -> Iterator[tuple[int, ...]]:
        added = (d, mu) not in memo
        _column(d, mu, memo)
        try:
            if rest:
                for a in (*range(mu[0] if mu else 1, rest // 2 + 1), rest):
                    yield from visit((a,) + mu, rest - a)
            else:
                yield mu
        finally:
            if added:
                del memo[(d, mu)]

    return visit((), d)


def chi(lam: Partition, mu: Partition, cache: CharCache | None = None) -> int:
    """Irreducible character value χ_λ(μ), read from μ's column, with size
    and ceiling checked before any walk.  Requires |λ| = |μ|."""
    d = lam.size
    if d != mu.size:
        raise SizeMismatchError(f"|λ|={d} but |μ|={mu.size}")
    cache = cache or _DEFAULT_CACHE
    if d > cache.max_degree:
        raise CeilingError(f"degree {d} exceeds cache ceiling {cache.max_degree}")
    column = cache._values.get((d, mu.parts))
    if column is None:
        column = _column(d, mu.parts, cache._values)
    return column.get(_bead_mask(lam.parts), 0)


def chi_column(mu: Partition, cache: CharCache | None = None) -> tuple[int, ...]:
    """The character-table column (χ_λ(μ) for λ in partitions_of(|μ|)), in
    that order, from one walk."""
    d = mu.size
    column = _column(d, mu.parts, _checked(d, cache)._values)
    return tuple(map(column.get, _bead_masks(d), repeat(0)))


def central_column(mu: tuple[int, ...], cache: CharCache | None = None) -> dict[tuple[int, ...], int]:
    """{λ parts: f_μ(λ)} over the λ ⊢ |μ| with f_μ(λ) ≠ 0, built once per
    cache from μ's χ column with every value checked to be an integer."""
    d = sum(mu)
    cache = _checked(d, cache)
    hit = cache._central.get(mu)
    if hit is None:
        chis = _column(d, mu, cache._values)
        scale = factorial(d) // Partition(mu).centralizer_order()  # the class size
        hit = {}
        for lam, mask in zip(_partition_tuples(d, d), _bead_masks(d)):
            value = chis.get(mask)
            if value:
                f, rem = divmod(scale * value, _dimension(lam))
                if rem:
                    raise ExactnessError(
                        f"central character not integral for mu={Partition(mu)}, lam={Partition(lam)}")
                hit[lam] = f
        cache._central[mu] = hit
    return hit


def central_character(mu: Partition, lam: Partition, cache: CharCache | None = None) -> int:
    """(d!/z_μ) · χ_λ(μ)/dim λ, the class-sum eigenvalue on the λ-irreducible,
    read from μ's central column.

    Always an integer; a non-exact division signals a character bug and
    raises ExactnessError when the column is built.
    """
    if lam.size != mu.size:
        raise SizeMismatchError(f"|λ|={lam.size} but |μ|={mu.size}")
    return central_column(mu.parts, cache).get(lam.parts, 0)


def one_cycle_central_character(r: int, lam: Partition, cache: CharCache | None = None) -> int:
    """(d!/(r(d−r)!)) · χ_λ(r,1^{d−r})/dim λ, with the r-cycle treated as marked.

    For r ≥ 2 the centralizer of (r,1^{d−r}) has order r·(d−r)!, so this is
    central_character of that class; at r = 1 the marked normalization gives
    d rather than 1.
    """
    d = lam.size
    if not 1 <= r <= d:
        raise ValueError(f"r must be in 1..{d}, got {r}")
    if r == 1:
        return d
    return central_character(Partition([r] + [1] * (d - r)), lam, cache)


def character_ratio(lam: Partition, mu: Partition, cache: CharCache | None = None) -> Fraction:
    """χ_λ(μ)/dim λ as an exact rational (signed), read from μ's column; a
    zero χ gives the shared `_ZERO`."""
    value = chi(lam, mu, cache)
    return Fraction(value, _dimension(lam.parts)) if value else _ZERO
