"""Exact irreducible characters of the symmetric group.

χ is read from whole columns of the character table, each a tuple
(χ_λ(μ) for λ ⊢ |μ| in `partitions_of` order), zeros kept, built by the
border-strip (Murnaghan–Nakayama) rule.  The column walk starts from the
empty diagram and adds μ's parts as border strips, smallest first, through
one strip table per (k, r), `_strips(k, r)`: for each λ ⊢ k, the positions
in partitions_of(k + r) of the λ plus a strip of length r, split by even
and odd height.  The table is built once from beta-sets held as bit masks
(`_bead_masks`: λ on k + r beads, a bead at p moving to an empty p + r,
with the sign of the beads strictly between), the only place masks remain.

`chi`, `chi_column` (behind `cache warm`) and `character_ratio` read the
same columns, memoized on (d, μ-suffix) in the `CharCache` passed in.
`_column` is the one constructor of a χ column: it grows μ's column from
that of μ's suffix μ[1:] through `_strips(|μ| − μ[0], μ[0])`.
`walk_columns` visits every μ ⊢ d by a depth-first walk of the suffix tree
that builds each column through `_column` from the parent column it holds,
and keeps only the columns on its path in that memo; the conjecture 1 and
theorem B sweeps read their columns from it, in bounded memory.
`central_column` keeps a second memo on the same cache: columns of
class-sum eigenvalues {λ parts: f_μ(λ)}, each built once per μ from μ's χ
column with every value checked to be an integer; `central_character` and
`hurwitz` read every f there.  Each degree d has one row table,
`_rows(d)`: {λ parts: (λ's position in partitions_of(d), dim λ)}, the one
place λ is paired with its dimension.  `chi_column` returns the memo's
tuple itself, and `central_column` zips it with `_rows(d)`.  `chi` and
`character_ratio` share one reader, `_entry`: it checks size and ceiling,
then reads (χ_λ(μ), dim λ) with one memo lookup for μ's column and one
for λ's row, on the slots `Partition.parts` and `Partition.size`.
`character_ratio` returns the one module-level `_ZERO` for every zero χ
(a Fraction is immutable, so sharing it is safe), building one
`Fraction(χ, dim λ)` only for a nonzero χ.  The entry recursion, which
strips μ's parts from one λ, is kept in tests/oracles.py as the
independent cross-check, beside the box-by-box border strips that check
the strip table.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import CeilingError, ExactnessError, SizeMismatchError
from .partitions import DEFAULT_ENUMERATION_CEILING, Partition, _dimension, _partition_tuples


class CharCache:
    """Two column memos: χ columns {(d, μ-suffix): (χ_λ(μ) for λ in
    partitions_of(|μ|))}, zeros kept, in `_values`, and central columns
    {μ parts: {λ parts: f_μ(λ)}}, with the zero values dropped, in
    `_central`.

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
        self._values: dict[tuple[int, tuple[int, ...]], tuple[int, ...]] = {}
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
def _bead_masks(d: int) -> tuple[int, ...]:
    """The beta-sets on d beads of the λ ⊢ d, in partitions_of order: part
    λ_i (i from 1) at bit λ_i + d − i, the zero parts filling the low bits."""
    return tuple(sum(1 << (part + d - 1 - i) for i, part in enumerate(lam)) | ((1 << (d - len(lam))) - 1)
                 for lam in _partition_tuples(d, d))


@lru_cache(maxsize=None)
def _strips(k: int, r: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """For each λ ⊢ k in partitions_of order, the positions in
    partitions_of(k + r) of the ν = λ + a border strip of length r, split
    into (even height, odd height).

    λ sits on k + r beads, enough for any strip, so the table serves every
    degree's walk: each bead at p with p + r empty moves to p + r, and the
    strip's height is the number of beads strictly between.
    """
    index = {mask: j for j, mask in enumerate(_bead_masks(k + r))}
    between, low_beads = (1 << (r - 1)) - 1, (1 << r) - 1
    table = []
    for mask in _bead_masks(k):
        mask = (mask << r) | low_beads
        even: list[int] = []
        odd: list[int] = []
        tails = mask & ~(mask >> r)  # set bits p with bit p + r clear
        while tails:
            low = tails & -tails
            tails ^= low
            height = ((mask >> low.bit_length()) & between).bit_count()
            (odd if height & 1 else even).append(index[mask ^ low ^ (low << r)])
        table.append((tuple(even), tuple(odd)))
    return tuple(table)


@lru_cache(maxsize=None)
def _rows(d: int) -> dict[tuple[int, ...], tuple[int, int]]:
    """{λ parts: (λ's position in partitions_of(d), dim λ)}, in
    partitions_of order: the one place λ is paired with its dimension."""
    return {lam: (j, _dimension(lam)) for j, lam in enumerate(_partition_tuples(d, d))}


def _column(d: int, mu: tuple[int, ...], columns: dict) -> tuple[int, ...]:
    """(χ_λ(μ) for λ in partitions_of(|μ|)), memoized under (d, μ) in
    `columns`: μ[1:]'s column, each nonzero value carried along the strips
    of `_strips(|μ| − μ[0], μ[0])` with their signs."""
    key = (d, mu)
    hit = columns.get(key)
    if hit is None:
        if mu:
            r = mu[0]
            k = sum(mu) - r
            out = [0] * len(_bead_masks(k + r))
            for value, (even, odd) in zip(_column(d, mu[1:], columns), _strips(k, r)):
                if value:
                    for j in even:
                        out[j] += value
                    for j in odd:
                        out[j] -= value
            hit = tuple(out)
        else:
            hit = (1,)
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


def _entry(lam: Partition, mu: Partition, cache: CharCache | None) -> tuple[int, int]:
    """(χ_λ(μ), dim λ): size and ceiling checked before any walk, then one
    memo lookup for μ's column and one for λ's (position, dim λ)."""
    d = lam.size
    if d != mu.size:
        raise SizeMismatchError(f"|λ|={d} but |μ|={mu.size}")
    cache = cache or _DEFAULT_CACHE
    if d > cache.max_degree:
        raise CeilingError(f"degree {d} exceeds cache ceiling {cache.max_degree}")
    column = cache._values.get((d, mu.parts))
    if column is None:
        column = _column(d, mu.parts, cache._values)
    position, dim = _rows(d)[lam.parts]
    return column[position], dim


def chi(lam: Partition, mu: Partition, cache: CharCache | None = None) -> int:
    """Irreducible character value χ_λ(μ), read from μ's column by
    `_entry`, with size and ceiling checked before any walk.  Requires
    |λ| = |μ|."""
    return _entry(lam, mu, cache)[0]


def chi_column(mu: Partition, cache: CharCache | None = None) -> tuple[int, ...]:
    """The character-table column (χ_λ(μ) for λ in partitions_of(|μ|)), in
    that order: the χ memo's own tuple."""
    d = mu.size
    return _column(d, mu.parts, _checked(d, cache)._values)


def central_column(mu: tuple[int, ...], cache: CharCache | None = None) -> dict[tuple[int, ...], int]:
    """{λ parts: f_μ(λ)} over the λ ⊢ |μ| with f_μ(λ) ≠ 0, built once per
    cache from μ's χ column, zipped with `_rows(|μ|)` for each dim λ, with
    every value checked to be an integer."""
    d = sum(mu)
    cache = _checked(d, cache)
    hit = cache._central.get(mu)
    if hit is None:
        chis = _column(d, mu, cache._values)
        scale = factorial(d) // Partition(mu).centralizer_order()  # the class size
        hit = {}
        for (lam, (_, dim)), value in zip(_rows(d).items(), chis):
            if value:
                f, rem = divmod(scale * value, dim)
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
    """χ_λ(μ)/dim λ as an exact rational (signed): χ and dim λ read by
    `_entry` in one call, as `chi` reads them; a zero χ gives the shared
    `_ZERO`, and only a nonzero χ builds a Fraction."""
    value, dim = _entry(lam, mu, cache)
    return Fraction(value, dim) if value else _ZERO
