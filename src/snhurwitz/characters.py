"""Exact irreducible characters of the symmetric group.

Two routes evaluate the border-strip (Murnaghan–Nakayama) rule on beta-sets,
each a bit mask: λ with n parts sets bit λ_i + n − i for each i.

- **Entries.**  `chi`, and through it `central_character` and `cache warm`,
  strip μ's largest parts first from one λ.  A border strip of length r is
  a set bit p whose bit p − r is clear; removing it flips those two bits,
  and its height is the number of set bits strictly between them.  The
  canonical mask shifts out the low run of ones (the zero parts), so each λ
  has one mask, and the memo is keyed on (mask, remaining suffix of μ).
- **Columns.**  `character_ratio`, which the ratio sweeps call for every λ
  of one μ, reads the whole column {λ: χ_λ(μ)} at once.  The column walk
  starts from the empty diagram on d beads and adds μ's parts as border
  strips, smallest first: a bead at p moves to an empty p + r, with the
  sign of the beads strictly between.  Columns are keyed on (d, μ-suffix),
  hold only nonzero values and key λ by its d-bead mask.

Both memos live on the `CharCache` passed in, in memory only: recomputing
is faster than loading from disk.  The two routes share no code past the
bead encoding, so each checks the other.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import CeilingError, ExactnessError, SizeMismatchError
from .partitions import Partition, dimension


class CharCache:
    """Memos of both χ routes: the entry recursion's values keyed by
    (beta-set mask, μ-suffix), and the columns keyed by (d, μ-suffix).

    In memory only; `path` is kept for callers that pass it positionally and
    must be None.  A memo hit always equals recomputation.  `stats()` counts
    the entry memo only, which `cache warm` fills; columns are not counted.
    """

    def __init__(self, path=None, max_degree: int = 30):
        if path is not None:
            raise ValueError("the character memo is in memory only; path must be None")
        self.max_degree = max_degree
        self._values: dict[tuple[int, tuple[int, ...]], int] = {}
        self._columns: dict[tuple[int, tuple[int, ...]], dict[int, int]] = {}

    def stats(self) -> dict:
        by_degree: dict[int, int] = {}
        for (_mask, mu) in self._values:
            d = sum(mu)
            by_degree[d] = by_degree.get(d, 0) + 1
        return {
            "entries": len(self._values),
            "by_degree": dict(sorted(by_degree.items())),
            "path": None,
            "max_degree": self.max_degree,
        }


_DEFAULT_CACHE = CharCache()


@lru_cache(maxsize=None)
def _beta_mask(parts: tuple[int, ...]) -> int:
    n = len(parts)
    return sum(1 << (part + n - 1 - i) for i, part in enumerate(parts))


@lru_cache(maxsize=None)
def _bead_mask(parts: tuple[int, ...]) -> int:
    """λ's beta-set on d = |λ| beads: the zero parts fill bits 0..d−len−1."""
    zeros = sum(parts) - len(parts)
    return _beta_mask(parts) << zeros | (1 << zeros) - 1


def _chi(mask: int, mu: tuple[int, ...], values: dict) -> int:
    if not mu:
        return 1
    key = (mask, mu)
    hit = values.get(key)
    if hit is not None:
        return hit
    r, rest = mu[0], mu[1:]
    between = (1 << (r - 1)) - 1
    heads = (mask & ~(mask << r)) >> r << r  # set bits p ≥ r with bit p − r clear
    total = 0
    while heads:
        top = heads & -heads
        heads ^= top
        p = top.bit_length() - 1
        new = mask ^ top ^ (top >> r)
        if new & 1:
            new >>= (~new & (new + 1)).bit_length() - 1
        term = _chi(new, rest, values)
        total += -term if ((mask >> (p - r + 1)) & between).bit_count() & 1 else term
    values[key] = total
    return total


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


def _checked_cache(lam: Partition, mu: Partition, cache: CharCache | None) -> CharCache:
    if lam.size != mu.size:
        raise SizeMismatchError(f"|λ|={lam.size} but |μ|={mu.size}")
    cache = cache or _DEFAULT_CACHE
    if lam.size > cache.max_degree:
        raise CeilingError(f"degree {lam.size} exceeds cache ceiling {cache.max_degree}")
    return cache


def chi(lam: Partition, mu: Partition, cache: CharCache | None = None) -> int:
    """Irreducible character value χ_λ(μ) by the entry recursion.  Requires |λ| = |μ|."""
    cache = _checked_cache(lam, mu, cache)
    return _chi(_beta_mask(lam.parts), mu.parts, cache._values)


def central_character(mu: Partition, lam: Partition, cache: CharCache | None = None) -> int:
    """(d!/z_μ) · χ_λ(μ)/dim λ, the class-sum eigenvalue on the λ-irreducible.

    Always an integer; a non-exact division signals a character bug and
    raises ExactnessError.
    """
    value = chi(lam, mu, cache)
    d = lam.size
    num = factorial(d) * value
    den = mu.centralizer_order() * dimension(lam)
    if num % den:
        raise ExactnessError(f"central character not integral for mu={mu}, lam={lam}")
    return num // den


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
    """χ_λ(μ)/dim λ as an exact rational (signed), read from μ's column."""
    cache = _checked_cache(lam, mu, cache)
    column = _column(lam.size, mu.parts, cache._columns)
    return Fraction(column.get(_bead_mask(lam.parts), 0), dimension(lam))
