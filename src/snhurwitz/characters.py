"""Exact irreducible characters of the symmetric group.

Evaluation is by the border-strip recursion on beta-sets, with μ's largest
parts stripped first.  A beta-set is an int bit mask: λ with n parts sets
bit λ_i + n − i for each i.  A border strip of length r is a set bit p whose
bit p − r is clear; removing it flips those two bits, and its height is the
number of set bits strictly between them.  The canonical mask shifts out
the low run of ones (the zero parts), so each λ has one mask, and the memo
is keyed on (mask, remaining suffix of μ).  The memo lives in memory only:
recomputing the table is faster than loading it from disk.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import CeilingError, ExactnessError, SizeMismatchError
from .partitions import Partition, dimension


class CharCache:
    """Memo of the border-strip recursion, keyed by (beta-set mask, μ-suffix).

    In memory only; `path` is kept for callers that pass it positionally and
    must be None.  A memo hit always equals recomputation.
    """

    def __init__(self, path=None, max_degree: int = 30):
        if path is not None:
            raise ValueError("the character memo is in memory only; path must be None")
        self.max_degree = max_degree
        self._values: dict[tuple[int, tuple[int, ...]], int] = {}

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


def chi(lam: Partition, mu: Partition, cache: CharCache | None = None) -> int:
    """Irreducible character value χ_λ(μ).  Requires |λ| = |μ|."""
    if lam.size != mu.size:
        raise SizeMismatchError(f"|λ|={lam.size} but |μ|={mu.size}")
    cache = cache or _DEFAULT_CACHE
    if lam.size > cache.max_degree:
        raise CeilingError(f"degree {lam.size} exceeds cache ceiling {cache.max_degree}")
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
    """χ_λ(μ)/dim λ as an exact rational (signed)."""
    return Fraction(chi(lam, mu, cache), dimension(lam))
