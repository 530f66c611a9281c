"""Hurwitz numbers of an arbitrary-genus target surface, exactly.

Disconnected counts come from the character (Burnside) sum; connected
counts from the degree-convolution recursion that peels off the component
containing sheet 1, with repeated branch points aggregated by the multiset
of per-point sub-profiles.  Independent permutation-level oracles count
monodromy tuples directly (as a dynamic program over the group algebra,
tracking the orbit-join partition for the transitive restriction).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, factorial

import numpy as np

from .characters import CharCache, central_character
from .errors import BudgetError, GenusError, SizeMismatchError
from .partitions import Partition, dimension, partitions_of, splits

#: elementary-operation budget for the permutation-level oracles
DEFAULT_BF_BUDGET = 300_000_000
_BF_MAX_DEGREE = 6


@dataclass(frozen=True)
class CoverSpec:
    """Degree-d covers of a genus-h target with an explicit profile list."""

    h: int
    d: int
    profiles: tuple[Partition, ...] = ()

    def __post_init__(self):
        if self.h < 0:
            raise GenusError("target genus must be nonnegative")
        if self.d < 1:
            raise ValueError("degree must be positive")
        for p in self.profiles:
            if p.size != self.d:
                raise SizeMismatchError(f"profile {p} does not partition d={self.d}")

    def colength_sum(self) -> int:
        return sum(p.colength for p in self.profiles)


@dataclass(frozen=True)
class RepeatedSpec:
    """A CoverSpec's fixed profiles plus k repeats of one profile ν ≠ (1^d).

    The repeat count k and the source genus g are interchangeable through
    k·l*(ν) = 2g − 2 + (2−2h)d − Σ l*(μ^(i)); exactly one may be given.
    """

    base: CoverSpec
    nu: Partition
    k: int | None = None
    g: int | None = None

    def __post_init__(self):
        if self.nu.size != self.base.d:
            raise SizeMismatchError(f"nu={self.nu} does not partition d={self.base.d}")
        if self.nu.colength == 0:
            raise ValueError("nu must differ from (1^d)")
        if (self.k is None) == (self.g is None):
            raise GenusError("give exactly one of k (repeat count) or g (source genus)")
        if self.k is not None and self.k < 0:
            raise GenusError("repeat count must be nonnegative")
        if self.g is not None and self.g < 0:
            raise GenusError("source genus must be nonnegative")

    def point_count(self) -> int:
        """Number of ν-points; derived from g when g was given."""
        if self.k is not None:
            return self.k
        num = 2 * self.g - 2 + (2 - 2 * self.base.h) * self.base.d - self.base.colength_sum()
        den = self.nu.colength
        if num % den or num < 0:
            raise GenusError(f"genus g={self.g} admits no integer repeat count")
        return num // den

    def genus(self) -> int | None:
        """Source genus implied by the point count; None on parity violation."""
        if self.g is not None:
            return self.g
        num = self.k * self.nu.colength + self.base.colength_sum() + 2 - (2 - 2 * self.base.h) * self.base.d
        if num % 2:
            return None
        return num // 2

    def parity_ok(self) -> bool:
        """Whether k·l*(ν) + Σ l*(μ^(i)) is even (else the count is forced 0)."""
        return (self.point_count() * self.nu.colength + self.base.colength_sum()) % 2 == 0

    def cover_spec(self) -> CoverSpec:
        """The explicit profile list with the ν-repeats expanded."""
        return CoverSpec(
            self.base.h, self.base.d, self.base.profiles + (self.nu,) * self.point_count()
        )


def disconnected(spec: CoverSpec, cache: CharCache | None = None) -> Fraction:
    """Σ_λ (dim λ/d!)^{2−2h} ∏_i f_{θ^(i)}(λ), the disconnected cover count."""
    d, h = spec.d, spec.h
    total = Fraction(0)
    fact = factorial(d)
    for lam in partitions_of(d):
        term = Fraction(dimension(lam), fact) ** (2 - 2 * h)
        for theta in spec.profiles:
            term *= central_character(theta, lam, cache)
        total += term
    return total


# ---------------------------------------------------------------------------
# permutation-level oracles
# ---------------------------------------------------------------------------


class _Group:
    """Cached multiplication/conjugacy/orbit tables for one S(d)."""

    def __init__(self, d: int):
        self.d = d
        self.perms = list(permutations(range(d)))
        self.index = {p: i for i, p in enumerate(self.perms)}
        self.order = len(self.perms)
        self.identity = self.index[tuple(range(d))]
        n = self.order
        mult = np.empty((n, n), dtype=np.int32)
        for i, p in enumerate(self.perms):
            for j, q in enumerate(self.perms):
                mult[i, j] = self.index[tuple(p[q[x]] for x in range(d))]
        self.mult = mult
        inv = np.empty(n, dtype=np.int32)
        for i, p in enumerate(self.perms):
            q = [0] * d
            for x, px in enumerate(p):
                q[px] = x
            inv[i] = self.index[tuple(q)]
        self.inv = inv
        self._partitions: list[tuple[tuple[int, ...], ...]] | None = None
        self._join: np.ndarray | None = None
        self._orbit_of_perm: np.ndarray | None = None

    def class_indices(self, mu: Partition) -> np.ndarray:
        target = mu.parts
        out = [i for i, p in enumerate(self.perms) if _cycle_type(p) == target]
        return np.array(out, dtype=np.int32)

    # -- set partitions of the sheet set, for transitivity tracking --------

    def _ensure_partitions(self) -> None:
        if self._partitions is not None:
            return
        parts = _set_partitions(self.d)
        self._partitions = parts
        index = {p: i for i, p in enumerate(parts)}
        b = len(parts)
        join = np.empty((b, b), dtype=np.int32)
        for i, p in enumerate(parts):
            for j, q in enumerate(parts):
                join[i, j] = index[_join_partitions(self.d, p, q)]
        self._join = join
        orb = np.empty(self.order, dtype=np.int32)
        for i, perm in enumerate(self.perms):
            orb[i] = index[_cycle_partition(perm)]
        self._orbit_of_perm = orb

    @property
    def partitions(self):
        self._ensure_partitions()
        return self._partitions

    @property
    def join(self) -> np.ndarray:
        self._ensure_partitions()
        return self._join

    @property
    def orbit_of_perm(self) -> np.ndarray:
        self._ensure_partitions()
        return self._orbit_of_perm

    @property
    def full_partition_index(self) -> int:
        self._ensure_partitions()
        return self._partitions.index((tuple(range(self.d)),))

    @property
    def discrete_partition_index(self) -> int:
        self._ensure_partitions()
        return self._partitions.index(tuple((x,) for x in range(self.d)))


def _cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lens = []
    for x in range(len(perm)):
        if seen[x]:
            continue
        c, y = 0, x
        while not seen[y]:
            seen[y] = True
            y = perm[y]
            c += 1
        lens.append(c)
    return tuple(sorted(lens, reverse=True))


def _cycle_partition(perm: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    seen = [False] * len(perm)
    blocks = []
    for x in range(len(perm)):
        if seen[x]:
            continue
        block, y = [], x
        while not seen[y]:
            seen[y] = True
            block.append(y)
            y = perm[y]
        blocks.append(tuple(sorted(block)))
    return tuple(sorted(blocks))


def _set_partitions(d: int) -> list[tuple[tuple[int, ...], ...]]:
    if d == 0:
        return [()]
    out = []

    def go(x: int, blocks: list[list[int]]):
        if x == d:
            out.append(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(x)
            go(x + 1, blocks)
            b.pop()
        blocks.append([x])
        go(x + 1, blocks)
        blocks.pop()

    go(0, [])
    return sorted(out)


def _join_partitions(d, p, q) -> tuple[tuple[int, ...], ...]:
    parent = list(range(d))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for blocks in (p, q):
        for block in blocks:
            r = find(block[0])
            for x in block[1:]:
                parent[find(x)] = r
    groups: dict[int, list[int]] = {}
    for x in range(d):
        groups.setdefault(find(x), []).append(x)
    return tuple(sorted(tuple(b) for b in groups.values()))


@lru_cache(maxsize=4)
def _group(d: int) -> _Group:
    return _Group(d)


def _check_bf_pre(spec: CoverSpec, budget: int, track_orbits: bool) -> _Group:
    if spec.d > _BF_MAX_DEGREE:
        raise BudgetError(f"brute force supports d ≤ {_BF_MAX_DEGREE}, got {spec.d}")
    if spec.h > 1:
        raise BudgetError(f"brute force supports h ≤ 1, got {spec.h}")
    g = _group(spec.d)
    bell = len(_set_partitions(spec.d)) if track_orbits else 1
    ops = (g.order**2 if spec.h else 0)
    ops += g.order * bell * sum(
        factorial(spec.d) // p.centralizer_order() for p in spec.profiles
    )
    if ops > budget:
        raise BudgetError(f"estimated {ops} operations exceed the budget {budget}")
    return g


def _dtype_for(spec: CoverSpec, g: _Group):
    bound = g.order ** (2 * spec.h + len(spec.profiles))
    return np.int64 if bound < 2**62 else object


def brute_force_disconnected(spec: CoverSpec, budget: int = DEFAULT_BF_BUDGET) -> Fraction:
    """(1/d!) · #{(α_1,β_1,…,α_h,β_h,σ_1,…,σ_n) with ∏[α,β]·∏σ = identity}."""
    g = _check_bf_pre(spec, budget, track_orbits=False)
    dtype = _dtype_for(spec, g)
    dist = np.zeros(g.order, dtype=dtype)
    if spec.h == 0:
        dist[g.identity] = 1
    else:
        a = np.arange(g.order)
        x = g.mult[a[:, None], a[None, :]]
        x = g.mult[x, g.inv[a][:, None]]
        x = g.mult[x, g.inv[a][None, :]]
        counts = np.bincount(x.ravel(), minlength=g.order)
        dist += counts.astype(dtype, copy=False)
    for theta in spec.profiles:
        new = np.zeros_like(dist)
        for c in g.class_indices(theta):
            np.add.at(new, g.mult[:, c], dist)
        dist = new
    return Fraction(int(dist[g.identity]), factorial(spec.d))


def brute_force_connected(spec: CoverSpec, budget: int = DEFAULT_BF_BUDGET) -> Fraction:
    """As brute_force_disconnected, restricted to tuples whose entries
    generate a transitive subgroup (the joined orbit partition is tracked
    through the count)."""
    g = _check_bf_pre(spec, budget, track_orbits=True)
    dtype = _dtype_for(spec, g)
    nparts = len(g.partitions)
    dist = np.zeros((g.order, nparts), dtype=dtype)
    if spec.h == 0:
        dist[g.identity, g.discrete_partition_index] = 1
    else:
        a = np.arange(g.order)
        x = g.mult[a[:, None], a[None, :]]
        x = g.mult[x, g.inv[a][:, None]]
        x = g.mult[x, g.inv[a][None, :]]
        pj = g.join[g.orbit_of_perm[a][:, None], g.orbit_of_perm[a][None, :]]
        flat = np.bincount(
            (x.astype(np.int64) * nparts + pj).ravel(), minlength=g.order * nparts
        )
        dist += flat.reshape(g.order, nparts).astype(dtype, copy=False)
    rows = np.arange(g.order)
    for theta in spec.profiles:
        new = np.zeros_like(dist)
        for c in g.class_indices(theta):
            target_rows = g.mult[:, c]
            target_cols = g.join[:, g.orbit_of_perm[c]]
            np.add.at(new, (target_rows[:, None], target_cols[None, :]), dist)
        dist = new
    return Fraction(int(dist[g.identity, g.full_partition_index]), factorial(spec.d))


# ---------------------------------------------------------------------------
# connected Hurwitz numbers via the component-of-sheet-1 recursion
# ---------------------------------------------------------------------------


def _sub_multisets(parts: tuple[int, ...]) -> list[tuple[int, ...]]:
    values = sorted(set(parts), reverse=True)
    out: list[tuple[int, ...]] = [()]
    for v in values:
        m = parts.count(v)
        out = [s + (v,) * take for s in out for take in range(m + 1)]
    return sorted({tuple(sorted(s, reverse=True)) for s in out}, reverse=True)


class NuSplitAlgebra:
    """How a single repeated profile ν distributes over cover components.

    When a cover splits, every ν-point hands each component a sub-multiset of
    ν's non-unit parts, and unit parts pad each component up to its degree.
    The possible hand-offs are indexed here once per ν: `types` lists the
    sub-multisets, `choices[a]` the (taken, left-behind) index pairs of a
    two-way split, and `point_profile` rebuilds the actual partition a point
    shows to a component of a given degree.
    """

    def __init__(self, nu: Partition):
        big = tuple(v for v in nu.parts if v >= 2)
        self.types = _sub_multisets(big)
        self.tindex = {t: i for i, t in enumerate(self.types)}
        self.tsum = [sum(t) for t in self.types]
        self.full = self.tindex[big]
        self.choices: list[list[tuple[int, int]]] = []
        for a in self.types:
            opts = []
            for b in _sub_multisets(a):
                rest = list(a)
                for v in b:
                    rest.remove(v)
                opts.append((self.tindex[b], self.tindex[tuple(rest)]))
            self.choices.append(opts)

    def point_profile(self, tidx: int, delta: int) -> tuple[int, ...]:
        """The partition of delta a point of the given type imposes."""
        return self.types[tidx] + (1,) * (delta - self.tsum[tidx])


def mu_splits(delta1: int, omegas: tuple):
    """Yield (omegas1, omegas2) over exact multiset splits of each fixed profile,
    the first of each pair partitioning delta1."""

    def go(i: int, acc1: list, acc2: list):
        if i == len(omegas):
            yield tuple(acc1), tuple(acc2)
            return
        for w1, w2 in splits(Partition(omegas[i]), delta1):
            acc1.append(w1.parts)
            acc2.append(w2.parts)
            yield from go(i + 1, acc1, acc2)
            acc1.pop()
            acc2.pop()

    yield from go(0, [], [])


class ConnectedComputer:
    """Connected Hurwitz numbers for one (h, d, μ's, ν) family, any repeat count.

    Counts transitive monodromy tuples by peeling the component that contains
    sheet 1.  Because all ν-points carry the same profile, a component's state
    only needs the multiset of per-point sub-profiles, encoded as counts over
    the sub-multisets of ν's non-unit parts (unit parts pad every component to
    its degree).  Memos persist across repeat counts, so sampling many k
    against one family is cheap.

    All arithmetic is on integers: a δ-sheet piece sums the per-irreducible
    weights dim λ²·(δ!/dim λ)^{2h}, which are integers because dim λ divides
    δ!, and are δ!² times the (dim λ/δ!)^{2−2h} of the character sum.
    """

    def __init__(self, h: int, d: int, mus: tuple[Partition, ...], nu: Partition,
                 cache: CharCache | None = None):
        self.h = h
        self.d = d
        self.mus = tuple(mus)
        self.nu = nu
        self.cache = cache
        self.algebra = NuSplitAlgebra(nu)
        self.types = self.algebra.types
        self.tsum = self.algebra.tsum
        self.choices = self.algebra.choices
        self._fvals: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        self._weights: dict[int, list[tuple[Partition, int]]] = {}
        self._memo_t: dict = {}
        self._memo_tc: dict = {}

    def f(self, profile: tuple[int, ...], lam: Partition) -> int:
        """Memoized central character of the class with the given parts on λ."""
        key = (profile, lam.parts)
        hit = self._fvals.get(key)
        if hit is None:
            hit = central_character(Partition(profile), lam, self.cache)
            self._fvals[key] = hit
        return hit

    def weights(self, delta: int) -> list[tuple[Partition, int]]:
        """(λ, dim λ²·(δ!/dim λ)^{2h}) over all λ ⊢ δ."""
        hit = self._weights.get(delta)
        if hit is None:
            fact = factorial(delta)
            hit = []
            for lam in partitions_of(delta):
                dim = dimension(lam)
                hit.append((lam, dim * dim * (fact // dim) ** (2 * self.h)))
            self._weights[delta] = hit
        return hit

    def _tuples_all(self, delta: int, counts: tuple[int, ...], omegas: tuple) -> int:
        """δ!·(disconnected count) for a δ-sheet piece with the given points."""
        key = (delta, counts, omegas)
        hit = self._memo_t.get(key)
        if hit is not None:
            return hit
        total = 0
        for lam, term in self.weights(delta):
            for om in omegas:
                term *= self.f(om, lam)
            for tidx, n in enumerate(counts):
                if n:
                    term *= self.f(self.algebra.point_profile(tidx, delta), lam) ** n
            total += term
        value, rem = divmod(total, factorial(delta))
        if rem:
            raise ArithmeticError("tuple count came out non-integral (bug)")
        self._memo_t[key] = value
        return value

    def _point_splits(self, delta1: int, delta2: int, counts: tuple[int, ...]):
        """Yield (counts1, counts2, ways) over per-point sub-profile choices."""
        active = [(t, n) for t, n in enumerate(counts) if n]

        def go(i: int, c1: list[int], c2: list[int], ways: int):
            if i == len(active):
                yield tuple(c1), tuple(c2), ways
                return
            tidx, n = active[i]
            valid = [
                (b, rest)
                for b, rest in self.choices[tidx]
                if self.tsum[b] <= delta1 and self.tsum[rest] <= delta2
            ]
            if not valid:
                return

            def distribute(j: int, remaining: int, w: int):
                if j == len(valid) - 1:
                    b, rest = valid[j]
                    c1[b] += remaining
                    c2[rest] += remaining
                    yield from go(i + 1, c1, c2, ways * w)
                    c1[b] -= remaining
                    c2[rest] -= remaining
                    return
                b, rest = valid[j]
                for take in range(remaining + 1):
                    c1[b] += take
                    c2[rest] += take
                    yield from distribute(j + 1, remaining - take, w * comb(remaining, take))
                    c1[b] -= take
                    c2[rest] -= take

            yield from distribute(0, n, 1)

        zero = [0] * len(self.types)
        yield from go(0, list(zero), list(zero), 1)

    def _tuples_transitive(self, delta: int, counts: tuple[int, ...], omegas: tuple) -> int:
        key = (delta, counts, omegas)
        hit = self._memo_tc.get(key)
        if hit is not None:
            return hit
        value = self._tuples_all(delta, counts, omegas)
        for delta1 in range(1, delta):
            delta2 = delta - delta1
            sheet_ways = comb(delta - 1, delta1 - 1)
            for om1, om2 in mu_splits(delta1, omegas):
                for c1, c2, ways in self._point_splits(delta1, delta2, counts):
                    t_first = self._tuples_transitive(delta1, c1, om1)
                    if not t_first:
                        continue
                    t_rest = self._tuples_all(delta2, c2, om2)
                    value -= sheet_ways * ways * t_first * t_rest
        self._memo_tc[key] = value
        return value

    def value(self, k: int) -> Fraction:
        """The connected Hurwitz number with k ν-points."""
        counts = [0] * len(self.types)
        counts[self.algebra.full] = k
        omegas = tuple(m.parts for m in self.mus)
        count = self._tuples_transitive(self.d, tuple(counts), omegas)
        return Fraction(count, factorial(self.d))


def connected(spec: RepeatedSpec, cache: CharCache | None = None) -> Fraction:
    """Connected Hurwitz number of the repeated-profile family.

    Returns 0 straight away on parity violation (odd total colength); raises
    GenusError when a supplied genus admits no integer repeat count.
    """
    k = spec.point_count()
    if not spec.parity_ok():
        return Fraction(0)
    computer = ConnectedComputer(spec.base.h, spec.base.d, spec.base.profiles, spec.nu, cache)
    return computer.value(k)
