"""Hurwitz numbers of an arbitrary-genus target surface, exactly.

Disconnected counts come from the character (Burnside) sum; connected
counts from the degree-convolution recursion that peels off the component
containing sheet 1, with repeated branch points aggregated by the multiset
of per-point sub-profiles.  Independent permutation-level oracles count
monodromy tuples directly, using no characters: a distribution over
(partial product, joined orbit partition) advances one branch point at a
time by row gathers through numpy multiplication tables, after its orbit
columns are folded onto their joins once per orbit partition of the point's
class; the transitive count is the mass on the full partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb, factorial

import numpy as np

from .characters import CharCache, central_character
from .errors import BudgetError, ExactnessError, GenusError, SizeMismatchError
from .partitions import Partition, dimension, partitions_of, splits

#: elementary-operation budget for the permutation-level oracles
DEFAULT_BF_BUDGET = 300_000_000
_BF_MAX_DEGREE = 6
#: rows per sorted copy in the orbit fold: all of S(5), and at d = 6 a copy
#: of a sixth of the state in place of a whole one
_FOLD_ROWS = 120


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


@lru_cache(maxsize=None)
def weights(h: int, delta: int) -> tuple[tuple[Partition, int], ...]:
    """(λ, dim λ²·(δ!/dim λ)^{2h}) over all λ ⊢ δ.

    These are δ!² times the (dim λ/δ!)^{2−2h} of the character sum, and
    integers because dim λ divides δ!.
    """
    fact = factorial(delta)
    out = []
    for lam in partitions_of(delta):
        dim = dimension(lam)
        out.append((lam, dim * dim * (fact // dim) ** (2 * h)))
    return tuple(out)


def disconnected(spec: CoverSpec, cache: CharCache | None = None) -> Fraction:
    """Σ_λ (dim λ/d!)^{2−2h} ∏_i f_{θ^(i)}(λ), the disconnected cover count."""
    total = 0
    for lam, term in weights(spec.h, spec.d):
        for theta in spec.profiles:
            term *= central_character(theta, lam, cache)
        total += term
    return Fraction(total, factorial(spec.d) ** 2)


# ---------------------------------------------------------------------------
# permutation-level oracles
# ---------------------------------------------------------------------------


class _Group:
    """numpy tables for one S(d), built once per degree.

    Permutations are indexed in lexicographic order (the identity is 0);
    `mult[i, j]` indexes p_i∘p_j and `inv[i]` indexes p_i⁻¹.  A set partition
    of the d sheets is a row of `blocks`, whose entry x is the bit mask of
    x's block; partitions are ordered by their block minima, so the full
    partition comes first and the discrete one last.  `join[a, b]` indexes
    the finest partition coarser than both, `orbit_of_perm[i]` the cycle
    partition of p_i, and `classes` maps a cycle type to the sorted indices
    of its conjugacy class.
    """

    def __init__(self, d: int):
        self.d = d
        perms = np.array(list(permutations(range(d))))
        digits = d ** np.arange(d - 1, -1, -1)
        rank = _ranks(perms @ digits, d)
        self.order = n = len(perms)
        self.identity = 0
        # indices below 6! = 720 fit int16, which halves the d = 6 tables
        self.mult = np.empty((n, n), dtype=np.int16)
        for i, p in enumerate(perms):
            self.mult[i] = rank[p[perms] @ digits]
        self.inv = self.mult.argmin(axis=1).astype(np.int16)  # p_i∘p_j = identity = 0
        bit = (1 << np.arange(d)).astype(np.uint8)
        cycles = _closure(bit | bit[perms], d)
        # every set partition is the cycle partition of some permutation
        keys = _key(cycles, d)
        rank = _ranks(keys, d)
        self.orbit_of_perm = rank[keys]
        self.blocks = np.empty((self.orbit_of_perm.max() + 1, d), dtype=np.uint8)
        self.blocks[self.orbit_of_perm] = cycles
        self.join = np.array([rank[_key(_closure(row | self.blocks, d), d)] for row in self.blocks],
                             dtype=np.int16)
        self.full_partition_index = 0
        self.discrete_partition_index = len(self.blocks) - 1
        types = [tuple(sorted((bin(m).count("1") for m in set(row.tolist())), reverse=True))
                 for row in self.blocks]
        self.classes = {t: np.flatnonzero(np.array([u == t for u in types])[self.orbit_of_perm])
                        for t in set(types)}
        self._plans: dict[tuple[tuple[int, ...], bool], list] = {}

    def lattice(self, track_orbits: bool):
        """(join, orbit of each permutation, start and end column) of the
        tracked orbit partitions; one column when orbits are not tracked."""
        if track_orbits:
            return (self.join, self.orbit_of_perm,
                    self.discrete_partition_index, self.full_partition_index)
        return np.zeros((1, 1), dtype=np.int16), np.zeros(self.order, dtype=np.int16), 0, 0

    def plan(self, theta: Partition, track_orbits: bool) -> list:
        """The steps of one θ-point, one per orbit partition o in θ's class:
        the column order that sorts join[:, o], the run starts and joined
        columns of that sort, and the c⁻¹ of the class elements with orbit o."""
        key = (theta.parts, track_orbits)
        if key not in self._plans:
            join, orbit = self.lattice(track_orbits)[:2]
            cls = self.classes[theta.parts]
            steps = []
            for o in sorted(set(orbit[cls].tolist())):
                order = np.argsort(join[:, o], kind="stable")
                starts = np.flatnonzero(np.diff(join[order, o], prepend=-1))
                steps.append((order, starts, join[order[starts], o],
                              self.inv[cls[orbit[cls] == o]].tolist()))
            self._plans[key] = steps
        return self._plans[key]


def _closure(masks: np.ndarray, d: int) -> np.ndarray:
    """Close bit-mask rows (entry x: sheets x is joined to) under transitivity;
    each squaring doubles the path length covered, so log2(d)+1 suffice."""
    for _ in range(d.bit_length()):
        out = masks.copy()
        for y in range(d):
            out |= masks[..., y:y + 1] * ((masks >> y) & 1)
        masks = out
    return masks


def _key(masks: np.ndarray, d: int) -> np.ndarray:
    """Base-d code of each row's block minima: 0 for the full partition."""
    low = np.array([(m & -m).bit_length() - 1 for m in range(1 << d)])
    return low[masks] @ (d ** np.arange(d - 1, -1, -1))


def _ranks(keys: np.ndarray, d: int) -> np.ndarray:
    """A table from base-d codes below d^d to their rank among the keys."""
    present = np.zeros(d**d, dtype=bool)
    present[keys] = True
    rank = np.zeros(d**d, dtype=np.int16)
    rank[present] = np.arange(np.count_nonzero(present))
    return rank


@lru_cache(maxsize=None)
def _group(d: int) -> _Group:
    return _Group(d)


def _check_bf_pre(spec: CoverSpec, budget: int, track_orbits: bool) -> _Group:
    if spec.d > _BF_MAX_DEGREE:
        raise BudgetError(f"brute force supports d ≤ {_BF_MAX_DEGREE}, got {spec.d}")
    if spec.h > 1:
        raise BudgetError(f"brute force supports h ≤ 1, got {spec.h}")
    g = _group(spec.d)
    bell = len(g.blocks) if track_orbits else 1
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


def _count_tuples(spec: CoverSpec, budget: int, track_orbits: bool) -> Fraction:
    """(1/d!)·#tuples with product the identity, over a state (product, orbit
    partition).  A σ-point sends state (r, p) to (r∘σ, join(p, orbit σ));
    since r ↦ r∘σ is a bijection this is the gather new[s] += dist[s∘σ⁻¹],
    applied after folding dist's columns p ↦ join(p, orbit σ) once per orbit."""
    g = _check_bf_pre(spec, budget, track_orbits)
    join, orbit, start, end = g.lattice(track_orbits)
    nparts = len(join)
    dtype = _dtype_for(spec, g)
    if spec.h == 0:
        dist = np.zeros((g.order, nparts), dtype=dtype)
        dist[g.identity, start] = 1
    else:
        commutator = g.mult[g.mult[g.mult, g.inv[:, None]], g.inv]  # a·b·a⁻¹·b⁻¹
        cells = commutator.astype(np.int64) * nparts + join[orbit[:, None], orbit]
        counts = np.bincount(cells.ravel(), minlength=g.order * nparts)
        dist = counts.reshape(g.order, nparts).astype(dtype)
    for theta in spec.profiles:
        new = np.zeros_like(dist)
        for order, starts, cols, cinvs in g.plan(theta, track_orbits):
            folded = np.empty((g.order, len(cols)), dtype=dtype)
            for r in range(0, g.order, _FOLD_ROWS):
                rows = slice(r, r + _FOLD_ROWS)
                np.add.reduceat(dist[rows, order], starts, axis=1, out=folded[rows])
            acc = folded[g.mult[:, cinvs[0]]]
            for ci in cinvs[1:]:
                acc += folded[g.mult[:, ci]]
            new[:, cols] += acc
        dist = new
    return Fraction(int(dist[g.identity, end]), factorial(spec.d))


def brute_force_disconnected(spec: CoverSpec, budget: int = DEFAULT_BF_BUDGET) -> Fraction:
    """(1/d!) · #{(α_1,β_1,…,α_h,β_h,σ_1,…,σ_n) with ∏[α,β]·∏σ = identity},
    counted by gathering the distribution of partial products per σ-point."""
    return _count_tuples(spec, budget, track_orbits=False)


def brute_force_connected(spec: CoverSpec, budget: int = DEFAULT_BF_BUDGET) -> Fraction:
    """As brute_force_disconnected, restricted to tuples whose entries
    generate a transitive subgroup: the joined orbit partition is tracked
    through the count, folded once per orbit partition of each class."""
    return _count_tuples(spec, budget, track_orbits=True)


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
    two-way split, `fitting` keeps the pairs two given degrees can absorb,
    and `point_profile` rebuilds the actual partition a point shows to a
    component of a given degree.
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
        self._fitting: dict[tuple[int, int], list[list[tuple[int, int]]]] = {}

    def fitting(self, d1: int, d2: int) -> list[list[tuple[int, int]]]:
        """Per type, the (taken, left-behind) pairs whose non-unit parts fit
        in d1 and d2 sheets; empty where the type itself needs more."""
        hit = self._fitting.get((d1, d2))
        if hit is None:
            tsum = self.tsum
            hit = [[(b, rest) for b, rest in opts if tsum[b] <= d1 and tsum[rest] <= d2]
                   for opts in self.choices]
            self._fitting[(d1, d2)] = hit
        return hit

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

    All arithmetic is on integers: a δ-sheet piece sums the character-sum
    weights of `weights(h, δ)`.
    """

    def __init__(self, h: int, d: int, mus: tuple[Partition, ...], nu: Partition,
                 cache: CharCache | None = None):
        self.h = h
        self.d = d
        self.mus = tuple(mus)
        self.nu = nu
        self.cache = cache
        self.algebra = NuSplitAlgebra(nu)
        self._fvals: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
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

    def _tuples_all(self, delta: int, counts: tuple[int, ...], omegas: tuple) -> int:
        """δ!·(disconnected count) for a δ-sheet piece with the given points."""
        key = (delta, counts, omegas)
        hit = self._memo_t.get(key)
        if hit is not None:
            return hit
        total = 0
        for lam, term in weights(self.h, delta):
            for om in omegas:
                term *= self.f(om, lam)
            for tidx, n in enumerate(counts):
                if n:
                    term *= self.f(self.algebra.point_profile(tidx, delta), lam) ** n
            total += term
        value, rem = divmod(total, factorial(delta))
        if rem:
            raise ExactnessError("tuple count came out non-integral (bug)")
        self._memo_t[key] = value
        return value

    def _point_splits(self, delta1: int, delta2: int, counts: tuple[int, ...]):
        """Yield (counts1, counts2, ways) over per-point sub-profile choices."""
        active = [(t, n) for t, n in enumerate(counts) if n]
        fitting = self.algebra.fitting(delta1, delta2)

        def go(i: int, c1: list[int], c2: list[int], ways: int):
            if i == len(active):
                yield tuple(c1), tuple(c2), ways
                return
            tidx, n = active[i]
            valid = fitting[tidx]
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

        zero = [0] * len(self.algebra.types)
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
        counts = [0] * len(self.algebra.types)
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
