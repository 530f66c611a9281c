"""Hurwitz numbers of an arbitrary-genus target surface, exactly.

Disconnected counts come from the character (Burnside) sum; connected
counts from the degree-convolution recursion that peels off the component
containing sheet 1, with repeated branch points aggregated by the multiset
of per-point sub-profiles.  `ConnectedComputer` runs that recursion in two
forms: on counts at one repeat count, and on tables of eigenfunctions that
carry every repeat count at once.  The table form peels in one loop
(`_peeled`), which convolves a whole column of first pieces with each rest
entry at once: below degree d it fills `tc_table`, and at degree d (`peel`)
it reads only ν's eigenvalue.  `ConnectedComputer.fold` adds those pairs
to the character sum's, {t: coefficient} over ν's eigenvalues, which
`connected` sums as Σ c·t^k at any k and `structure` groups into b(m).  The count form
is left as the tables' held-out check, and asks for no first piece that
Riemann–Hurwitz leaves empty: a transitive δ₁-sheet piece of a genus-h
target has an even total colength of at least δ₁(2 − 2h) − 2.
Both forms carry only the hand-offs a ν-point can make: it fixes m₁(ν)
sheets, so a δ-sheet piece receives a type a only if δ − m₁(ν) ≤ |a| ≤ δ
(`NuSplitAlgebra.possible`), and a state with any other type reads 0.

Independent permutation-level oracles count monodromy tuples directly,
using no characters, in plain Python integers: a state (partial product r,
orbit partition p coarser than r's cycles) collapses to its conjugation
orbit, the sorted cycle types of r on the blocks of p, because every class
is closed under conjugation.  A distribution over orbits advances one
branch point at a time along transitions counted once per (orbit, class)
from one representative, over the class's members generated from its
cycle type (`_members`).  The count does not depend on the order of the
points, so the two largest classes are never enumerated: at h = 0 the
largest is the start, and the next is read off the end as the mass on
its one-block orbit.  Only the tracked h = 1 start walks S(d), so any
degree the budget admits is counted, h = 1 to d = 8.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import comb, factorial
from operator import add, mul

from .characters import CharCache, _checked, central_character, central_column
from .errors import BudgetError, ExactnessError, GenusError, SizeMismatchError
from .partitions import DEFAULT_BF_BUDGET, Partition, dimension, partitions_of, sub_multisets


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
    """Σ_λ (dim λ/d!)^{2−2h} ∏_i f_{θ^(i)}(λ), the disconnected cover count;
    each distinct profile's central column is read once per call, and its
    value at λ raised to the profile's multiplicity."""
    columns = [(central_column(theta.parts, cache), n) for theta, n in Counter(spec.profiles).items()]
    total = 0
    for lam, term in weights(spec.h, spec.d):
        for column, n in columns:
            term *= column.get(lam.parts, 0) ** n
        total += term
    return Fraction(total, factorial(spec.d) ** 2)


# ---------------------------------------------------------------------------
# permutation-level oracles
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _members(theta: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The permutations of cycle type θ, each once; σ is the tuple x ↦ σ(x).
    The least free sheet opens a cycle of each distinct remaining length in
    turn, closed through every arrangement of that many other free sheets."""
    perm = [0] * sum(theta)
    out = []

    def place(free: tuple[int, ...], lengths: tuple[int, ...]):
        if not free:
            out.append(tuple(perm))
            return
        x, rest = free[0], free[1:]
        for i, n in enumerate(lengths):
            if i and lengths[i - 1] == n:
                continue
            for others in permutations(rest, n - 1):
                y = x
                for z in others:
                    perm[y] = y = z
                perm[y] = x
                place(tuple(z for z in rest if z not in others), lengths[:i] + lengths[i + 1:])

    place(tuple(range(len(perm))), theta)
    return tuple(out)


@lru_cache(maxsize=None)
def _class_size(theta: tuple[int, ...]) -> int:
    """|class θ| = d!/z_θ."""
    return factorial(sum(theta)) // Partition(theta).centralizer_order()


def _join(blocks, s) -> list:
    """The finest partition coarser than both a partition of the sheets
    (blocks[x] names x's block) and the cycles of s, in the same form."""
    out = list(blocks)
    for x, y in enumerate(s):
        a, b = out[x], out[y]
        if a != b:
            out = [a if v == b else v for v in out]
    return out


def _orbit_key(r, blocks) -> tuple[tuple[int, ...], ...]:
    """The conjugation orbit of the state (r, p), p coarser than r's cycles:
    the sorted cycle types of r on the blocks of p."""
    types: dict = {}
    seen = [False] * len(r)
    for x, b in enumerate(blocks):
        if not seen[x]:
            seen[x] = True
            n, y = 1, r[x]
            while y != x:
                seen[y] = True
                y = r[y]
                n += 1
            if b in types:
                types[b].append(n)
            else:
                types[b] = [n]
    out = []
    for t in types.values():
        t.sort(reverse=True)
        out.append(tuple(t))
    out.sort()
    return tuple(out)


def _representative(key: tuple[tuple[int, ...], ...]) -> tuple[list[int], list[int]]:
    """A state (r, blocks) of the orbit: its blocks, and the cycles within
    each block, on consecutive sheets."""
    r: list[int] = []
    blocks: list[int] = []
    for cycle_type in key:
        blocks += [len(r)] * sum(cycle_type)
        for n in cycle_type:
            base = len(r)
            r += [base + (i + 1) % n for i in range(n)]
    return r, blocks


@lru_cache(maxsize=None)
def _transitions(key: tuple, theta: tuple[int, ...]) -> tuple[tuple[tuple, int], ...]:
    """(orbit, count) over σ in class θ of the state (r∘σ, join(p, cycles σ)),
    from one representative (r, p) of the orbit; by conjugation invariance
    every state of the orbit has the same counts."""
    r, blocks = _representative(key)
    joins = len(key) > 1  # one block stays one block
    out: dict = {}
    for s in _members(theta):
        new = _orbit_key([r[y] for y in s], _join(blocks, s) if joins else blocks)
        out[new] = out.get(new, 0) + 1
    return tuple(out.items())


@lru_cache(maxsize=None)
def _start(d: int, track_orbits: bool) -> tuple[tuple[tuple, int], ...]:
    """(orbit, count) of the handle's commutator [a,b] = a∘b∘a⁻¹∘b⁻¹ over
    all pairs (a, b), before the first point.  Tracked, the state carries
    the orbits of ⟨a,b⟩: a runs over class representatives weighted by
    class size, and b over S(d).  Untracked, only the type of
    [a,b] = a∘(b∘a∘b⁻¹)⁻¹ counts, and b∘a∘b⁻¹ meets each member m of a's
    class z_a times: the type of a⁻¹∘m, conjugate to the inverse of
    a∘m⁻¹, is counted |class|·z_a = d! times per member, d! steps in all."""
    fact = factorial(d)
    one_block = [0] * d
    out: dict = {}
    for theta in partitions_of(d):
        a = _representative((theta.parts,))[0]
        a_inv = [0] * d
        for x, y in enumerate(a):
            a_inv[y] = x
        if not track_orbits:
            for m in _members(theta.parts):
                key = _orbit_key([a_inv[y] for y in m], one_block)
                out[key] = out.get(key, 0) + fact
            continue
        a_blocks = _join(range(d), a)
        size = fact // theta.centralizer_order()
        c = [0] * d
        for b in permutations(range(d)):
            for x in range(d):
                c[b[x]] = a[b[a_inv[x]]]  # c = a∘b∘a⁻¹∘b⁻¹
            key = _orbit_key(c, _join(a_blocks, b))
            out[key] = out.get(key, 0) + size
    return tuple(out.items())


@lru_cache(maxsize=None)
def _coarsenings(sizes: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    """The multisets of block sizes that blocks of the given sizes can be
    merged into, each weakly decreasing."""
    if not sizes:
        return frozenset({()})
    out = set()
    for taken, left in sub_multisets(sizes[1:]):
        merged = sizes[0] + sum(taken)
        out.update(tuple(sorted(c + (merged,), reverse=True)) for c in _coarsenings(left))
    return frozenset(out)


@lru_cache(maxsize=None)
def _orbit_count(sizes: tuple[int, ...]) -> int:
    """Orbits of states whose blocks merge blocks of the given sizes:
    multisets of (block, cycle type on it) whose block sizes are one of
    their coarsenings.  From singletons, every orbit of states; from one
    block of d sheets, the cycle types of S(d)."""
    total = 0
    for coarse in _coarsenings(sizes):
        ways = 1
        for size, m in Counter(coarse).items():
            ways *= comb(len(partitions_of(size)) + m - 1, m)
        total += ways
    return total


def _advance(dist: dict, theta: tuple[int, ...]) -> dict:
    """The distribution after one θ-point: each orbit's mass moves along its
    transitions by θ."""
    new: dict = {}
    for key, n in dist.items():
        for target, m in _transitions(key, theta):
            new[target] = new.get(target, 0) + n * m
    return new


def _count_tuples(spec: CoverSpec, track_orbits: bool, nu: Partition | None = None,
                  k: int = 0) -> list[Fraction]:
    """(1/d!)·#tuples with product the identity, for the spec's profiles
    followed by j ν-points, at each j = 0..k, in one pass over a
    distribution on the conjugation orbits of states (partial product,
    orbit partition).

    A braid move swaps two neighbouring points and keeps both the product
    and the group the tuple generates, so the fixed profiles are taken in
    any order.  The largest class is never moved through: at h = 0 it is
    the start, one orbit (its cycles as blocks) of weight |class|.  Nor is
    the next largest (the largest at h = 1): read off the end, since r∘σ
    is the identity for one σ of class θ if r has type θ and for none
    otherwise, and σ = r⁻¹ joins no blocks, so the count is the mass on the
    one-block key (θ,).  Every other point moves the distribution along its
    class's transitions."""
    d, h = spec.d, spec.h
    if h > 1:
        raise BudgetError(f"brute force supports h ≤ 1, got {h}")
    # classes by size, ties broken by cycle type
    order = sorted((p.parts for p in spec.profiles), key=lambda t: (_class_size(t), t), reverse=True)
    identity = (1,) * d
    first = order.pop(0) if h == 0 and order else identity
    last = order.pop(0) if order else identity
    points = order + [nu.parts] * k if k else order
    # each enumerated class's transitions are counted once per orbit; each
    # point then moves every orbit's mass to at most min(|class|, orbits)
    # targets.  Blocks only merge, so the orbits are those over the start's
    # blocks: the first class's cycles, or the h = 1 start's singletons.
    # The h = 1 start is charged a walk of S(d) per class, as tracked:
    # untracked it walks S(d) once, but holds every member of S(d)
    if not track_orbits:
        orbits = _orbit_count((d,))
    else:
        orbits = _orbit_count(identity if h else first)
    ops = _orbit_count((d,)) * factorial(d) if h else 0
    for theta in set(points):
        size = _class_size(theta)
        ops += orbits * (size + points.count(theta) * min(size, orbits))
    if ops > DEFAULT_BF_BUDGET:
        raise BudgetError(f"estimated {ops} transitions exceed the budget {DEFAULT_BF_BUDGET}")
    if h:
        dist = dict(_start(d, track_orbits))
    else:
        key = tuple(sorted((n,) for n in first)) if track_orbits else (first,)
        dist = {key: _class_size(first)}
    for theta in order:
        dist = _advance(dist, theta)
    end, fact = (last,), factorial(d)
    counts = [Fraction(dist.get(end, 0), fact)]
    for _ in range(k):
        dist = _advance(dist, nu.parts)
        counts.append(Fraction(dist.get(end, 0), fact))
    return counts


def brute_force_disconnected(spec: CoverSpec) -> Fraction:
    """(1/d!) · #{(α_1,β_1,…,α_h,β_h,σ_1,…,σ_n) with ∏[α,β]·∏σ = identity},
    counted by advancing the distribution of partial products' cycle types
    one σ-point at a time; any d within the budget, h ≤ 1, and h = 1 to
    d = 8."""
    return _count_tuples(spec, track_orbits=False)[0]


def brute_force_connected(spec: CoverSpec) -> Fraction:
    """As brute_force_disconnected, restricted to tuples whose entries
    generate a transitive subgroup: the joined orbit partition is tracked
    through the count, and the state is the conjugation orbit of both."""
    return _count_tuples(spec, track_orbits=True)[0]


# ---------------------------------------------------------------------------
# connected Hurwitz numbers via the component-of-sheet-1 recursion
# ---------------------------------------------------------------------------


class NuSplitAlgebra:
    """How a single repeated profile ν distributes over cover components.

    When a cover splits, every ν-point hands each component a sub-multiset of
    ν's non-unit parts, and unit parts pad each component up to its degree.
    The possible hand-offs are indexed here once per ν, all read from
    `sub_multisets`: `types` lists the sub-multisets, `tsum` their sizes,
    `col` their colengths |a| − len(a) (the colength of the profile a point
    of type a shows a piece of any degree), `choices[a]` the
    (taken, left-behind) index pairs of a two-way split of type a,
    `fitting` keeps the pairs two given degrees can absorb, and
    `point_profile` rebuilds the actual partition a point shows to a
    component of a given degree.

    One rule says which hand-offs a cover can make (`possible`): a ν-point
    fixes exactly m₁(ν) sheets, and a point of type a fixes δ − |a| of a
    δ-sheet piece, so type a occurs on δ sheets only if
    δ − m₁(ν) ≤ |a| ≤ δ.  A state with a point of an impossible type is
    realized by no cover, and both forms of `ConnectedComputer` read 0 there.
    """

    def __init__(self, nu: Partition):
        big = tuple(v for v in nu.parts if v >= 2)
        self.types = [taken for taken, _ in sub_multisets(big)]
        self.tindex = {t: i for i, t in enumerate(self.types)}
        self.tsum = [sum(t) for t in self.types]
        self.col = [sum(t) - len(t) for t in self.types]
        self.units = nu.multiplicity(1)
        self.full = self.tindex[big]
        self.choices = [[(self.tindex[taken], self.tindex[rest]) for taken, rest in sub_multisets(a)]
                        for a in self.types]
        self._fitting: dict[tuple[int, int], list[list[tuple[int, int]]]] = {}

    def possible(self, tidx: int, delta: int) -> bool:
        """Whether a ν-point can hand the given type to a δ-sheet piece:
        δ − m₁(ν) ≤ |type| ≤ δ."""
        return delta - self.units <= self.tsum[tidx] <= delta

    def fitting(self, d1: int, d2: int) -> list[list[tuple[int, int]]]:
        """Per type, the (taken, left-behind) pairs whose non-unit parts fit
        in d1 and d2 sheets; empty where the type is impossible on d1 + d2
        sheets.  The pairs of a possible type are possible on their pieces:
        each piece fixes no more sheets than the two together."""
        hit = self._fitting.get((d1, d2))
        if hit is None:
            tsum = self.tsum
            hit = [[(b, rest) for b, rest in opts if tsum[b] <= d1 and tsum[rest] <= d2]
                   if self.possible(a, d1 + d2) else [] for a, opts in enumerate(self.choices)]
            self._fitting[(d1, d2)] = hit
        return hit

    def point_profile(self, tidx: int, delta: int) -> tuple[int, ...]:
        """The partition of delta a point of the given type imposes."""
        return self.types[tidx] + (1,) * (delta - self.tsum[tidx])


@lru_cache(maxsize=None)
def mu_splits(delta1: int, omegas: tuple) -> tuple[tuple[tuple, tuple], ...]:
    """(omegas1, omegas2) over exact multiset splits of each fixed profile,
    the first of each pair partitioning delta1."""
    per_profile = [[pair for pair in sub_multisets(om) if sum(pair[0]) == delta1] for om in omegas]
    return tuple((tuple(w1 for w1, _ in pairs), tuple(w2 for _, w2 in pairs))
                 for pairs in product(*per_profile))


@lru_cache(maxsize=None)
def _placements(n: int, slots: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(takes, n!/∏ takes!) over the ways to place n labelled points in the
    given number of slots, takes[j] of them in slot j; none without slots."""
    if slots <= 1:
        return (((n,), 1),) if slots else ()
    out = []
    ways = 1  # comb(n, take), stepped along take
    for take in range(n + 1):
        out += [((take,) + rest, ways * w) for rest, w in _placements(n - take, slots - 1)]
        ways = ways * (n - take) // (take + 1)
    return tuple(out)


class ConnectedComputer:
    """Connected Hurwitz numbers for one (h, d, μ's, ν) family, in two forms.

    Both forms count transitive monodromy tuples by peeling the component
    that contains sheet 1.  Because all ν-points carry the same profile, a
    component's state only needs the multiset of per-point sub-profiles,
    encoded as counts over the sub-multisets of ν's non-unit parts (unit
    parts pad every component to its degree).

    The count form (`value`) runs the recursion at one repeat count, its
    states growing with k; it is `structure._extract`'s held-out check on
    each connected table, and `connected` does not call it.  Its memos
    persist across repeat counts.  It skips the first pieces that
    Riemann–Hurwitz empties: a transitive δ₁-sheet piece with fixed
    profiles ω₁ needs its points to bring a colength of at least
    δ₁(2 − 2h) − 2 − Σ l*(ω₁), of that floor's parity (`_point_splits`),
    and any other piece counts 0.  Only first pieces are skipped, never the
    state asked for, so `value` computes even a count that the formula
    makes 0.

    The table form (`t_table`, `tc_table`, `peel`) carries the whole
    k-dependence symbolically; `fold` reads it for every connected count
    and table.  A piece of degree δ contributes, per
    ν-point, a factor depending only on the hand-off type the point gives
    that piece; the vector of those factors over all types is the piece's
    eigenfunction (`eig`), and a table maps eigenfunctions to exact
    coefficients.  One loop (`_peeled`) convolves sheet 1's component with
    the rest over the hand-off splits, at the types asked for: all of them
    in `tc_table`, and at degree d only the full type, ν's own eigenvalue,
    in `peel`.  So `t_table` and `tc_table` build whole eigenfunctions only
    below the top (they still answer at degree d, for the tests).

    Both forms read every eigenvalue from the cache's central columns
    (`characters.central_column`); the per-point factors come from `eig`,
    one vector per (δ, λ) that both forms read, 0 on every type
    impossible on δ sheets.  So eigenfunctions that differ only there are
    one, and the tables below degree d keep no entry a cover cannot read.
    The count form raises the active entries of each (`eig`, term) pair of
    the ungrouped character sum (`_character_sum`), which `t_table` groups.

    All arithmetic is on integers: a δ-sheet piece sums the character-sum
    weights of `weights(h, δ)`, δ!² times (dim λ/δ!)^{2−2h}.  The count form
    divides by δ! once per piece; the table form keeps the factor, which
    puts an extra binomial comb(δ, δ₁) on each convolution term and leaves
    one division for the fold into b(m).  `value` reads no table, so the
    two forms stay independent checks of each other.
    """

    def __init__(self, h: int, d: int, mus: tuple[Partition, ...], nu: Partition,
                 cache: CharCache | None = None):
        self.h = h
        self.d = d
        self.mus = tuple(mus)
        self.nu = nu
        self.cache = cache
        self.algebra = NuSplitAlgebra(nu)
        self._memo_t: dict = {}
        self._memo_tc: dict = {}
        self._sums: dict[tuple[int, tuple], list[tuple[tuple[int, ...], int]]] = {}
        self._columns: dict[int, list[dict]] = {}
        self._t: dict = {}
        self._tc: dict = {}

    def terms(self, delta: int, omegas: tuple):
        """Yield (λ, weight·∏_ω f_ω(λ)) over λ ⊢ δ with a nonzero term: the
        character sum of a δ-sheet piece before any ν-point."""
        columns = [central_column(om, self.cache) for om in omegas]
        for lam, coeff in weights(self.h, delta):
            for column in columns:
                coeff *= column.get(lam.parts, 0)
            if coeff:
                yield lam, coeff

    def _character_sum(self, delta: int, omegas: tuple) -> list[tuple[tuple[int, ...], int]]:
        """(eig(δ, λ), term) over `terms(δ, omegas)`: the character sum of a
        δ-sheet piece, ungrouped, built once per (δ, omegas)."""
        key = (delta, omegas)
        hit = self._sums.get(key)
        if hit is None:
            hit = [(self.eig(delta, lam), term) for lam, term in self.terms(delta, omegas)]
            self._sums[key] = hit
        return hit

    def _tuples_all(self, delta: int, counts: tuple[int, ...], omegas: tuple) -> int:
        """δ!·(disconnected count) for a δ-sheet piece with the given points,
        summed over the ungrouped character sum; 0 if a point's type is
        impossible on δ sheets (`NuSplitAlgebra.possible`)."""
        key = (delta, counts, omegas)
        hit = self._memo_t.get(key)
        if hit is not None:
            return hit
        active = [(tidx, n) for tidx, n in enumerate(counts) if n]
        total = 0
        for e, term in self._character_sum(delta, omegas):
            for tidx, n in active:
                term *= e[tidx] ** n
            total += term
        value, rem = divmod(total, factorial(delta))
        if rem:
            raise ExactnessError("tuple count came out non-integral (bug)")
        self._memo_t[key] = value
        return value

    def _point_splits(self, delta1: int, delta2: int, counts: tuple[int, ...], floor: int):
        """Yield (counts1, counts2, ways) over per-point sub-profile choices
        that can leave a transitive first piece: each type's points are
        placed among the splits that fit, and ways counts the labelled
        placements.  Only choices whose points give the first piece a
        colength (`NuSplitAlgebra.col`) of at least floor, and of floor's
        parity, are yielded; none when no choice reaches the floor."""
        fitting = self.algebra.fitting(delta1, delta2)
        col = self.algebra.col
        active = []
        places = []
        reach = 0
        for t, n in enumerate(counts):
            if n:
                valid = fitting[t]
                if not valid:
                    return
                gain = [col[b] for b, _ in valid]  # colength each pair hands the first piece
                reach += n * max(gain)
                active.append(valid)
                places.append([(takes, w, sum(map(mul, takes, gain)))
                               for takes, w in _placements(n, len(valid))])
        if reach < floor:
            return
        for choice in product(*places):
            x = sum(c for _, _, c in choice)
            if x < floor or (x - floor) & 1:
                continue
            c1 = [0] * len(counts)
            c2 = [0] * len(counts)
            ways = 1
            for valid, (takes, w, _) in zip(active, choice):
                ways *= w
                for (b, rest), take in zip(valid, takes):
                    c1[b] += take
                    c2[rest] += take
            yield tuple(c1), tuple(c2), ways

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
                # Riemann–Hurwitz: a transitive δ₁-sheet piece has an even
                # total colength of at least δ₁(2 − 2h) − 2
                floor = delta1 * (2 - 2 * self.h) - 2 - sum(delta1 - len(w) for w in om1)
                for c1, c2, ways in self._point_splits(delta1, delta2, counts, floor):
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

    def eig(self, delta: int, lam: Partition) -> tuple[int, ...]:
        """λ's factor per ν-point of each hand-off type on a δ-sheet piece,
        read from δ's list of central columns; 0 for types impossible on δ
        sheets (`NuSplitAlgebra.possible`).  `_character_sum` keeps it."""
        columns = self._columns.get(delta)
        if columns is None:
            alg, cache = self.algebra, self.cache
            columns = [central_column(alg.point_profile(t, delta), cache)
                       if alg.possible(t, delta) else {} for t in range(len(alg.types))]
            self._columns[delta] = columns
        return tuple(column.get(lam.parts, 0) for column in columns)

    def t_table(self, delta: int, omegas: tuple) -> dict[tuple[int, ...], int]:
        """The character sum of a δ-sheet piece, grouped by eigenfunction."""
        key = (delta, omegas)
        hit = self._t.get(key)
        if hit is not None:
            return hit
        table: dict[tuple[int, ...], int] = {}
        for e, coeff in self._character_sum(delta, omegas):
            table[e] = table.get(e, 0) + coeff
        table = {e: c for e, c in table.items() if c}
        self._t[key] = table
        return table

    def tc_table(self, delta: int, omegas: tuple) -> dict[tuple[int, ...], int]:
        """As t_table, for transitive tuples only: sheet 1's component peeled off."""
        key = (delta, omegas)
        hit = self._tc.get(key)
        if hit is not None:
            return hit
        table = dict(self.t_table(delta, omegas))
        for e, c in self._peeled(delta, omegas, range(len(self.algebra.types))).items():
            table[e] = table.get(e, 0) + c
        table = {e: c for e, c in table.items() if c}
        self._tc[key] = table
        return table

    def fold(self, peeled: bool = True) -> dict[int, int]:
        """{t: coefficient} over ν's eigenvalues t, 0 included, such that
        Σ coefficient·t^k is d!² times the count with k ν-points, at every
        k ≥ 0 whose total colength is even (0**0 == 1 gives k = 0).

        It adds the character sum's terms (`terms`), each at t = f_ν(λ),
        and, when peeled (the connected count), the components peeled off
        sheet 1 (`peel`).  It depends on neither k nor its parity:
        `connected` keeps it on the cache per family, and
        `structure._extract` groups it by |t| into a table.
        """
        omegas = tuple(m.parts for m in self.mus)
        folded: dict[int, int] = {}
        for lam, coeff in self.terms(self.d, omegas):
            # one class-sum eigenvalue read per term, the layer crossing
            # that bench/workloads.py traces as characters.central
            t = central_character(self.nu, lam, self.cache)
            folded[t] = folded.get(t, 0) + coeff
        if peeled:
            for t, coeff in self.peel(omegas).items():
                folded[t] = folded.get(t, 0) + coeff
        return folded

    def peel(self, omegas: tuple) -> dict[int, int]:
        """{f_ν eigenvalue t: coefficient} of the components peeled off
        sheet 1 at degree d: `tc_table(d, omegas)` less `t_table(d, omegas)`
        read at the full hand-off type, without building either table."""
        peeled = self._peeled(self.d, omegas, (self.algebra.full,))
        return {t: c for t, c in peeled.items() if c}

    def _peeled(self, delta: int, omegas: tuple, types) -> dict:
        """{a convolution's entries at the listed types: coefficient} over the
        components peeled off sheet 1 of a δ-sheet piece: a transitive d1-sheet
        piece (`tc_table`) beside a d2-sheet rest (`t_table`), the entry at
        type a summing e1[b]·e2[rest] over a's pairs in `fitting(d1, d2)`.
        With one listed type the key is that entry itself, not a 1-tuple.

        Each rest entry e2 meets all of the first table's keys at once: a
        type's column is the elementwise sum, over its pairs with
        e2[rest] ≠ 0, of the first table's row b scaled by e2[rest], so a
        pair whose rest entry is 0 costs nothing."""
        out: dict[tuple[int, ...], int] = {}
        for d1 in range(1, delta):
            d2 = delta - d1
            ways = comb(delta - 1, d1 - 1) * comb(delta, d1)
            fitting = self.algebra.fitting(d1, d2)
            fit = [fitting[t] for t in types]
            for om1, om2 in mu_splits(d1, omegas):
                first = self.tc_table(d1, om1)
                if not first:
                    continue
                coeffs = [c * ways for c in first.values()]
                # row b: e1[b] down the first table's keys
                rows = list(zip(*first))
                zeros = [0] * len(coeffs)
                for e2, c2 in self.t_table(d2, om2).items():
                    columns = []
                    for pairs in fit:
                        column = zeros
                        for b, r in pairs:
                            x = e2[r]
                            if x:
                                part = rows[b] if x == 1 else [v * x for v in rows[b]]
                                column = part if column is zeros else list(map(add, column, part))
                        columns.append(column)
                    keys = zip(*columns) if len(columns) > 1 else columns[0]
                    for e, c1 in zip(keys, coeffs):
                        out[e] = out.get(e, 0) - c1 * c2
        return out


def connected(spec: RepeatedSpec, cache: CharCache | None = None) -> Fraction:
    """Connected Hurwitz number of the repeated-profile family: Σ c·t^k/d!²
    over the family's `ConnectedComputer.fold`, built once per (h, μ's, ν)
    and kept on the cache as a tuple of its nonzero pairs, so every k, from
    0 to a large genus's, then costs one power per eigenvalue.

    Returns 0 straight away on parity violation (odd total colength); raises
    GenusError when a supplied genus admits no integer repeat count.
    """
    k = spec.point_count()
    if not spec.parity_ok():
        return Fraction(0)
    h, d, mus = spec.base.h, spec.base.d, spec.base.profiles
    key = (h, tuple(m.parts for m in mus), spec.nu.parts)
    memo = _checked(d, cache)._folds
    fold = memo.get(key)
    if fold is None:
        folded = ConnectedComputer(h, d, mus, spec.nu, cache).fold()
        fold = memo[key] = tuple((t, c) for t, c in folded.items() if c)
    return Fraction(sum(c * t**k for t, c in fold), factorial(d) ** 2)
