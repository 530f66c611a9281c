"""Independent routes to b(m) tables, kept as test oracles.

The sampling-and-solve route recovers a connected table from values of the
count-level recursion alone: sample the connected sequence at as many
exponents of the table's parity as there are candidate moduli, then solve
the exact Vandermonde-type moment system.  The values come from
ConnectedComputer.value, not from the library's eigenvalue-table recursion,
so the two routes cross-check each other; the candidate support reuses only
`ConnectedComputer.eig` and `NuSplitAlgebra.fitting`, and convolves whole
eigenfunctions here (`convolve`), sharing no convolution code with the
library's peeling loop.

The spectrum fold builds a disconnected table straight from the signed
central-character eigenvalues and the character ratios, in Fractions, so it
shares neither the weights nor the table fold of the library route.

The entry recursion evaluates χ_λ(μ) one value at a time: it strips μ's
parts, largest first, as border strips from λ's beta-set, memoized on
(beta-set mask, μ-suffix).  The library reads χ only from whole columns
built the other way round (adding μ's parts to the empty diagram, smallest
first), so the two share no code and each checks the other.  The strips the
columns add, each with its sign, are checked on their own against
`border_strips`, which finds them in the diagrams box by box, with no beads.

The Fraction scan is the ratio sweeps' λ-scan with every comparison made on
Fractions, one pair at a time, against which the library's integer
cross-multiplication is checked.  It reads χ by the entry recursion, while
the sweeps read it from character_ratio's columns.

The diagram helpers (the induced row/column graph on chosen boxes, the
row-unfolding map into the hook, and the hook it targets) are the tree
definitions written out box by box; the library's tree enumeration builds
edges from its own line runs, and the tests check it against these.

The diagonal-hook forms give the central character of the classes (2,1^{d−2}),
(3,1^{d−3}) and (4,1^{d−4}) as polynomials in the arms and legs of λ's
diagonal hooks.  The library reads every hook class from Frobenius's formula
in λ's beta-numbers instead, so the forms check it at r = 2, 3, 4.

Four classical closed forms give connected counts on a genus-0 target with
no character and no peeling, in the library's normalization (transitive
tuples / d!): Hurwitz's genus-0 and Vakil's genus-1 one-profile counts with
simple branch points (proved by Goulden and Jackson, Proc. AMS 125, 1997,
and Ann. Comb. 3, 1999), Shapiro, Shapiro and Vainshtein's count for the
one-part profile (d) at every source genus (AMS Transl. 180, 1997), and the
d^{k−1} minimal factorizations of a d-cycle into k r-cycles (Goulden and
Jackson, Europ. J. Combin. 13, 1992; Dénes 1959 for r = 2).  Past brute
force's reach they are the only checks of the connected tables that share
nothing with the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from typing import Iterable

from snhurwitz.characters import CharCache, central_character, character_ratio
from snhurwitz.errors import ExactnessError, SizeMismatchError, SupportError
from snhurwitz.hurwitz import ConnectedComputer
from snhurwitz.partitions import Partition, dimension, partitions_of
from snhurwitz.structure import _check_nu, _prefactor, _resolve_parity, _sample_exponents
from snhurwitz.young_trees import Box, _runs


_ENTRY_MEMO: dict[tuple[int, tuple[int, ...]], int] = {}


def _beta_mask(parts: tuple[int, ...]) -> int:
    """λ's beta-set without zero parts: bit λ_i + n − i for each of its n parts."""
    n = len(parts)
    return sum(1 << (part + n - 1 - i) for i, part in enumerate(parts))


def _entry(mask: int, mu: tuple[int, ...], memo: dict) -> int:
    if not mu:
        return 1
    key = (mask, mu)
    hit = memo.get(key)
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
        if new & 1:  # shift out the low run of ones (zero parts): one mask per λ
            new >>= (~new & (new + 1)).bit_length() - 1
        term = _entry(new, rest, memo)
        total += -term if ((mask >> (p - r + 1)) & between).bit_count() & 1 else term
    memo[key] = total
    return total


def chi_entries(lam: Partition, mu: Partition, memo: dict | None = None) -> int:
    """χ_λ(μ) by the entry recursion: a border strip of length r is a set bit
    p whose bit p − r is clear; removing it flips the two bits, with the sign
    of the set bits strictly between.  memo defaults to _ENTRY_MEMO."""
    if lam.size != mu.size:
        raise SizeMismatchError(f"|λ|={lam.size} but |μ|={mu.size}")
    return _entry(_beta_mask(lam.parts), mu.parts, _ENTRY_MEMO if memo is None else memo)


def border_strips(lam: Partition, r: int) -> dict[Partition, int]:
    """{ν: (−1)^{rows(ν/λ) − 1}} over the ν ⊇ λ with |ν/λ| = r whose skew
    diagram ν/λ is connected (boxes joined across shared edges) and holds no
    2×2 square, tested box by box on every ν ⊢ |λ| + r."""
    out = {}
    for nu in partitions_of(lam.size + r):
        if any(nu.part(i) < lam.part(i) for i in range(1, lam.length + 1)):
            continue
        skew = {(i, j) for i in range(1, nu.length + 1) for j in range(lam.part(i) + 1, nu.part(i) + 1)}
        if any({(i + 1, j), (i, j + 1), (i + 1, j + 1)} <= skew for i, j in skew):
            continue
        seen, todo = set(), [min(skew)]
        while todo:
            i, j = todo.pop()
            if (i, j) in skew and (i, j) not in seen:
                seen.add((i, j))
                todo += [(i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)]
        if seen == skew:
            out[nu] = (-1) ** (len({i for i, _ in skew}) - 1)
    return out


@dataclass(frozen=True)
class Spectrum:
    """Signed central-character eigenvalues t_λ of one class ν on all λ ⊢ d."""

    d: int
    nu: Partition
    entries: tuple[tuple[Partition, int], ...]

    @property
    def m_max(self) -> int:
        return max(abs(t) for _, t in self.entries)

    def moduli(self) -> list[int]:
        """Distinct nonzero |t| in decreasing order."""
        return sorted({abs(t) for _, t in self.entries if t}, reverse=True)


def spectrum(d: int, nu: Partition, cache: CharCache | None = None) -> Spectrum:
    _check_nu(d, nu)
    entries = tuple((lam, central_character(nu, lam, cache)) for lam in partitions_of(d))
    return Spectrum(d, nu, entries)


def convolve(fit: list[list[tuple[int, int]]], e1: tuple[int, ...],
             e2: tuple[int, ...]) -> tuple[int, ...]:
    """The eigenfunction of a d1-sheet and a d2-sheet piece together, for
    the hand-off pairs fit = `NuSplitAlgebra.fitting(d1, d2)`."""
    return tuple(sum(e1[b] * e2[rest] for b, rest in pairs) for pairs in fit)


_CANDIDATE_MEMO: dict[tuple[int, tuple[int, ...]], list[int]] = {}


def candidate_moduli(d: int, nu: Partition, cache: CharCache | None = None) -> list[int]:
    """All moduli that can support the connected table: absolute eigenvalues
    of every way of carving d sheets into components with irreducibles on
    each, convolved over the per-point hand-off choices."""
    memo_key = (d, nu.parts)
    hit = _CANDIDATE_MEMO.get(memo_key)
    if hit is not None:
        return list(hit)
    helper = ConnectedComputer(0, d, (), nu, cache)
    memo: dict[int, set[tuple[int, ...]]] = {}

    def products(delta: int) -> set[tuple[int, ...]]:
        hit = memo.get(delta)
        if hit is not None:
            return hit
        out = {helper.eig(delta, lam) for lam in partitions_of(delta)}
        for d1 in range(1, delta):
            singles = [helper.eig(d1, lam) for lam in partitions_of(d1)]
            fit = helper.algebra.fitting(d1, delta - d1)
            for e2 in products(delta - d1):
                for e1 in singles:
                    out.add(convolve(fit, e1, e2))
        memo[delta] = out
        return out

    full = helper.algebra.full
    out = sorted({abs(e[full]) for e in products(d) if e[full]}, reverse=True)
    _CANDIDATE_MEMO[memo_key] = out
    return list(out)


def _solve_moment_system(moduli: list[int], q0: int, values: list[Fraction]) -> dict[int, Fraction]:
    """Solve Σ_m b_m·m^{q0+2i} = values[i] exactly via Lagrange coefficients.

    Substituting y_m = m² and c_m = b_m·m^{q0} turns the system into moments
    Σ c_m·y_m^i = v_i, whose inverse rows are the coefficient vectors of the
    Lagrange basis polynomials at the nodes y_m.
    """
    n = len(moduli)
    ys = [m * m for m in moduli]
    if len(set(ys)) != n:
        raise SupportError("repeated moduli make the moment system singular")
    # master polynomial ∏ (t − y_j)
    master = [1]
    for y in ys:
        new = [0] * (len(master) + 1)
        for i, a in enumerate(master):
            new[i] -= a * y
            new[i + 1] += a
        master = new
    out: dict[int, Fraction] = {}
    for m, y in zip(moduli, ys):
        # synthetic division master / (t − y); remainder is 0 by construction
        quot = [0] * n
        carry = master[n]
        for i in range(n - 1, -1, -1):
            quot[i] = carry
            carry = master[i] + carry * y
        denom = 1
        for y2 in ys:
            if y2 != y:
                denom *= y - y2
        c = sum(q * v for q, v in zip(quot, values)) / denom
        out[m] = c / m**q0
    return out


def solve_b_connected(
    h: int,
    d: int,
    mus: tuple[Partition, ...],
    nu: Partition,
    cache: CharCache | None = None,
    parity: int | None = None,
) -> dict[int, Fraction]:
    """Connected b(m) entries over the candidate support, from sampled values."""
    par, _ = _resolve_parity(nu, mus, parity)
    mus = tuple(mus)
    support = candidate_moduli(d, nu, cache)
    computer = ConnectedComputer(h, d, mus, nu, cache)
    prefac = _prefactor(h, d, mus)
    ks = _sample_exponents(par, len(support))
    values = [computer.value(k) / prefac for k in ks]
    entries = _solve_moment_system(support, ks[0], values)
    return {m: b for m, b in entries.items() if b}


def spectrum_b_disconnected(
    h: int,
    d: int,
    mus: tuple[Partition, ...],
    nu: Partition,
    cache: CharCache | None = None,
    parity: int | None = None,
) -> tuple[dict[int, Fraction], int, bool]:
    """Disconnected (entries, parity, vacuous) folded from the eigenvalue spectrum:

    b(m) = ½ Σ_{λ: |t_λ|=m} (dim λ)^{2−2h} · sgn(t_λ)^k · ∏_i χ_λ(μ^(i))/dim λ,

    entries in decreasing m, as the library orders them.
    """
    par, vacuous = _resolve_parity(nu, mus, parity)
    entries: dict[int, Fraction] = {}
    for lam, t in spectrum(d, nu, cache).entries:
        if t == 0:
            continue
        term = Fraction(dimension(lam)) ** (2 - 2 * h)
        if t < 0 and par == 1:
            term = -term
        for mu in mus:
            term *= character_ratio(lam, mu, cache)
        m = abs(t)
        entries[m] = entries.get(m, Fraction(0)) + term / 2
    return {m: b for m, b in sorted(entries.items(), reverse=True) if b}, par, vacuous


def scan_fractions(lams: list[Partition], mu: Partition, bound
                   ) -> tuple[list[tuple[Partition, Fraction]], tuple[Fraction, Partition]]:
    """The (λ, |χ_λ(μ)|/dim λ) pairs with ratio ≥ bound, in lams order, and
    (max ratio, first argmax), each ratio an abs-ed Fraction."""
    at_or_above = []
    best: tuple[Fraction, Partition] | None = None
    for lam in lams:
        ratio = abs(Fraction(chi_entries(lam, mu), dimension(lam)))
        if ratio >= bound:
            at_or_above.append((lam, ratio))
        if best is None or ratio > best[0]:
            best = (ratio, lam)
    return at_or_above, best


def _check_inside(lam: Partition, boxes: Iterable[Box]) -> None:
    for b in boxes:
        if not lam.contains_box(b.row, b.col):
            raise ValueError(f"box {tuple(b)} lies outside the diagram {lam}")


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


def straighten(lam: Partition, box: Box) -> Box:
    """Image of a box under the row-unfolding map into the hook diagram
    (d+1−l(λ), 1^{l(λ)−1}).

    Boxes in the first row or column stay put; any other box of row i moves
    to row 1 at column Σ_{k<i} λ_k − i + j + 1, appending the tail of row i
    right after everything already unfolded.  The map is a bijection onto
    the hook's boxes.
    """
    b = Box(*box)
    _check_inside(lam, [b])
    if b.row == 1 or b.col == 1:
        return b
    return Box(1, sum(lam.parts[: b.row - 1]) - b.row + b.col + 1)


def hook_envelope(lam: Partition) -> Partition:
    """The hook diagram (d+1−l(λ), 1^{l(λ)−1}) that the straightening map targets."""
    return Partition([lam.size + 1 - lam.length] + [1] * (lam.length - 1))


def diagonal_hook_central_character(r: int, lam: Partition) -> int:
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


def genus0_one_profile_count(mu: Partition) -> Fraction:
    """Hurwitz's count of connected genus-0 covers with profile μ over one
    point and r = d + ℓ(μ) − 2 simple branch points (ν = (2,1^{d−2})):

    H₀(μ) = r!/|Aut μ| · d^{ℓ−3} · ∏ μᵢ^{μᵢ}/μᵢ!.
    """
    d, ell = mu.size, mu.length
    aut = prod(factorial(mu.multiplicity(v)) for v in set(mu.parts))
    return (Fraction(factorial(d + ell - 2), aut) * Fraction(d) ** (ell - 3)
            * prod(Fraction(v**v, factorial(v)) for v in mu.parts))


def minimal_cycle_factorization_count(d: int, r: int) -> Fraction:
    """Connected genus-0 covers with profile (d) over one point and k
    points of profile (r,1^{d−r}), k(r − 1) = d − 1: each of the (d − 1)!
    d-cycles has d^{k−1} minimal factorizations into k r-cycles, so
    H = (d − 1)!·d^{k−1}/d! = d^{k−2}."""
    k, rem = divmod(d - 1, r - 1)
    if rem:
        raise ValueError(f"r − 1 = {r - 1} does not divide d − 1 = {d - 1}")
    return Fraction(d) ** (k - 2)


def genus1_one_profile_count(mu: Partition) -> Fraction:
    """Vakil's count of connected genus-1 covers with profile μ over one
    point and r = d + ℓ(μ) simple branch points (ν = (2,1^{d−2})), proved
    by Goulden and Jackson (Ann. Comb. 3, 1999):

    H₁(μ) = r!/(24|Aut μ|) · ∏ μᵢ^{μᵢ}/μᵢ! · (d^ℓ − d^{ℓ−1} − Σ_{i≥2} (i−2)!·d^{ℓ−i}·e_i(μ)),

    e_i the i-th elementary symmetric function of μ's parts.
    """
    d, ell = mu.size, mu.length
    e = [1] + [0] * ell
    for v in mu.parts:
        for i in range(ell, 0, -1):
            e[i] += v * e[i - 1]
    bracket = d**ell - d ** (ell - 1) - sum(factorial(i - 2) * d ** (ell - i) * e[i]
                                            for i in range(2, ell + 1))
    aut = prod(factorial(mu.multiplicity(v)) for v in set(mu.parts))
    return (Fraction(factorial(d + ell), 24 * aut) * bracket
            * prod(Fraction(v**v, factorial(v)) for v in mu.parts))


def one_part_count(d: int, g: int) -> Fraction:
    """Shapiro, Shapiro and Vainshtein's count of connected genus-g covers
    with profile (d) over one point and r = d − 1 + 2g simple branch points:
    H_g((d)) = d^{r−2}·T(r, d−1), T the central factorial numbers of the
    second kind.  U_j(k) = 4^j·T(k + 2j, k) runs in integers on
    U_j(k) = U_j(k−2) + k²·U_{j−1}(k), U_0 = 1, U_j(1) = 1 and U_j(0) = 0
    for j > 0; T(r, d−1) = U_g(d−1)/4^g.
    """
    if d < 2 or g < 0:
        raise ValueError(f"need d ≥ 2 and g ≥ 0, got d={d}, g={g}")
    u = [1] * d  # U_0(k), k = 0..d−1
    for _ in range(g):
        new = [0, 1] + [0] * (d - 2)
        for k in range(2, d):
            new[k] = new[k - 2] + k * k * u[k]
        u = new
    return Fraction(d) ** (d + 2 * g - 3) * Fraction(u[d - 1], 4**g)
