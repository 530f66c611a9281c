"""Exhaustive checkers for the character-ratio bounds, and the bounds themselves.

Every comparison is exact: the ratio sweeps read each |χ_λ(μ)|/dim λ as a
reduced Fraction from character_ratio and compare it with a bound p/q by
integer cross-multiplication; "tight" means equality holds exactly.  Sweeps report
violations and the extremal witnesses even when they pass, so larger runs
can compare extremizers against desk-scale ones.

`ratio_bound` writes conjecture 1's three bounds, each with the two λ that
attain it, and is the one place they are written: conjecture 1 reads them
per class through `_conjecture1_clause`, lemma rm2 is that clause read on
the classes (r,1^{d−r}), and `structure` scales them by d!/z_ν into the
moduli that the table statements and the coefficient-gap conjectures name.
Lemma rm2, theorem B (bound 1, attained at (d) and (1^d)) and conjecture 1
judge every class through `_judge`, the one place that counts the pairs
checked and records violations and equality mismatches.

The conjecture 1 and theorem B sweeps read every class's column: they take
μ from `characters.walk_columns`, which holds one χ column per suffix
length, so their memory stays bounded up to the ceiling, and they emit the
report in `partitions_of` order.  The lemma sweeps read d − 1 hook classes
and use the plain memo.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .characters import CharCache, character_ratio, walk_columns
from .errors import HypothesisError
from .partitions import Partition, partitions_of
from .young_trees import count_straight_trees


@dataclass
class BoundReport:
    """Outcome of one exhaustive bound check."""

    bound_id: str
    d: int
    filters: dict
    violations: list = field(default_factory=list)
    equality_set: list = field(default_factory=list)
    equality_mismatches: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    extremal: list = field(default_factory=list)
    checked: int = 0
    runtime_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.violations and not self.equality_mismatches

    def to_json(self) -> dict:
        return {
            "bound": self.bound_id,
            "d": self.d,
            "filters": self.filters,
            "checked": self.checked,
            "violations": self.violations,
            "equality_set": self.equality_set,
            "equality_mismatches": self.equality_mismatches,
            "skipped": self.skipped,
            "extremal": self.extremal,
            "pass": self.passed,
            "runtime": round(self.runtime_seconds, 3),
        }


def _scan(lams: list[Partition], mu: Partition, bound, cache: CharCache | None
          ) -> tuple[list[tuple[Partition, Fraction]], tuple[Fraction, Partition]]:
    """The ratios |χ_λ(μ)|/dim λ over lams against a bound: the (λ, ratio)
    pairs with ratio ≥ bound, in lams order, and (max ratio, argmax), the
    first maximum in lams order.

    character_ratio makes one call per pair, which reads χ_λ(μ) and dim λ
    with one memo lookup each, and builds a reduced Fraction a/b only for a
    nonzero pair; a zero χ reads the shared 0/1.  Its
    numerator and denominator, read once with as_integer_ratio, are
    compared with the bound p/q as |a|·q ≥ p·b and with the running maximum
    the same way, in integers, so no Fraction arithmetic runs; a further
    Fraction is built only for each hit's |a|/b and for the maximum.
    """
    bound = Fraction(bound)
    p, q = bound.numerator, bound.denominator
    at_or_above = []
    top_num, top_den, argmax = -1, 1, None
    for lam in lams:
        ratio = character_ratio(lam, mu, cache)
        num, den = ratio.as_integer_ratio()
        if num < 0:
            num = -num
        if num * q >= p * den:
            at_or_above.append((lam, abs(ratio)))
        if num * top_den > top_num * den:
            top_num, top_den, argmax = num, den, lam
    return at_or_above, (Fraction(top_num, top_den), argmax)


def _walk_scans(d: int, lams: list[Partition], bounds: dict[tuple[int, ...], Fraction], cache: CharCache | None
                ) -> dict[tuple[int, ...], tuple]:
    """_scan(lams, μ, bounds[μ]) for each μ ⊢ d whose parts are in bounds,
    keyed by μ's parts.

    The μ are taken in the order of the depth-first column walk, so the χ
    memo holds only the columns on the walk's path, at most d + 1 at once;
    each character_ratio call reads the column the walk put there.
    """
    return {parts: _scan(lams, Partition(parts), bounds[parts], cache)
            for parts in walk_columns(d, cache) if parts in bounds}


def _judge(report: BoundReport, key: dict, lams: list[Partition],
           hits: list[tuple[Partition, Fraction]], bound, expected) -> set[str]:
    """Record one class's _scan hits in report: its len(lams) pairs as
    checked, each λ above the bound as a violation {**key, lambda, ratio,
    bound}, and the λ at the bound, unless they are the expected ones, as a
    mismatch {**key, expected, observed}.  Returns the λ at the bound."""
    report.checked += len(lams)
    report.violations.extend(
        {**key, "lambda": str(lam), "ratio": str(ratio), "bound": str(bound)}
        for lam, ratio in hits if ratio > bound
    )
    observed = {str(lam) for lam, ratio in hits if ratio == bound}
    expected = {str(p) for p in expected}
    if observed != expected:
        report.equality_mismatches.append({**key, "expected": sorted(expected), "observed": sorted(observed)})
    return observed


def check_lemma_l1(lam: Partition, r: int, cache: CharCache | None = None) -> dict:
    """One straight-tree bound entry: |χ_λ(r,1^{d−r})|/dim λ against
    1/(r−1) + (r−2)/(r−1) · (Σ C(λ_i,r) + Σ C(λ'_i,r))/C(d,r)."""
    d = lam.size
    if not 2 <= r <= d:
        raise HypothesisError(f"need 2 ≤ r ≤ d, got r={r}, d={d}")
    mu = Partition([r] + [1] * (d - r))
    lhs = abs(character_ratio(lam, mu, cache))
    straight = count_straight_trees(lam, r)
    rhs = Fraction(1, r - 1) + Fraction(r - 2, r - 1) * Fraction(straight, comb(d, r))
    return {
        "lambda": str(lam),
        "r": r,
        "lhs": str(lhs),
        "rhs": str(rhs),
        "holds": lhs <= rhs,
        "tight": lhs == rhs,
    }


def sweep_lemma_l1(d: int, r: int | None = None, cache: CharCache | None = None) -> BoundReport:
    if d < 2:
        raise HypothesisError(f"needs d ≥ 2, got {d}")
    start = time.perf_counter()
    rs = [r] if r is not None else list(range(2, d + 1))
    report = BoundReport("lemma-l1", d, {"r": rs})
    for rr in rs:
        for lam in partitions_of(d):
            entry = check_lemma_l1(lam, rr, cache)
            report.checked += 1
            if not entry["holds"]:
                report.violations.append(entry)
            if entry["tight"]:
                report.equality_set.append({"lambda": entry["lambda"], "r": rr})
    report.runtime_seconds = time.perf_counter() - start
    return report


def ratio_bound(d: int, clause: int, m: int = 0) -> tuple[Fraction, list[Partition]]:
    """Conjecture 1's bound on |χ_λ(μ)|/dim λ for λ ∉ {(d),(1^d)}, with the
    two λ that attain it.

    Clause 1 reads m = m₁(μ): |m−1|/(d−1), at (d−1,1) and (2,1^{d−2}).
    Clause 2 reads m = m₂(μ): 2m/((d−1)(d−2)), at (d−2,1,1) and (3,1^{d−3}).
    Clause 3 ignores m: 2/(d(d−3)), at (d−2,2) and (2,2,1^{d−4}).
    """
    if clause == 1:
        return Fraction(abs(m - 1), d - 1), [Partition([d - 1, 1]), Partition([2] + [1] * (d - 2))]
    if clause == 2:
        return Fraction(2 * m, (d - 1) * (d - 2)), [Partition([d - 2, 1, 1]),
                                                     Partition([3] + [1] * (d - 3))]
    if clause == 3:
        return Fraction(2, d * (d - 3)), [Partition([d - 2, 2]), Partition([2, 2] + [1] * (d - 4))]
    raise ValueError(f"conjecture 1 has clauses 1, 2 and 3, got {clause}")


def check_lemma_rm2(d: int, cache: CharCache | None = None) -> BoundReport:
    """Second character-ratio bound for every class (r,1^{d−r}), 2 ≤ r ≤ d.

    This is conjecture 1 on those classes, read from `_conjecture1_clause`:
    clause 3 at r = d−1 (m₁ = 1, m₂ = 0), where the bound is 2/(d(d−3)),
    and clause 1 at m₁ = d−r elsewhere, |d−r−1|/(d−1); the equality sets
    are checked exactly.
    """
    if d < 7:
        raise HypothesisError(f"needs d ≥ 7, got {d}")
    start = time.perf_counter()
    report = BoundReport("lemma-rm2", d, {"r": f"2..{d}", "route": "chi"})
    extreme = Partition([d]), Partition([1] * d)
    lams = [lam for lam in partitions_of(d) if lam not in extreme]
    for r in range(2, d + 1):
        mu = Partition([r] + [1] * (d - r))
        _, bound, expected = _conjecture1_clause(d, mu)
        hits, (top, argmax) = _scan(lams, mu, bound, cache)
        observed = _judge(report, {"r": r}, lams, hits, bound, expected)
        report.equality_set.append({"r": r, "lambdas": sorted(observed)})
        report.extremal.append({"r": r, "max_ratio": str(top), "argmax": str(argmax)})
    report.runtime_seconds = time.perf_counter() - start
    return report


def check_theorem_B(d: int, cache: CharCache | None = None) -> BoundReport:
    """|χ_λ(μ)|/dim λ ≤ 1 for μ ≠ (1^d), equality exactly at λ=(d),(1^d).

    A ratio above 1 is a violation; any other λ at ratio exactly 1 is an
    equality mismatch, as in the other class sweeps.
    μ is scanned in the order of the depth-first column walk, which leaves
    the χ memo as it found it; the report runs in partitions_of order.
    """
    if d < 5:
        raise HypothesisError(f"needs d ≥ 5, got {d}")
    start = time.perf_counter()
    report = BoundReport("theorem-B", d, {"mu": "all classes except (1^d)"})
    extreme = {str(Partition([d])), str(Partition([1] * d))}
    lams = partitions_of(d)
    scans = _walk_scans(d, lams, {mu.parts: 1 for mu in lams if mu.colength}, cache)
    for mu in lams:
        if mu.colength:
            _judge(report, {"mu": str(mu)}, lams, scans[mu.parts][0], 1, extreme)
    report.equality_set = sorted(extreme)
    report.runtime_seconds = time.perf_counter() - start
    return report


def _conjecture1_clause(d: int, mu: Partition) -> tuple[int, Fraction, list[Partition]] | str:
    """Clause number, bound, and equality set for μ; or the skip reason."""
    m1, m2 = mu.multiplicity(1), mu.multiplicity(2)
    if mu.colength == 0:
        return "identity class (1^d) is out of hypothesis"
    if m1 != 1:
        if d % 2 == 0 and mu == Partition([2] * (d // 2)):
            return "excluded: (2^{d/2})"
        if d % 2 == 0 and mu == Partition([2] * (d // 2 - 1) + [1, 1]):
            return "excluded: (2^{d/2-1},1^2)"
        return 1, *ratio_bound(d, 1, m1)
    if m2 >= 2:
        # kept as stated, though (3^{d/3-1},2,1) has m_2 = 1 and never gets here
        if d % 3 == 0 and mu == Partition([3] * (d // 3 - 1) + [2, 1]):
            return "excluded: (3^{d/3-1},2,1)"
        return 2, *ratio_bound(d, 2, m2)
    if m2 == 0:
        if d % 3 == 1 and mu == Partition([3] * ((d - 1) // 3) + [1]):
            return "excluded: (3^{(d-1)/3},1)"
        return 3, *ratio_bound(d, 3)
    return "m_1(mu)=1, m_2(mu)=1 is covered by no clause"


def check_conjecture1(d: int, cache: CharCache | None = None, jobs: int = 1) -> BoundReport:
    """Falsification sweep for the three conjectured ratio bounds at degree d.

    Exclusion lists are honored and reported; a violation or an equality-set
    mismatch is a counterexample worth publishing.  μ is scanned in the
    order of the depth-first column walk, which leaves the χ memo as it
    found it; the report runs in partitions_of order.  The sweep is serial:
    `jobs` is accepted for existing callers and ignored, because threads over
    the pure-Python χ recursion only contend for the GIL and ran slower.
    """
    if d < 10:
        raise HypothesisError(f"needs d ≥ 10, got {d}")
    start = time.perf_counter()
    report = BoundReport("conjecture1", d, {"lambda": "all except (d),(1^d)"})
    extreme = Partition([d]), Partition([1] * d)
    lams = [lam for lam in partitions_of(d) if lam not in extreme]
    clauses = [(mu, _conjecture1_clause(d, mu)) for mu in partitions_of(d)]
    scans = _walk_scans(d, lams, {mu.parts: clause[1] for mu, clause in clauses
                                  if not isinstance(clause, str)}, cache)
    for mu, clause in clauses:
        if isinstance(clause, str):
            report.skipped.append({"mu": str(mu), "reason": clause})
            continue
        cid, bound, eq_expected = clause
        hits, (top, argmax) = scans[mu.parts]
        _judge(report, {"mu": str(mu), "clause": cid}, lams, hits, bound, eq_expected)
        report.equality_set.append({"mu": str(mu), "clause": cid})
        report.extremal.append(
            {"mu": str(mu), "max_ratio": str(top), "argmax": str(argmax), "bound": str(bound)}
        )
    report.runtime_seconds = time.perf_counter() - start
    return report
