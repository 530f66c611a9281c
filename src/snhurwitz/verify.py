"""Exhaustive checkers for the character-ratio bounds and conjecture sweeps.

Every comparison is exact rational arithmetic; "tight" means equality holds
exactly.  Sweeps report violations and the extremal witnesses even when they
pass, so larger runs can compare extremizers against desk-scale ones.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial

from .characters import CharCache, character_ratio
from .errors import HypothesisError
from .partitions import Partition, partitions_of
from .structure import BTable, extract_b_connected
from .young_trees import frobenius_central_character


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
    entries: list = field(default_factory=list, repr=False)

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


def _ratio(lam: Partition, mu: Partition, cache: CharCache | None) -> Fraction:
    return abs(character_ratio(lam, mu, cache))


def check_lemma_l1(lam: Partition, r: int, cache: CharCache | None = None) -> dict:
    """One straight-tree bound entry: |χ_λ(r,1^{d−r})|/dim λ against
    1/(r−1) + (r−2)/(r−1) · (Σ C(λ_i,r) + Σ C(λ'_i,r))/C(d,r)."""
    d = lam.size
    if not 2 <= r <= d:
        raise HypothesisError(f"need 2 ≤ r ≤ d, got r={r}, d={d}")
    mu = Partition([r] + [1] * (d - r))
    lhs = _ratio(lam, mu, cache)
    straight = sum(comb(v, r) for v in lam.parts)
    straight += sum(comb(v, r) for v in lam.conjugate().parts)
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
    start = time.perf_counter()
    rs = [r] if r is not None else list(range(2, d + 1))
    report = BoundReport("lemma-l1", d, {"r": rs})
    for rr in rs:
        for lam in partitions_of(d):
            entry = check_lemma_l1(lam, rr, cache)
            report.entries.append(entry)
            report.checked += 1
            if not entry["holds"]:
                report.violations.append(entry)
            if entry["tight"]:
                report.equality_set.append({"lambda": entry["lambda"], "r": rr})
    report.runtime_seconds = time.perf_counter() - start
    return report


def _rm2_bound(d: int, r: int) -> Fraction:
    if r == d - 1:
        return Fraction(2, d * (d - 3))
    return Fraction(abs(d - r - 1), d - 1)


def _rm2_equality_set(d: int, r: int) -> list[Partition]:
    if r == d - 1:
        return [Partition([d - 2, 2]), Partition([2, 2] + [1] * (d - 4))]
    return [Partition([d - 1, 1]), Partition([2] + [1] * (d - 2))]


def check_lemma_rm2(d: int, cache: CharCache | None = None, route: str = "chi") -> BoundReport:
    """Second character-ratio bound for every class (r,1^{d−r}), 2 ≤ r ≤ d.

    For λ outside {(d),(1^d)} the ratio is at most |d−r−1|/(d−1), except
    r = d−1 where it is at most 2/(d(d−3)); the equality sets are checked
    exactly.  route="frobenius" evaluates the r ≤ 4 slice through the
    closed forms instead of the character recursion.
    """
    if d < 7:
        raise HypothesisError(f"needs d ≥ 7, got {d}")
    start = time.perf_counter()
    report = BoundReport("lemma-rm2", d, {"r": f"2..{d}", "route": route})
    extreme = Partition([d]), Partition([1] * d)
    lams = [lam for lam in partitions_of(d) if lam not in extreme]
    fact = factorial(d)
    for r in range(2, d + 1):
        bound = _rm2_bound(d, r)
        expected_eq = {str(p) for p in _rm2_equality_set(d, r)}
        observed_eq = set()
        best: tuple[Fraction, str] | None = None
        for lam in lams:
            if route == "frobenius" and r in (2, 3, 4):
                f = frobenius_central_character(r, lam)
                ratio = abs(Fraction(f * r * factorial(d - r), fact))
            else:
                ratio = _ratio(lam, Partition([r] + [1] * (d - r)), cache)
            report.checked += 1
            if ratio > bound:
                report.violations.append(
                    {"r": r, "lambda": str(lam), "ratio": str(ratio), "bound": str(bound)}
                )
            if ratio == bound:
                observed_eq.add(str(lam))
            if best is None or ratio > best[0]:
                best = (ratio, str(lam))
        if observed_eq != expected_eq:
            report.equality_mismatches.append(
                {"r": r, "expected": sorted(expected_eq), "observed": sorted(observed_eq)}
            )
        report.equality_set.append({"r": r, "lambdas": sorted(observed_eq)})
        report.extremal.append({"r": r, "max_ratio": str(best[0]), "argmax": best[1]})
    report.runtime_seconds = time.perf_counter() - start
    return report


def check_theorem_B(d: int, cache: CharCache | None = None) -> BoundReport:
    """|χ_λ(μ)|/dim λ ≤ 1 for μ ≠ (1^d), equality exactly at λ=(d),(1^d)."""
    if d < 5:
        raise HypothesisError(f"needs d ≥ 5, got {d}")
    start = time.perf_counter()
    report = BoundReport("theorem-B", d, {"mu": "all classes except (1^d)"})
    extreme = {str(Partition([d])), str(Partition([1] * d))}
    for mu in partitions_of(d):
        if mu.colength == 0:
            continue
        observed_eq = set()
        for lam in partitions_of(d):
            ratio = _ratio(lam, mu, cache)
            report.checked += 1
            inside = str(lam) in extreme
            if ratio > 1 or (ratio == 1 and not inside):
                report.violations.append(
                    {"mu": str(mu), "lambda": str(lam), "ratio": str(ratio)}
                )
            if ratio == 1:
                observed_eq.add(str(lam))
        if observed_eq != extreme:
            report.equality_mismatches.append(
                {"mu": str(mu), "expected": sorted(extreme), "observed": sorted(observed_eq)}
            )
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
        return 1, Fraction(abs(m1 - 1), d - 1), [Partition([d - 1, 1]), Partition([2] + [1] * (d - 2))]
    if m2 >= 2:
        if d % 3 == 0 and mu == Partition([3] * (d // 3 - 1) + [2, 1]):
            return "excluded: (3^{d/3-1},2,1)"
        return 2, Fraction(2 * m2, (d - 1) * (d - 2)), [
            Partition([d - 2, 1, 1]),
            Partition([3] + [1] * (d - 3)),
        ]
    if m2 == 0:
        if d % 3 == 1 and mu == Partition([3] * ((d - 1) // 3) + [1]):
            return "excluded: (3^{(d-1)/3},1)"
        return 3, Fraction(2, d * (d - 3)), [
            Partition([d - 2, 2]),
            Partition([2, 2] + [1] * (d - 4)),
        ]
    return "m_1(mu)=1, m_2(mu)=1 is covered by no clause"


def check_conjecture1(d: int, cache: CharCache | None = None, jobs: int = 1) -> BoundReport:
    """Falsification sweep for the three conjectured ratio bounds at degree d.

    Exclusion lists are honored and reported; a violation or an equality-set
    mismatch is a counterexample worth publishing.
    """
    if d < 10:
        raise HypothesisError(f"needs d ≥ 10, got {d}")
    start = time.perf_counter()
    report = BoundReport("conjecture1", d, {"lambda": "all except (d),(1^d)"})
    extreme = Partition([d]), Partition([1] * d)
    lams = [lam for lam in partitions_of(d) if lam not in extreme]

    def handle(mu: Partition):
        clause = _conjecture1_clause(d, mu)
        if isinstance(clause, str):
            return {"mu": str(mu), "reason": clause}, None
        cid, bound, eq_expected = clause
        observed = set()
        violations = []
        best: tuple[Fraction, str] | None = None
        for lam in lams:
            ratio = _ratio(lam, mu, cache)
            if ratio > bound:
                violations.append(
                    {"mu": str(mu), "clause": cid, "lambda": str(lam),
                     "ratio": str(ratio), "bound": str(bound)}
                )
            if ratio == bound:
                observed.add(str(lam))
            if best is None or ratio > best[0]:
                best = (ratio, str(lam))
        expected = {str(p) for p in eq_expected}
        mismatch = None
        if observed != expected:
            mismatch = {"mu": str(mu), "clause": cid,
                        "expected": sorted(expected), "observed": sorted(observed)}
        result = {
            "mu": str(mu), "clause": cid, "checked": len(lams),
            "violations": violations, "mismatch": mismatch,
            "extremal": {"max_ratio": str(best[0]), "argmax": best[1], "bound": str(bound)},
        }
        return None, result

    mus = partitions_of(d)
    if jobs > 1:
        from .parallel import map_ordered

        outcomes = map_ordered(handle, mus, jobs)
    else:
        outcomes = [handle(mu) for mu in mus]
    for skip, result in outcomes:
        if skip is not None:
            report.skipped.append(skip)
            continue
        report.checked += result["checked"]
        report.violations.extend(result["violations"])
        if result["mismatch"]:
            report.equality_mismatches.append(result["mismatch"])
        report.equality_set.append({"mu": result["mu"], "clause": result["clause"]})
        report.extremal.append({"mu": result["mu"], **result["extremal"]})
    report.runtime_seconds = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# coefficient-gap conjectures for general ν
# ---------------------------------------------------------------------------


def _gap(table: BTable, lo: Fraction, hi: Fraction) -> list[dict]:
    return [
        {"m": str(m), "b": str(table.coefficient(m))}
        for m in sorted(table.entries)
        if lo < m < hi
    ]


def check_conjecture_b(
    conj: str,
    d: int,
    nu: Partition,
    h: int = 0,
    mus: tuple[Partition, ...] = (),
    cache: CharCache | None = None,
    max_degree: int = 10,
) -> dict:
    """Check one of the coefficient-gap conjectures on the connected table.

    conj is "cH4" (m_1(ν) ≥ 2), "cH9" (m_1(ν) = 0) or "cH11" (m_1(ν) = 1),
    each with its literal exclusion list; gap clauses assert vanishing
    coefficients on open intervals, value clauses assert closed forms.
    """
    conj = conj.strip()
    if conj not in ("cH4", "cH9", "cH11"):
        raise HypothesisError(f"unknown conjecture {conj!r}")
    if d < 10:
        raise HypothesisError(f"{conj} needs d ≥ 10, got {d}")
    if d > max_degree:
        raise HypothesisError(f"d={d} above the configured cap {max_degree}")
    if nu.size != d:
        raise HypothesisError(f"nu={nu} does not partition d={d}")
    mus = tuple(mus)
    s = len(mus)
    m1nu, m2nu = nu.multiplicity(1), nu.multiplicity(2)
    notes: list[str] = []
    z = nu.centralizer_order()
    fact = factorial(d)
    top = Fraction(fact, z)

    prod_m1 = 1
    prod_m1_minus = 1
    for mu in mus:
        prod_m1 *= mu.multiplicity(1)
        prod_m1_minus *= mu.multiplicity(1) - 1
    val_d = Fraction(d) ** (2 - 2 * h - s) * prod_m1
    val_d1 = Fraction(d - 1) ** (2 - 2 * h - s) * prod_m1_minus

    if conj == "cH4":
        if m1nu < 2:
            raise HypothesisError("cH4 needs m_1(nu) ≥ 2")
    elif conj == "cH9":
        if m1nu != 0:
            raise HypothesisError("cH9 needs m_1(nu) = 0")
        if d % 2 == 0 and nu == Partition([2] * (d // 2)):
            raise HypothesisError("cH9 excludes nu=(2^{d/2})")
    else:
        if m1nu != 1:
            raise HypothesisError("cH11 needs m_1(nu) = 1")
        if d % 3 == 0 and nu == Partition([3] * (d // 3 - 1) + [2, 1]):
            raise HypothesisError("cH11 excludes nu=(3^{d/3-1},2,1)")
        if d % 3 == 1 and nu == Partition([3] * ((d - 1) // 3) + [1]):
            raise HypothesisError("cH11 excludes nu=(3^{(d-1)/3},1)")
        # the stated exclusion (2^{d/2-1},1) has size d-1, so it can never
        # match a partition of d; matched literally and logged
        notes.append("exclusion (2^{d/2-1},1) has size d-1; no nu ⊢ d matches it")

    table = extract_b_connected(h, d, mus, nu, cache)
    clauses = []

    def gap_clause(cid, lo, hi):
        bad = _gap(table, lo, hi)
        clauses.append({
            "id": cid, "kind": "gap", "interval": [str(lo), str(hi)],
            "pass": not bad, "violations": bad,
        })

    def value_clause(cid, m, expected):
        got = table.coefficient(m)
        clauses.append({
            "id": cid, "kind": "value", "m": str(m),
            "expected": str(expected), "got": str(got), "pass": got == expected,
        })

    if conj == "cH4":
        m_mid = Fraction(fact * m1nu, d * z)
        m_low = Fraction(fact * (m1nu - 1), (d - 1) * z)
        gap_clause(1, m_mid, top)
        gap_clause(2, m_low, m_mid)
        value_clause(3, m_mid, -val_d)
        if not (d % 2 == 0 and nu == Partition([2] * (d // 2 - 1) + [1, 1])):
            value_clause(4, m_low, val_d1)
        else:
            notes.append("value clause at the lower edge skipped: nu=(2^{d/2-1},1^2)")
    elif conj == "cH9":
        m_mid = Fraction(d * factorial(d - 2), z)
        gap_clause(1, m_mid, top)
        value_clause(2, m_mid, val_d1)
    else:
        m_mid = Fraction(factorial(d - 1), z)
        gap_clause(1, m_mid, top)
        value_clause(2, m_mid, val_d1)
        if m2nu != 1:
            gap_clause(3, Fraction(2 * d * m2nu * factorial(d - 3), z), m_mid)
        if m2nu == 0:
            gap_clause(4, Fraction(2 * factorial(d - 1), (d - 3) * z), m_mid)

    failing = [c for c in clauses if not c["pass"]]
    return {
        "conjecture": conj,
        "params": {"d": d, "nu": str(nu), "h": h, "mus": [str(m) for m in mus],
                   "parity": "even" if table.parity == 0 else "odd"},
        "clauses": clauses,
        "notes": notes,
        "counterexample": failing[0] if failing else None,
        "pass": not failing,
    }
