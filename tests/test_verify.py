import hashlib
import json
from fractions import Fraction
from math import factorial

import pytest

from oracles import scan_fractions
from snhurwitz import verify
from snhurwitz.characters import CharCache, character_ratio
from snhurwitz.errors import HypothesisError
from snhurwitz.partitions import Partition, partitions_of
from snhurwitz.verify import (
    _conjecture1_clause,
    _scan,
    check_conjecture1,
    check_lemma_l1,
    check_lemma_rm2,
    check_theorem_B,
    ratio_bound,
    sweep_lemma_l1,
)
from snhurwitz.structure import _between, _moduli, check_conjecture_b, extract_b_connected
from snhurwitz.young_trees import frobenius_central_character

P = Partition


def _exact(scan):
    """A scan result with each value tagged by its type, so that an int
    standing in for a Fraction does not compare equal."""
    hits, (top, argmax) = scan
    return [(lam, type(x), x) for lam, x in hits], (type(top), top, argmax)


def test_scan_matches_fraction_oracle(cache):
    # every μ ⊢ d ≤ 12, against 0, theorem B's int bound 1, and the
    # conjecture 1 and lemma rm2 bounds of μ where they are defined; over
    # every λ ⊢ d (theorem B) and without (d) and (1^d) (the other sweeps)
    for d in range(1, 13):
        every = partitions_of(d)
        inner = [lam for lam in every if lam not in (P([d]), P([1] * d))]
        for mu in every:
            bounds = [0, 1]
            if d >= 4:
                clause = _conjecture1_clause(d, mu)
                if not isinstance(clause, str):
                    bounds.append(clause[1])
                r = mu.parts[0]
                if r >= 2 and mu.colength == r - 1:
                    bounds.append(ratio_bound(d, 3)[0] if r == d - 1 else ratio_bound(d, 1, d - r)[0])
            for lams in (every, inner) if inner else (every,):
                for bound in bounds:
                    assert _exact(_scan(lams, mu, bound, cache)) == \
                        _exact(scan_fractions(lams, mu, bound)), (mu, bound)


def test_scan_edge_cases(cache):
    # S(3): χ_(2,1) = 2, 0, −1 and χ_(1^3) = 1, −1, 1 on (1^3), (2,1), (3)
    three, hook, sign = P([3]), P([2, 1]), P([1, 1, 1])
    lams = [three, hook, sign]
    half = Fraction(1, 2)
    # |χ_(2,1)(3)|/2 = 1/2: equality at the bound is a hit, just above it is not
    assert _scan(lams, P([3]), half, cache) == ([(three, 1), (hook, half), (sign, 1)], (1, three))
    assert _scan(lams, P([3]), Fraction(51, 100), cache) == ([(three, 1), (sign, 1)], (1, three))
    # χ_(1^3)(2,1) = −1 is compared by its absolute value, and reported as 1
    assert _scan(lams, P([2, 1]), 1, cache) == ([(three, 1), (sign, 1)], (1, three))
    # χ_(2,1)(2,1) = 0: a hit at bound 0 only, and the maximum of a zero row
    assert _scan(lams, P([2, 1]), 0, cache)[0] == [(three, 1), (hook, 0), (sign, 1)]
    assert _scan([hook], P([2, 1]), Fraction(1, 100), cache) == ([], (0, hook))
    # the first maximum in lams order wins a tie
    assert _scan([sign, hook, three], P([2, 1]), 2, cache) == ([], (1, sign))
    # S(4) on (2,2): ratios 1, 1/3, 1, 1/3, 1 for (4), (3,1), (2,2), (2,1,1), (1^4)
    lams, third = partitions_of(4), Fraction(1, 3)
    hits, _ = _scan(lams, P([2, 2]), third, cache)
    assert [x for _, x in hits] == [1, third, 1, third, 1]
    hits, _ = _scan(lams, P([2, 2]), Fraction(2, 5), cache)
    assert [lam for lam, _ in hits] == [P([4]), P([2, 2]), P([1] * 4)]
    for mu in (P([3]), P([2, 1])):
        hits, (top, _) = _scan([three, hook, sign], mu, 0, cache)
        assert all(type(x) is Fraction for _, x in hits) and type(top) is Fraction


def test_sweeps_call_character_ratio_once_per_checked_pair(cache, monkeypatch):
    # the benchmark traces verify.character_ratio and counts one call per
    # checked (λ, μ) pair; a sweep that bypasses it would break that count
    calls = []

    def counting(lam, mu, cache=None):
        calls.append(None)
        return character_ratio(lam, mu, cache)

    monkeypatch.setattr(verify, "character_ratio", counting)
    for sweep, d in ((check_conjecture1, 10), (check_theorem_B, 7),
                     (check_lemma_rm2, 8), (sweep_lemma_l1, 6)):
        calls.clear()
        report = sweep(d, cache=cache)
        assert report.checked and len(calls) == report.checked, sweep.__name__


def test_ratio_sweeps_hold_one_column_per_suffix_length(monkeypatch):
    # the sweeps take μ from the depth-first column walk: during every
    # character_ratio call the χ memo holds at most the d + 1 columns on
    # the walk's path, and after the sweep it holds none
    held = []

    def recording(lam, mu, cache=None):
        held.append(len(cache._values))
        return character_ratio(lam, mu, cache)

    monkeypatch.setattr(verify, "character_ratio", recording)
    for sweep, d in ((check_conjecture1, 14), (check_theorem_B, 12)):
        memo = CharCache()
        held.clear()
        report = sweep(d, memo)
        assert len(held) == report.checked and max(held) <= d + 1, sweep.__name__
        assert not memo._values


def test_sweep_reports_are_pinned():
    # SHA-256 of to_json() without the time-based runtime, as the benchmark
    # digests reports; recorded before zero ratios shared one Fraction
    pinned = {(check_conjecture1, 14): "afc09aa8e3a402f789523de1ee1af359357ba5ffcf3c5cb4754d28353ff70bbd",
              (check_theorem_B, 14): "fa1306ea3c853f9e7b4c6d79517844b85e1abaa12857dccf15430b27d1fc596b",
              (check_lemma_rm2, 12): "1e910862a8823bdff408fc36a88ceedc8e1134a4710df3d0896f9c778d176fc4"}
    for (sweep, d), digest in pinned.items():
        payload = sweep(d, CharCache()).to_json()
        payload.pop("runtime")
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, sweep.__name__


def test_lemma_l1_entry_trivial_row(cache):
    entry = check_lemma_l1(P([8]), 3, cache)
    assert entry["holds"] and Fraction(entry["lhs"]) == 1


def test_lemma_l1_entry_example(cache):
    entry = check_lemma_l1(P([2, 2, 2]), 3, cache)
    assert entry["holds"]


def test_lemma_l1_sweeps(cache):
    for d in (5, 6, 7, 8):
        rep = sweep_lemma_l1(d, cache=cache)
        assert not rep.violations
    rep = sweep_lemma_l1(8, r=5, cache=cache)
    assert rep.checked == len(partitions_of(8)) and not rep.violations


def test_lemma_l1_sweep_range(cache):
    for d in (-5, 0, 1):
        with pytest.raises(HypothesisError):
            sweep_lemma_l1(d, cache=cache)


def test_lemma_rm2_d7_equality_sets(cache):
    rep = check_lemma_rm2(7, cache)
    assert rep.passed
    eq = {item["r"]: item["lambdas"] for item in rep.equality_set}
    assert eq[2] == sorted(["6,1", "2,1,1,1,1,1"])
    assert eq[6] == sorted(["5,2", "2,2,1,1,1"])
    ext = {item["r"]: item for item in rep.extremal}
    assert Fraction(ext[2]["max_ratio"]) == Fraction(4, 6)
    assert Fraction(ext[6]["max_ratio"]) == Fraction(2, 28)


def test_lemma_rm2_range(cache):
    for d in (8, 9, 10):
        rep = check_lemma_rm2(d, cache)
        assert rep.passed, (d, rep.violations[:2], rep.equality_mismatches[:2])
    with pytest.raises(HypothesisError):
        check_lemma_rm2(6, cache)


def test_lemma_rm2_frobenius_route_identical(cache):
    # every row of the report against ratios from Frobenius's formula
    d = 7
    rep = check_lemma_rm2(d, cache)
    assert not rep.violations
    lams = [lam for lam in partitions_of(d) if lam not in (P([d]), P([1] * d))]
    eq = {item["r"]: item["lambdas"] for item in rep.equality_set}
    ext = {item["r"]: item for item in rep.extremal}
    for r in range(2, d + 1):
        ratios = [abs(Fraction(frobenius_central_character(r, lam) * r * factorial(d - r), factorial(d)))
                  for lam in lams]
        bound = Fraction(2, d * (d - 3)) if r == d - 1 else Fraction(abs(d - r - 1), d - 1)
        assert max(ratios) <= bound
        assert eq[r] == sorted(str(lam) for lam, x in zip(lams, ratios) if x == bound)
        top = max(ratios)
        assert ext[r] == {"r": r, "max_ratio": str(top), "argmax": str(lams[ratios.index(top)])}


def test_theorem_b(cache):
    for d in (5, 6, 7):
        rep = check_theorem_B(d, cache)
        assert rep.passed
        assert rep.equality_set == sorted([str(P([d])), str(P([1] * d))])
    with pytest.raises(HypothesisError):
        check_theorem_B(4, cache)


def test_conjecture1_d10(cache):
    rep = check_conjecture1(10, cache)
    assert rep.passed
    skipped = {s["mu"] for s in rep.skipped}
    assert "2,2,2,2,2" in skipped          # (2^{d/2})
    assert "2,2,2,2,1,1" in skipped        # (2^{d/2-1},1^2)
    assert "3,3,3,1" in skipped            # (3^{(d-1)/3},1)
    assert "1,1,1,1,1,1,1,1,1,1" in skipped
    # the (r,1^{d-r}) slice agrees with the rm2 verdicts
    rm2 = check_lemma_rm2(10, cache)
    assert rm2.passed


def test_conjecture1_needs_d10(cache):
    with pytest.raises(HypothesisError):
        check_conjecture1(9, cache)


def test_conjecture1_ignores_jobs(cache):
    # jobs is still accepted so existing callers keep working; it changes nothing
    with_jobs = check_conjecture1(10, cache, jobs=4).to_json()
    plain = check_conjecture1(10, cache).to_json()
    del with_jobs["runtime"], plain["runtime"]
    assert with_jobs == plain


def test_lemma_rm2_is_conjecture1_on_hook_classes():
    # on (r,1^{d−r}) conjecture 1 reads clause 3 at r = d−1 and clause 1
    # elsewhere, with lemma rm2's literal bounds and equality sets
    for d in range(7, 31):
        for r in range(2, d + 1):
            clause = _conjecture1_clause(d, P([r] + [1] * (d - r)))
            if r == d - 1:
                assert clause == (3, Fraction(2, d * (d - 3)), [P([d - 2, 2]), P([2, 2] + [1] * (d - 4))])
            else:
                assert clause == (1, Fraction(abs(d - r - 1), d - 1), [P([d - 1, 1]), P([2] + [1] * (d - 2))])


def test_failing_report_shapes(monkeypatch):
    # with every bound halved both class sweeps fail; their first violation
    # and first equality mismatch keep the keys and order of their JSON
    def halved(d, clause, m=0):
        bound, lams = ratio_bound(d, clause, m)
        return bound / 2, lams

    monkeypatch.setattr(verify, "ratio_bound", halved)
    rm2 = check_lemma_rm2(8, CharCache())
    assert json.dumps(rm2.violations[0]) == \
        '{"r": 2, "lambda": "7,1", "ratio": "5/7", "bound": "5/14"}'
    assert json.dumps(rm2.equality_mismatches[0]) == \
        '{"r": 2, "expected": ["2,1,1,1,1,1,1", "7,1"], "observed": ["2,2,2,1,1", "5,3"]}'
    conj = check_conjecture1(10, CharCache())
    assert json.dumps(conj.violations[0]) == \
        '{"mu": "10", "clause": 1, "lambda": "9,1", "ratio": "1/9", "bound": "1/18"}'
    assert json.dumps(conj.equality_mismatches[0]) == \
        '{"mu": "10", "clause": 1, "expected": ["2,1,1,1,1,1,1,1,1", "9,1"], "observed": []}'
    assert not rm2.passed and not conj.passed


def test_theorem_b_reports_a_ratio_of_one_as_a_mismatch_only(monkeypatch):
    # a λ ∉ {(d),(1^d)} at ratio exactly 1 is not above the bound: the
    # report fails on one equality mismatch naming it, with no violation
    def one_at_6_1(lam, mu, cache=None):
        return Fraction(1) if (lam, mu) == (P([6, 1]), P([3, 2, 2])) else character_ratio(lam, mu, cache)

    monkeypatch.setattr(verify, "character_ratio", one_at_6_1)
    rep = check_theorem_B(7, CharCache())
    assert not rep.passed and rep.violations == []
    assert rep.equality_mismatches == [
        {"mu": "3,2,2", "expected": ["1,1,1,1,1,1,1", "7"], "observed": ["1,1,1,1,1,1,1", "6,1", "7"]}]


def test_conjecture1_leaves_m1_m2_one_uncovered(cache):
    # clause 2 is applied only when m₂ ≥ 2, so every m₁ = m₂ = 1 class is
    # skipped, and clause 2's exclusion (3^{d/3−1},2,1), whose m₂ is 1, is
    # never reached
    rep = check_conjecture1(12, cache)
    assert {"mu": "3,3,3,2,1", "reason": "m_1(mu)=1, m_2(mu)=1 is covered by no clause"} in rep.skipped
    for d in range(10, 19):
        for mu in partitions_of(d):
            assert _conjecture1_clause(d, mu) != "excluded: (3^{d/3-1},2,1)", mu


def test_clause2_bound_holds_at_m2_one_except_the_exclusion(cache):
    # the guard's skipped classes satisfy clause 2 as written, with its
    # equality set; only the stated exclusion (3^{d/3−1},2,1) breaks it
    for d in range(10, 14):
        lams = [lam for lam in partitions_of(d) if lam not in (P([d]), P([1] * d))]
        bound, eq = ratio_bound(d, 2, 1)
        assert bound == Fraction(2, (d - 1) * (d - 2))
        for mu in partitions_of(d):
            if not mu.multiplicity(1) == mu.multiplicity(2) == 1:
                continue
            hits, (top, argmax) = _scan(lams, mu, bound, cache)
            above = [str(lam) for lam, x in hits if x > bound]
            if mu == P([3, 3, 3, 2, 1]):
                assert len(above) == 4 and (top, argmax) == (Fraction(1, 44), P([6, 6]))
            else:
                assert not above, mu
                assert [lam for lam, x in hits if x == bound] == sorted(eq, key=lams.index), mu


def test_ch11_clause3_gap_holds_at_m2_one_except_the_exclusion(cache):
    # cH11 clause 3 (guarded by m₂ ≠ 1) asserts a gap below (d−1)!/z from
    # d!/z_ν·B₂(m₂); at m₂ = 1 that gap is empty on every family but the
    # excluded (3^{d/3−1},2,1)
    for d in range(10, 13):
        for nu in partitions_of(d):
            if not nu.multiplicity(1) == nu.multiplicity(2) == 1:
                continue
            table = extract_b_connected(0, d, (), nu, cache)
            _, pair, below = _moduli(d, nu)
            inside = {m: table.coefficient(m) for m in _between(table, below[2], pair)}
            assert inside == ({28800: 23716, 33600: 17424} if nu == P([3, 3, 3, 2, 1]) else {}), nu


def test_ch4_reduces_to_theorem1_clauses(cache):
    # nu=(r,1^{d-r}) with m_1 = d-r >= 2 is the proven instance
    rep = check_conjecture_b("cH4", 10, P([2] + [1] * 8), cache=cache)
    assert rep["pass"], rep["counterexample"]
    rep = check_conjecture_b("cH4", 10, P([3] + [1] * 7), cache=cache)
    assert rep["pass"], rep["counterexample"]


def test_ch4_general_nu(cache):
    rep = check_conjecture_b("cH4", 10, P([2, 2, 1, 1, 1, 1, 1, 1]), cache=cache)
    assert rep["pass"], rep["counterexample"]


def test_ch4_hypothesis(cache):
    with pytest.raises(HypothesisError):
        check_conjecture_b("cH4", 10, P([3, 3, 2, 2]), cache=cache)  # m_1 = 0
    with pytest.raises(HypothesisError):
        check_conjecture_b("cH4", 10, P([4, 3, 2, 1]), cache=cache)  # m_1 = 1
    with pytest.raises(HypothesisError):
        check_conjecture_b("cH4", 9, P([2, 1, 1, 1, 1, 1, 1, 1]), cache=cache)


def test_ch9(cache):
    rep = check_conjecture_b("cH9", 10, P([4, 3, 3]), cache=cache)
    assert rep["pass"], rep["counterexample"]
    with pytest.raises(HypothesisError):
        check_conjecture_b("cH9", 10, P([2] * 5), cache=cache)
    with pytest.raises(HypothesisError):
        check_conjecture_b("cH9", 10, P([4, 3, 2, 1]), cache=cache)


def test_ch9_vacuous_family_passes(cache):
    # l*(6,4) = 8 is even and l*(2,1^8) = 1 is odd: no exponent k gives an
    # even total colength, so no cover exists and every clause holds
    rep = check_conjecture_b("cH9", 10, P([6, 4]), mus=(P([2] + [1] * 8),), cache=cache)
    assert rep["pass"] and rep["counterexample"] is None
    for c in rep["clauses"]:
        assert c["pass"] and "[vacuous: no exponent has even total colength]" in c["note"]


def test_ch11_gap_holds_but_value_clause_fails(cache):
    # the sweep is the product: at d=10 the top gap clause holds, while the
    # conjectured closed form at (d-1)!/z is off -- the coefficient there is
    # the -d^{2-2h-s}·prod m_1 pair term, since chi_{(d-1,1)}(nu) = 0 when
    # m_1(nu) = 1 kills the contribution the formula expects
    rep = check_conjecture_b("cH11", 10, P([5, 2, 2, 1]), cache=cache)
    by_id = {c["id"]: c for c in rep["clauses"]}
    assert by_id[1]["pass"]
    assert not by_id[2]["pass"]
    assert by_id[2]["expected"] == "81" and by_id[2]["got"] == "-100"
    assert any("2^{d/2-1},1" in n for n in rep["notes"])


def test_ch11_gap_clauses_fail_at_d11(cache):
    # clause 3 is checked as written (m_2(ν) ≠ 1): at m_2 = 0 its lower edge
    # 2d·m_2·(d−3)!/z is 0, so it claims every b(m) below (d−1)!/z vanishes
    rep = check_conjecture_b("cH11", 11, P([10, 1]), cache=cache)
    by_id = {c["id"]: c for c in rep["clauses"]}
    assert by_id[3]["interval"] == ["0", "362880"] and not by_id[3]["pass"]
    assert by_id[3]["violations"][0] == {"m": "2880", "b": "-1920996"}
    # clause 1 fails on the family the size-d exclusion (2^{(d-1)/2},1) would
    # remove; the stated (2^{d/2-1},1) has size d − 1 and matches nothing
    rep = check_conjecture_b("cH11", 11, P([2] * 5 + [1]), cache=cache)
    by_id = {c["id"]: c for c in rep["clauses"]}
    assert by_id[1]["violations"] == [{"m": "1155", "b": "2025"}]
    # clause 3 is empty for m_2 ≥ (d−1)(d−2)/(2d): it passes, and says that
    # nothing was checked
    assert by_id[3]["interval"] == ["1155", "945"] and by_id[3]["pass"]
    assert by_id[3]["note"] == "empty interval: lower edge ≥ upper edge, nothing checked"
    assert "note" not in by_id[1]


def test_ch11_exclusions(cache):
    with pytest.raises(HypothesisError):
        check_conjecture_b("cH11", 10, P([3, 3, 3, 1]), cache=cache)  # (3^{(d-1)/3},1)
    with pytest.raises(HypothesisError):
        check_conjecture_b("cH11", 10, P([4, 4, 2]), cache=cache)  # m_1 = 0
