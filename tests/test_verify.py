from fractions import Fraction
from math import factorial

import pytest

from snhurwitz.errors import HypothesisError
from snhurwitz.partitions import Partition, partitions_of
from snhurwitz.verify import (
    check_conjecture1,
    check_conjecture_b,
    check_lemma_l1,
    check_lemma_rm2,
    check_theorem_B,
    sweep_lemma_l1,
)
from snhurwitz.young_trees import frobenius_central_character

P = Partition


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
    # the report's r ≤ 4 rows against ratios from the Frobenius closed forms
    d = 7
    rep = check_lemma_rm2(d, cache)
    assert not rep.violations
    lams = [lam for lam in partitions_of(d) if lam not in (P([d]), P([1] * d))]
    eq = {item["r"]: item["lambdas"] for item in rep.equality_set}
    ext = {item["r"]: item for item in rep.extremal}
    for r in (2, 3, 4):
        ratios = [abs(Fraction(frobenius_central_character(r, lam) * r * factorial(d - r), factorial(d)))
                  for lam in lams]
        bound = Fraction(d - r - 1, d - 1)
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


def test_ch11_exclusions(cache):
    with pytest.raises(HypothesisError):
        check_conjecture_b("cH11", 10, P([3, 3, 3, 1]), cache=cache)  # (3^{(d-1)/3},1)
    with pytest.raises(HypothesisError):
        check_conjecture_b("cH11", 10, P([4, 4, 2]), cache=cache)  # m_1 = 0
