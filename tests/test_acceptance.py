"""Acceptance suite: one test per criterion, each printing a verdict line.

Every comparison is exact (zero tolerance) except criterion 11, whose stated
tolerance is |ratio − 1| ≤ 1/100 at the first checked genus.  Criterion 6
carries one documented exception: the fifth clause of the (d−1,1)-family
statement is checked faithfully as stated and is expected to fail; see
test_criterion_6_t5_clause5_as_stated for the witness and README.md for
the analysis.
"""

import time
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from oracles import diagonal_hook_central_character
from snhurwitz.characters import central_character, one_cycle_central_character
from snhurwitz.hurwitz import (
    CoverSpec,
    RepeatedSpec,
    brute_force_connected,
    brute_force_disconnected,
    connected,
    disconnected,
)
from snhurwitz.partitions import Partition, partitions_of
from snhurwitz.structure import (
    asymptotic_ratio,
    extract_b_connected,
    extract_b_disconnected,
    verify_theorem,
)
from snhurwitz.verify import check_conjecture1, check_lemma_rm2, check_theorem_B
from snhurwitz.young_trees import central_character_from_trees, frobenius_central_character

P = Partition


def _verdict(number: str, ok: bool, description: str) -> None:
    print(f"\n[acceptance] criterion {number}: {'PASS' if ok else 'FAIL'} — {description}",
          flush=True)


def test_criterion_1_tree_formula(cache):
    """Signed tree counts equal central characters for d ≤ 8, 1 ≤ r ≤ d."""
    t0 = time.time()
    bad = []
    for d in range(2, 9):
        for lam in partitions_of(d):
            for r in range(1, d + 1):
                # r = 1 uses the marked-cycle normalization d!/(r(d-r)!),
                # under which the identity holds uniformly in r
                want = one_cycle_central_character(r, lam, cache)
                got = central_character_from_trees(lam, r)
                if got != want:
                    bad.append((d, str(lam), r, got, want))
    ok = not bad
    _verdict("1", ok, f"tree formula ≡ central character, d ≤ 8, all r "
                      f"({time.time()-t0:.1f}s)")
    assert ok, bad[:5]


def test_criterion_2_frobenius_forms(cache):
    """Diagonal-hook forms for r = 2,3,4 match Frobenius's formula, trees and
    characters for d ≤ 10."""
    t0 = time.time()
    bad = []
    for d in range(2, 11):
        for lam in partitions_of(d):
            for r in (2, 3, 4):
                if r > d:
                    continue
                hooks = diagonal_hook_central_character(r, lam)
                frob = frobenius_central_character(r, lam)
                trees = central_character_from_trees(lam, r)
                mn = central_character(P([r] + [1] * (d - r)), lam, cache)
                if not hooks == frob == trees == mn:
                    bad.append((d, str(lam), r, hooks, frob, trees, mn))
    ok = not bad
    _verdict("2", ok, f"diagonal-hook forms ≡ Frobenius ≡ trees ≡ characters, d ≤ 10 "
                      f"({time.time()-t0:.1f}s)")
    assert ok, bad[:5]


def test_criterion_3_burnside_oracle(cache):
    """Character formula equals tuple counting for d ≤ 5, h ≤ 1, ≤ 3 profiles."""
    t0 = time.time()
    bad = []
    n = 0
    for d in range(1, 6):
        classes = partitions_of(d)
        for h in (0, 1):
            for length in range(0, 4):
                # both counts are invariant under profile order, so multisets
                # cover all lists; order-invariance itself is spot-checked below
                for combo in combinations_with_replacement(classes, length):
                    spec = CoverSpec(h, d, combo)
                    a, b = disconnected(spec, cache), brute_force_disconnected(spec)
                    n += 1
                    if a != b:
                        bad.append((h, d, tuple(map(str, combo)), a, b))
    sample = (P([3, 1]), P([2, 2]), P([4]))
    for perm in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
        spec = CoverSpec(1, 4, tuple(sample[i] for i in perm))
        assert brute_force_disconnected(spec) == disconnected(spec, cache)
    ok = not bad
    _verdict("3", ok, f"Burnside oracle on {n} specs, d ≤ 5 ({time.time()-t0:.1f}s)")
    assert ok, bad[:5]


def test_criterion_4_connected_oracle(cache):
    """Connected recursion equals transitive tuple counting for d ≤ 5."""
    t0 = time.time()
    bad = []
    n = 0
    for d in range(2, 6):
        classes = partitions_of(d)
        nus = [p for p in classes if p.colength > 0]
        for h in (0, 1):
            for mus in [()] + [(m,) for m in classes]:
                for nu in nus:
                    for k in range(0, 5):
                        spec = RepeatedSpec(CoverSpec(h, d, mus), nu, k=k)
                        a = connected(spec, cache)
                        b = brute_force_connected(spec.cover_spec())
                        n += 1
                        if a != b:
                            bad.append((h, d, tuple(map(str, mus)), str(nu), k, a, b))
                        dis = disconnected(spec.cover_spec(), cache)
                        if not (dis >= a >= 0):
                            bad.append(("monotonicity", h, d, str(nu), k))
    ok = not bad
    _verdict("4", ok, f"connected oracle on {n} specs, d ≤ 5, k ≤ 4 ({time.time()-t0:.1f}s)")
    assert ok, bad[:5]


def _criterion5_configs():
    for d in (7, 8):
        classes = partitions_of(d)
        for r in range(2, d - 1):
            for h in (0, 1, 2):
                yield d, r, h, ()
                for mu in classes:
                    yield d, r, h, (mu,)


def test_criterion_5_prop_dh(cache):
    """Disconnected table clauses for d ∈ {7,8}, all r, h ≤ 2, s ≤ 1."""
    t0 = time.time()
    bad = []
    n = 0
    for d, r, h, mus in _criterion5_configs():
        rep = verify_theorem("PropDH", h=h, d=d, r=r, mus=mus, cache=cache)
        n += 1
        if not rep["pass"]:
            bad.append((d, r, h, tuple(map(str, mus)), rep["counterexample"]))
    ok = not bad
    _verdict("5", ok, f"PropDH clauses 1–3 on {n} configurations ({time.time()-t0:.1f}s)")
    assert ok, bad[:5]


def _criterion6_t1_configs():
    classes = partitions_of(7)
    for r in (2, 3, 4, 5):
        for h in (0, 1):
            yield r, h, ()
            for mu in classes:
                yield r, h, (mu,)


def test_criterion_6_theorem_1_5_6(cache):
    """Connected tables: T1 (all five clauses), T5 clauses 1–4, T6, at d=7."""
    t0 = time.time()
    bad = []
    n = 0
    for r, h, mus in _criterion6_t1_configs():
        rep = verify_theorem("T1", h=h, d=7, r=r, mus=mus, cache=cache)
        n += 1
        if not rep["pass"]:
            bad.append(("T1", r, h, tuple(map(str, mus)), rep["counterexample"]))
    for h in (0, 1):
        for mus in [()] + [(mu,) for mu in partitions_of(7)]:
            rep5 = verify_theorem("T5", h=h, d=7, mus=mus, cache=cache)
            for clause in rep5["clauses"]:
                if clause["id"] != 5 and not clause["pass"]:
                    bad.append(("T5", h, tuple(map(str, mus)), clause))
            rep6 = verify_theorem("T6", h=h, d=7, mus=mus, cache=cache)
            n += 2
            if not rep6["pass"]:
                bad.append(("T6", h, tuple(map(str, mus)), rep6["counterexample"]))
    ok = not bad
    _verdict("6", ok, f"T1 all clauses, T5 clauses 1–4, T6, on {n} configurations; "
                      f"T5 clause 5 tracked separately as a documented defect "
                      f"({time.time()-t0:.1f}s)")
    assert ok, bad[:5]


@pytest.mark.xfail(strict=True,
                   reason="stated closed form uses the generic-r extremal shapes; "
                          "at r=d-1 the extremizers are (d-2,2)/(2,2,1^{d-4}), so the "
                          "true coefficient is dim(d-2,2)^2-based (oracle-confirmed "
                          "at d=6 against transitive tuple counts)")
def test_criterion_6_t5_clause5_as_stated(cache):
    rep = verify_theorem("T5", h=0, d=7, cache=cache)
    clause5 = next(c for c in rep["clauses"] if c["id"] == 5)
    _verdict("6*", clause5["pass"],
             f"T5 clause 5 as stated: expected {clause5.get('expected')} at "
             f"m={clause5.get('m')}, table has {clause5.get('got')}")
    assert clause5["pass"]


def test_criterion_7_top_coefficients(cache):
    """b(d!/z_ν) = 1 for d = 7 and every ν ≠ (1^d), both kinds."""
    t0 = time.time()
    bad = []
    n = 0
    for nu in partitions_of(7):
        if nu.colength == 0:
            continue
        for h in (0, 1):
            for stmt in ("LemmaDH2", "T2"):
                rep = verify_theorem(stmt, h=h, d=7, nu=nu, cache=cache)
                n += 1
                if not rep["pass"]:
                    bad.append((stmt, h, str(nu), rep["counterexample"]))
    ok = not bad
    _verdict("7", ok, f"top coefficient 1 in {n} tables (d=7, every ν) ({time.time()-t0:.1f}s)")
    assert ok, bad[:5]


def test_criterion_8_integrality(cache):
    """d!^{2h}·∏(d!/z_μ)·b(m) integral in every criterion 5–7 table."""
    t0 = time.time()
    bad = []
    n = 0
    for d, r, h, mus in _criterion5_configs():
        nu = P([r] + [1] * (d - r))
        table = extract_b_disconnected(h, d, mus, nu, cache)
        n += 1
        if table.integrality_violations():
            bad.append(("disconnected", d, r, h, tuple(map(str, mus))))
    for r, h, mus in _criterion6_t1_configs():
        table = extract_b_connected(h, 7, mus, P([r] + [1] * (7 - r)), cache)
        n += 1
        if table.integrality_violations():
            bad.append(("connected", r, h, tuple(map(str, mus))))
    for nu in partitions_of(7):
        if nu.colength == 0:
            continue
        for h in (0, 1):
            for builder in (extract_b_disconnected, extract_b_connected):
                table = builder(h, 7, (), nu, cache)
                n += 1
                if table.integrality_violations():
                    bad.append((builder.__name__, str(nu), h))
    ok = not bad
    _verdict("8", ok, f"integrality after scaling in {n} tables ({time.time()-t0:.1f}s)")
    assert ok, bad[:5]


def test_criterion_9_ratio_bounds(cache):
    """Character-ratio bounds with exact equality sets, d ≤ 10."""
    t0 = time.time()
    bad = []
    for d in (7, 8, 9, 10):
        rep = check_lemma_rm2(d, cache)
        if not rep.passed:
            bad.append(("rm2", d, rep.violations[:2], rep.equality_mismatches[:2]))
    for d in (5, 6, 7, 8, 9, 10):
        rep = check_theorem_B(d, cache)
        if not rep.passed:
            bad.append(("B", d, rep.violations[:2], rep.equality_mismatches[:2]))
    ok = not bad
    _verdict("9", ok, f"second-bound sweep d=7..10 and unit bound d=5..10 "
                      f"({time.time()-t0:.1f}s)")
    assert ok, bad[:2]


def test_criterion_10_conjecture_sweep(cache):
    """Conjectured ratio bounds hold at d = 10 and d = 11."""
    t0 = time.time()
    witnesses = []
    for d in (10, 11):
        rep = check_conjecture1(d, cache)
        if not rep.passed:
            witnesses.append((d, rep.violations[:3], rep.equality_mismatches[:3]))
    ok = not witnesses
    _verdict("10", ok, f"conjectured bounds, no counterexample at d=10, d=11 "
                       f"({time.time()-t0:.1f}s)")
    if witnesses:
        print("[acceptance] counterexample witnesses:", witnesses, flush=True)
    assert ok, witnesses


def test_criterion_11_asymptotics(cache):
    """|ratio − 1| ≤ 1/100 at the first g ≥ 50 and shrinking for 5 more."""
    t0 = time.time()
    nu = P([2] + [1] * 5)
    errors = []
    for g in range(50, 56):
        ratio = asymptotic_ratio(0, 7, (), nu, g, cache)
        errors.append(abs(ratio - 1))
    within = errors[0] <= Fraction(1, 100)
    monotone = all(errors[i + 1] < errors[i] for i in range(5))
    ok = within and monotone
    _verdict("11", ok, f"first error {float(errors[0]):.2e}, strictly shrinking: "
                       f"{monotone} ({time.time()-t0:.1f}s)")
    assert ok, (errors[0], monotone)
