from fractions import Fraction
from math import factorial

import pytest

from snhurwitz.errors import GenusError, HypothesisError
from snhurwitz.hurwitz import CoverSpec, RepeatedSpec, brute_force_connected, disconnected
from snhurwitz.partitions import Partition, dimension, partitions_of
from snhurwitz.structure import (
    asymptotic_ratio,
    extract_b_connected,
    extract_b_disconnected,
    spectrum,
    verify_theorem,
)
from snhurwitz.young_trees import central_character_from_trees

from oracles import candidate_moduli, solve_b_connected

P = Partition


def test_spectrum_top_eigenvalue(cache):
    for d in (4, 5, 6, 7):
        for nu in partitions_of(d):
            if nu.colength == 0:
                continue
            sp = spectrum(d, nu, cache)
            top = factorial(d) // nu.centralizer_order()
            assert sp.m_max == top
            signed = {lam: t for lam, t in sp.entries}
            assert signed[P([d])] == top
            assert abs(signed[P([1] * d)]) == top


def test_spectrum_matches_tree_route(cache):
    d = 7
    nu = P([2] + [1] * 5)
    sp = spectrum(d, nu, cache)
    for lam, t in sp.entries:
        assert t == central_character_from_trees(lam, 2)


def test_spectrum_rejects_identity_class(cache):
    with pytest.raises(ValueError):
        spectrum(5, P([1] * 5), cache)


def test_disconnected_table_top_and_reconstruction(cache):
    for d in (5, 6, 7):
        for nu in partitions_of(d):
            if nu.colength == 0:
                continue
            table = extract_b_disconnected(0, d, (), nu, cache)
            assert table.coefficient(factorial(d) // nu.centralizer_order()) == 1
            # reconstruction beyond the in-constructor samples
            k = table.parity + 8
            direct = disconnected(CoverSpec(0, d, (nu,) * k), cache)
            assert table.value_at(k) == direct


def test_disconnected_table_parity_rules(cache):
    # l*(nu) odd forces the parity; requesting the other parity is an error
    nu = P([2, 1, 1, 1])
    table = extract_b_disconnected(0, 5, (), nu, cache)
    assert table.parity == 0 and not table.vacuous
    with pytest.raises(GenusError):
        extract_b_disconnected(0, 5, (), nu, cache, parity=1)
    # l*(nu) even with odd fixed colength: vacuous, all-zero table
    table = extract_b_disconnected(0, 5, (P([2, 1, 1, 1]),), P([3, 1, 1]), cache)
    assert table.vacuous and not table.entries
    assert table.value_at(2) == 0


def test_disconnected_gap_example(cache):
    # one 2-cycle class at d=7: support {21,14,9,7,6,3,1}, gap (14,21) empty
    table = extract_b_disconnected(0, 7, (), P([2] + [1] * 5), cache)
    assert sorted(table.entries) == [1, 3, 6, 7, 9, 14, 21]
    assert table.coefficient(14) == 36  # (d-1)^2


def test_candidate_moduli_include_pair_eigenvalues(cache):
    cm = candidate_moduli(7, P([2] + [1] * 5), cache)
    assert 21 in cm and 15 in cm and 14 in cm
    # 15 = 6!/(2·4!) arises only from a (6,1) split, not from the spectrum
    assert 15 not in spectrum(7, P([2] + [1] * 5), cache).moduli()


def test_connected_routes_agree(cache):
    for d in (3, 4, 5, 6):
        for nu in partitions_of(d):
            if nu.colength == 0:
                continue
            for h in (0, 1):
                solved = solve_b_connected(h, d, (), nu, cache)
                assert solved == extract_b_connected(h, d, (), nu, cache).entries, (d, nu, h)


def test_connected_routes_agree_with_fixed_profile(cache):
    for mus in [(P([3, 2]),), (P([2, 2, 1]),), (P([2, 1, 1, 1]),)]:
        solved = solve_b_connected(0, 5, mus, P([2, 1, 1, 1]), cache)
        assert solved == extract_b_connected(0, 5, mus, P([2, 1, 1, 1]), cache).entries


def test_connected_table_matches_brute_force(cache):
    d = 5
    for h, mus, nu in [(0, (), P([3, 1, 1])), (1, (P([3, 1, 1]),), P([2, 1, 1, 1]))]:
        table = extract_b_connected(h, d, mus, nu, cache)
        for k in (2, 4):
            spec = RepeatedSpec(CoverSpec(h, d, mus), nu, k=k)
            assert table.value_at(k) == brute_force_connected(spec.cover_spec()), (h, k)


def test_connected_top_coefficient_is_one(cache):
    for d in (5, 6, 7):
        for nu in partitions_of(d):
            if nu.colength == 0:
                continue
            table = extract_b_connected(0, d, (), nu, cache)
            if table.vacuous:
                continue
            assert table.coefficient(factorial(d) // nu.centralizer_order()) == 1, (d, nu)


def test_tables_are_integral_after_scaling(cache):
    classes = partitions_of(7)
    for h in (0, 1, 2):
        for mus in [(), (P([3, 2, 1, 1]),), (P([2, 2, 1, 1, 1]), P([7]))]:
            for nu in (P([2] + [1] * 5), P([4, 3]), P([3, 2, 2])):
                t1 = extract_b_disconnected(h, 7, mus, nu, cache)
                assert not t1.integrality_violations()
                t2 = extract_b_connected(h, 7, mus, nu, cache)
                assert not t2.integrality_violations()


def test_theorem1_all_clauses_d7(cache):
    rep = verify_theorem("T1", h=0, d=7, r=2, cache=cache)
    assert rep["pass"] and len(rep["clauses"]) == 5
    got = {c["id"]: c for c in rep["clauses"]}
    assert got[1]["m"] == "21" and got[3]["got"] == "-49" and got[5]["got"] == "36"


def test_theorem1_with_profile(cache):
    mu = P([3, 2, 1, 1])
    rep = verify_theorem("T1", h=1, d=7, r=3, mus=(mu,), cache=cache)
    assert rep["pass"], rep["counterexample"]


def test_theorem1_hypothesis_range(cache):
    with pytest.raises(HypothesisError):
        verify_theorem("T1", h=0, d=7, r=6, cache=cache)
    with pytest.raises(HypothesisError):
        verify_theorem("T1", h=0, d=6, r=2, cache=cache)
    with pytest.raises(HypothesisError):
        verify_theorem("nonsense", h=0, d=7, r=2, cache=cache)


def test_theorem1_zero_gaps_d8_all_classes(cache):
    # the two vanishing intervals persist at d=8 for target genus up to 2
    # and every single fixed class
    fact8 = factorial(8)
    for r in range(2, 7):
        m_top = Fraction(fact8, r * factorial(8 - r))
        m_mid = Fraction(factorial(7), r * factorial(7 - r))
        m_low = Fraction((7 - r) * fact8, r * 7 * factorial(8 - r))
        for h in (0, 1, 2):
            for mus in [()] + [(mu,) for mu in partitions_of(8)]:
                table = extract_b_connected(h, 8, mus, P([r] + [1] * (8 - r)), cache)
                inside = [m for m in table.entries if m_low < m < m_mid or m_mid < m < m_top]
                assert not inside, (r, h, mus, inside)


def test_theorem2_and_dh2(cache):
    for nu in (P([4, 2, 1]), P([3, 3, 1]), P([2, 2, 2, 1])):
        rep = verify_theorem("T2", h=0, d=7, nu=nu, cache=cache)
        assert rep["pass"], (nu, rep["counterexample"])
        rep = verify_theorem("LemmaDH2", h=1, d=7, nu=nu, cache=cache)
        assert rep["pass"], (nu, rep["counterexample"])


def test_prop_dh(cache):
    for r in (2, 3, 4, 5):
        rep = verify_theorem("PropDH", h=0, d=7, r=r, cache=cache)
        assert rep["pass"], (r, rep["counterexample"])
    rep = verify_theorem("PropDH", h=2, d=8, r=3, mus=(P([2, 2, 1, 1, 1, 1]),), cache=cache)
    assert rep["pass"]


def test_t5_clauses_one_to_four_pass_and_clause5_known_defect(cache):
    rep = verify_theorem("T5", h=0, d=7, cache=cache)
    by_id = {c["id"]: c for c in rep["clauses"]}
    assert all(by_id[i]["pass"] for i in (1, 2, 3, 4))
    # the stated closed form uses the equality set of the generic-r bound;
    # at r = d-1 the extremal shapes are (d-2,2) and its conjugate, so the
    # true coefficient is dim(d-2,2)^2 = 196, not (d-1)^2 = 36
    assert not by_id[5]["pass"]
    assert by_id[5]["expected"] == "36" and by_id[5]["got"] == "196"
    assert by_id[5]["got"] == str(dimension(P([5, 2])) ** 2)


def test_t6(cache):
    for h in (0, 1):
        rep = verify_theorem("T6", h=h, d=7, cache=cache)
        assert rep["pass"], rep["counterexample"]


def test_report_shape_is_json_ready(cache):
    import json

    rep = verify_theorem("T6", h=0, d=7, mus=(P([2, 2, 1, 1, 1]),), cache=cache)
    text = json.dumps(rep)
    assert '"theorem": "T6"' in text and '"clauses"' in text


def test_asymptotic_ratio_toy(cache):
    # single-modulus family: nu=(d) forces connectivity, so the ratio is
    # exactly the sum over the full table relative to its leading term
    table = extract_b_connected(0, 7, (), P([7]), cache)
    top = factorial(6)
    for g in (6, 12):  # even repeat counts, matching the table's parity fold
        q = RepeatedSpec(CoverSpec(0, 7, ()), P([7]), g=g).point_count()
        assert q % 2 == 0
        expected = sum(b * Fraction(m, top) ** q for m, b in table.entries.items())
        assert asymptotic_ratio(0, 7, (), P([7]), g, cache) == expected


def test_asymptotic_ratio_d2(cache):
    vals = [asymptotic_ratio(0, 2, (), P([2]), g, cache) for g in (3, 5, 7)]
    assert vals == [1, 1, 1]  # single eigenvalue: the closed form is exact


def test_asymptotic_ratio_approaches_one(cache):
    last = None
    for g in (10, 12, 14):
        ratio = asymptotic_ratio(0, 7, (), P([2] + [1] * 5), g, cache)
        err = abs(ratio - 1)
        if last is not None:
            assert err < last
        last = err
