import hashlib
import json
from fractions import Fraction
from math import factorial

import pytest

from snhurwitz.characters import CharCache
from snhurwitz.errors import GenusError, HypothesisError
from snhurwitz.hurwitz import (
    ConnectedComputer,
    CoverSpec,
    RepeatedSpec,
    _count_tuples,
    brute_force_connected,
    connected,
    disconnected,
)
from snhurwitz.partitions import Partition, dimension, partitions_of
from snhurwitz.structure import (
    BTable,
    _ladder,
    _moduli,
    _prefactor,
    _resolve_parity,
    _sample_exponents,
    _subleading_values,
    asymptotic_ratio,
    extract_b_connected,
    extract_b_disconnected,
    verify_theorem,
)
from snhurwitz.young_trees import central_character_from_trees

from oracles import (
    _solve_moment_system,
    candidate_moduli,
    genus0_one_profile_count,
    genus1_one_profile_count,
    minimal_cycle_factorization_count,
    one_part_count,
    solve_b_connected,
    spectrum,
    spectrum_b_disconnected,
)

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


def test_disconnected_table_builds_only_nus_central_column():
    # the fold reads f_ν(λ) from ν's column alone, not from the central
    # columns of ν's hand-off types
    memo, nu = CharCache(), P([3, 2, 2, 1, 1, 1])
    extract_b_disconnected(0, 10, (), nu, memo)
    assert set(memo._central) == {nu.parts}


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


def test_disconnected_table_matches_spectrum_fold(cache):
    # the oracle folds signed eigenvalues and character ratios in Fractions,
    # sharing neither the weights nor the table fold of the library route;
    # parities None and 1 reach both tables of an even l*(ν) and, for odd
    # l*(ν), the forced table and the inconsistent request
    for d in range(2, 8):
        ps = partitions_of(d)
        mu_lists = [()] + [(mu,) for mu in ps] + list(zip(ps, ps[1:]))
        for nu in ps:
            if nu.colength == 0:
                continue
            for h in (0, 1, 2):
                for mus in mu_lists:
                    for parity in (None, 1):
                        try:
                            expected = spectrum_b_disconnected(h, d, mus, nu, cache, parity)
                        except GenusError:
                            with pytest.raises(GenusError):
                                extract_b_disconnected(h, d, mus, nu, cache, parity)
                            continue
                        table = extract_b_disconnected(h, d, mus, nu, cache, parity)
                        got = (list(table.entries.items()), table.parity, table.vacuous)
                        entries, par, vacuous = expected
                        assert got == (list(entries.items()), par, vacuous), (d, nu, h, mus, parity)


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
    # b(m) is zero at every non-integer m, however m is given
    table = extract_b_connected(0, 4, (), P([2, 1, 1]), cache)
    assert table.coefficient(6) == table.coefficient(6.0) == table.coefficient(Fraction(12, 2)) == 1
    assert table.coefficient(6.5) == table.coefficient(Fraction(13, 2)) == 0


def test_connected_table_builds_no_degree_d_eigenfunction_table(cache, monkeypatch):
    # the top level folds the character sum's terms and the peeled
    # components straight to ν's eigenvalue, so both kinds of eigenfunction
    # table stop below degree d
    seen = {"t_table": [], "tc_table": []}
    for name in seen:
        def spy(self, delta, omegas, name=name, method=getattr(ConnectedComputer, name)):
            seen[name].append(delta)
            return method(self, delta, omegas)

        monkeypatch.setattr(ConnectedComputer, name, spy)
    nu = P([3, 2, 2, 1])
    table = extract_b_connected(0, 8, (), nu, cache)
    assert table.coefficient(factorial(8) // nu.centralizer_order()) == 1
    assert set(seen["t_table"]) == set(seen["tc_table"]) == set(range(1, 8))
    seen["t_table"].clear()
    table = extract_b_connected(1, 8, (P([2, 2, 1, 1, 1, 1]),), P([2, 2, 1, 1, 1, 1]), cache)
    assert table.entries and set(seen["t_table"]) == set(range(1, 8))


def test_tables_below_the_top_carry_only_possible_hand_offs(cache, monkeypatch):
    # a ν-point fixes m₁(ν) sheets, so a piece of δ sheets can only receive a
    # type a with δ − m₁(ν) ≤ |a| ≤ δ; no eigenfunction table the connected
    # fold reads may be nonzero on any other type
    seen = []
    for name in ("t_table", "tc_table"):
        def spy(self, delta, omegas, method=getattr(ConnectedComputer, name)):
            table = method(self, delta, omegas)
            seen.append((self.algebra, delta, table))
            return table

        monkeypatch.setattr(ConnectedComputer, name, spy)
    cases = [(0, 8, (), P([2, 2, 2, 2])), (1, 8, (P([3, 2, 1, 1, 1]),), P([3, 2, 2, 1])),
             (0, 9, (), P([3, 2, 2, 1, 1])), (2, 6, (), P([4, 2])), (0, 16, (), P([4, 3, 3, 2, 2, 2]))]
    for h, d, mus, nu in cases:
        seen.clear()
        extract_b_connected(h, d, mus, nu, cache)
        assert seen
        units = nu.multiplicity(1)
        for alg, delta, table in seen:
            impossible = [t for t, size in enumerate(alg.tsum) if not delta - units <= size <= delta]
            for e in table:
                assert all(e[t] == 0 for t in impossible), (nu, delta, e)


def test_connected_tables_where_the_hand_off_rule_prunes_are_pinned():
    # SHA-256 of to_json(), as the benchmark digests tables; recorded before
    # the tables below the top dropped the hand-offs no ν-point can make
    pinned = {(16, (2,) * 8): "4dc8686633f19583b431e21cb02f1be821641db9d88003a052caf67ecfb6c774",
              (16, (4, 3, 3, 2, 2, 2)): "9305801d4df79804bc15a35e1a28ebbbd6932200bc7c04d0322c2a33af895703",
              (18, (2,) * 9): "e55c163b124aae730b22deab79a6688bb8c2bd197165d80c5d4ac948a5c61ee9"}
    for (d, parts), digest in pinned.items():
        table = extract_b_connected(0, d, (), P(parts), CharCache())
        text = json.dumps(table.to_json(), sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (d, parts)


def test_value_at_is_the_per_modulus_fraction_sum(cache):
    def per_modulus(table, k):
        return table.prefactor * sum((b * m**k for m, b in table.entries.items()), Fraction(0))

    tables = [extract_b_connected(1, 7, (P([3, 2, 1, 1]),), P([2] + [1] * 5), cache),
              extract_b_disconnected(1, 6, (P([2, 2, 1, 1]),), P([3, 3]), cache),
              BTable("connected", 0, 4, (), P([2, 2]), 0,
                     {12: Fraction(-5, 4), 6: Fraction(1, 3), 1: Fraction(7, 6)})]
    for table in tables:
        assert len({b.denominator for b in table.entries.values()}) > 1
        for k in _sample_exponents(table.parity, 4):
            assert table.value_at(k) == per_modulus(table, k), (table.nu, k)
    empty = BTable("connected", 0, 4, (), P([2, 2]), 1, {})
    assert empty.value_at(3) == 0 and isinstance(empty.value_at(3), Fraction)


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


def test_t5_t1_t6_tables_from_brute_force_counts_d7(cache):
    # character-free tables at d = 7: monodromy counts at |support| + 2
    # exponents, the last two held out of the moment solve
    d = 7
    prefac = _prefactor(0, d, ())
    for nu in (P([6, 1]), P([2, 1, 1, 1, 1, 1]), P([7])):
        support = candidate_moduli(d, nu, cache)
        ks = _sample_exponents(_resolve_parity(nu, (), None)[0], len(support) + 2)
        values = [brute_force_connected(RepeatedSpec(CoverSpec(0, d, ()), nu, k=k).cover_spec())
                  / prefac for k in ks]
        solved = _solve_moment_system(support, ks[0], values[:-2])
        for k, value in zip(ks[-2:], values[-2:]):
            assert sum(b * m**k for m, b in solved.items()) == value, (nu, k)
        entries = {m: b for m, b in solved.items() if b}
        assert entries == extract_b_connected(0, d, (), nu, cache).entries, nu
        if nu == P([6, 1]):
            assert entries[2 * (d - 2) * factorial(d - 4)] == 196


def test_t1_table_from_brute_force_counts_d10(cache):
    # the T1 table at d = 10 (r = 2, h = 0, s = 0) from one pass of monodromy
    # counts over every k: |support| + 2 exponents, the last two held out of
    # the moment solve; T1's five clauses hold on it
    d, nu = 10, P([2] + [1] * 8)
    prefac = _prefactor(0, d, ())
    support = candidate_moduli(d, nu, cache)
    ks = _sample_exponents(_resolve_parity(nu, (), None)[0], len(support) + 2)
    counts = _count_tuples(CoverSpec(0, d, ()), True, nu, ks[-1])
    values = [counts[k] / prefac for k in ks]
    solved = _solve_moment_system(support, ks[0], values[:-2])
    for k, value in zip(ks[-2:], values[-2:]):
        assert sum(b * m**k for m, b in solved.items()) == value, k
    entries = {m: b for m, b in solved.items() if b}
    assert entries == extract_b_connected(0, d, (), nu, cache).entries
    top, pair, below = _moduli(d, nu)
    val_d, val_d1 = _subleading_values(0, d, ())
    table = BTable("connected", 0, d, (), nu, 0, entries)
    clauses = _ladder(table, [(top, 1), (pair, -val_d), (below[1], val_d1)])
    assert len(clauses) == 5 and all(c["pass"] for c in clauses), clauses


def test_t6(cache):
    for h in (0, 1):
        rep = verify_theorem("T6", h=h, d=7, cache=cache)
        assert rep["pass"], rep["counterexample"]


def test_moduli_match_the_literal_closed_forms():
    # the rungs and gap edges are derived from d!/z_ν, m₁(ν)/d and conjecture
    # 1's bounds; here each derivation meets the closed form it replaced
    f = factorial
    for d in range(7, 31):
        for r in range(2, d - 1):  # T1 and PropDH
            top, pair, below = _moduli(d, P([r] + [1] * (d - r)))
            assert top == Fraction(f(d), r * f(d - r))
            assert pair == Fraction(f(d - 1), r * f(d - r - 1))
            assert below[1] == Fraction((d - r - 1) * f(d), r * (d - 1) * f(d - r))
        top, pair, below = _moduli(d, P([d - 1, 1]))  # T5
        assert (top, pair, below[3]) == (d * f(d - 2), f(d - 2), 2 * (d - 2) * f(d - 4))
        top, _, below = _moduli(d, P([d]))  # T6
        assert (top, below[1]) == (f(d - 1), f(d - 2))
    for d in range(10, 21):
        for nu in partitions_of(d):
            z, m1, m2 = nu.centralizer_order(), nu.multiplicity(1), nu.multiplicity(2)
            top, pair, below = _moduli(d, nu)
            assert top == Fraction(f(d), z)
            if m1 >= 2:  # cH4
                assert pair == Fraction(f(d) * m1, d * z)
                assert below[1] == Fraction(f(d) * (m1 - 1), (d - 1) * z)
            elif m1 == 0:  # cH9
                assert below[1] == Fraction(d * f(d - 2), z)
            else:  # cH11
                assert pair == Fraction(f(d - 1), z)
                assert below[2] == Fraction(2 * d * m2 * f(d - 3), z)
                assert below[3] == Fraction(2 * f(d - 1), (d - 3) * z)


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


def test_genus0_one_profile_counts_match_hurwitz_formula(cache):
    # Hurwitz's formula: no character and no peeling, so beside the
    # brute-force counts it checks the connected tables from outside
    assert [genus0_one_profile_count(P(parts)) for parts in ((3, 2), (4, 2, 1), (5, 3, 2))] == [
        216, 860160, 9355500000]
    for d in range(2, 10):
        nu = P([2] + [1] * (d - 2))
        for mu in partitions_of(d):
            spec = RepeatedSpec(CoverSpec(0, d, (mu,)), nu, k=d + mu.length - 2)
            assert connected(spec, cache) == genus0_one_profile_count(mu), mu
    for d in range(16, 21):
        mu, nu = P([d - 5, 3, 2]), P([2] + [1] * (d - 2))
        table = extract_b_connected(0, d, (mu,), nu, cache)
        assert table.value_at(d + 1) == genus0_one_profile_count(mu), d


def test_long_cycle_counts_match_minimal_factorizations(cache):
    # a d-cycle into k r-cycles, k(r − 1) = d − 1: H = d^{k−2}
    assert [minimal_cycle_factorization_count(d, r) for d, r in ((7, 3), (9, 3), (9, 5), (13, 4))] == [
        7, 81, 1, 169]

    def cases(degrees):
        return [(d, r, (d - 1) // (r - 1), P([r] + [1] * (d - r)))
                for d in degrees for r in range(2, d + 1) if (d - 1) % (r - 1) == 0]

    for d, r, k, nu in cases(range(2, 10)):
        spec = RepeatedSpec(CoverSpec(0, d, (P([d]),)), nu, k=k)
        assert connected(spec, cache) == minimal_cycle_factorization_count(d, r), (d, r)
    for d, r, k, nu in cases(range(16, 21)):
        table = extract_b_connected(0, d, (P([d]),), nu, cache, parity=k % 2)
        assert table.value_at(k) == minimal_cycle_factorization_count(d, r), (d, r)


def test_genus1_one_profile_counts_match_vakils_formula(cache):
    # r = d + ℓ(μ) simple branch points and one μ-point on a genus-0 target
    assert [genus1_one_profile_count(P(parts)) for parts in ((3, 2), (4, 1, 1), (5, 3, 1))] == [
        26460, 9838080, 996360750000]
    for d in range(2, 8):
        nu = P([2] + [1] * (d - 2))
        for mu in partitions_of(d):
            spec = RepeatedSpec(CoverSpec(0, d, (mu,)), nu, k=d + mu.length)
            assert connected(spec, cache) == genus1_one_profile_count(mu), mu


def test_one_part_counts_match_central_factorial_numbers(cache):
    # μ = (d) and r = d − 1 + 2g simple branch points, at every source genus g
    assert [one_part_count(d, g) for d, g in ((3, 1), (4, 2), (5, 3), (2, 7))] == [
        9, 5824, 33203125, Fraction(1, 2)]
    for d in range(2, 8):
        nu = P([2] + [1] * (d - 2))
        for g in range(6):
            spec = RepeatedSpec(CoverSpec(0, d, (P([d]),)), nu, g=g)
            assert connected(spec, cache) == one_part_count(d, g), (d, g)


def test_closed_forms_hold_on_the_tables_at_degree_30(cache):
    # all four closed forms through the table route at d = 30, and (c) out
    # to g = 400; for odd r the colength of ν is even, so the table is built
    # at the parity of k
    def value(mu, nu, k):
        d = nu.size
        return extract_b_connected(0, d, (mu,), nu, cache, parity=k % 2).value_at(k)

    simple = P([2] + [1] * 28)
    assert value(P([25, 3, 2]), simple, 31) == genus0_one_profile_count(P([25, 3, 2]))
    assert value(P([24, 4, 2]), simple, 33) == genus1_one_profile_count(P([24, 4, 2]))
    for d, genera in ((30, (0, 1, 2, 5, 20, 100, 400)), (7, (400,))):
        table = extract_b_connected(0, d, (P([d]),), P([2] + [1] * (d - 2)), cache, parity=(d - 1) % 2)
        for g in genera:
            assert table.value_at(d - 1 + 2 * g) == one_part_count(d, g), (d, g)
    for d, r in ((29, 8), (30, 2)):
        k = (d - 1) // (r - 1)
        assert value(P([d]), P([r] + [1] * (d - r)), k) == minimal_cycle_factorization_count(d, r), (d, r)


def test_large_genus_count_equals_the_table(cache):
    # g = 100 is k = 212 simple branch points: the count form, run at that
    # k, against `connected` and the table, which both read the family's
    # eigenvalue fold
    nu = P([2, 1, 1, 1, 1, 1])
    spec = RepeatedSpec(CoverSpec(0, 7, ()), nu, g=100)
    assert spec.point_count() == 212
    count = ConnectedComputer(0, 7, (), nu, cache).value(212)
    assert count and count == connected(spec, cache)
    assert count == extract_b_connected(0, 7, (), nu, cache).value_at(212)


def test_hook_tables_hold_at_the_least_riemann_hurwitz_exponent(cache):
    # at h = 0 both held-out exponents of a hook table lie below the
    # Riemann–Hurwitz minimum k(r − 1) ≥ 2d − 2, where table and count both
    # read 0; k₀, the least admissible k of the table's parity, is nonzero
    for d in (7, 8, 9):
        for r in (2, 3):
            nu = P([r] + [1] * (d - r))
            table = extract_b_connected(0, d, (), nu, cache)
            k0 = -(-(2 * d - 2) // (r - 1))
            k0 += (k0 - table.parity) % 2
            assert max(_sample_exponents(table.parity, 2)) < k0
            value = connected(RepeatedSpec(CoverSpec(0, d, ()), nu, k=k0), cache)
            assert value and table.value_at(k0) == value, (d, r)
