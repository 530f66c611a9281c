from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import factorial

import pytest

from snhurwitz.errors import BudgetError, GenusError, SizeMismatchError
from snhurwitz.hurwitz import (
    ConnectedComputer,
    CoverSpec,
    RepeatedSpec,
    brute_force_connected,
    brute_force_disconnected,
    connected,
    disconnected,
)
from snhurwitz.partitions import Partition, partitions_of

P = Partition


# -- literal nested-loop oracle for the dynamic programs ---------------------


def _literal_counts(h, d, profiles):
    perms = list(permutations(range(d)))
    ident = tuple(range(d))

    def compose(p, q):
        return tuple(p[q[x]] for x in range(d))

    def inverse(p):
        q = [0] * d
        for x, px in enumerate(p):
            q[px] = x
        return tuple(q)

    def cycle_type(p):
        seen, lens = [False] * d, []
        for x in range(d):
            if seen[x]:
                continue
            c, y = 0, x
            while not seen[y]:
                seen[y] = True
                y = p[y]
                c += 1
            lens.append(c)
        return tuple(sorted(lens, reverse=True))

    classes = [[p for p in perms if cycle_type(p) == pr.parts] for pr in profiles]
    n_dis = n_con = 0
    for handles in product(perms, repeat=2 * h):
        base = ident
        for i in range(h):
            a, b = handles[2 * i], handles[2 * i + 1]
            base = compose(base, compose(compose(a, b), compose(inverse(a), inverse(b))))
        for sigmas in product(*classes):
            g = base
            for s in sigmas:
                g = compose(g, s)
            if g != ident:
                continue
            n_dis += 1
            parent = list(range(d))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for p in handles + sigmas:
                for x in range(d):
                    rx, ry = find(x), find(p[x])
                    if rx != ry:
                        parent[rx] = ry
            if len({find(x) for x in range(d)}) == 1:
                n_con += 1
    return Fraction(n_dis, factorial(d)), Fraction(n_con, factorial(d))


def test_brute_force_matches_literal_enumeration():
    checked = 0
    for d in (2, 3):
        classes = partitions_of(d)
        for h in (0, 1):
            for n in (0, 1, 2):
                for combo in combinations_with_replacement(classes, n):
                    spec = CoverSpec(h, d, combo)
                    lit_d, lit_c = _literal_counts(h, d, combo)
                    assert brute_force_disconnected(spec) == lit_d
                    assert brute_force_connected(spec) == lit_c
                    checked += 1
    for combo in [
        (P([2, 1, 1]),) * 3,
        (P([4]), P([4])),
        (P([3, 1]), P([2, 2]), P([4])),
    ]:
        spec = CoverSpec(0, 4, combo)
        lit_d, lit_c = _literal_counts(0, 4, combo)
        assert brute_force_disconnected(spec) == lit_d
        assert brute_force_connected(spec) == lit_c
        checked += 1
    assert checked > 30


def test_brute_force_examples():
    assert brute_force_disconnected(CoverSpec(0, 2, (P([2]), P([2])))) == Fraction(1, 2)
    assert brute_force_disconnected(CoverSpec(1, 2, ())) == 2
    assert brute_force_connected(CoverSpec(1, 2, ())) == Fraction(3, 2)
    assert brute_force_connected(CoverSpec(0, 2, (P([2]), P([2])))) == Fraction(1, 2)
    assert brute_force_connected(CoverSpec(0, 3, (P([3]), P([3])))) == Fraction(1, 3)


def test_brute_force_budget_guard():
    with pytest.raises(BudgetError):
        brute_force_disconnected(CoverSpec(0, 7, ()))
    with pytest.raises(BudgetError):
        brute_force_disconnected(CoverSpec(2, 4, ()))
    with pytest.raises(BudgetError):
        brute_force_connected(CoverSpec(1, 5, (P([2, 1, 1, 1]),)), budget=10)


def test_disconnected_examples(cache):
    assert disconnected(CoverSpec(0, 2, (P([2]), P([2]))), cache) == Fraction(1, 2)
    assert disconnected(CoverSpec(1, 2, ()), cache) == 2
    for d in (2, 3, 4, 6):
        assert disconnected(CoverSpec(0, d, ()), cache) == Fraction(1, factorial(d))
    with pytest.raises(SizeMismatchError):
        CoverSpec(0, 3, (P([2]),))


def test_disconnected_oracle_equivalence(cache):
    for d in (2, 3, 4):
        classes = partitions_of(d)
        for h in (0, 1):
            for n in (0, 1, 2, 3):
                for combo in combinations_with_replacement(classes, n):
                    spec = CoverSpec(h, d, combo)
                    assert disconnected(spec, cache) == brute_force_disconnected(spec)


def test_repeated_spec_genus_conversion():
    base = CoverSpec(0, 3, ())
    spec = RepeatedSpec(base, P([2, 1]), k=4)
    assert spec.genus() == 0 and spec.parity_ok()
    spec = RepeatedSpec(base, P([2, 1]), g=1)
    assert spec.point_count() == 6
    assert RepeatedSpec(base, P([2, 1]), k=3).genus() is None  # parity violation
    with pytest.raises(GenusError):
        RepeatedSpec(base, P([2, 1]), g=-1)
    with pytest.raises(GenusError):
        RepeatedSpec(base, P([2, 1]))
    with pytest.raises(GenusError):
        RepeatedSpec(base, P([2, 1]), k=2, g=0)
    with pytest.raises(ValueError):
        RepeatedSpec(base, P([1, 1, 1]), k=2)
    # nu=(3) at d=3: l*(nu)=2, so g=1 needs k=(2g-2+2d)/2 = 3
    assert RepeatedSpec(base, P([3]), g=1).point_count() == 3
    with pytest.raises(GenusError):
        RepeatedSpec(CoverSpec(0, 4, ()), P([4]), g=1).point_count()


def test_connected_examples(cache):
    assert connected(RepeatedSpec(CoverSpec(0, 2, ()), P([2]), k=2), cache) == Fraction(1, 2)
    spec = RepeatedSpec(CoverSpec(0, 3, ()), P([2, 1]), k=4)
    assert connected(spec, cache) == brute_force_connected(spec.cover_spec())
    # parity violation is a flagged zero, not an error
    odd = RepeatedSpec(CoverSpec(0, 3, ()), P([2, 1]), k=3)
    assert not odd.parity_ok()
    assert connected(odd, cache) == 0


def test_connected_full_cycle_forces_transitivity(cache):
    # a point with a single d-cycle makes every cover connected
    for d in (3, 4):
        for k in (1, 2, 3):
            spec = RepeatedSpec(CoverSpec(0, d, ()), P([d]), k=k)
            assert connected(spec, cache) == disconnected(spec.cover_spec(), cache)


def test_connected_oracle_equivalence(cache):
    for d in (2, 3, 4):
        classes = partitions_of(d)
        nus = [p for p in classes if p.colength > 0]
        for h in (0, 1):
            for mus in [()] + [(m,) for m in classes]:
                for nu in nus:
                    for k in range(0, 5):
                        spec = RepeatedSpec(CoverSpec(h, d, mus), nu, k=k)
                        got = connected(spec, cache)
                        want = brute_force_connected(spec.cover_spec())
                        assert got == want, (h, d, mus, nu, k)
                        assert disconnected(spec.cover_spec(), cache) >= got >= 0


def test_profile_order_does_not_matter(cache):
    a = CoverSpec(0, 4, (P([2, 2]), P([4]), P([3, 1])))
    b = CoverSpec(0, 4, (P([4]), P([3, 1]), P([2, 2])))
    assert disconnected(a, cache) == disconnected(b, cache)
    assert brute_force_disconnected(a) == brute_force_disconnected(b)
    assert brute_force_connected(a) == brute_force_connected(b)


def test_degree_one_cover_is_trivial(cache):
    for h in (0, 1):
        assert disconnected(CoverSpec(h, 1, ()), cache) == 1
        assert brute_force_disconnected(CoverSpec(h, 1, ())) == 1
        assert brute_force_connected(CoverSpec(h, 1, ())) == 1


def test_computer_memo_is_shared_across_repeat_counts(cache):
    comp = ConnectedComputer(0, 4, (), P([2, 1, 1]), cache)
    values = [comp.value(k) for k in range(0, 7)]
    for k in (2, 4, 6):
        spec = RepeatedSpec(CoverSpec(0, 4, ()), P([2, 1, 1]), k=k)
        assert values[k] == brute_force_connected(spec.cover_spec())
    for k in (1, 3, 5):
        assert values[k] == 0


def test_tuples_all_equals_scaled_character_sum(cache):
    # the integer weights dim²·(δ!/dim)^{2h}, divided once by δ!, against the
    # Fraction character sum; h = 2 lies beyond the brute-force oracles
    for d, nu in [(4, P([2, 2])), (5, P([3, 2])), (6, P([3, 2, 1]))]:
        for h in (0, 1, 2):
            comp = ConnectedComputer(h, d, (), nu, cache)
            alg = comp.algebra
            for delta in range(1, d + 1):
                omega_choices = [()] + [(lam.parts,) for lam in partitions_of(delta)[:2]]
                for tidx in range(len(alg.types)):
                    if alg.tsum[tidx] > delta:
                        continue
                    point = P(alg.point_profile(tidx, delta))
                    for n in (1, 2, 3):
                        counts = [0] * len(alg.types)
                        counts[tidx] = n
                        for omegas in omega_choices:
                            profiles = tuple(P(om) for om in omegas) + (point,) * n
                            expected = factorial(delta) * disconnected(
                                CoverSpec(h, delta, profiles), cache)
                            got = comp._tuples_all(delta, tuple(counts), omegas)
                            assert got == expected, (d, nu, h, delta, counts, omegas)
