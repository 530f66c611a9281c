import subprocess
import sys
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb, factorial, prod

import pytest

from snhurwitz import hurwitz
from snhurwitz.characters import CharCache, central_column
from snhurwitz.errors import BudgetError, GenusError, SizeMismatchError
from snhurwitz.hurwitz import (
    ConnectedComputer,
    CoverSpec,
    NuSplitAlgebra,
    RepeatedSpec,
    _count_tuples,
    _join,
    _members,
    _orbit_count,
    _orbit_key,
    _placements,
    _representative,
    _start,
    brute_force_connected,
    brute_force_disconnected,
    connected,
    disconnected,
    mu_splits,
)
from snhurwitz.partitions import Partition, parse, partitions_of
from snhurwitz.structure import extract_b_connected

from oracles import convolve, one_part_count

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
    for h, combo, want_c in [
        (0, (P([2, 1, 1]),) * 3, None),
        (0, (P([4]), P([4])), None),
        (0, (P([3, 1]), P([2, 2]), P([4])), None),
        (0, (P([3, 1, 1]),) * 2 + (P([2, 2, 1]),) * 2, 9),
        (1, (P([2, 2, 1]),), 24),
        (1, (P([3, 1, 1]),), 27),
    ]:
        spec = CoverSpec(h, combo[0].size, combo)
        lit_d, lit_c = _literal_counts(h, spec.d, combo)
        assert brute_force_disconnected(spec) == lit_d
        assert brute_force_connected(spec) == lit_c
        assert want_c is None or lit_c == want_c
        checked += 1
    assert checked > 30


def _cycle_masks(p):
    """Per sheet x, the bit mask of x's cycle under p."""
    out = []
    for x in range(len(p)):
        mask, y = 1 << x, p[x]
        while y != x:
            mask |= 1 << y
            y = p[y]
        out.append(mask)
    return out


def _masks_of(blocks):
    """Per sheet x, the bit mask of the sheets sharing x's block name."""
    return [sum(1 << y for y, b in enumerate(blocks) if b == a) for a in blocks]


def _merged_sizes(parts):
    """Every multiset of block sizes that blocks of the given sizes merge
    into, over all set partitions of the blocks."""
    out = set()

    def merge(i, groups):
        if i == len(parts):
            out.add(tuple(sorted(groups, reverse=True)))
            return
        for j in range(len(groups)):
            groups[j] += parts[i]
            merge(i + 1, groups)
            groups[j] -= parts[i]
        merge(i + 1, groups + [parts[i]])

    merge(0, [])
    return out


def test_group_tables_match_tuple_composition():
    for d in range(1, 6):
        perms = list(permutations(range(d)))
        seen = []
        for mu in partitions_of(d):
            members = _members(mu.parts)
            assert len(members) == factorial(d) // mu.centralizer_order()
            for p in members:
                lengths = (bin(m).count("1") for m in set(_cycle_masks(p)))
                assert tuple(sorted(lengths, reverse=True)) == mu.parts
            seen += members
        assert sorted(seen) == perms
        # every set partition is the cycle partition of some permutation
        partitions = {tuple(_cycle_masks(p)): p for p in perms}
        for pa in partitions:
            for pb, q in partitions.items():
                joined = [pa[x] | pb[x] for x in range(d)]
                for _ in range(d):
                    joined = [joined[x] | _or_of(joined, joined[x]) for x in range(d)]
                assert _masks_of(_join(pa, q)) == joined
        # conjugating a state (r, p) by either generator of S(d) keeps its key
        gens = [(1, 0) + tuple(range(2, d)), tuple(range(1, d)) + (0,)] if d > 1 else []
        keys = set()
        for r in perms:
            for q in partitions.values():
                blocks = _join(_cycle_masks(r), q)
                key = _orbit_key(r, blocks)
                for t in gens:
                    r2, blocks2 = [0] * d, [0] * d
                    for x in range(d):
                        r2[t[x]] = t[r[x]]
                        blocks2[t[x]] = blocks[x]
                    assert _orbit_key(r2, blocks2) == key
                keys.add(key)
        for key in keys:
            assert _orbit_key(*_representative(key)) == key
        # the orbits over a start's blocks are the keys whose block sizes
        # merge its cycles: every key from singletons, cycle types from one block
        assert _orbit_count((1,) * d) == len(keys)
        assert _orbit_count((d,)) == len(partitions_of(d))
        for mu in partitions_of(d):
            merged = _merged_sizes(mu.parts)
            over = [key for key in keys if tuple(sorted(map(sum, key), reverse=True)) in merged]
            assert _orbit_count(mu.parts) == len(over), mu
            # the h = 0 start: a member's orbit with its cycles as blocks
            p = _members(mu.parts)[-1]
            assert _orbit_key(p, _cycle_masks(p)) == tuple(sorted((n,) for n in mu.parts))


def _or_of(masks, sel):
    out = 0
    for y, m in enumerate(masks):
        if sel >> y & 1:
            out |= m
    return out


def test_brute_force_long_point_lists(cache):
    # long point lists, whose a priori bound d!^n on the tuple count exceeds 2^62
    for d, nu, k in [(3, P([2, 1]), 24), (4, P([2, 1, 1]), 14), (5, P([2, 1, 1, 1]), 10)]:
        spec = RepeatedSpec(CoverSpec(0, d, ()), nu, k=k)
        cover = spec.cover_spec()
        assert brute_force_connected(cover) == connected(spec, cache)
        assert brute_force_disconnected(cover) == disconnected(cover, cache)


def test_brute_force_connected_degree_six(cache):
    # the 120 six-cycles share one orbit partition; the 15 transpositions
    # have the most orbit partitions of any class
    for nu, mus, k in [("6", (), 2), ("6", ("6",), 1), ("3,3", (), 4),
                       ("2,2,2", ("4,2",), 2), ("4,1,1", ("2,1^4",), 3)]:
        spec = RepeatedSpec(CoverSpec(0, 6, tuple(parse(m) for m in mus)), parse(nu), k=k)
        assert brute_force_connected(spec.cover_spec()) == connected(spec, cache), (nu, mus, k)


def test_brute_force_examples():
    assert brute_force_disconnected(CoverSpec(0, 2, (P([2]), P([2])))) == Fraction(1, 2)
    assert brute_force_disconnected(CoverSpec(1, 2, ())) == 2
    assert brute_force_connected(CoverSpec(1, 2, ())) == Fraction(3, 2)
    assert brute_force_connected(CoverSpec(0, 2, (P([2]), P([2])))) == Fraction(1, 2)
    assert brute_force_connected(CoverSpec(0, 3, (P([3]), P([3])))) == Fraction(1, 3)


def test_brute_force_budget_guard(monkeypatch):
    with pytest.raises(BudgetError):
        brute_force_disconnected(CoverSpec(0, 10, (P([10]),) * 3))
    with pytest.raises(BudgetError):
        brute_force_disconnected(CoverSpec(2, 4, ()))
    # the h = 1 start is charged p(d)·d!: 30 · 9! at d = 9
    for oracle in (brute_force_connected, brute_force_disconnected):
        with pytest.raises(BudgetError, match="estimated 10886400 transitions"):
            oracle(CoverSpec(1, 9, ()))
    # an estimate of 4,008,004 transitions, just above the default budget,
    # is refused before any member, start or transition is built: the two
    # 12-cycles are never enumerated, and the 51,975 members of (2⁴,1⁴) are
    # charged once per orbit of the one-block start, 77 = p(12)
    for name in ("_members", "_start", "_transitions"):
        monkeypatch.setattr(hurwitz, name, lambda *args, name=name: pytest.fail(f"{name} ran"))
    with pytest.raises(BudgetError, match="estimated 4008004 transitions"):
        brute_force_connected(CoverSpec(0, 12, (P([12]), P([12]), P([2, 2, 2, 2, 1, 1, 1, 1]))))


def test_untracked_start_merges_the_tracked_blocks():
    # untracked, [a,b] = a∘(b∘a∘b⁻¹)⁻¹ walks each class once; its cycle
    # types must be the tracked start's with each orbit's blocks merged
    for d in range(1, 7):
        merged: dict = {}
        for key, n in _start(d, True):
            cycle_type = (tuple(sorted(sum(key, ()), reverse=True)),)
            merged[cycle_type] = merged.get(cycle_type, 0) + n
        assert dict(_start(d, False)) == merged
        assert sum(merged.values()) == factorial(d) ** 2


def test_brute_force_at_the_papers_degrees(cache):
    # (d, μ₁, μ₂, ν, k) at d = 9..16: the two fixed classes are the start and
    # the end, so only the ν-points' members are enumerated; at d = 11 the
    # start (10,1) has two blocks
    for d, mu1, mu2, nu, k in [(9, "9", "4,3,2", "2,1^7", 8), (10, "5,3,2", "10", "3,1^7", 4),
                               (11, "10,1", "6,5", "2,1^9", 8), (12, "12", "12", "2,1^10", 12),
                               (13, "13", "7,4,2", "2,1^11", 10), (14, "7,4,3", "14", "2,1^12", 20),
                               (15, "15", "8,7", "2,1^13", 9), (16, "16", "16", "2,1^14", 16)]:
        spec = RepeatedSpec(CoverSpec(0, d, (parse(mu1), parse(mu2))), parse(nu), k=k)
        cover = spec.cover_spec()
        value = brute_force_connected(cover)
        assert value and value == connected(spec, cache), d
        assert brute_force_disconnected(cover) == disconnected(cover, cache), d


def test_every_k_pass_matches_the_per_k_counts(cache):
    # one pass reads the count after every ν-point; ν = (2,1⁸) at d = 10
    d, nu = 10, P([2] + [1] * 8)
    base = CoverSpec(0, d, ())
    table = extract_b_connected(0, d, (), nu, cache)
    counts = _count_tuples(base, True, nu, 60)
    assert len(counts) == 61 and not any(counts[1::2])
    for k in range(2, 61, 2):
        spec = RepeatedSpec(base, nu, k=k)
        assert counts[k] == brute_force_connected(spec.cover_spec()) == table.value_at(k), k
    # with fixed profiles, at h = 1 and untracked too
    for h, mus, nu, k in [(0, ("4,3,2,1",), P([3] + [1] * 7), 6), (1, ("2,2,1,1",), P([2, 1, 1, 1, 1]), 5)]:
        base = CoverSpec(h, nu.size, tuple(parse(m) for m in mus))
        for track, oracle in ((True, brute_force_connected), (False, brute_force_disconnected)):
            counts = _count_tuples(base, track, nu, k)
            assert counts == [oracle(RepeatedSpec(base, nu, k=j).cover_spec()) for j in range(k + 1)]


def test_import_loads_no_numpy():
    code = "import sys, snhurwitz; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


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


def test_disconnected_evaluates_each_distinct_profile_once(cache, monkeypatch):
    # one central column read per distinct profile per call, none per λ
    calls = []

    def reading(mu, cache=None):
        calls.append(mu)
        return column_of(mu, cache)

    column_of = hurwitz.central_column
    monkeypatch.setattr(hurwitz, "central_column", reading)
    for d, nu, mu, k in [(4, P([2, 1, 1]), P([3, 1]), 6), (6, P([3, 3]), P([2, 2, 1, 1]), 5)]:
        spec = CoverSpec(0, d, (nu,) * k + (mu,))
        calls.clear()
        value = disconnected(spec, cache)
        assert sorted(calls) == sorted([nu.parts, mu.parts])
        assert value == brute_force_disconnected(spec)


def test_computers_share_central_columns(monkeypatch):
    # a computer's two recursions read their eigenvalues from the cache's
    # central columns and never call hurwitz.central_character (which the
    # benchmark's tracing wraps for the character sum and the fold); a
    # second computer over the same ν on the same cache builds no central
    # column and reads the first one's columns
    calls, read = [], []

    def counting(theta, lam, cache=None):
        calls.append(theta)
        return central(theta, lam, cache)

    def reading(mu, cache=None):
        column = column_of(mu, cache)
        read.append((mu, column))
        return column

    central, column_of = hurwitz.central_character, hurwitz.central_column
    monkeypatch.setattr(hurwitz, "central_character", counting)
    monkeypatch.setattr(hurwitz, "central_column", reading)
    memo = CharCache()
    nu, mus = P([2, 2, 1, 1]), (P([3, 1, 1, 1]),)
    built = []
    for h in (0, 1):
        read.clear()
        comp = ConnectedComputer(h, 6, mus, nu, memo)
        for k in range(5):
            comp.value(k)
        comp.tc_table(6, tuple(m.parts for m in mus))
        built.append(dict(memo._central))
    assert not calls and read
    assert built[1].keys() == built[0].keys()
    assert all(column is built[0][mu] for mu, column in read)


def test_import_fills_no_character_memo():
    code = ("import snhurwitz; from snhurwitz import characters as c; "
            "print(len(c._DEFAULT_CACHE._values), len(c._DEFAULT_CACHE._central))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "0"]


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
    # k = 0 reads every pair of the fold, the t = 0 ones through 0**0 == 1,
    # and some families need them
    zeros = 0
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
                    zeros += bool(ConnectedComputer(h, d, mus, nu, cache).fold().get(0))
    assert zeros


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


def test_one_fold_per_family_and_cache(monkeypatch):
    # k = 0..4 and a g-sweep of one family peel once per cache; a memo hit
    # equals a fresh cache's answer
    peels = []

    def counting(self, omegas):
        peels.append(omegas)
        return peel(self, omegas)

    peel = ConnectedComputer.peel
    monkeypatch.setattr(ConnectedComputer, "peel", counting)
    base, nu = CoverSpec(1, 5, (P([3, 1, 1]),)), P([2, 2, 1])
    memo = CharCache()
    values = [connected(RepeatedSpec(base, nu, k=k), memo) for k in range(5)]
    values += [connected(RepeatedSpec(base, nu, g=g), memo) for g in range(5, 40, 3)]
    assert len(peels) == 1
    assert len(memo._folds) == 1
    fresh = [connected(RepeatedSpec(base, nu, k=k), CharCache()) for k in range(5)]
    fresh += [connected(RepeatedSpec(base, nu, g=g), CharCache()) for g in range(5, 40, 3)]
    assert values == fresh and any(values)
    count_form = ConnectedComputer(1, 5, base.profiles, nu, memo)
    assert values[:5] == [count_form.value(k) for k in range(5)]
    assert len(peels) == 1 + len(fresh)


def test_fold_reaches_large_genus(cache):
    # g = 400 over one 7-cycle: k = 806 simple points
    spec = RepeatedSpec(CoverSpec(0, 7, (P([7]),)), P([2, 1, 1, 1, 1, 1]), g=400)
    assert connected(spec, cache) == one_part_count(7, 400)


def test_nu_split_algebra_indexes_taken_then_left_behind():
    alg = NuSplitAlgebra(P([2, 2, 1]))
    assert alg.types == [(2, 2), (2,), ()] and alg.full == 0
    assert alg.choices == [[(0, 2), (1, 1), (2, 0)], [(1, 2), (2, 1)], [(2, 2)]]
    for nu in [P([3, 2, 2, 1]), P([4, 3, 3, 2, 2, 2]), P([2] * 4)]:
        alg = NuSplitAlgebra(nu)
        big = tuple(v for v in nu.parts if v >= 2)
        subs = {c for r in range(len(big) + 1) for c in combinations(big, r)}
        assert alg.types == sorted(subs, reverse=True)
        assert alg.types[alg.full] == big
        for a, opts in enumerate(alg.choices):
            # every distinct sub-multiset once, taken first, in type order
            assert [b for b, _ in opts] == sorted({alg.tindex[c] for r in range(len(alg.types[a]) + 1)
                                                   for c in combinations(alg.types[a], r)})
            for b, rest in opts:
                assert sorted(alg.types[b] + alg.types[rest], reverse=True) == list(alg.types[a])


def test_mu_splits_are_the_exact_multiset_splits_once_each():
    # brute force over index subsets; the splits of the fixed profiles come
    # as a product, each profile's taken parts in decreasing lexicographic
    # order, which is the tuples of taken parts sorted in decreasing order
    def splits(om, delta1):
        out = set()
        for r in range(len(om) + 1):
            for idx in combinations(range(len(om)), r):
                taken = tuple(om[i] for i in idx)
                if sum(taken) == delta1:
                    out.add((taken, tuple(om[i] for i in range(len(om)) if i not in idx)))
        return out

    profiles = [(3, 2, 1), (2, 2, 1, 1), (3, 1, 1, 1), (2, 2, 2), (4, 1, 1)]
    cases = [()] + [(om,) for om in profiles] + list(combinations_with_replacement(profiles, 2))
    for omegas in cases:
        for delta1 in range(1, 6):
            got = mu_splits(delta1, omegas)
            assert isinstance(got, tuple) and mu_splits(delta1, omegas) is got
            expected = {(tuple(w1 for w1, _ in choice), tuple(w2 for _, w2 in choice))
                        for choice in product(*(splits(om, delta1) for om in omegas))}
            assert len(set(got)) == len(got), (delta1, omegas)
            assert list(got) == sorted(expected, reverse=True), (delta1, omegas)
    assert mu_splits(3, ()) == (((), ()),)


def test_placements_enumerate_labelled_point_placements():
    for n in range(7):
        for slots in range(1, 5):
            places = _placements(n, slots)
            takes = [t for t, _ in places]
            assert all(len(t) == slots and sum(t) == n for t in takes)
            assert len(set(takes)) == len(takes) == comb(n + slots - 1, slots - 1)
            # each takes vector is hit by n!/∏ takes! of the slots^n labellings
            assert sum(w for _, w in places) == slots**n
            assert all(w == factorial(n) // prod(factorial(t) for t in ts) for ts, w in places)
        if n:
            assert _placements(n, 0) == ()


def test_tuples_all_equals_scaled_character_sum(cache):
    # the integer weights dim²·(δ!/dim)^{2h}, divided once by δ!, against the
    # Fraction character sum; h = 2 lies beyond the brute-force oracles.  A
    # hand-off that ν cannot make on δ sheets reads 0, and the same point
    # profile is checked on ν padded with unit parts until it can
    checks = impossible = 0
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
                    pad = delta - alg.tsum[tidx] - alg.units
                    host = comp
                    if pad > 0:
                        host = ConnectedComputer(h, d + pad, (), P(nu.parts + (1,) * pad), cache)
                    assert host.algebra.types == alg.types
                    assert host.algebra.possible(tidx, delta) and alg.possible(tidx, delta) == (pad <= 0)
                    for n in (1, 2, 3):
                        counts = [0] * len(alg.types)
                        counts[tidx] = n
                        for omegas in omega_choices:
                            profiles = tuple(P(om) for om in omegas) + (point,) * n
                            expected = factorial(delta) * disconnected(
                                CoverSpec(h, delta, profiles), cache)
                            where = (d, nu, h, delta, counts, omegas)
                            assert host._tuples_all(delta, tuple(counts), omegas) == expected, where
                            if pad > 0:
                                assert comp._tuples_all(delta, tuple(counts), omegas) == 0, where
                                impossible += 1
                            checks += 1
    assert (checks, impossible) == (999, 684)


def test_count_and_table_forms_agree_on_every_piece(cache):
    # each piece's δ!-scaled counts, evaluated from the tables at every count
    # vector of total ≤ 3 over the hand-off types that fit δ; the held-out
    # check of a connected table reaches only the full type at degree d
    def at(table, counts):
        return sum(c * prod(e[t] ** n for t, n in enumerate(counts)) for e, c in table.items())

    checks = 0
    for d, nu in [(4, P([2, 2])), (5, P([3, 2])), (6, P([3, 2, 1])), (6, P([2, 2, 1, 1]))]:
        for h in (0, 1, 2):
            comp = ConnectedComputer(h, d, (), nu, cache)
            alg = comp.algebra
            for delta in range(1, d + 1):
                fitting = [t for t in range(len(alg.types)) if alg.tsum[t] <= delta]
                for omegas in [()] + [(lam.parts,) for lam in partitions_of(delta)[:2]]:
                    t_table = comp.t_table(delta, omegas)
                    tc_table = comp.tc_table(delta, omegas)
                    for ns in product(range(4), repeat=len(fitting)):
                        if sum(ns) > 3:
                            continue
                        counts = [0] * len(alg.types)
                        for t, n in zip(fitting, ns):
                            counts[t] = n
                        counts = tuple(counts)
                        where = (d, nu, h, delta, counts, omegas)
                        scale = factorial(delta)
                        assert comp._tuples_all(delta, counts, omegas) * scale == at(t_table, counts), where
                        assert (comp._tuples_transitive(delta, counts, omegas) * scale
                                == at(tc_table, counts)), where
                        checks += 2
    assert checks == 6042


def test_fold_is_the_full_component_of_the_top_table(cache):
    # peel(ω) computes only ν's eigenvalue of each top-level convolution;
    # with the character sum's (f_ν(λ), coefficient) pairs it must equal
    # tc_table(d, ω) read at the full type and summed
    def families(d):
        out = [[2] + [1] * (d - 2), [3, 2] + [1] * (d - 5), [2, 2] + [1] * (d - 4),
               [3, 2, 2] + [1] * (d - 7), [2] * (d // 2) if d % 2 == 0 else []]
        return list(dict.fromkeys(P(parts) for parts in out
                                  if parts and min(parts) >= 1 and sum(parts) == d))

    checks = 0
    for d in range(2, 9):
        for nu in families(d):
            for h in (0, 1, 2):
                for mus in [(), (P([2] + [1] * (d - 2)),)]:
                    comp = ConnectedComputer(h, d, mus, nu, cache)
                    omegas = tuple(m.parts for m in mus)
                    full = comp.algebra.full
                    expected: dict[int, int] = {}
                    for e, c in comp.tc_table(d, omegas).items():
                        expected[e[full]] = expected.get(e[full], 0) + c
                    expected = {t: c for t, c in expected.items() if c}
                    column = central_column(nu.parts, cache)
                    got = dict(comp.peel(omegas))
                    for lam, c in comp.terms(d, omegas):
                        t = column.get(lam.parts, 0)
                        got[t] = got.get(t, 0) + c
                    assert {t: c for t, c in got.items() if c} == expected, (d, nu, h, mus)
                    checks += 1
    assert checks == 120


def test_count_form_asks_for_no_first_piece_riemann_hurwitz_empties(cache, monkeypatch):
    # every state `value` asks for below the top is a first piece; by
    # Riemann–Hurwitz a transitive δ-sheet piece of a genus-h target has an
    # even total colength of at least δ(2 − 2h) − 2, so one below that floor
    # or of odd colength reads 0 and is never asked for.  Colengths are
    # taken from the partitions themselves, not from the algebra's `col`
    asked = []
    original = ConnectedComputer._tuples_transitive

    def spy(self, delta, counts, omegas):
        asked.append((self, delta, counts, omegas))
        return original(self, delta, counts, omegas)

    monkeypatch.setattr(ConnectedComputer, "_tuples_transitive", spy)
    checks = 0
    for nu in (P([2, 2, 1, 1, 1, 1, 1]), P([3, 2, 1, 1, 1]), P([2, 1, 1, 1, 1, 1, 1])):
        d = nu.size
        for h in (0, 1, 2):
            for mus in [(), (P([2, 2] + [1] * (d - 4)),)]:
                comp = ConnectedComputer(h, d, mus, nu, cache)
                alg = comp.algebra
                for k in (2, 4):
                    asked.clear()
                    comp.value(k)
                    for who, delta, counts, omegas in asked[1:]:
                        assert who is comp
                        colength = sum(n * P(alg.point_profile(t, delta)).colength
                                       for t, n in enumerate(counts) if n)
                        colength += sum(P(om).colength for om in omegas)
                        where = (nu, h, mus, k, delta, counts, omegas)
                        assert colength % 2 == 0 and colength >= delta * (2 - 2 * h) - 2, where
                        checks += 1
    assert checks > 0


def test_peeled_matches_the_convolve_oracle(cache):
    # the column-wise convolution against whole-eigenfunction `convolve`,
    # summed over the same splits; a single listed type keys by its entry
    checks = 0
    for nu in (P([2, 2, 1, 1, 1]), P([3, 2, 1, 1, 1]), P([4, 3, 2])):
        d = nu.size
        for h in (0, 1, 2):
            comp = ConnectedComputer(h, d, (), nu, cache)
            alg = comp.algebra
            every = range(len(alg.types))
            for delta in range(1, d + 1):
                for omegas in [(), ((2,) + (1,) * (delta - 2) if delta > 1 else (1,),)]:
                    expected: dict[tuple[int, ...], int] = {}
                    for d1 in range(1, delta):
                        ways = comb(delta - 1, d1 - 1) * comb(delta, d1)
                        fit = alg.fitting(d1, delta - d1)
                        for om1, om2 in mu_splits(d1, omegas):
                            for e1, c1 in comp.tc_table(d1, om1).items():
                                for e2, c2 in comp.t_table(delta - d1, om2).items():
                                    e = convolve(fit, e1, e2)
                                    expected[e] = expected.get(e, 0) - ways * c1 * c2
                    nonzero = {e: c for e, c in expected.items() if c}
                    where = (nu, h, delta, omegas)
                    got = comp._peeled(delta, omegas, every)
                    assert {e: c for e, c in got.items() if c} == nonzero, where
                    for t in every:
                        one: dict[int, int] = {}
                        for e, c in expected.items():
                            one[e[t]] = one.get(e[t], 0) + c
                        got = comp._peeled(delta, omegas, (t,))
                        assert {e: c for e, c in got.items() if c} == {e: c for e, c in one.items() if c}, where
                    checks += 1
    assert checks == 3 * 2 * (7 + 8 + 9)
