from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from oracles import border_strips, chi_entries

from snhurwitz.characters import (
    CharCache,
    _column,
    _rows,
    _strips,
    central_character,
    central_column,
    character_ratio,
    chi,
    chi_column,
    one_cycle_central_character,
    walk_columns,
)
from snhurwitz.errors import CeilingError, ExactnessError, SizeMismatchError
from snhurwitz.partitions import Partition, _partition_tuples, dimension, partitions_of


# -- independent oracle: irreducible characters from permutation modules ----
#
# The permutation module on words of content ν has an explicitly countable
# character (fixed words of one representative permutation).  Orthogonalizing
# those characters in reverse-lexicographic order recovers the irreducible
# table without any border-strip machinery.


def _representative(mu):
    perm = []
    start = 0
    for part in mu.parts:
        perm.extend(list(range(start + 1, start + part)) + [start])
        start += part
    return tuple(perm)


def _perm_module_character(nu, mu, d):
    perm = _representative(mu)
    colors = []
    for color, part in enumerate(nu.parts):
        colors.extend([color] * part)
    count = 0
    for word in set(permutations(colors)):
        if all(word[perm[i]] == word[i] for i in range(d)):
            count += 1
    return count


def _inner(a, b, classes):
    return sum(Fraction(a[i] * b[i], mu.centralizer_order()) for i, mu in enumerate(classes))


def _character_table_oracle(d):
    classes = partitions_of(d)
    irreducibles = {}
    for lam in classes:  # reverse-lex order refines dominance
        row = [_perm_module_character(lam, mu, d) for mu in classes]
        for other, orow in irreducibles.items():
            mult = _inner(row, orow, classes)
            assert mult.denominator == 1
            row = [x - mult * y for x, y in zip(row, orow)]
        assert _inner(row, row, classes) == 1
        irreducibles[lam] = [int(x) for x in row]
    return classes, irreducibles


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_chi_matches_permutation_module_oracle(d, cache):
    classes, table = _character_table_oracle(d)
    for lam, row in table.items():
        for mu, expected in zip(classes, row):
            assert chi(lam, mu, cache) == expected, (lam, mu)


def test_chi_examples(cache):
    for d in range(1, 9):
        for mu in partitions_of(d):
            assert chi(Partition([d]), mu, cache) == 1
            assert chi(Partition([1] * d), mu, cache) == (-1) ** mu.colength
    assert chi(Partition([2, 1]), Partition([2, 1]), cache) == 0


def test_chi_size_mismatch(cache):
    with pytest.raises(SizeMismatchError):
        chi(Partition([2, 1]), Partition([2, 2]), cache)


def test_chi_at_identity_is_dimension(cache):
    for d in range(1, 11):
        ident = Partition([1] * d)
        for lam in partitions_of(d):
            assert chi(lam, ident, cache) == dimension(lam)


def test_conjugation_sign_rule(cache):
    for d in range(2, 9):
        for lam in partitions_of(d):
            conj = lam.conjugate()
            for mu in partitions_of(d):
                assert chi(lam, mu, cache) == (-1) ** mu.colength * chi(conj, mu, cache)


def _beta_partition(mask):
    """The partition whose beta-set is the set bits of mask, zero parts dropped."""
    beta = [b for b in reversed(range(mask.bit_length())) if mask >> b & 1]
    return tuple(b - (len(beta) - 1 - i) for i, b in enumerate(beta) if b > len(beta) - 1 - i)


def test_column_orthogonality():
    # columns: Σ_λ χ_λ(μ)χ_λ(ν) = z_μ[μ = ν]; rows: Σ_μ (d!/z_μ)χ_λ(μ)χ_ρ(μ) = d![λ = ρ]
    memo, oracle = CharCache(), {}
    for d in range(1, 13):
        classes = partitions_of(d)
        table = [[chi(lam, mu, memo) for mu in classes] for lam in classes]
        # the trivial row pins each column's sign, which orthogonality leaves free
        assert table[classes.index(Partition([d]))] == [1] * len(classes)
        for i, mu in enumerate(classes):
            for j in range(i, len(classes)):
                s = sum(row[i] * row[j] for row in table)
                assert s == (mu.centralizer_order() if i == j else 0), (mu, classes[j])
        sizes = [factorial(d) // mu.centralizer_order() for mu in classes]
        for a, lam in enumerate(classes):
            for b in range(a, len(classes)):
                s = sum(n * x * y for n, x, y in zip(sizes, table[a], table[b]))
                assert s == (factorial(d) if a == b else 0), (lam, classes[b])
        entries = [[chi_entries(lam, mu, oracle) for mu in classes] for lam in classes]
        assert entries == table
    # one oracle memo state per (λ, μ-suffix): no λ is stored under two
    # beta-set masks, and the states are the χ values stats() counts
    states = {(_beta_partition(mask), mu) for mask, mu in oracle}
    assert len(states) == len(oracle) == memo.stats()["entries"]


def test_central_character_examples(cache):
    # one r-cycle on the trivial representation: the class size
    for d in (5, 6, 7):
        for r in range(2, d + 1):
            mu = Partition([r] + [1] * (d - r))
            assert central_character(mu, Partition([d]), cache) == factorial(d) // (r * factorial(d - r))
    assert central_character(Partition([2, 1]), Partition([2, 1]), cache) == 0
    for d in (3, 5, 8):
        for lam in partitions_of(d):
            assert central_character(Partition([1] * d), lam, cache) == 1


def test_central_character_integrality(cache):
    for d in range(2, 9):
        for mu in partitions_of(d):
            for lam in partitions_of(d):
                central_character(mu, lam, cache)  # raises ExactnessError on failure


def test_central_columns_match_chi_entries():
    # every class-sum eigenvalue of degree ≤ 10, on a fresh cache, against
    # d!·χ_λ(μ)/(z_μ·dim λ) from the entry recursion of tests/oracles.py
    memo, oracle = CharCache(), {}
    for d in range(11):
        classes = partitions_of(d)
        for mu in classes:
            for lam in classes:
                expected = Fraction(factorial(d) * chi_entries(lam, mu, oracle),
                                    mu.centralizer_order() * dimension(lam))
                assert central_character(mu, lam, memo) == expected, (mu, lam)
    # one central column per μ, keyed by the parts of λ ⊢ |μ|, each holding
    # only the nonzero values
    assert len(memo._central) == sum(len(partitions_of(d)) for d in range(11))
    for mu, column in memo._central.items():
        assert column is central_column(mu, memo)
        assert set(column) <= {lam.parts for lam in partitions_of(sum(mu))}, mu
        assert 0 not in column.values()


def test_non_integral_central_column_raises():
    # a χ column with χ_{(2,1)}(1³) = 1, in partitions_of(3) order, gives
    # f = 3!·1/(3!·2), not an integer
    memo = CharCache()
    lam, mu = Partition([2, 1]), Partition([1, 1, 1])
    memo._values[(3, mu.parts)] = (0, 1, 0)
    with pytest.raises(ExactnessError, match=r"mu=1,1,1, lam=2,1"):
        central_character(mu, lam, memo)
    assert not memo._central


def test_one_cycle_normalization(cache):
    # marked-cycle form agrees with the plain central character for r >= 2
    for d in (4, 6):
        for lam in partitions_of(d):
            for r in range(2, d + 1):
                mu = Partition([r] + [1] * (d - r))
                assert one_cycle_central_character(r, lam, cache) == central_character(mu, lam, cache)
            assert one_cycle_central_character(1, lam, cache) == d


def test_character_ratio_examples(cache):
    d = 7
    for mu in partitions_of(d):
        assert character_ratio(Partition([d]), mu, cache) == 1
    for r in range(2, d - 1):
        mu = Partition([r] + [1] * (d - r))
        ratio = character_ratio(Partition([d - 1, 1]), mu, cache)
        assert abs(ratio) == Fraction(d - r - 1, d - 1)
    assert character_ratio(Partition([2, 2]), Partition([2, 1, 1]), cache) == 0


def test_character_ratio_columns_match_chi_entries():
    # chi and character_ratio, each on a fresh cache per degree, against
    # the entry recursion of tests/oracles.py at every (λ, μ) of degree ≤ 14;
    # a zero χ reads as the Fraction 0/1
    for d in range(15):
        for_chi, for_ratio, for_column, oracle = CharCache(), CharCache(), CharCache(), {}
        classes = partitions_of(d)
        for mu in classes:
            column = []
            for lam in classes:
                expected = chi_entries(lam, mu, oracle)
                column.append(expected)
                assert chi(lam, mu, for_chi) == expected, (lam, mu)
                ratio = character_ratio(lam, mu, for_ratio)
                assert type(ratio) is Fraction and ratio == Fraction(expected, dimension(lam)), (lam, mu)
                if not expected:
                    assert (ratio.numerator, ratio.denominator) == (0, 1), (lam, mu)
            assert chi_column(mu, for_column) == tuple(column), mu
        assert for_chi._values == for_ratio._values == for_column._values


def test_column_readers_read_the_memo_tuple():
    # chi_column returns μ's memo tuple itself: p(d) values of χ_λ(μ), zeros
    # kept, in partitions_of order; central_column reads the same tuple
    memo = CharCache()
    for d in range(13):
        lams = partitions_of(d)
        scale = factorial(d)
        for mu in lams:
            column = chi_column(mu, memo)
            assert column is memo._values[(d, mu.parts)], mu
            assert len(column) == len(lams), mu
            assert column == tuple(chi(lam, mu, memo) for lam in lams), mu
            size = scale // mu.centralizer_order()
            expected = {lam.parts: size * value // dimension(lam)
                        for lam, value in zip(lams, column) if value}
            assert central_column(mu.parts, memo) == expected, mu


def test_strips_are_the_border_strips_of_each_diagram():
    # _strips(k, r) against the oracle's box-by-box border strips at every
    # k + r ≤ 14: for each λ ⊢ k, the even- and odd-height lists name each ν
    # by its position in partitions_of(k + r), once, with sign (−1)^height
    for n in range(1, 15):
        nus = partitions_of(n)
        for r in range(1, n + 1):
            table = _strips(n - r, r)
            assert len(table) == len(partitions_of(n - r))
            for lam, (even, odd) in zip(partitions_of(n - r), table):
                assert len(set(even + odd)) == len(even) + len(odd), (lam, r)
                found = {nus[j]: 1 for j in even} | {nus[j]: -1 for j in odd}
                assert found == border_strips(lam, r), (lam, r)


def test_rows_pair_each_position_with_its_dimension():
    # _rows(d) lists every λ ⊢ d once, in partitions_of order, with its
    # index there and dim λ
    for d in range(17):
        assert list(_rows(d).items()) == [(lam.parts, (j, dimension(lam)))
                                          for j, lam in enumerate(partitions_of(d))], d


def test_character_ratio_checks_before_building_columns():
    calls = (chi, character_ratio, lambda lam, mu, memo: central_character(mu, lam, memo))
    for call in calls:
        memo = CharCache(max_degree=5)
        with pytest.raises(SizeMismatchError):
            call(Partition([2, 1]), Partition([2, 2]), memo)
        with pytest.raises(CeilingError):
            call(Partition([6]), Partition([3, 3]), memo)
        assert not memo._values and not memo._central
    # the column readers have no λ, only the ceiling to check
    for call in (lambda memo: chi_column(Partition([3, 3]), memo), lambda memo: central_column((3, 3), memo)):
        memo = CharCache(max_degree=5)
        with pytest.raises(CeilingError):
            call(memo)
        assert not memo._values and not memo._central


def test_walk_columns_holds_each_column_while_its_partition_is_held():
    for d in range(13):
        memo = CharCache()
        seen = []
        for mu in walk_columns(d, memo):
            assert memo._values[(d, mu)] == _column(d, mu, {}), mu
            assert len(memo._values) <= d + 1
            seen.append(mu)
        assert sorted(seen) == sorted(_partition_tuples(d, d)) and len(seen) == len(set(seen))
        assert not memo._values
        # closed early, the walk still drops every column it added
        walk = walk_columns(d, memo)
        next(walk)
        walk.close()
        assert not memo._values


def test_walk_columns_keeps_columns_it_did_not_add():
    memo = CharCache()
    chi(Partition([3, 2, 1]), Partition([2, 2, 1, 1]), memo)
    chi(Partition([5, 4]), Partition([3, 3, 2, 1]), memo)
    before = dict(memo._values)
    for d in (6, 9):
        for _ in walk_columns(d, memo):
            pass
        walk = walk_columns(d, memo)
        for mu in walk:
            if (d, mu) not in before:
                break
        walk.close()
        assert memo._values == before
        assert all(memo._values[key] is column for key, column in before.items())


def test_walk_columns_checks_the_ceiling_first():
    memo = CharCache(max_degree=8)
    with pytest.raises(CeilingError):
        walk_columns(9, memo)
    assert not memo._values and not memo._central


def test_stats_counts_whole_columns():
    # filling every column to degree 8 counts p(m)² at each degree m ≥ 1;
    # the degree-0 column is not counted
    memo = CharCache()
    for m in range(9):
        classes = partitions_of(m)
        for mu in classes:
            for lam in classes:
                chi(lam, mu, memo)
    stats = memo.stats()
    assert stats["by_degree"] == {m: len(partitions_of(m)) ** 2 for m in range(1, 9)}
    assert stats["entries"] == sum(stats["by_degree"].values())
    assert (0, ()) in memo._values
    # one chi call at degree d counts p(d) once, not its suffix columns
    memo = CharCache()
    chi(Partition([3, 2, 1]), Partition([2, 2, 1, 1]), memo)
    assert len(memo._values) == 5
    assert memo.stats()["by_degree"] == {6: len(partitions_of(6))}
    chi(Partition([6]), Partition([2, 2, 1, 1]), memo)
    assert memo.stats()["entries"] == len(partitions_of(6))
    # the empty partition alone fills only the degree-0 column
    memo = CharCache()
    assert chi(Partition(), Partition(), memo) == 1
    assert character_ratio(Partition(), Partition(), memo) == 1
    assert memo.stats()["entries"] == 0 and memo.stats()["by_degree"] == {}
