from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest

from snhurwitz.characters import (
    CharCache,
    central_character,
    character_ratio,
    chi,
    one_cycle_central_character,
)
from snhurwitz.errors import CacheVersionError, SizeMismatchError
from snhurwitz.partitions import Partition, dimension, partitions_of


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


def test_column_orthogonality(cache):
    for d in range(1, 8):
        classes = partitions_of(d)
        for i, mu in enumerate(classes):
            for nu in classes[i:]:
                s = sum(chi(lam, mu, cache) * chi(lam, nu, cache) for lam in classes)
                assert s == (mu.centralizer_order() if mu == nu else 0)


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


# -- persistent cache behaviour ---------------------------------------------


def test_cache_roundtrip(tmp_path):
    path = tmp_path / "chi.tsv"
    with CharCache(path) as c1:
        v = chi(Partition([4, 2, 1]), Partition([3, 2, 2]), c1)
    with CharCache(path) as c2:
        assert c2.lookup((4, 2, 1), (3, 2, 2)) == v
        assert c2.stats()["entries"] >= 1


def test_cache_hit_equals_recomputation(tmp_path):
    path = tmp_path / "chi.tsv"
    with CharCache(path) as c1:
        for lam in partitions_of(6):
            for mu in partitions_of(6):
                chi(lam, mu, c1)
    fresh = CharCache()
    with CharCache(path) as c2:
        for lam in partitions_of(6):
            for mu in partitions_of(6):
                assert c2.lookup(lam.parts, mu.parts) == chi(lam, mu, fresh)


def test_cache_truncates_corrupt_trailing_record(tmp_path):
    path = tmp_path / "chi.tsv"
    with CharCache(path) as c1:
        chi(Partition([3, 1]), Partition([2, 2]), c1)
    with open(path, "a") as fh:
        fh.write("9\t5,4\t3,3,3")  # truncated mid-record, no newline
    with CharCache(path) as c2:
        entries = c2.stats()["entries"]
        assert entries >= 1
    # the corrupt tail is gone; reopening again parses cleanly
    with CharCache(path) as c3:
        assert c3.stats()["entries"] == entries
        chi(Partition([5, 4]), Partition([3, 3, 3]), c3)


def test_cache_skips_malformed_middle_line(tmp_path):
    path = tmp_path / "chi.tsv"
    with CharCache(path) as c1:
        for d in range(1, 9):
            for lam in partitions_of(d):
                for mu in partitions_of(d):
                    chi(lam, mu, c1)
    header, *records = path.read_text().splitlines(keepends=True)
    bad = len(records) // 2
    path.write_text(header + "".join(records[:bad]) + "garbage\n" + "".join(records[bad + 1:]))
    with CharCache(path) as c2:
        assert c2.stats()["entries"] == len(records) - 1 and c2.skipped == 1
        lost = tuple(tuple(map(int, f.split(","))) for f in records[bad].split("\t")[1:3])
        assert c2.lookup(*lost) is None
    # rewritten with the header and every good record, then loaded as is
    rewritten = path.read_text()
    assert rewritten.splitlines(keepends=True) == [header] + records[:bad] + records[bad + 1:]
    fresh = CharCache()
    with CharCache(path) as c3:
        assert c3.stats()["entries"] == len(records) - 1 and c3.skipped == 0
        for lam in partitions_of(8):
            for mu in partitions_of(8):
                if (lam.parts, mu.parts) != lost:
                    assert c3.lookup(lam.parts, mu.parts) == chi(lam, mu, fresh)
    assert path.read_text() == rewritten


def test_cache_rejects_unknown_version(tmp_path):
    path = tmp_path / "chi.tsv"
    text = "# snhurwitz chi cache v99 max_degree=30\n2\t2\t2\t1\n"
    path.write_text(text)
    with pytest.raises(CacheVersionError, match="v99"):
        CharCache(path)
    assert path.read_text() == text


def test_cache_clear(tmp_path):
    path = tmp_path / "chi.tsv"
    with CharCache(path) as c:
        chi(Partition([3, 1]), Partition([2, 2]), c)
        c.clear()
        assert c.stats()["entries"] == 0
    with CharCache(path) as c2:
        assert c2.stats()["entries"] == 0
