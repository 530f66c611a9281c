import copy
import pickle
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, strategies as st

from snhurwitz.errors import CeilingError, PartitionParseError
from snhurwitz.partitions import Partition, dimension, parse, partitions_of, sub_multisets


def partition_strategy(max_n=10):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.integers(0, 3), min_size=n, max_size=n).map(
            lambda bins: Partition(sorted((bins.count(b) for b in set(bins) if bins.count(b)), reverse=True))
        )
    )


def test_parse_exponent_notation():
    assert parse("3,1^2").parts == (3, 1, 1)
    assert parse("2,1,1,1,1,1").parts == (2, 1, 1, 1, 1, 1)
    assert parse("2,1^5") == parse("1,2,1,1,1,1")
    assert parse("").parts == ()
    assert parse(" 4 , 2^2 ").parts == (4, 2, 2)


@pytest.mark.parametrize("bad", ["0,1", "-2", "a", "2^0", "2^-1", "1,,2", "2^x"])
def test_parse_rejects_bad_tokens(bad):
    with pytest.raises(PartitionParseError):
        parse(bad)


def test_format_never_uses_exponents():
    assert str(parse("2,1^5")) == "2,1,1,1,1,1"
    assert str(Partition()) == ""


def test_partition_rejects_non_integral_parts():
    # parts are read as integers, never truncated: (2.5, 1.9) is not (2, 1)
    for bad in ([2.5, 1.9], [3, Fraction(1, 2)]):
        with pytest.raises(TypeError):
            Partition(bad)
    with pytest.raises(ValueError):
        Partition([2, 0])


def test_partition_is_immutable_and_copyable():
    # parts and size are slots that no write or delete can change, so a
    # partition hashes as its parts for life; copies and pickles rebuild it
    p = Partition([3, 1, 1])
    with pytest.raises(AttributeError):
        p.parts = (4, 1)
    with pytest.raises(AttributeError):
        p.size = 6
    with pytest.raises(AttributeError):
        del p.parts
    with pytest.raises(AttributeError):
        p.other = 1
    assert (p.parts, p.size) == ((3, 1, 1), 5)
    assert not hasattr(p, "__dict__")
    for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert type(twin) is Partition and twin == p and hash(twin) == hash(p)
        assert (twin.parts, twin.size) == (p.parts, p.size)
    assert copy.copy(Partition()) == Partition() and Partition().size == 0


def test_centralizer_order():
    assert Partition([2, 1, 1, 1, 1, 1]).centralizer_order() == 240
    assert Partition([2, 2, 1]).centralizer_order() == 8
    for d in range(1, 8):
        assert Partition([d]).centralizer_order() == d


def test_colength():
    assert Partition([2] + [1] * 5).colength == 1
    assert Partition([1] * 6).colength == 0
    assert Partition([7]).colength == 6


def test_conjugate_examples():
    assert Partition([3, 1]).conjugate().parts == (2, 1, 1)
    assert Partition([5]).conjugate().parts == (1,) * 5


def test_conjugate_involution_and_length():
    for lam in partitions_of(8):
        assert lam.conjugate().conjugate() == lam
        assert lam.conjugate().length == (lam.parts[0] if lam.length else 0)


def test_enumeration_counts_and_order():
    known = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    for d, p in enumerate(known):
        assert len(partitions_of(d)) == p
    assert partitions_of(0) == [Partition()]
    ps = partitions_of(5)
    assert ps[0].parts == (5,) and ps[-1].parts == (1,) * 5
    assert [p.parts for p in ps] == sorted((p.parts for p in ps), reverse=True)


def test_enumeration_ceiling():
    with pytest.raises(CeilingError):
        partitions_of(31)
    assert len(partitions_of(30)) == 5604


def splits(parts, d1):
    """The `sub_multisets` splits of a part tuple whose taken part sums to d1."""
    return [(taken, rest) for taken, rest in sub_multisets(parts) if sum(taken) == d1]


def test_splits_examples():
    assert sub_multisets((2, 1, 1)) == (
        ((2, 1, 1), ()), ((2, 1), (1,)), ((2,), (1, 1)),
        ((1, 1), (2,)), ((1,), (2, 1)), ((), (2, 1, 1)),
    )
    assert splits((2, 1, 1), 2) == [((2,), (1, 1)), ((1, 1), (2,))]
    assert splits((3,), 1) == []
    assert splits((1, 1), 1) == [((1,), (1,))]


def test_splits_are_exact_multiset_splits():
    for theta in partitions_of(8):
        for d1 in range(1, 8):
            for omega, sigma in splits(theta.parts, d1):
                assert sum(omega) == d1 and sum(sigma) == 8 - d1
                assert sorted(omega + sigma, reverse=True) == list(theta.parts)
            # distinct sub-multisets appear exactly once
            seen = [w for w, _ in splits(theta.parts, d1)]
            assert len(seen) == len(set(seen))
    for d in range(9):
        for theta in partitions_of(d):
            pairs = sub_multisets(theta.parts)
            for taken, rest in pairs:
                assert sorted(taken + rest, reverse=True) == list(theta.parts)
                assert list(taken) == sorted(taken, reverse=True)
                assert list(rest) == sorted(rest, reverse=True)
            takens = [taken for taken, _ in pairs]
            # distinct and strictly decreasing, so no sub-multiset repeats
            assert all(a > b for a, b in zip(takens, takens[1:]))
            assert len(pairs) == prod(theta.multiplicity(v) + 1 for v in set(theta.parts))


def _standard_tableaux_count(parts):
    """Brute-force count of standard fillings, the hook-length oracle."""
    if not parts:
        return 1
    total = 0
    for i, row in enumerate(parts):
        if row and (i == len(parts) - 1 or parts[i + 1] < row):
            rest = list(parts)
            rest[i] -= 1
            if rest[i] == 0:
                rest.pop(i)
            total += _standard_tableaux_count(tuple(rest))
    return total


def test_dimension_against_tableaux_oracle():
    assert dimension(Partition([5])) == 1
    assert dimension(Partition([2, 1])) == 2
    assert dimension(Partition([2, 2])) == 2
    for d in range(1, 7):
        for lam in partitions_of(d):
            assert dimension(lam) == _standard_tableaux_count(lam.parts)


def test_dimension_squares_sum_to_group_order():
    for d in range(1, 11):
        assert sum(dimension(lam) ** 2 for lam in partitions_of(d)) == factorial(d)


def test_class_sizes_partition_the_group():
    for d in range(1, 11):
        total = sum(factorial(d) // mu.centralizer_order() for mu in partitions_of(d))
        assert total == factorial(d)


@given(partition_strategy())
def test_conjugate_is_involutive(lam):
    assert lam.conjugate().conjugate() == lam


@given(partition_strategy())
def test_parse_format_roundtrip(lam):
    assert parse(str(lam)) == lam
