from math import comb, factorial

import pytest

from oracles import diagonal_hook_central_character, hook_envelope, induced_graph, straighten
from snhurwitz import young_trees
from snhurwitz.characters import central_column, one_cycle_central_character
from snhurwitz.errors import BudgetError
from snhurwitz.partitions import Partition, partitions_of
from snhurwitz.young_trees import (
    Box,
    central_character_from_trees,
    count_straight_trees,
    enumerate_trees,
    frobenius_central_character,
)

P = Partition


def test_induced_graph_edge_rules():
    assert len(induced_graph(P([3]), [Box(1, 1), Box(1, 3)])) == 1
    assert len(induced_graph(P([3]), [Box(1, 1), Box(1, 2), Box(1, 3)])) == 2
    assert induced_graph(P([2, 2]), [Box(1, 1), Box(2, 2)]) == []


def test_induced_graph_rejects_outside_boxes():
    with pytest.raises(ValueError):
        induced_graph(P([2, 1]), [Box(2, 2)])


def test_enumerate_trees_counts():
    assert len(enumerate_trees(P([3]), 2)) == 3
    assert len(enumerate_trees(P([2, 2]), 2)) == 4
    for d in (3, 5, 7):
        assert len(enumerate_trees(P([1] * d), d)) == 1


def test_tree_walk_stops_at_the_budget(monkeypatch):
    # the walk visits C(|λ|, r) box subsets; past the brute-force budget it
    # raises before visiting any
    lam = P([4, 3, 3])
    walked = len(enumerate_trees(lam, 4))
    monkeypatch.setattr(young_trees, "DEFAULT_BF_BUDGET", comb(10, 4))
    assert len(enumerate_trees(lam, 4)) == walked
    assert central_character_from_trees(lam, 4) == frobenius_central_character(4, lam)
    monkeypatch.setattr(young_trees, "DEFAULT_BF_BUDGET", comb(10, 4) - 1)
    for walk in (lambda: enumerate_trees(lam, 4), lambda: central_character_from_trees(lam, 4)):
        with pytest.raises(BudgetError, match="210 box subsets exceed the budget 209"):
            walk()
    assert enumerate_trees(lam, 3)


def test_vert_and_weight_conventions():
    row = enumerate_trees(P([4]), 4)
    assert len(row) == 1 and row[0].vert == 0 and row[0].weight == factorial(3)
    col = enumerate_trees(P([1] * 4), 4)
    assert col[0].vert == 3 and col[0].weight == factorial(3)
    (corner,) = [
        t for t in enumerate_trees(P([2, 2]), 3) if set(t.boxes) == {Box(1, 1), Box(2, 1), Box(2, 2)}
    ]
    assert corner.vert == 1 and corner.weight == 1
    single = enumerate_trees(P([2, 1]), 1)
    assert all(t.vert == 0 and t.weight == 1 for t in single)


def test_tree_graph_matches_induced_graph():
    lam = P([3, 2, 1])
    for t in enumerate_trees(lam, 3):
        assert sorted(map(sorted, t.edges)) == sorted(map(sorted, induced_graph(lam, t.boxes)))


def test_tree_count_bound_and_nonstraight_weight_bound():
    for d in range(2, 9):
        for lam in partitions_of(d):
            for r in range(2, d + 1):
                trees = enumerate_trees(lam, r)
                assert len(trees) <= comb(d, r)
                for t in trees:
                    rows = {b.row for b in t.boxes}
                    cols = {b.col for b in t.boxes}
                    if len(rows) > 1 and len(cols) > 1:
                        assert t.weight <= factorial(r - 2)


def test_signed_count_equals_central_character_small():
    for d in range(2, 8):
        for lam in partitions_of(d):
            for r in range(1, d + 1):
                assert (central_character_from_trees(lam, r) == frobenius_central_character(r, lam)
                        == one_cycle_central_character(r, lam))


def test_signed_count_closed_cases():
    for d in (4, 6, 8):
        for r in range(2, d + 1):
            expected = factorial(d) // (r * factorial(d - r))
            assert central_character_from_trees(P([d]), r) == expected
            assert central_character_from_trees(P([1] * d), r) == (-1) ** (r - 1) * expected
    assert central_character_from_trees(P([2, 2]), 2) == 0


def test_frobenius_closed_forms():
    assert frobenius_central_character(2, P([2, 1])) == 0
    for d in (3, 5, 8):
        assert frobenius_central_character(2, P([d])) == d * (d - 1) // 2
    for d in range(4, 9):
        for lam in partitions_of(d):
            for r in (2, 3, 4):
                assert (frobenius_central_character(r, lam) == diagonal_hook_central_character(r, lam)
                        == central_character_from_trees(lam, r))
    assert frobenius_central_character(5, P([5])) == central_character_from_trees(P([5]), 5)
    for r in (0, 6):
        with pytest.raises(ValueError):
            frobenius_central_character(r, P([5]))


def test_frobenius_formula_matches_hook_central_columns(cache):
    # the formula reads no χ value, so it checks the hook classes' central
    # columns at degrees the brute-force and tree routes cannot reach
    def check(d, r):
        column = central_column((r,) + (1,) * (d - r), cache)
        for lam in partitions_of(d):
            assert frobenius_central_character(r, lam) == column.get(lam.parts, 0), (d, r, lam)

    for d in range(2, 21):
        for r in range(2, d + 1):
            check(d, r)
    for r in (2, 3, 15, 29, 30):
        check(30, r)


def test_straighten_rules():
    lam = P([3, 3])
    # row-2 tail lands right after the original first row
    assert straighten(lam, Box(2, 2)) == Box(1, 4)
    assert straighten(lam, Box(2, 3)) == Box(1, 5)
    for j in (1, 2, 3):
        assert straighten(lam, Box(1, j)) == Box(1, j)
    assert straighten(lam, Box(2, 1)) == Box(2, 1)
    with pytest.raises(ValueError):
        straighten(lam, Box(3, 1))


def test_straighten_injective_into_hook():
    for d in range(1, 8):
        for lam in partitions_of(d):
            hook = hook_envelope(lam)
            images = [straighten(lam, Box(i, j)) for i, j in lam.boxes()]
            assert len(set(images)) == d
            for b in images:
                assert hook.contains_box(b.row, b.col)


def test_count_straight_trees():
    assert count_straight_trees(P([2, 2]), 2) == 4
    for d in (5, 7):
        for r in range(2, d + 1):
            assert count_straight_trees(P([d]), r) == comb(d, r)
        assert count_straight_trees(P([d]), 1) == d


def test_count_straight_trees_matches_enumeration():
    for d in range(2, 9):
        for lam in partitions_of(d):
            for r in range(2, d + 1):
                straight = [
                    t for t in enumerate_trees(lam, r)
                    if len({b.row for b in t.boxes}) == 1 or len({b.col for b in t.boxes}) == 1
                ]
                assert len(straight) == count_straight_trees(lam, r)


def test_straight_count_grows_under_straightening():
    for d in range(2, 9):
        for lam in partitions_of(d):
            hook = hook_envelope(lam)
            for r in range(2, d + 1):
                assert count_straight_trees(lam, r) <= count_straight_trees(hook, r)
