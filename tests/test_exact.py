"""Tests for the exact set-metric oracles."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dothash.exact import (
    SortedSet,
    exact_intersection,
    exact_jaccard,
    exact_weighted,
    sparse_basis_intersection,
)
from dothash.sketches import WeightFn

small_sets = st.frozensets(st.integers(min_value=0, max_value=15), max_size=16)


def brute_force_intersection(a: SortedSet, b: SortedSet) -> int:
    """Independent double-loop oracle."""
    count = 0
    for x in a.elements:
        for y in b.elements:
            if x == y:
                count += 1
    return count


# The worked four-element example: A = {a,b,c,d}, B = {b,c,d,e}.
_IDS = {"a": 10, "b": 20, "c": 30, "d": 40, "e": 50}
SET_A = SortedSet.from_iterable(_IDS[ch] for ch in "abcd")
SET_B = SortedSet.from_iterable(_IDS[ch] for ch in "bcde")


class TestSortedSet:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            SortedSet((3, 1, 2))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            SortedSet((1, 1, 2))

    def test_from_iterable_dedupes_and_sorts(self):
        s = SortedSet.from_iterable([5, 1, 5, 3])
        assert s.elements == (1, 3, 5)
        assert len(s) == 3
        assert 3 in s and 2 not in s

    @given(st.lists(st.integers(min_value=0, max_value=15), max_size=16),
           st.integers(min_value=-1, max_value=16))
    @example([], 0)
    @example([3, 7], -1)
    @example([3, 7], 16)
    def test_membership_equals_set_membership(self, xs, x):
        assert (x in SortedSet.from_iterable(xs)) == (x in set(xs))


class TestExactIntersection:
    def test_worked_example(self):
        assert exact_intersection(SET_A, SET_B) == 3

    def test_empty(self):
        empty = SortedSet(())
        assert exact_intersection(empty, SET_B) == 0
        assert exact_intersection(SET_A, empty) == 0

    def test_against_brute_force(self):
        import random

        rng = random.Random(7)
        for _ in range(1000):
            a = SortedSet.from_iterable(rng.sample(range(16), 8))
            b = SortedSet.from_iterable(rng.sample(range(16), 8))
            assert exact_intersection(a, b) == brute_force_intersection(a, b)

    @given(small_sets, small_sets)
    def test_symmetric(self, xs, ys):
        a, b = SortedSet.from_iterable(xs), SortedSet.from_iterable(ys)
        assert exact_intersection(a, b) == exact_intersection(b, a)


class TestSparseBasisIntersection:
    def test_worked_example(self):
        assert sparse_basis_intersection(SET_A, SET_B) == 3

    def test_identical_sets(self):
        assert sparse_basis_intersection(SET_A, SET_A) == len(SET_A)

    def test_equals_exact_on_random_instances(self):
        import random

        rng = random.Random(13)
        for _ in range(1000):
            a = SortedSet.from_iterable(rng.sample(range(16), rng.randint(0, 10)))
            b = SortedSet.from_iterable(rng.sample(range(16), rng.randint(0, 10)))
            assert sparse_basis_intersection(a, b) == exact_intersection(a, b)

    @given(small_sets, small_sets)
    def test_equals_exact(self, xs, ys):
        a, b = SortedSet.from_iterable(xs), SortedSet.from_iterable(ys)
        assert sparse_basis_intersection(a, b) == exact_intersection(a, b)


class TestExactJaccard:
    def test_worked_example(self):
        assert exact_jaccard(SET_A, SET_B) == pytest.approx(0.6)

    def test_identical(self):
        assert exact_jaccard(SET_A, SET_A) == 1.0

    def test_disjoint(self):
        other = SortedSet.from_iterable([100, 200])
        assert exact_jaccard(SET_A, other) == 0.0

    def test_both_empty_raises(self):
        empty = SortedSet(())
        with pytest.raises(ValueError, match="Jaccard undefined"):
            exact_jaccard(empty, empty)

    @given(small_sets, small_sets)
    def test_range_and_symmetry(self, xs, ys):
        if not xs and not ys:
            return
        a, b = SortedSet.from_iterable(xs), SortedSet.from_iterable(ys)
        j = exact_jaccard(a, b)
        assert 0.0 <= j <= 1.0
        assert j == exact_jaccard(b, a)


class TestExactWeighted:
    @given(small_sets, small_sets)
    def test_unit_weights_equal_intersection(self, xs, ys):
        a, b = SortedSet.from_iterable(xs), SortedSet.from_iterable(ys)
        assert exact_weighted(a, b, WeightFn.unit()) == exact_intersection(a, b)

    def test_path_graph_adamic_adar(self):
        # u - x - v: the sole common neighbor x has degree 2.
        gamma_u = SortedSet.from_iterable([1])  # {x}
        gamma_v = SortedSet.from_iterable([1])
        weights = WeightFn.from_array([0.0, 1.0 / math.log(2.0)])
        assert exact_weighted(gamma_u, gamma_v, weights) == pytest.approx(1.4426950408889634)

    def test_path_graph_resource_allocation(self):
        gamma_u = SortedSet.from_iterable([1])
        gamma_v = SortedSet.from_iterable([1])
        weights = WeightFn.from_array([0.0, 0.5])
        assert exact_weighted(gamma_u, gamma_v, weights) == 0.5

    def test_missing_weight_raises(self):
        a = SortedSet.from_iterable([1, 2])
        b = SortedSet.from_iterable([2, 3])
        with pytest.raises(ValueError, match="weight not defined for element"):
            exact_weighted(a, b, WeightFn.from_array([0.0, 1.0]))

    def test_negative_weight_raises(self):
        a = SortedSet.from_iterable([2])
        b = SortedSet.from_iterable([2])
        with pytest.raises(ValueError, match="nonnegative"):
            exact_weighted(a, b, WeightFn.from_array([0.0, 0.0, -1.0]))

    def test_weights_outside_intersection_not_required(self):
        a = SortedSet.from_iterable([1, 2])
        b = SortedSet.from_iterable([2, 3])
        # Element 1's weight is negative and element 3 has none: neither is read.
        assert exact_weighted(a, b, WeightFn.from_array([0.0, -1.0, 2.5])) == 2.5

    @given(small_sets, small_sets)
    @settings(max_examples=50)
    def test_symmetric_for_symmetric_context(self, xs, ys):
        a, b = SortedSet.from_iterable(xs), SortedSet.from_iterable(ys)
        weights = WeightFn.from_array(1.0 + np.arange(16) % 5)
        assert exact_weighted(a, b, weights) == exact_weighted(b, a, weights)


def test_exhaustive_small_universe():
    # quick version of the full 2^20 sweep in the acceptance suite
    sets = [SortedSet.from_iterable(i for i in range(6) if mask >> i & 1) for mask in range(64)]
    for ma, sa in enumerate(sets):
        for mb, sb in enumerate(sets):
            expected = bin(ma & mb).count("1")
            assert exact_intersection(sa, sb) == expected
            assert sparse_basis_intersection(sa, sb) == expected
