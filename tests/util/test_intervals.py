"""Unit + property tests for the interval-set algebra."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.util.intervals import IntervalSet, as_progression


class TestConstruction:
    def test_empty(self):
        s = IntervalSet.empty()
        assert not s
        assert len(s) == 0
        assert list(s) == []

    def test_from_indices_merges_adjacent(self):
        s = IntervalSet.from_indices([3, 1, 2, 7, 8])
        assert s.runs == ((1, 4), (7, 9))

    def test_from_indices_dedupes(self):
        s = IntervalSet.from_indices([5, 5, 5])
        assert s.runs == ((5, 6),)
        assert len(s) == 1

    def test_overlapping_runs_normalised(self):
        s = IntervalSet([(0, 5), (3, 8), (8, 10)])
        assert s.runs == ((0, 10),)

    def test_empty_runs_dropped(self):
        assert IntervalSet([(5, 5), (7, 6)]).runs == ()

    def test_single_and_span(self):
        assert IntervalSet.single(4) == IntervalSet.span(4, 5)
        assert list(IntervalSet.span(2, 5)) == [2, 3, 4]


class TestQueries:
    def test_contains(self):
        s = IntervalSet([(0, 3), (10, 12)])
        assert 0 in s and 2 in s and 10 in s and 11 in s
        assert 3 not in s and 9 not in s and 12 not in s and -1 not in s

    def test_min_max(self):
        s = IntervalSet([(4, 6), (9, 11)])
        assert s.min() == 4
        assert s.max() == 10

    def test_min_of_empty_raises(self):
        with pytest.raises(ValueError):
            IntervalSet.empty().min()
        with pytest.raises(ValueError):
            IntervalSet.empty().max()

    def test_is_contiguous(self):
        assert IntervalSet.span(0, 5).is_contiguous()
        assert not IntervalSet([(0, 2), (4, 5)]).is_contiguous()
        assert not IntervalSet.empty().is_contiguous()


class TestAlgebra:
    def test_union(self):
        a = IntervalSet([(0, 3)])
        b = IntervalSet([(2, 6)])
        assert (a | b).runs == ((0, 6),)

    def test_intersection(self):
        a = IntervalSet([(0, 5), (8, 12)])
        b = IntervalSet([(3, 9)])
        assert (a & b).runs == ((3, 5), (8, 9))

    def test_difference(self):
        a = IntervalSet([(0, 10)])
        b = IntervalSet([(2, 4), (6, 7)])
        assert (a - b).runs == ((0, 2), (4, 6), (7, 10))

    def test_difference_disjoint(self):
        a = IntervalSet([(0, 3)])
        b = IntervalSet([(5, 9)])
        assert (a - b) == a

    def test_hash_eq(self):
        assert hash(IntervalSet([(1, 2)])) == hash(IntervalSet.from_indices([1]))
        assert IntervalSet([(1, 2)]) != IntervalSet([(1, 3)])


small_sets = st.sets(st.integers(min_value=-50, max_value=50), max_size=40)


class TestProperties:
    @given(small_sets, small_sets)
    def test_union_matches_python_sets(self, xs, ys):
        a, b = IntervalSet.from_indices(xs), IntervalSet.from_indices(ys)
        assert set(a | b) == xs | ys

    @given(small_sets, small_sets)
    def test_intersection_matches_python_sets(self, xs, ys):
        a, b = IntervalSet.from_indices(xs), IntervalSet.from_indices(ys)
        assert set(a & b) == xs & ys

    @given(small_sets, small_sets)
    def test_difference_matches_python_sets(self, xs, ys):
        a, b = IntervalSet.from_indices(xs), IntervalSet.from_indices(ys)
        assert set(a - b) == xs - ys

    @given(small_sets)
    def test_roundtrip_and_len(self, xs):
        s = IntervalSet.from_indices(xs)
        assert set(s) == xs
        assert len(s) == len(xs)

    @given(small_sets, st.integers(min_value=-60, max_value=60))
    def test_contains_matches(self, xs, probe):
        s = IntervalSet.from_indices(xs)
        assert (probe in s) == (probe in xs)

    @given(small_sets)
    def test_runs_are_disjoint_and_sorted(self, xs):
        runs = IntervalSet.from_indices(xs).runs
        for (lo1, hi1), (lo2, _hi2) in zip(runs, runs[1:]):
            assert hi1 < lo2  # strictly separated (adjacent would merge)
            assert lo1 < hi1


class TestAsProgression:
    def test_empty(self):
        assert as_progression([]) is None

    def test_singleton(self):
        assert as_progression([7]) == (7, 8, 1)

    def test_contiguous(self):
        assert as_progression([2, 3, 4, 5]) == (2, 6, 1)

    def test_strided(self):
        assert as_progression([1, 3, 5, 7]) == (1, 8, 2)

    def test_not_progression(self):
        assert as_progression([1, 2, 4]) is None

    def test_duplicates_ignored(self):
        assert as_progression([5, 1, 3, 3, 1]) == (1, 6, 2)

    def test_span_and_first_step_of_a_progression_are_not_enough(self):
        assert as_progression([0, 2, 3, 6]) is None
        assert as_progression([0, 1, 1, 3]) is None

    @given(st.lists(st.integers(-6, 6), max_size=6))
    def test_matches_definition(self, xs):
        seq = sorted(set(xs))
        want = None
        if len(seq) == 1:
            want = (seq[0], seq[0] + 1, 1)
        elif seq and all(b - a == seq[1] - seq[0] for a, b in zip(seq, seq[1:])):
            want = (seq[0], seq[-1] + 1, seq[1] - seq[0])
        assert as_progression(xs) == want

    @given(
        st.integers(-20, 20),
        st.integers(1, 5),
        st.integers(1, 15),
    )
    def test_recognises_generated_progressions(self, start, step, count):
        seq = [start + i * step for i in range(count)]
        got = as_progression(seq)
        assert got is not None
        lo, hi, got_step = got
        assert list(range(lo, hi, got_step)) == seq
