"""Unit and property tests for external merge sort."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.model import TE_ASC, TS_ASC, TS_DESC, TS_TE_ASC, TemporalTuple
from repro.storage import HeapFile, IOStats, external_sort


def random_tuples(n, seed=7):
    rng = random.Random(seed)
    out = []
    for i in range(n):
        start = rng.randrange(0, 1000)
        out.append(TemporalTuple(f"s{i}", i, start, start + rng.randrange(1, 50)))
    return out


def load(records, page_capacity=4):
    return HeapFile.from_records("data", records, page_capacity=page_capacity)


class TestExternalSort:
    def test_sorts_correctly(self):
        f = load(random_tuples(100))
        result = external_sort(f, TS_ASC, memory_pages=3)
        assert TS_ASC.is_sorted(result.output.records())
        assert result.output.num_records == 100

    def test_preserves_multiset(self):
        data = random_tuples(60)
        f = load(data)
        result = external_sort(f, TE_ASC, memory_pages=3)
        key = lambda t: (t.valid_from, t.valid_to, str(t.surrogate))
        assert sorted(result.output.records(), key=key) == sorted(data, key=key)

    def test_descending_order(self):
        f = load(random_tuples(50))
        result = external_sort(f, TS_DESC, memory_pages=3)
        assert TS_DESC.is_sorted(result.output.records())

    def test_secondary_key(self):
        data = [TemporalTuple(f"s{i}", i, i % 5, i % 5 + 1 + i % 7) for i in range(40)]
        f = load(data)
        result = external_sort(f, TS_TE_ASC, memory_pages=3)
        assert TS_TE_ASC.is_sorted(result.output.records())

    def test_run_count_matches_memory(self):
        # 100 tuples, 4/page, 3 memory pages -> 12 tuples per run -> 9 runs.
        f = load(random_tuples(100))
        result = external_sort(f, TS_ASC, memory_pages=3)
        assert result.runs_generated == 9

    def test_single_run_needs_no_merge(self):
        f = load(random_tuples(10))
        result = external_sort(f, TS_ASC, memory_pages=8)
        assert result.runs_generated == 1
        assert result.merge_passes == 0
        assert result.total_passes == 1

    def test_merge_pass_count(self):
        # 9 runs with fan-in 2 -> ceil(log2(9)) = 4 merge passes.
        f = load(random_tuples(100))
        result = external_sort(f, TS_ASC, memory_pages=3, fan_in=2)
        assert result.runs_generated == 9
        assert result.merge_passes == 4

    def test_io_accounted(self):
        f = load(random_tuples(100))
        stats = IOStats()
        external_sort(f, TS_ASC, memory_pages=3, stats=stats)
        # At minimum: read the input once and write it once as runs.
        assert stats.page_reads >= f.num_pages
        assert stats.page_writes >= f.num_pages
        assert stats.tuple_reads >= 100

    def test_empty_input(self):
        f = HeapFile("empty", page_capacity=4)
        result = external_sort(f, TS_ASC, memory_pages=3)
        assert result.output.num_records == 0
        assert result.runs_generated == 0

    def test_memory_too_small(self):
        f = load(random_tuples(10))
        with pytest.raises(StorageError):
            external_sort(f, TS_ASC, memory_pages=1)
        with pytest.raises(StorageError):
            external_sort(f, TS_ASC, memory_pages=4, fan_in=1)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=200),
                st.integers(min_value=1, max_value=40),
            ),
            max_size=80,
        ),
        st.integers(min_value=2, max_value=6),
    )
    def test_property_sorted_and_complete(self, spans, memory_pages):
        data = [
            TemporalTuple(f"s{i}", i, a, a + d) for i, (a, d) in enumerate(spans)
        ]
        f = load(data, page_capacity=3)
        result = external_sort(f, TS_TE_ASC, memory_pages=memory_pages)
        out = result.output.records()
        assert TS_TE_ASC.is_sorted(out)
        assert sorted(t.value for t in out) == sorted(t.value for t in data)


class TestPresortedSkip:
    def sorted_file(self, n=60):
        data = sorted(random_tuples(n), key=lambda t: (t.valid_from,))
        return load(data), data

    def test_sorted_input_skips_the_sort(self):
        f, data = self.sorted_file()
        result = external_sort(f, TS_ASC, memory_pages=3)
        assert result.skipped_presorted
        assert result.output is f
        assert result.runs_generated == 0
        assert result.merge_passes == 0
        # One pass total: the verification scan.
        assert result.total_passes == 1
        assert result.output.records() == data

    def test_skip_charges_only_the_verification_scan(self):
        f, _ = self.sorted_file()
        stats = IOStats()
        external_sort(f, TS_ASC, memory_pages=3, stats=stats)
        assert stats.page_reads == f.num_pages
        assert stats.page_writes == 0

    def test_unsorted_input_pays_partial_check_then_sorts(self):
        f = load(random_tuples(80))
        stats = IOStats()
        result = external_sort(f, TS_ASC, memory_pages=3, stats=stats)
        assert not result.skipped_presorted
        assert result.runs_generated > 0
        assert TS_ASC.is_sorted(result.output.records())
        # The early-exit check gave up before a full pass.
        assert stats.page_writes >= f.num_pages

    def test_presort_check_can_be_disabled(self):
        f, _ = self.sorted_file()
        result = external_sort(
            f, TS_ASC, memory_pages=3, presort_check=False
        )
        assert not result.skipped_presorted
        assert result.runs_generated > 0
        assert result.output is not f
