"""Tests for the benchmark's own measurement helpers."""

import random

import pytest

from measure import (
    MIN_BEYOND,
    TAIL_LADDER,
    OpenLoopLedger,
    Tally,
    covered,
    percentile,
    schedule,
    self_times,
    tail,
    tail_rank,
    unique_spans,
)


def beyond(values, q):
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


class TestTailPercentile:
    @pytest.mark.parametrize("n, expected", [
        (19, None), (20, 50.0), (199, 90.0), (200, 95.0), (640, 98.0),
        (999, 98.0), (1000, 99.0), (2000, 99.5), (4000, 99.5), (5000, 99.8),
        (20000, 99.95), (100000, 99.99),
    ])
    def test_rank_for_sample_count(self, n, expected):
        assert tail_rank(n) == expected

    @pytest.mark.parametrize("n", [20, 57, 200, 640, 1000, 1999, 4000, 20000])
    def test_chosen_rank_leaves_ten_samples_and_the_next_does_not(self, n):
        rng = random.Random(n)
        values = [rng.expovariate(1.0) for _ in range(n)]
        q = tail_rank(n)
        assert beyond(values, q) >= MIN_BEYOND
        higher = [r for r in TAIL_LADDER if r > q]
        if higher:
            assert n * (100.0 - higher[0]) / 100.0 < MIN_BEYOND

    def test_tail_returns_rank_and_value(self):
        values = list(range(1000))
        q, value = tail(values)
        assert q == 99.0
        assert value == pytest.approx(989.01)

    def test_too_few_samples_raise(self):
        with pytest.raises(ValueError):
            tail(list(range(10)))

    def test_percentile_matches_linear_interpolation(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
        assert percentile([5.0], 99.0) == 5.0
        with pytest.raises(ValueError):
            percentile([], 50.0)


def make_span(span_id, parent, start, end):
    return {"span_id": span_id, "parent_id": parent, "start": start, "duration": end - start}


class TestSelfTime:
    def test_union_of_intervals(self):
        assert covered([]) == 0.0
        assert covered([(0, 1), (2, 3)]) == 2.0
        assert covered([(0, 2), (1, 3), (3, 3)]) == 3.0
        assert covered([(0, 10), (2, 3)]) == 10.0

    def test_overlapping_children_count_once(self):
        spans = [
            make_span("p", None, 0.0, 10.0),
            make_span("a", "p", 1.0, 3.0),
            make_span("b", "p", 2.0, 5.0),
        ]
        assert self_times(spans)["p"] == pytest.approx(6.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [
            make_span("p", None, 0.0, 10.0),
            make_span("late", "p", 8.0, 12.0),
            make_span("early", "p", -1.0, 1.0),
        ]
        selfs = self_times(spans)
        assert selfs["p"] == pytest.approx(7.0)
        assert selfs["late"] == pytest.approx(4.0)

    def test_only_direct_children_are_subtracted(self):
        spans = [
            make_span("root", None, 0.0, 10.0),
            make_span("mid", "root", 2.0, 8.0),
            make_span("leaf", "mid", 3.0, 7.0),
        ]
        selfs = self_times(spans)
        assert selfs == pytest.approx({"root": 4.0, "mid": 2.0, "leaf": 4.0})
        assert sum(selfs.values()) == pytest.approx(10.0)

    def test_grafted_duplicates_are_dropped(self):
        spans = [make_span("a", None, 0, 1), make_span("a", "x", 0, 1), make_span("b", "a", 0, 1)]
        assert [s["span_id"] for s in unique_spans(spans)] == ["a", "b"]


class TestOpenLoop:
    def test_schedule_is_fixed_rate(self):
        assert schedule(1000.0, 3) == pytest.approx([0.0, 0.001, 0.002])
        with pytest.raises(ValueError):
            schedule(0.0, 3)

    def make_ledger(self):
        ledger = OpenLoopLedger([0.0, 1.0, 2.0, 3.0])
        # Request 1 is sent half a second late (a generator stall) and
        # request 2 goes out early; request 3 is refused and request 2
        # never gets a reply.
        ledger.sent = [0.0, 1.5, 1.9, 3.0]
        ledger.done = [0.2, 1.7, None, 3.1]
        ledger.ok = [True, True, False, False]
        return ledger

    def test_latency_runs_from_the_due_time(self):
        assert self.make_ledger().latencies() == pytest.approx([0.2, 0.7])

    def test_lateness_is_clamped_at_zero(self):
        assert self.make_ledger().lateness() == pytest.approx([0.0, 0.5, 0.0, 0.0])

    def test_backlog_counts_due_and_unanswered(self):
        ledger = self.make_ledger()
        # At 1.2 request 1 is due but still unsent: it is backlog.
        assert ledger.backlog_at(1.2) == 1
        assert ledger.backlog_at(1.8) == 0
        assert ledger.backlog_at(2.5) == 1
        assert ledger.backlog_at(3.05) == 2

    def test_refused_and_unanswered_fail_once_each(self):
        assert self.make_ledger().failures() == 2


class TestTally:
    def test_error_frac_counts_failures_over_attempts(self):
        tally = Tally()
        tally.add(100)
        tally.add(300, failed=3, mismatches=1)
        assert tally.attempted == 400
        assert tally.failed == 3
        assert tally.mismatches == 1
        assert tally.error_frac == pytest.approx(0.0075)

    def test_nothing_attempted_is_no_error(self):
        assert Tally().error_frac == 0.0

    @pytest.mark.parametrize("attempted, failed, mismatches", [(1, 2, 0), (5, 1, 2)])
    def test_inconsistent_counts_raise(self, attempted, failed, mismatches):
        with pytest.raises(ValueError):
            Tally().add(attempted, failed, mismatches)
