"""Tests for counting, classification and latency metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.types import Detections, GroundTruth
from repro.errors import ConfigurationError
from repro.metrics.classify import BinaryMetrics, binary_metrics, confusion_counts
from repro.metrics.counting import CountSummary, count_detected_objects, count_summary
from repro.metrics.latency import LatencySummary, summarize_latencies, summarize_latency_series


def _gt(boxes, labels, image_id="img"):
    return GroundTruth(image_id, np.asarray(boxes, float), np.asarray(labels))


def _dets(boxes, scores, labels, image_id="img"):
    return Detections(image_id, np.asarray(boxes, float), np.asarray(scores, float), np.asarray(labels), detector="t")


class TestCounting:
    def test_counts_true_positives_only(self):
        gts = [_gt([[0.1, 0.1, 0.4, 0.4]], [0])]
        dets = [_dets([[0.1, 0.1, 0.4, 0.4], [0.6, 0.6, 0.9, 0.9]], [0.9, 0.8], [0, 0])]
        assert count_detected_objects(dets, gts) == 1

    def test_summary_fraction(self):
        gts = [_gt([[0.1, 0.1, 0.4, 0.4], [0.5, 0.5, 0.9, 0.9]], [0, 1])]
        dets = [_dets([[0.1, 0.1, 0.4, 0.4]], [0.9], [0])]
        summary = count_summary(dets, gts)
        assert summary.detected == 1 and summary.total_ground_truth == 2
        assert summary.detected_fraction == pytest.approx(0.5)

    def test_ratio_to(self):
        ours = CountSummary(detected=94, total_ground_truth=120)
        big = CountSummary(detected=100, total_ground_truth=120)
        assert ours.ratio_to(big) == pytest.approx(94.0)

    def test_ratio_to_zero_reference(self):
        assert CountSummary(5, 10).ratio_to(CountSummary(0, 10)) == 0.0

    def test_misaligned_lists_rejected(self):
        with pytest.raises(ConfigurationError):
            count_detected_objects([Detections.empty("a")], [])


class TestBinaryMetrics:
    def test_known_confusion(self):
        predicted = [True, True, False, False, True]
        actual = [True, False, False, True, True]
        assert confusion_counts(predicted, actual) == (2, 1, 1, 1)

    def test_perfect_classifier(self):
        metrics = binary_metrics([True, False], [True, False])
        assert metrics.accuracy == 1.0 and metrics.f1 == 1.0

    def test_all_negative_prediction(self):
        metrics = binary_metrics([False, False], [True, False])
        assert metrics.precision == 0.0 and metrics.recall == 0.0 and metrics.f1 == 0.0

    def test_as_row_percentages(self):
        row = binary_metrics([True, True], [True, False]).as_row()
        assert row["accuracy"] == pytest.approx(50.0)
        assert row["precision"] == pytest.approx(50.0)
        assert row["recall"] == pytest.approx(100.0)

    def test_empty_sample(self):
        metrics = BinaryMetrics(0, 0, 0, 0)
        assert metrics.accuracy == 0.0 and metrics.total == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            binary_metrics([True], [True, False])

    @settings(max_examples=50)
    @given(
        n=st.integers(1, 60),
        seed=st.integers(0, 10_000),
    )
    def test_f1_between_precision_and_recall_bounds(self, n, seed):
        rng = np.random.default_rng(seed)
        predicted = rng.uniform(size=n) < 0.5
        actual = rng.uniform(size=n) < 0.5
        metrics = binary_metrics(predicted, actual)
        assert 0.0 <= metrics.f1 <= 1.0
        if metrics.precision > 0 and metrics.recall > 0:
            assert metrics.f1 <= max(metrics.precision, metrics.recall) + 1e-12
            assert metrics.f1 >= min(metrics.precision, metrics.recall) - 1e-12


class TestLatencySummary:
    def test_total_and_mean(self):
        summary = summarize_latencies([1.0, 2.0, 3.0])
        assert summary.total == pytest.approx(6.0)
        assert summary.mean == pytest.approx(2.0)
        assert summary.count == 3

    def test_percentiles_ordered(self):
        summary = summarize_latencies(np.linspace(0.01, 1.0, 100))
        assert summary.p50 <= summary.p90 <= summary.p99

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.0, 1e3, allow_nan=False), min_size=1, max_size=300))
    def test_percentiles_equal_one_call_each(self, latencies):
        """The summary takes its three percentiles in one call; each must
        be bit-identical to its own ``np.percentile`` call."""
        summary = summarize_latencies(latencies)
        values = np.asarray(latencies, dtype=np.float64)
        for q, got in ((50, summary.p50), (90, summary.p90), (99, summary.p99)):
            assert type(got) is float
            assert got.hex() == float(np.percentile(values, q)).hex()

    def test_empty(self):
        summary = summarize_latencies([])
        assert summary.total == 0.0 and summary.count == 0

    def test_saving_and_speedup(self):
        ours = summarize_latencies([1.0] * 10)
        cloud = summarize_latencies([2.0] * 10)
        assert ours.saving_over(cloud) == pytest.approx(0.5)
        assert ours.speedup_over(cloud) == pytest.approx(2.0)


def _latency_series(length: int, seed: int, kind: str, as_list: bool) -> list[float] | np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "ties":
        values = rng.integers(0, 4, length) * 0.1
    elif kind == "constant":
        values = np.full(length, 0.3)
    else:
        values = rng.lognormal(-1.0, 1.5, length)
    return values.tolist() if as_list else values


class TestLatencySeriesSummary:
    """The grouped summary reduces equal-length series together; every
    field must be bit-identical to summarising each series alone."""

    @staticmethod
    def _bits(summary):
        return (
            summary.total.hex(),
            summary.mean.hex(),
            summary.p50.hex(),
            summary.p90.hex(),
            summary.p99.hex(),
            summary.count,
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                # short lengths repeat, so equal-length groups are common
                st.one_of(st.integers(0, 4), st.sampled_from([37, 38]), st.integers(5, 10_000)),
                st.integers(0, 2**32 - 1),
                st.sampled_from(["ties", "constant", "continuous"]),
                st.booleans(),
            ),
            max_size=30,
        )
    )
    def test_matches_one_series_at_a_time(self, drawn):
        series = [_latency_series(*args) for args in drawn]
        grouped = summarize_latency_series(series)
        assert len(grouped) == len(series)
        for values, summary in zip(series, grouped):
            alone = summarize_latencies(values)
            assert all(type(value) is float for value in (summary.total, summary.mean, summary.p50))
            assert self._bits(summary) == self._bits(alone)
            assert self._bits(alone) == self._bits(self._reference(values))

    @staticmethod
    def _reference(values):
        """The one-series summary as computed before series were grouped."""
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        if values.size == 0:
            return summarize_latencies([])
        p50, p90, p99 = np.percentile(values, (50, 90, 99)).tolist()
        return LatencySummary(
            total=float(values.sum()), mean=float(values.mean()), p50=p50, p90=p90, p99=p99, count=int(values.size)
        )

    def test_empty_and_no_series(self):
        assert summarize_latency_series([]) == []
        empty, one = summarize_latency_series([[], [2.5]])
        assert empty == summarize_latencies([]) and empty.count == 0
        assert (one.total, one.mean, one.p50, one.p99, one.count) == (2.5, 2.5, 2.5, 2.5, 1)
