"""Tests for the columnar frame trace: layout, builder, percentiles, I/O.

The trace is the storage layer behind every streaming report's frame log, so
these tests pin its contracts directly — validation, value equality,
fleet-level concatenation with segment shifting, builder appends and in-place
verdict reconciliation, latency percentiles, and the ``.npz`` round-trip —
plus the report-level percentile helpers that read it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import load_dataset
from repro.detection import DetectionBatch
from repro.errors import ConfigurationError
from repro.runtime import (
    JETSON_NANO,
    RTX3060_SERVER,
    WLAN,
    Deployment,
    FrameTrace,
    FrameTraceBuilder,
    StreamConfig,
    StreamSpec,
    cloud_only_scheme,
    edge_only_scheme,
    serve_stream,
    simulate_fleet,
)
from repro.simulate import make_detector


@pytest.fixture(scope="module")
def helmet_mini():
    return load_dataset("helmet", "test", fraction=0.08)


@pytest.fixture(scope="module")
def deployment():
    return Deployment(
        edge=JETSON_NANO,
        cloud=RTX3060_SERVER,
        link=WLAN,
        small_model_flops=5.6e9,
        big_model_flops=61.2e9,
    )


@pytest.fixture(scope="module")
def big_batch(helmet_mini):
    return DetectionBatch.coerce(make_detector("ssd", "helmet").detect_split(helmet_mini))


def _trace(arrivals, times, served, segments, verdict_times=None, verdict_segments=None):
    count = len(arrivals)
    return FrameTrace(
        arrivals=np.asarray(arrivals, dtype=np.float64),
        times=np.asarray(times, dtype=np.float64),
        records=np.arange(count, dtype=np.int64),
        served=np.asarray(served, dtype=bool),
        segments=np.asarray(segments, dtype=np.int64),
        verdict_times=np.full(count, -np.inf) if verdict_times is None else np.asarray(verdict_times, dtype=np.float64),
        verdict_segments=(
            np.full(count, -1, dtype=np.int64)
            if verdict_segments is None
            else np.asarray(verdict_segments, dtype=np.int64)
        ),
    )


class TestFrameTrace:
    def test_columns_coerced_and_validated(self):
        trace = _trace([0, 1], [1, 2], [1, 0], [0, -1])
        assert trace.arrivals.dtype == np.float64
        assert trace.served.dtype == bool
        assert trace.segments.dtype == np.int64
        assert len(trace) == 2

    def test_mismatched_column_lengths_rejected(self):
        with pytest.raises(ConfigurationError, match="times"):
            FrameTrace(
                arrivals=np.zeros(2),
                times=np.zeros(3),
                records=np.zeros(2, dtype=np.int64),
                served=np.zeros(2, dtype=bool),
                segments=np.zeros(2, dtype=np.int64),
                verdict_times=np.zeros(2),
                verdict_segments=np.zeros(2, dtype=np.int64),
            )

    def test_value_equality_not_identity(self):
        a = _trace([0.0, 1.0], [0.5, 1.5], [True, True], [0, 1])
        b = _trace([0.0, 1.0], [0.5, 1.5], [True, True], [0, 1])
        c = _trace([0.0, 1.0], [0.5, 9.0], [True, True], [0, 1])
        assert a == b
        assert a != c
        assert a != "not a trace"
        assert hash(a) != hash(b) or a is b  # identity hash survives custom __eq__

    def test_empty(self):
        trace = FrameTrace.empty()
        assert len(trace) == 0
        assert trace.latencies().size == 0
        assert trace.latency_percentiles() == {50.0: 0.0, 95.0: 0.0, 99.0: 0.0}

    def test_concat_shifts_segments_and_preserves_drops(self):
        a = _trace([0.0, 1.0], [0.2, 1.0], [True, False], [0, -1], [5.0, -np.inf], [1, -1])
        b = _trace([0.5], [0.9], [True], [0])
        merged = FrameTrace.concat([a, b], segment_offsets=[0, 2])
        assert merged.segments.tolist() == [0, -1, 2]
        assert merged.verdict_segments.tolist() == [1, -1, -1]
        assert merged.arrivals.tolist() == [0.0, 1.0, 0.5]

    def test_concat_single_part_zero_offset_is_passthrough(self):
        a = _trace([0.0], [0.1], [True], [0])
        assert FrameTrace.concat([a], segment_offsets=[0]) is a
        assert FrameTrace.concat([a]) is a

    def test_concat_offset_count_mismatch_rejected(self):
        a = _trace([0.0], [0.1], [True], [0])
        with pytest.raises(ConfigurationError, match="segment offsets"):
            FrameTrace.concat([a, a], segment_offsets=[0])

    def test_concat_empty_sequence(self):
        assert len(FrameTrace.concat([])) == 0

    def test_latencies_served_only(self):
        trace = _trace([0.0, 1.0, 2.0], [0.25, 1.0, 2.75], [True, False, True], [0, -1, 1])
        assert trace.latencies().tolist() == [0.25, 0.75]

    def test_latency_percentiles_match_numpy(self):
        ages = np.linspace(0.01, 1.0, 100)
        trace = _trace(np.zeros(100), ages, np.ones(100, dtype=bool), np.arange(100))
        points = trace.latency_percentiles((50.0, 95.0, 99.0))
        expected = np.percentile(ages, [50.0, 95.0, 99.0])
        assert points[50.0] == pytest.approx(expected[0])
        assert points[95.0] == pytest.approx(expected[1])
        assert points[99.0] == pytest.approx(expected[2])

    def test_npz_round_trip(self, tmp_path):
        trace = _trace([0.0, 1.0], [0.5, 1.0], [True, False], [0, -1], [3.0, -np.inf], [1, -1])
        path = tmp_path / "trace.npz"
        trace.save(path)
        assert FrameTrace.load(path) == trace

    def test_load_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez_compressed(path, arrivals=np.zeros(1))
        with pytest.raises(ConfigurationError, match="missing columns"):
            FrameTrace.load(path)


class TestFrameTraceBuilder:
    def test_append_grows_and_builds(self):
        builder = FrameTraceBuilder()
        positions = [builder.append(float(i), float(i) + 0.5, i, True, i) for i in range(100)]
        assert positions == list(range(100))
        trace = builder.build()
        assert len(trace) == 100
        assert trace.arrivals.tolist() == [float(i) for i in range(100)]
        assert trace.segments.tolist() == list(range(100))
        assert not np.isfinite(trace.verdict_times).any()

    def test_set_verdict_and_mark_served_mutate_in_place(self):
        builder = FrameTraceBuilder()
        kept = builder.append(0.0, 0.1, 0, True, 0)
        dropped = builder.append(1.0, 1.0, 1, False)
        builder.set_verdict(kept, 4.0, 2)
        builder.mark_served(dropped, 5.0, 3)
        trace = builder.build()
        assert trace.verdict_times[kept] == 4.0
        assert trace.verdict_segments[kept] == 2
        assert trace.served[dropped]
        assert trace.times[dropped] == 5.0
        assert trace.segments[dropped] == 3


class TestReportPercentiles:
    CONFIG = StreamConfig(fps=1.0, poisson=True, duration_s=12.0)

    def test_stream_report_percentiles_from_trace(self, deployment, helmet_mini, big_batch):
        report = serve_stream(
            deployment, helmet_mini, StreamSpec(cloud_only_scheme(), self.CONFIG, detections=big_batch), seed=3
        )
        points = report.latency_percentiles()
        ages = report.trace.latencies()
        assert points[50.0] == pytest.approx(float(np.percentile(ages, 50.0)))
        assert points[50.0] <= points[95.0] <= points[99.0]

    def test_stream_report_without_trace_raises(self, deployment, helmet_mini):
        report = serve_stream(deployment, helmet_mini, StreamSpec(edge_only_scheme(), self.CONFIG), seed=3)
        assert report.trace is None
        with pytest.raises(ConfigurationError, match="no frame trace"):
            report.latency_percentiles()

    def test_fleet_trace_concatenates_cameras_with_offsets(self, deployment, helmet_mini, big_batch):
        fleet = simulate_fleet(
            cloud_only_scheme(), deployment, helmet_mini, self.CONFIG, cameras=3, detections=big_batch, seed=3
        )
        trace = fleet.trace()
        assert len(trace) == sum(len(camera.trace) for camera in fleet.cameras)
        # fleet segments index the *fleet-level* served batch: every camera's
        # segment range lands after the previous cameras' segments
        offset = 0
        start = 0
        for camera in fleet.cameras:
            rows = slice(start, start + len(camera.trace))
            shifted = trace.segments[rows]
            local = camera.trace.segments
            assert np.array_equal(shifted[local >= 0], local[local >= 0] + offset)
            assert (shifted[local < 0] == -1).all()
            offset += len(camera.served)
            start += len(camera.trace)
        points = fleet.latency_percentiles((50.0, 90.0))
        assert set(points) == {50.0, 90.0}

    def test_fleet_without_traces_raises(self, deployment, helmet_mini):
        fleet = simulate_fleet(edge_only_scheme(), deployment, helmet_mini, self.CONFIG, cameras=2, seed=3)
        with pytest.raises(ConfigurationError, match="fleet camera 0"):
            fleet.trace()
