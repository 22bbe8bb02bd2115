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
from hypothesis import given, settings
from hypothesis import strategies as st

import _legacy_trace as legacy
from repro.data import load_dataset
from repro.detection import DetectionBatch
from repro.errors import ConfigurationError
from repro.runtime import (
    JETSON_NANO,
    RTX3060_SERVER,
    WLAN,
    Deployment,
    FleetSpec,
    FrameTrace,
    FrameTraceBuilder,
    StreamConfig,
    cloud_only_scheme,
    edge_only_scheme,
    serve_fleet,
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

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_concat_matches_the_per_part_shift(self, data):
        """One repeated-offset shift over the concatenated columns equals
        shifting each part on its own: non-negative segments and verdict
        segments move by their part's offset, ``-1`` markers stay, a
        zero-offset part keeps its columns as they are, and empty parts
        contribute nothing."""
        # mostly -1 markers and segments; other negatives pin the zero-offset rule
        segment = st.one_of(st.just(-1), st.integers(0, 50), st.integers(-3, -2))
        parts = []
        for size in data.draw(st.lists(st.integers(0, 6), min_size=1, max_size=6)):
            segments = data.draw(st.lists(segment, min_size=size, max_size=size))
            verdicts = data.draw(st.lists(segment, min_size=size, max_size=size))
            parts.append(
                _trace(
                    np.arange(size, dtype=np.float64),
                    np.arange(size, dtype=np.float64) + 0.5,
                    [value >= 0 for value in segments],
                    segments,
                    [1.0 if value >= 0 else -np.inf for value in verdicts],
                    verdicts,
                )
            )
        offsets = data.draw(
            st.one_of(st.none(), st.lists(st.integers(0, 1000), min_size=len(parts), max_size=len(parts)))
        )
        merged = FrameTrace.concat(parts, segment_offsets=offsets)

        def per_part(column: str) -> list[int]:
            shifted = []
            for index, part in enumerate(parts):
                values = getattr(part, column)
                offset = 0 if offsets is None else offsets[index]
                shifted.extend(np.where(values >= 0, values + offset, -1) if offset else values)
            return [int(value) for value in shifted]

        assert merged.segments.dtype == merged.verdict_segments.dtype == np.int64
        assert merged.segments.tolist() == per_part("segments")
        assert merged.verdict_segments.tolist() == per_part("verdict_segments")
        for column in ("arrivals", "times", "records", "served", "verdict_times"):
            expected = np.concatenate([getattr(part, column) for part in parts])
            assert np.array_equal(getattr(merged, column), expected)

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

    @staticmethod
    def _log(builder, rows, bulk):
        """Log ``rows`` — ``(arrival, time, record, served, segment)`` or a
        list of ``(arrival, record)`` drops — appending or extending."""
        positions = []
        for row in rows:
            if isinstance(row, list):
                if bulk:
                    builder.extend_dropped([arrival for arrival, _ in row], [record for _, record in row])
                else:
                    for arrival, record in row:
                        builder.append(arrival, arrival, record, False)
            else:
                positions.append(builder.append(*row))
        return positions

    def test_extend_dropped_equals_per_row_appends(self):
        rows = [
            [],
            (0.0, 0.3, 4, True, 0),
            [(0.5, 5), (0.75, 6), (0.75, 7)],
            [],
            (1.0, 1.0, 8, False, -1),
            [(1.5, 9)],
            (2.0, 2.4, 10, True, 1),
        ]
        bulk, single = FrameTraceBuilder(), FrameTraceBuilder()
        bulk_positions = self._log(bulk, rows, bulk=True)
        single_positions = self._log(single, rows, bulk=False)
        assert bulk_positions == single_positions == [0, 4, 6]
        assert len(bulk) == len(single) == 7
        # deferred-verdict reconciliation after an extend still lands on the right rows
        for builder, (kept, dropped, _) in ((bulk, bulk_positions), (single, single_positions)):
            builder.set_verdict(kept, 3.0, 2)
            builder.mark_served(dropped, 3.5, 3)
        assert bulk.build() == single.build()
        trace = bulk.build()
        assert trace.records.tolist() == [4, 5, 6, 7, 8, 9, 10]
        assert trace.times.tolist() == [0.3, 0.5, 0.75, 0.75, 3.5, 1.5, 2.4]
        assert trace.served.tolist() == [True, False, False, False, True, False, True]
        assert trace.segments.tolist() == [0, -1, -1, -1, 3, -1, 1]
        assert trace.verdict_segments.tolist() == [2, -1, -1, -1, -1, -1, -1]

    def test_empty_extend_is_a_no_op(self):
        builder = FrameTraceBuilder()
        builder.extend_dropped([], [])
        assert len(builder) == 0
        assert builder.build() == FrameTrace.empty()
        assert builder.append(1.0, 1.0, 0, False) == 0

    def test_extend_dropped_rejects_misaligned_columns(self):
        with pytest.raises(ConfigurationError):
            FrameTraceBuilder().extend_dropped([1.0, 2.0], [0])


_TIMES = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
_RECORDS = st.integers(0, 2**40)
_SEGMENTS = st.integers(-1, 2**40)
_BUILDER_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"), _TIMES, _TIMES, _RECORDS, st.booleans(), _SEGMENTS),
        st.tuples(st.just("extend"), st.lists(st.tuples(_TIMES, _RECORDS), max_size=20)),
        # a verdict or an un-drop lands on an already-logged row, picked by fraction
        st.tuples(st.sampled_from(["set_verdict", "mark_served"]), st.floats(0.0, 1.0), _TIMES, _SEGMENTS),
        st.tuples(st.just("build")),
    ),
    max_size=60,
)


class TestSparseVerdictBuilder:
    """The builder keeps the deferred verdicts sparse; over any operation
    sequence it must build what the dense seven-column builder built."""

    @staticmethod
    def _assert_same(ours: FrameTrace, theirs: FrameTrace) -> None:
        for name in ("arrivals", "times", "records", "served", "segments", "verdict_times", "verdict_segments"):
            mine, reference = getattr(ours, name), getattr(theirs, name)
            assert mine.dtype == reference.dtype and mine.shape == reference.shape
            assert mine.tobytes() == reference.tobytes(), name

    @settings(max_examples=150, deadline=None)
    @given(_BUILDER_OPS)
    def test_matches_the_dense_builder(self, ops):
        ours, theirs = FrameTraceBuilder(), legacy.FrameTraceBuilder()
        for op, *args in ops:
            if op == "append":
                assert ours.append(*args) == theirs.append(*args)
            elif op == "extend":
                (rows,) = args
                arrivals, records = [arrival for arrival, _ in rows], [record for _, record in rows]
                ours.extend_dropped(arrivals, records)
                theirs.extend_dropped(arrivals, records)
            elif op == "build":
                self._assert_same(ours.build(), theirs.build())
            elif len(theirs):
                fraction, time, segment = args
                position = min(int(fraction * len(theirs)), len(theirs) - 1)
                getattr(ours, op)(position, time, segment)
                getattr(theirs, op)(position, time, segment)
            assert len(ours) == len(theirs)
        self._assert_same(ours.build(), theirs.build())


class TestReportPercentiles:
    CONFIG = StreamConfig(fps=1.0, poisson=True, duration_s=12.0)

    def test_stream_report_percentiles_from_trace(self, deployment, helmet_mini, big_batch):
        report = serve_fleet(
            deployment, helmet_mini, FleetSpec(cloud_only_scheme(), self.CONFIG, detections=big_batch), seed=3
        ).cameras[0]
        points = report.latency_percentiles()
        ages = report.trace.latencies()
        assert points[50.0] == pytest.approx(float(np.percentile(ages, 50.0)))
        assert points[50.0] <= points[95.0] <= points[99.0]

    def test_stream_report_without_trace_raises(self, deployment, helmet_mini):
        report = serve_fleet(deployment, helmet_mini, FleetSpec(edge_only_scheme(), self.CONFIG), seed=3).cameras[0]
        assert report.trace is None
        with pytest.raises(ConfigurationError, match="no frame trace"):
            report.latency_percentiles()

    def test_fleet_trace_concatenates_cameras_with_offsets(self, deployment, helmet_mini, big_batch):
        fleet = serve_fleet(
            deployment,
            helmet_mini,
            FleetSpec(scheme=cloud_only_scheme(), config=self.CONFIG, cameras=3, detections=big_batch),
            seed=3,
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
        fleet = serve_fleet(
            deployment,
            helmet_mini,
            FleetSpec(scheme=edge_only_scheme(), config=self.CONFIG, cameras=2),
            seed=3,
        )
        with pytest.raises(ConfigurationError, match="fleet camera 0"):
            fleet.trace()
