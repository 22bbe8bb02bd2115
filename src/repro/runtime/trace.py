"""Columnar per-frame traces of streaming runs.

Every offered frame of a simulated stream produces one row of bookkeeping:
when it arrived, when (and whether) a result was ready, which dataset record
it showed, which segment of the served batch holds its detections, and —
under failure injection — the deferred cloud verdict a durable escalation
queue recovered for it.  Historically each :class:`_CameraStream` kept those
rows as eight parallel Python lists; at fleet scale (thousands of cameras,
tens of thousands of frames) the lists dominated both simulation time and
the memory profile, and every consumer immediately re-packed them into
arrays anyway.

:class:`FrameTrace` stores the log structure-of-arrays — seven aligned
columns, one row per offered frame — so the rolling-quality evaluator, the
admission/availability experiments and the latency-percentile helpers all
read the same flat arrays with zero re-packing.  :class:`FrameTraceBuilder`
is the streaming producer: five typed ``array.array`` columns appended per
frame, plus the two deferred-verdict columns kept sparse (written only
where a verdict lands), reconciled in place and converted to NumPy once.
A run of frames refused at a full camera buffer lands in one
:meth:`FrameTraceBuilder.extend_dropped` (five column extends) instead of
one five-column append per frame.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["FrameTrace", "FrameTraceBuilder"]

#: A drop's segment, repeated for a run of refused frames.
_NO_SEGMENT = array("q", [-1])

#: Column order of the on-disk ``.npz`` payload (also the constructor order).
_COLUMNS = (
    "arrivals",
    "times",
    "records",
    "served",
    "segments",
    "verdict_times",
    "verdict_segments",
)


@dataclass(frozen=True, eq=False)
class FrameTrace:
    """One stream's (or fleet's) per-frame log, stored structure-of-arrays.

    Attributes
    ----------
    arrivals:
        Arrival instant of every offered frame, in event order.
    times:
        Result-ready instant (the arrival again for dropped frames).
    records:
        Dataset record index each frame showed.
    served:
        Whether a result was produced at all.
    segments:
        Segment index into the run's served :class:`DetectionBatch`
        (``-1`` for drops).
    verdict_times / verdict_segments:
        Deferred cloud verdict a durable escalation queue recovered for a
        frame that first served its edge fallback — when it landed and which
        served segment holds it (``-inf`` / ``-1`` when there is none).
    """

    arrivals: np.ndarray
    times: np.ndarray
    records: np.ndarray
    served: np.ndarray
    segments: np.ndarray
    verdict_times: np.ndarray
    verdict_segments: np.ndarray

    def __post_init__(self) -> None:
        arrivals = np.asarray(self.arrivals, dtype=np.float64).reshape(-1)
        times = np.asarray(self.times, dtype=np.float64).reshape(-1)
        records = np.asarray(self.records, dtype=np.int64).reshape(-1)
        served = np.asarray(self.served, dtype=bool).reshape(-1)
        segments = np.asarray(self.segments, dtype=np.int64).reshape(-1)
        verdict_times = np.asarray(self.verdict_times, dtype=np.float64).reshape(-1)
        verdict_segments = np.asarray(self.verdict_segments, dtype=np.int64).reshape(-1)
        count = arrivals.shape[0]
        for name, column in (
            ("times", times),
            ("records", records),
            ("served", served),
            ("segments", segments),
            ("verdict_times", verdict_times),
            ("verdict_segments", verdict_segments),
        ):
            if column.shape[0] != count:
                raise ConfigurationError(
                    f"FrameTrace: column {name!r} has {column.shape[0]} rows for {count} arrivals"
                )
        object.__setattr__(self, "arrivals", arrivals)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "served", served)
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "verdict_times", verdict_times)
        object.__setattr__(self, "verdict_segments", verdict_segments)

    def __len__(self) -> int:
        return int(self.arrivals.shape[0])

    def __eq__(self, other: object) -> bool:
        """Column-wise value equality (the dataclass default would raise on
        multi-element arrays)."""
        if not isinstance(other, FrameTrace):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name)) for name in _COLUMNS)

    # defining __eq__ sets __hash__ to None; keep traces hashable by identity
    __hash__ = object.__hash__

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def empty(cls) -> "FrameTrace":
        """A zero-frame trace (the report of a stream that saw no arrivals)."""
        return cls(
            arrivals=np.zeros(0),
            times=np.zeros(0),
            records=np.zeros(0, dtype=np.int64),
            served=np.zeros(0, dtype=bool),
            segments=np.zeros(0, dtype=np.int64),
            verdict_times=np.zeros(0),
            verdict_segments=np.zeros(0, dtype=np.int64),
        )

    @classmethod
    def concat(
        cls,
        parts: Sequence["FrameTrace"],
        *,
        segment_offsets: Sequence[int] | np.ndarray | None = None,
    ) -> "FrameTrace":
        """Concatenate per-camera traces into one fleet-level trace.

        ``segment_offsets`` (one per part) shifts each part's non-negative
        ``segments``/``verdict_segments`` by that part's offset in the
        concatenated served batch, so the fleet trace indexes the fleet
        batch directly; ``-1``/"no segment" markers are preserved.  Without
        offsets the columns concatenate unshifted.
        """
        parts = list(parts)
        if segment_offsets is not None and len(segment_offsets) != len(parts):
            raise ConfigurationError(
                f"FrameTrace.concat: got {len(segment_offsets)} segment offsets for {len(parts)} traces"
            )
        if not parts:
            return cls.empty()
        if len(parts) == 1 and (segment_offsets is None or int(segment_offsets[0]) == 0):
            return parts[0]
        segments = np.concatenate([part.segments for part in parts])
        verdict_segments = np.concatenate([part.verdict_segments for part in parts])
        if segment_offsets is not None:
            # each part's offset repeated over its rows shifts every part at
            # once; a part with a zero offset keeps its columns as they are
            shift = np.repeat(np.asarray(segment_offsets).astype(np.int64), [len(part) for part in parts])
            unshifted = shift == 0
            segments = np.where((segments >= 0) | unshifted, segments + shift, -1)
            verdict_segments = np.where((verdict_segments >= 0) | unshifted, verdict_segments + shift, -1)
        return cls(
            arrivals=np.concatenate([part.arrivals for part in parts]),
            times=np.concatenate([part.times for part in parts]),
            records=np.concatenate([part.records for part in parts]),
            served=np.concatenate([part.served for part in parts]),
            segments=segments,
            verdict_times=np.concatenate([part.verdict_times for part in parts]),
            verdict_segments=verdict_segments,
        )

    # ------------------------------------------------------------------ #
    # derived metrics
    # ------------------------------------------------------------------ #
    def latencies(self) -> np.ndarray:
        """Result age (completion minus arrival, seconds) of every served frame."""
        return (self.times - self.arrivals)[self.served]

    def latency_percentiles(self, percentiles: Sequence[float] = (50.0, 95.0, 99.0)) -> dict[float, float]:
        """Per-frame latency percentiles over the served frames.

        Returns ``{percentile: seconds}``; all zeros when nothing was served
        (a trace with no served frames has no latency distribution to read).
        """
        points = [float(point) for point in percentiles]
        ages = self.latencies()
        if ages.size == 0:
            return {point: 0.0 for point in points}
        values = np.percentile(ages, points)
        return {point: float(value) for point, value in zip(points, values)}

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save(self, path) -> None:
        """Serialise the seven columns as a compressed ``.npz``."""
        np.savez_compressed(path, **{name: getattr(self, name) for name in _COLUMNS})

    @classmethod
    def load(cls, path) -> "FrameTrace":
        """Rebuild a trace from :meth:`save` output (validated on entry)."""
        payload = np.load(path)
        missing = [name for name in _COLUMNS if name not in payload]
        if missing:
            raise ConfigurationError(f"FrameTrace.load: payload is missing columns {missing}")
        return cls(**{name: payload[name] for name in _COLUMNS})


class FrameTraceBuilder:
    """Appendable accumulator producing :class:`FrameTrace` layouts.

    Rows land in five typed :class:`array.array` columns (``d``/``q``/``b``),
    so logging a frame is five native appends with no per-row NumPy scalar
    store and no capacity bookkeeping.  The two deferred-verdict columns are
    sparse: only a durable escalation queue's recoveries write them, so they
    are kept as ``{position: value}`` dicts of plain scalars (no per-row
    container, so no garbage-collector tracking) and filled into ``-inf`` /
    ``-1`` columns by :meth:`build`.  Deferred-verdict reconciliation
    mutates rows in place by position — exactly the contract the durable
    escalation queue needs — so :meth:`build` should be called once the run
    has drained; it converts each column to NumPy once.
    """

    __slots__ = (
        "_arrivals",
        "_times",
        "_records",
        "_served",
        "_segments",
        "_verdict_times",
        "_verdict_segments",
    )

    def __init__(self) -> None:
        self._arrivals = array("d")
        self._times = array("d")
        self._records = array("q")
        self._served = array("b")
        self._segments = array("q")
        self._verdict_times: dict[int, float] = {}
        self._verdict_segments: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._arrivals)

    def append(self, arrival: float, time: float, record: int, served: bool, segment: int = -1) -> int:
        """Log one offered frame; returns its row position.

        ``segment`` is the frame's index in the run's served batch (``-1``
        for drops); the row has no deferred verdict until
        :meth:`set_verdict` gives it one.
        """
        position = len(self._arrivals)
        self._arrivals.append(arrival)
        self._times.append(time)
        self._records.append(record)
        self._served.append(served)
        self._segments.append(segment)
        return position

    def extend_dropped(self, arrivals: Sequence[float], records: Sequence[int]) -> None:
        """Log a run of dropped frames in one step.

        Row for row the same as ``append(arrival, arrival, record, False)``
        over ``zip(arrivals, records)``: each frame's result time is its
        arrival, it is unserved, and it has no segment or verdict.
        """
        count = len(arrivals)
        if len(records) != count:
            raise ConfigurationError(f"extend_dropped: {len(records)} records for {count} arrivals")
        self._arrivals.extend(arrivals)
        self._times.extend(arrivals)
        self._records.extend(records)
        self._served.frombytes(bytes(count))
        self._segments.extend(_NO_SEGMENT * count)

    def set_verdict(self, position: int, time: float, segment: int) -> None:
        """Attach a deferred cloud verdict to an already-served frame."""
        self._verdict_times[position] = time
        self._verdict_segments[position] = segment

    def mark_served(self, position: int, time: float, segment: int) -> None:
        """Un-drop a frame: a recovered escalation produced its first result."""
        self._times[position] = time
        self._served[position] = True
        self._segments[position] = segment

    def build(self) -> "FrameTrace":
        """Snapshot the logged rows as a validated :class:`FrameTrace`."""
        count = len(self._arrivals)
        verdict_times = np.full(count, -math.inf)
        verdict_segments = np.full(count, -1, dtype=np.int64)
        if self._verdict_times:
            positions = list(self._verdict_times)
            verdict_times[positions] = list(self._verdict_times.values())
            verdict_segments[positions] = list(self._verdict_segments.values())
        return FrameTrace(
            arrivals=np.array(self._arrivals, dtype=np.float64),
            times=np.array(self._times, dtype=np.float64),
            records=np.array(self._records, dtype=np.int64),
            served=np.array(self._served, dtype=bool),
            segments=np.array(self._segments, dtype=np.int64),
            verdict_times=verdict_times,
            verdict_segments=verdict_segments,
        )
