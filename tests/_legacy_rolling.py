"""Verbatim pre-vectorization ``repro.metrics.rolling`` (reference oracle).

This is the per-frame/per-window implementation the vectorized evaluator
replaced, kept as the equality oracle for ``test_rolling_equivalence.py`` —
the rewrite is pinned *bit-for-bit* against it on every serving scheme and
report shape.  Do not modernise this file; its value is that it does not
change.  Only the input adapter (``_frame_logs``) has been touched since:
it reads the columns of ``report.trace``, which replaced the report's
per-column ``frame_*`` views; the docstring below names those columns.

Original module docstring follows.

Online stream evaluation: rolling-window quality of served frames.

Latency and drop counts alone understate what saturation costs: a scheme
that sheds frames — or returns them seconds late — still *looks* healthy on
the frames it serves.  This module scores a streaming run the way an
operator would watch it: a rolling window over *arrival* time, where every
frame offered in the window counts.  A frame contributes its served
detections only if a result was actually produced **and** was fresh (ready
within ``freshness_s`` of arrival); dropped and stale frames contribute an
empty detection set against their ground truth, so backpressure and
queueing delay both show up as measured mAP / object-count loss rather than
as side-channel counters.

Inputs are the per-frame logs a :class:`~repro.runtime.serving.StreamReport`
carries when the simulation was given served detections (``served``,
``trace.arrivals``, ``trace.times``, ``trace.records``, ``trace.served``);
fleet runs evaluate the union of all camera logs.

Failure injection adds one wrinkle: a frame whose escalation failed serves
its *edge* verdict immediately, and a durable escalation queue may land the
deferred *cloud* verdict later (``trace.verdict_segments`` /
``trace.verdict_times``).  The evaluation reconciles the two — a late cloud
verdict inside the freshness deadline upgrades the scored frame, outside it
the frame scores as edge-served — so graceful degradation and recovery are
measured, not asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.data.datasets import Dataset
from repro.detection.batch import DetectionBatch, DetectionBatchBuilder
from repro.errors import ConfigurationError
from repro.metrics.counting import count_detected_objects
from repro.metrics.voc_ap import mean_average_precision

__all__ = ["RollingWindow", "rolling_quality"]

_EMPTY_BOXES = np.zeros((0, 4))
_EMPTY_SCORES = np.zeros(0)
_EMPTY_LABELS = np.zeros(0, dtype=np.int64)


@dataclass(frozen=True)
class RollingWindow:
    """Quality of one evaluation window of a streaming run.

    ``map_percent`` and the object counts are measured over every frame that
    *arrived* in ``[t_start, t_end)`` — frames that were dropped, or whose
    result came back stale, score as empty detection sets and pull quality
    down instead of vanishing.
    """

    t_start: float
    t_end: float
    frames: int
    served: int
    dropped: int
    stale: int
    map_percent: float
    detected_objects: int
    true_objects: int

    @property
    def count_error_percent(self) -> float:
        """Percent of in-window annotated objects the stream missed."""
        if self.true_objects == 0:
            return 0.0
        return 100.0 * (self.true_objects - self.detected_objects) / self.true_objects


def _frame_logs(report) -> list:
    """Flatten one report (stream or fleet) into per-camera log tuples."""
    cameras = getattr(report, "cameras", None)
    if cameras is not None:
        logs = []
        for camera in cameras:
            logs.extend(_frame_logs(camera))
        return logs
    if report.served is None or report.trace is None:
        raise ConfigurationError("stream report carries no served frames; simulate with detections=")
    trace = report.trace
    return [
        (
            report.served,
            trace.arrivals,
            trace.times,
            trace.records,
            trace.served,
            trace.segments,
            trace.verdict_times,
            trace.verdict_segments,
        )
    ]


def _segment_maps(logs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-frame segment indices into the concatenated served batch.

    Returns ``(positions, verdict_segments, verdict_times)`` aligned with the
    concatenated frame logs; ``-1`` marks "no segment".  Segment indices are
    shifted by each camera's offset in the concatenated batch.  Logs without
    an explicit segment map (pre-failure-injection reports) fall back to
    counting served flags, which is exact when the served batch holds only
    primary serves.
    """
    positions_parts: list[np.ndarray] = []
    verdict_parts: list[np.ndarray] = []
    verdict_time_parts: list[np.ndarray] = []
    offset = 0
    for batch, _arrivals, _times, _records, flags, segments, verdict_times, verdict_segments in logs:
        if segments is None:
            counted = np.cumsum(flags.astype(np.int64)) - 1
            positions_parts.append(np.where(flags, counted + offset, -1))
        else:
            positions_parts.append(np.where(segments >= 0, segments + offset, -1))
        if verdict_segments is None:
            verdict_parts.append(np.full(flags.shape[0], -1, dtype=np.int64))
            verdict_time_parts.append(np.full(flags.shape[0], -np.inf))
        else:
            verdict_parts.append(np.where(verdict_segments >= 0, verdict_segments + offset, -1))
            verdict_time_parts.append(verdict_times)
        offset += len(batch)
    return (
        np.concatenate(positions_parts),
        np.concatenate(verdict_parts),
        np.concatenate(verdict_time_parts),
    )


def rolling_quality(
    reports,
    dataset: Dataset,
    *,
    window_s: float = 10.0,
    step_s: float | None = None,
    duration_s: float | None = None,
    freshness_s: float | None = None,
    score_threshold: float = 0.5,
    iou_threshold: float = 0.5,
) -> list[RollingWindow]:
    """Score a streaming run over a rolling arrival-time window.

    Parameters
    ----------
    reports:
        A :class:`~repro.runtime.serving.StreamReport`, a
        :class:`~repro.runtime.serving.FleetReport`, or a sequence of
        either; every report must carry the per-frame log (run the
        simulation with ``detections=``).  Fleet windows pool all cameras.
    dataset:
        The split the stream cycled through (ground-truth source).
    window_s / step_s:
        Window width and stride (stride defaults to the width: adjacent,
        non-overlapping windows).
    duration_s:
        Evaluation horizon over arrivals.  Defaults to just past the latest
        arrival; pass the stream's configured duration to compare schemes on
        an identical window grid.
    freshness_s:
        Staleness deadline: a served frame only counts if its result was
        ready within this many seconds of the frame's arrival.  ``None``
        (default) accepts any completed frame, however late — then only
        drops degrade quality.
    """
    if window_s <= 0.0:
        raise ConfigurationError(f"window_s must be positive, got {window_s}")
    if step_s is None:
        step_s = window_s
    if step_s <= 0.0:
        raise ConfigurationError(f"step_s must be positive, got {step_s}")
    if freshness_s is not None and freshness_s <= 0.0:
        raise ConfigurationError(f"freshness_s must be positive, got {freshness_s}")
    if not isinstance(reports, Sequence):
        reports = [reports]
    logs = []
    for report in reports:
        logs.extend(_frame_logs(report))
    if not logs:
        # An empty sequence would otherwise sail past the per-report guard
        # and yield a single degenerate all-zero window — a score of
        # "nothing" that reads like a measurement.
        raise ConfigurationError("no stream reports to evaluate")

    arrivals = np.concatenate([log[1] for log in logs])
    times = np.concatenate([log[2] for log in logs])
    records = np.concatenate([log[3] for log in logs])
    served_flags = np.concatenate([log[4] for log in logs])
    batch = DetectionBatch.concat([log[0] for log in logs])
    # Map each offered frame to its segment in the concatenated served batch
    # (-1 for drops), plus any deferred cloud verdict a durable escalation
    # queue recovered for it.
    positions, verdict_segments, verdict_times = _segment_maps(logs)
    fresh = served_flags.copy()
    if freshness_s is not None:
        fresh &= (times - arrivals) <= freshness_s
    truth = dataset.truth_batch

    if duration_s is None:
        # just past the latest arrival, so a frame landing exactly on a
        # window boundary still falls inside the final window
        duration_s = float(np.nextafter(arrivals.max(), np.inf)) if arrivals.size else 0.0
    windows: list[RollingWindow] = []
    # windows sit on an exact i * step_s grid (no float accumulation drift)
    index = 0
    while index * step_s < duration_s or not windows:
        t_start = index * step_s
        t_end = t_start + window_s
        inside = np.flatnonzero((arrivals >= t_start) & (arrivals < t_end))
        served = int(fresh[inside].sum())
        dropped = int((~served_flags[inside]).sum())
        stale = int(inside.size) - served - dropped
        builder = DetectionBatchBuilder(detector=batch.detector)
        for frame in inside:
            if fresh[frame]:
                segment = int(positions[frame])
                # Reconcile a deferred cloud verdict: inside the freshness
                # deadline it upgrades the scored frame; outside, the frame
                # stays scored on the edge verdict it served with.
                verdict = int(verdict_segments[frame])
                if verdict >= 0 and (
                    freshness_s is None or verdict_times[frame] - arrivals[frame] <= freshness_s
                ):
                    segment = verdict
                lo = int(batch.offsets[segment])
                hi = int(batch.offsets[segment + 1])
                builder.append(
                    batch.image_ids[segment],
                    batch.boxes[lo:hi],
                    batch.scores[lo:hi],
                    batch.labels[lo:hi],
                )
            else:
                builder.append(
                    dataset.image_ids[int(records[frame])],
                    _EMPTY_BOXES,
                    _EMPTY_SCORES,
                    _EMPTY_LABELS,
                )
        window_batch = builder.build()
        window_truth = truth.select(records[inside])
        if inside.size:
            map_percent = mean_average_precision(
                window_batch.above(score_threshold),
                window_truth,
                dataset.num_classes,
                iou_threshold=iou_threshold,
            )
            detected = count_detected_objects(
                window_batch,
                window_truth,
                score_threshold=score_threshold,
                iou_threshold=iou_threshold,
            )
        else:
            map_percent = 0.0
            detected = 0
        windows.append(
            RollingWindow(
                t_start=t_start,
                t_end=t_end,
                frames=int(inside.size),
                served=served,
                dropped=dropped,
                stale=stale,
                map_percent=map_percent,
                detected_objects=detected,
                true_objects=window_truth.total_objects,
            )
        )
        index += 1
    return windows
