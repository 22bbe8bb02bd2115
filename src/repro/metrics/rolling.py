"""Online stream evaluation: rolling-window quality of served frames.

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

The input is a :class:`~repro.runtime.serving.FleetReport` of a run served
with ``detections=``: its fleet-wide columnar trace (``report.trace()``),
the served batch that trace's segments index (``report.served()``) and the
source row each of those segments was gathered from
(``report.served_sources()``).  Every camera's frames are scored together;
a single stream is a fleet of one.  The evaluator reads the report through
those three methods only, so this package imports nothing from
:mod:`repro.runtime`.

Failure injection adds one wrinkle: a frame whose escalation failed serves
its *edge* verdict immediately, and a durable escalation queue may land the
deferred *cloud* verdict later (``trace.verdict_segments`` /
``trace.verdict_times``).  The evaluation reconciles the two — a late cloud
verdict inside the freshness deadline upgrades the scored frame, outside it
the frame scores as edge-served — so graceful degradation and recovery are
measured, not asserted.

The evaluation is vectorized for fleet-scale traces, resting on one
observation: greedy VOC matching is *per frame* — detections only contend
for ground-truth boxes of their own frame — so each detection's
true-positive flag is the same in every window that contains its frame,
and the same for every frame showing the same detections of the same
record.  A fleet serves many frames from few source rows (1000 cameras
cycling through one split serve ~37k segments gathered from ~100 rows), so
one block-diagonal pass (:func:`~repro.detection.matching.greedy_match_segments`,
the matcher split mAP and detected-object counting share) matches one
representative segment per distinct (source row, record), up front, and
every fresh frame reads its representative's rows and flags; deferred
verdicts resolve with one ``np.where``; windows partition via
``np.searchsorted`` over sorted arrivals; and each window's per-class
curve is :meth:`~repro.metrics.voc_ap.PRCurve.from_matches` over the
precomputed flags, the same step split mAP takes — no per-window IoU,
matching, or batch construction at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.data.datasets import Dataset
from repro.detection.batch import DetectionBatch
from repro.detection.matching import check_thresholds, greedy_match_segments
from repro.errors import ConfigurationError
from repro.metrics.voc_ap import PRCurve

__all__ = ["RollingWindow", "rolling_quality", "verdict_miss_rates"]


def verdict_miss_rates(
    small_detections: DetectionBatch,
    detections: DetectionBatch,
    *,
    score_threshold: float = 0.5,
) -> np.ndarray:
    """Per-record pseudo-label miss rate of the edge model vs the cloud model.

    For each record, the fraction of the cloud (big-model) detections above
    ``score_threshold`` the edge (small-model) verdict fails to account for:
    ``max(0, big - small) / max(big, 1)`` on the per-record counts.  No
    ground truth is consulted — this is the quality-feedback signal a
    deployed fleet can actually observe, by comparing the two verdicts on
    the frames it *did* offload (the pseudo-label cloud-update idea).  It
    feeds :class:`~repro.runtime.control.AdaptiveQuota`: a camera whose
    offloaded frames keep revealing missed objects earns a higher offload
    quota.
    """
    if len(small_detections) != len(detections):
        raise ConfigurationError(
            "small and big detection batches must describe the same records, "
            f"got {len(small_detections)} vs {len(detections)}"
        )
    small = DetectionBatch.coerce(small_detections).count_above(score_threshold)
    big = DetectionBatch.coerce(detections).count_above(score_threshold)
    return np.maximum(big - small, 0) / np.maximum(big, 1)


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


def _window_count(duration_s: float, step_s: float) -> int:
    """Number of windows on the exact ``i * step_s`` grid covering arrivals.

    ``ceil(duration / step)`` pinned against both float failure modes: when
    the quotient rounds just above an integer the trim loop drops trailing
    windows whose start already lands at/after ``duration_s``, and when the
    *product* ``i * step_s`` rounds just below ``duration_s`` the
    quotient-based count never emits the trailing all-empty window the old
    ``while i * step_s < duration_s`` loop did (e.g. ``duration_s=0.9,
    step_s=0.3``: ``3 * 0.3 < 0.9`` in floats, yet window 3 starts exactly
    at the horizon).  At least one window is always evaluated.
    """
    if duration_s <= 0.0:
        return 1
    count = max(1, math.ceil(duration_s / step_s))
    while count > 1 and (count - 1) * step_s >= duration_s:
        count -= 1
    return count


def rolling_quality(
    report,
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
    report:
        A :class:`~repro.runtime.serving.FleetReport` whose cameras carry
        their per-frame logs (serve with ``detections=``).  Windows pool
        all cameras.
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
    check_thresholds(score_threshold=score_threshold, iou_threshold=iou_threshold)
    if not 0.0 < window_s < math.inf:  # also catches NaN
        raise ConfigurationError(f"window_s must be positive and finite, got {window_s}")
    if step_s is None:
        step_s = window_s
    if not 0.0 < step_s < math.inf:
        raise ConfigurationError(f"step_s must be positive and finite, got {step_s}")
    if freshness_s is not None and not 0.0 < freshness_s < math.inf:
        raise ConfigurationError(f"freshness_s must be positive and finite, got {freshness_s}")
    if not callable(getattr(report, "served", None)):
        raise ConfigurationError(f"rolling_quality scores a FleetReport, got {type(report).__name__}")
    # One trace over every camera, its segments indexing the fleet's served
    # batch (-1 for drops), plus any deferred cloud verdict a durable
    # escalation queue recovered for a frame.
    trace = report.trace()
    batch = report.served()
    arrivals, times, records, served_flags = trace.arrivals, trace.times, trace.records, trace.served
    fresh = served_flags.copy()
    if freshness_s is not None:
        fresh &= (times - arrivals) <= freshness_s
    truth = dataset.truth_batch

    if duration_s is None:
        # just past the latest arrival, so a frame landing exactly on a
        # window boundary still falls inside the final window
        duration_s = float(np.nextafter(arrivals.max(), np.inf)) if arrivals.size else 0.0

    # Each fresh frame contributes its segment's above-threshold prefix (a
    # dropped or stale frame contributes nothing), so every per-frame column
    # below covers fresh frames only, in frame order.  Deferred cloud
    # verdicts reconcile first: inside the freshness deadline the late
    # verdict's segment replaces the one the frame served with; outside, the
    # frame stays scored on its original (edge) verdict.
    fresh_frames = np.flatnonzero(fresh)
    fresh_records = records[fresh_frames]
    verdict_segments = trace.verdict_segments[fresh_frames]
    upgrade = verdict_segments >= 0
    if freshness_s is not None:
        upgrade &= (trace.verdict_times[fresh_frames] - arrivals[fresh_frames]) <= freshness_s
    fresh_segments = np.where(upgrade, verdict_segments, trace.segments[fresh_frames])

    # Matching is per frame, and segments gathered from one source row hold
    # the same detections of the same record, so they match alike: one
    # representative segment per distinct (source row, record) is filtered
    # and greedy-matched, up front, and every fresh frame reads its
    # representative's rows, flags and true-positive count.
    keys = report.served_sources()[fresh_segments] * len(truth) + fresh_records
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    above = batch.select(fresh_segments[first]).above(score_threshold)
    rep_counts = np.diff(above.offsets)
    rep_starts = above.offsets[:-1]
    rep_tp, row_tp = greedy_match_segments(
        above, rep_starts, rep_counts, truth, fresh_records[first], iou_threshold=iou_threshold
    )
    fresh_counts = rep_counts[inverse]
    fresh_starts = rep_starts[inverse]
    fresh_tp = rep_tp[inverse]

    # Per-record per-class ground-truth counts: a window's class gt totals
    # (the PR recall denominators, and the devkit's skip-absent-classes
    # rule) reduce to one row-sum over its frames' records.
    num_classes = dataset.num_classes
    truth_labels = truth.labels
    in_range = (truth_labels >= 0) & (truth_labels < num_classes)
    record_class_gt = np.bincount(
        truth.image_indices()[in_range] * num_classes + truth_labels[in_range],
        minlength=len(truth) * num_classes,
    ).reshape(len(truth), num_classes)
    record_gt_totals = truth.counts()
    above_scores = above.scores
    above_labels = above.labels

    # Window membership via binary search over sorted arrivals: fleet logs
    # concatenate per camera, so arrivals are not globally sorted; sorting
    # the in-window positions restores the original (camera-major) frame
    # order the per-window scan produced.
    order = np.argsort(arrivals, kind="stable")
    sorted_arrivals = arrivals[order]

    windows: list[RollingWindow] = []
    # windows sit on an exact i * step_s grid (no float accumulation drift)
    for index in range(_window_count(duration_s, step_s)):
        t_start = index * step_s
        t_end = t_start + window_s
        lo = int(np.searchsorted(sorted_arrivals, t_start, side="left"))
        hi = int(np.searchsorted(sorted_arrivals, t_end, side="left"))
        inside = np.sort(order[lo:hi])
        # the window's fresh frames, as positions in the fresh-only columns
        positions = np.searchsorted(fresh_frames, inside[fresh[inside]])
        served = int(positions.size)
        dropped = int((~served_flags[inside]).sum())
        stale = int(inside.size) - served - dropped
        window_records = records[inside]
        true_objects = int(record_gt_totals[window_records].sum())
        if inside.size:
            counts = fresh_counts[positions]
            starts = fresh_starts[positions]
            total = int(counts.sum())
            if total:
                bases = np.zeros(served, dtype=np.int64)
                np.cumsum(counts[:-1], out=bases[1:])
                rows = np.repeat(starts - bases, counts) + np.arange(total)
                window_scores = above_scores[rows]
                window_labels = above_labels[rows]
                window_tp = row_tp[rows]
            else:
                window_scores = above_scores[:0]
                window_labels = above_labels[:0]
                window_tp = row_tp[:0]
            class_gt = record_class_gt[window_records].sum(axis=0)
            aps: list[float] = []
            for label in range(num_classes):
                num_gt = int(class_gt[label])
                if num_gt == 0:
                    continue  # no annotated instances: the devkit skips the class
                class_mask = window_labels == label
                if not class_mask.any():
                    aps.append(0.0)  # annotated but never detected: AP 0
                    continue
                # pooled ranking: score-descending, ties by in-window order
                curve = PRCurve.from_matches(window_scores[class_mask], window_tp[class_mask], num_gt)
                aps.append(curve.ap(use_07_metric=True))
            map_percent = 100.0 * float(np.mean(aps)) if aps else 0.0
            detected = int(fresh_tp[positions].sum())
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
                true_objects=true_objects,
            )
        )
    return windows
