"""Greedy matching of detections to ground truth.

This is the standard PASCAL VOC protocol: detections are visited in order of
descending score; each claims the highest-IoU unclaimed ground-truth box of
the same class, provided the IoU passes the threshold (0.5 for VOC).  The
result drives both the AP computation and the paper's "number of detected
objects" metric.

:func:`greedy_match_arrays` matches one image.  :func:`greedy_match_segments`
matches many images at once, bit for bit the same: detections only contend
for ground-truth boxes of their own image, so one block-diagonal pass over
every (image, detection, ground-truth) pair replaces the per-image loop.
Detected-object counting and rolling stream evaluation both use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.detection.batch import DetectionBatch, GroundTruthBatch
from repro.detection.boxes import iou_matrix, pairwise_iou
from repro.detection.types import Detections, GroundTruth
from repro.errors import ConfigurationError

__all__ = [
    "MatchResult",
    "check_thresholds",
    "greedy_match_arrays",
    "greedy_match_segments",
    "match_detections",
    "true_positive_count",
]


@dataclass(frozen=True)
class MatchResult:
    """Outcome of matching one image's detections against its annotation.

    Attributes
    ----------
    is_tp:
        ``(num_detections,)`` boolean, aligned with the detections'
        score-descending order.
    matched_gt:
        ``(num_detections,)`` index of the claimed ground-truth box, or -1.
    gt_detected:
        ``(num_gt,)`` boolean: was this annotated object found?
    """

    is_tp: np.ndarray
    matched_gt: np.ndarray
    gt_detected: np.ndarray

    @property
    def num_tp(self) -> int:
        """Number of true-positive detections."""
        return int(np.count_nonzero(self.is_tp))

    @property
    def num_fp(self) -> int:
        """Number of false-positive detections."""
        return int(self.is_tp.shape[0] - self.num_tp)

    @property
    def num_missed(self) -> int:
        """Number of annotated objects no detection claimed."""
        return int(np.count_nonzero(~self.gt_detected))


def _check_iou_threshold(iou_threshold: float) -> None:
    if not 0.0 < iou_threshold <= 1.0:
        raise ConfigurationError(f"iou_threshold must be in (0, 1], got {iou_threshold}")


def check_thresholds(*, score_threshold: float, iou_threshold: float) -> None:
    """Refuse a non-finite serving threshold or an IoU threshold outside
    ``(0, 1]`` up front, before any image is matched (a NaN score threshold
    would otherwise serve nothing and count 0 without complaint)."""
    if not -math.inf < score_threshold < math.inf:
        raise ConfigurationError(f"score_threshold must be finite, got {score_threshold}")
    _check_iou_threshold(iou_threshold)


def greedy_match_arrays(
    det_boxes: np.ndarray,
    det_labels: np.ndarray,
    gt_boxes: np.ndarray,
    gt_labels: np.ndarray,
    *,
    iou_threshold: float = 0.5,
    class_aware: bool = True,
) -> MatchResult:
    """Array-level greedy VOC matching (no container construction).

    ``det_boxes``/``det_labels`` must already be in score-descending order —
    the invariant both :class:`Detections` and
    :class:`~repro.detection.batch.DetectionBatch` segments maintain.
    """
    _check_iou_threshold(iou_threshold)
    num_det = int(det_boxes.shape[0])
    num_gt = int(gt_boxes.shape[0])
    is_tp = np.zeros(num_det, dtype=bool)
    matched_gt = np.full(num_det, -1, dtype=np.int64)
    gt_detected = np.zeros(num_gt, dtype=bool)
    if num_det == 0 or num_gt == 0:
        return MatchResult(is_tp=is_tp, matched_gt=matched_gt, gt_detected=gt_detected)

    iou = iou_matrix(det_boxes, gt_boxes)
    if class_aware:
        same_class = det_labels[:, None] == gt_labels[None, :]
        iou = np.where(same_class, iou, 0.0)

    claimed = np.zeros(num_gt, dtype=bool)
    for det_idx in range(num_det):
        candidates = iou[det_idx].copy()
        candidates[claimed] = 0.0
        best_gt = int(np.argmax(candidates))
        if candidates[best_gt] >= iou_threshold:
            claimed[best_gt] = True
            is_tp[det_idx] = True
            matched_gt[det_idx] = best_gt
    return MatchResult(is_tp=is_tp, matched_gt=matched_gt, gt_detected=claimed)


def greedy_match_segments(
    detections: DetectionBatch,
    det_starts: np.ndarray,
    det_counts: np.ndarray,
    truth: GroundTruthBatch,
    records: np.ndarray,
    *,
    iou_threshold: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """Class-aware greedy VOC matching of many images in one pass.

    Image ``i`` matches rows ``det_starts[i] : det_starts[i] +
    det_counts[i]`` of ``detections`` (score-descending, as batch segments
    are) against the annotation of image ``records[i]`` of ``truth``.
    Returns ``(image_tp, row_tp)``: per-image true-positive counts and
    per-row true-positive flags over ``detections``.

    One block-diagonal pass over every (image, detection, ground-truth)
    candidate pair reproduces :func:`greedy_match_arrays` on each image
    exactly: an image's detections visit in segment order, each claims the
    highest-IoU unclaimed same-class ground-truth box at or above the
    threshold, first index winning ties.  Candidate pairs are prefiltered to
    same-class-and-above-threshold, which cannot change the greedy outcome
    (below-threshold or claimed-and-zeroed candidates never claim, since the
    threshold is positive).

    Because detections of different images never contend for the same
    ground-truth box, the flags are the same whether images are scored
    alone, pooled per class across a window (the AP protocol) or summed in
    segment order (the counting protocol).
    """
    _check_iou_threshold(iou_threshold)
    num_images = int(det_counts.shape[0])
    image_tp = np.zeros(num_images, dtype=np.int64)
    row_tp = np.zeros(detections.scores.shape[0], dtype=bool)
    gt_counts = truth.counts()[records]
    active = np.flatnonzero((det_counts > 0) & (gt_counts > 0))
    if active.size == 0:
        return image_tp, row_tp
    active_gt = gt_counts[active]
    pair_counts = det_counts[active] * active_gt
    total = int(pair_counts.sum())
    bases = np.zeros(active.size, dtype=np.int64)
    np.cumsum(pair_counts[:-1], out=bases[1:])
    local = np.arange(total, dtype=np.int64) - np.repeat(bases, pair_counts)
    gc_rep = np.repeat(active_gt, pair_counts)
    det_local = local // gc_rep
    gt_local = local % gc_rep
    det_rows = np.repeat(det_starts[active], pair_counts) + det_local
    gt_rows = np.repeat(truth.offsets[:-1][records[active]], pair_counts) + gt_local
    iou = pairwise_iou(detections.boxes[det_rows], truth.boxes[gt_rows])
    ok = (detections.labels[det_rows] == truth.labels[gt_rows]) & (iou >= iou_threshold)
    candidates = np.flatnonzero(ok)
    if candidates.size == 0:
        return image_tp, row_tp
    pair_image = np.repeat(np.arange(active.size, dtype=np.int64), pair_counts)
    cand_image = pair_image[candidates].tolist()
    cand_det = det_local[candidates].tolist()
    cand_gt = gt_local[candidates].tolist()
    cand_row = det_rows[candidates].tolist()
    cand_iou = iou[candidates].tolist()
    counts = [0] * int(active.size)
    claimed: set[tuple[int, int]] = set()
    num_pairs = len(cand_image)
    index = 0
    while index < num_pairs:
        image = cand_image[index]
        det = cand_det[index]
        row = cand_row[index]
        best_iou = 0.0
        best_gt = -1
        # candidates are ordered (image, det, gt) ascending, so strict ">"
        # keeps the lowest gt index on IoU ties — argmax's tie-break
        while index < num_pairs and cand_image[index] == image and cand_det[index] == det:
            gt = cand_gt[index]
            if (image, gt) not in claimed and cand_iou[index] > best_iou:
                best_iou = cand_iou[index]
                best_gt = gt
            index += 1
        if best_gt >= 0:
            claimed.add((image, best_gt))
            counts[image] += 1
            row_tp[row] = True
    image_tp[active] = counts
    return image_tp, row_tp


def match_detections(
    detections: Detections,
    truth: GroundTruth,
    *,
    iou_threshold: float = 0.5,
    class_aware: bool = True,
) -> MatchResult:
    """Greedily match ``detections`` to ``truth``.

    Parameters
    ----------
    iou_threshold:
        Minimum IoU for a detection to claim a ground-truth box (VOC: 0.5).
    class_aware:
        When true (the VOC protocol), a detection may only claim a
        ground-truth box of its own class.
    """
    # Detections are already score-descending (Detections sorts on init).
    return greedy_match_arrays(
        detections.boxes,
        detections.labels,
        truth.boxes,
        truth.labels,
        iou_threshold=iou_threshold,
        class_aware=class_aware,
    )


def true_positive_count(
    detections: Detections,
    truth: GroundTruth,
    *,
    score_threshold: float = 0.5,
    iou_threshold: float = 0.5,
) -> int:
    """The paper's "number of detected objects" for one image.

    Counts detections that (a) pass the serving score threshold (0.5
    throughout the paper) and (b) correctly claim a ground-truth object of
    their class at the VOC IoU threshold.
    """
    served = detections.above(score_threshold)
    result = match_detections(served, truth, iou_threshold=iou_threshold)
    return result.num_tp
