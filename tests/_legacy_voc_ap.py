"""Verbatim pre-consolidation VOC matchers (reference oracles).

``repro.metrics.voc_ap`` once scored each class with its own greedy loop
over pooled detections (``_pooled_pr_curve``), and
``repro.detection.matching`` carried a per-image matcher
(``greedy_match_arrays``).  Split mAP, detected-object counting and rolling
stream evaluation now all rest on ``greedy_match_segments``; these copies
stay as the equality oracles the equivalence tests pin it against
(``test_counting_equivalence.py``, ``test_matching.py``).  Do not
modernise this file; its value is that it does not change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.detection.batch import DetectionBatch, GroundTruthBatch
from repro.detection.boxes import iou_matrix, pairwise_iou
from repro.detection.types import Detections, GroundTruth
from repro.errors import ConfigurationError
from repro.metrics.voc_ap import EvalResult, PRCurve


def _check_iou_threshold(iou_threshold: float) -> None:
    if not 0.0 < iou_threshold <= 1.0:
        raise ConfigurationError(f"iou_threshold must be in (0, 1], got {iou_threshold}")


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


def _pooled_pr_curve(
    det_scores: np.ndarray,
    det_boxes: np.ndarray,
    det_images: np.ndarray,
    gt_boxes: np.ndarray,
    gt_images: np.ndarray,
    num_images: int,
    iou_threshold: float,
) -> PRCurve:
    """PR curve from one class's pooled detection and ground-truth arrays.

    Both pools are grouped by image index in split order (detections
    score-descending within each group).  Every detection/ground-truth IoU of
    the split is computed in a single flat block-diagonal pass —
    :func:`pairwise_iou` over gathered pair indices — so the sequential
    greedy loop only slices precomputed rows.
    """
    num_gt = int(gt_boxes.shape[0])
    num_det = int(det_scores.shape[0])
    if num_det == 0:
        return PRCurve(recall=np.zeros(0), precision=np.zeros(0), scores=np.zeros(0), num_gt=num_gt)

    gt_counts = np.bincount(gt_images, minlength=num_images)
    gt_starts = np.zeros(num_images, dtype=np.int64)
    np.cumsum(gt_counts[:-1], out=gt_starts[1:])
    pair_counts = gt_counts[det_images]
    row_starts = np.zeros(num_det, dtype=np.int64)
    np.cumsum(pair_counts[:-1], out=row_starts[1:])
    total_pairs = int(row_starts[-1] + pair_counts[-1])

    if total_pairs:
        det_idx = np.repeat(np.arange(num_det), pair_counts)
        gt_idx = np.repeat(gt_starts[det_images] - row_starts, pair_counts) + np.arange(total_pairs)
        iou_flat = pairwise_iou(det_boxes[det_idx], gt_boxes[gt_idx])
    else:
        iou_flat = np.zeros(0)

    order = np.argsort(-det_scores, kind="stable")
    scores = det_scores[order]

    claimed = np.zeros(num_gt, dtype=bool)
    tp_flags = np.zeros(num_det, dtype=bool)
    pair_count_list = pair_counts.tolist()
    row_start_list = row_starts.tolist()
    gt_start_list = gt_starts[det_images].tolist()
    for rank, det in enumerate(order.tolist()):
        count = pair_count_list[det]
        if count == 0:
            continue
        start = row_start_list[det]
        ious = iou_flat[start : start + count].copy()
        gt_lo = gt_start_list[det]
        ious[claimed[gt_lo : gt_lo + count]] = 0.0
        best = int(np.argmax(ious))
        if ious[best] >= iou_threshold:
            claimed[gt_lo + best] = True
            tp_flags[rank] = True

    tp_cum = np.cumsum(tp_flags)
    fp_cum = np.cumsum(~tp_flags)
    recall = tp_cum / num_gt if num_gt > 0 else np.zeros(num_det)
    precision = tp_cum / np.maximum(tp_cum + fp_cum, 1)
    return PRCurve(recall=recall, precision=precision, scores=scores, num_gt=num_gt)


def precision_recall_curve(
    detections: DetectionBatch | list[Detections],
    truths: GroundTruthBatch | list[GroundTruth],
    label: int,
    *,
    iou_threshold: float = 0.5,
) -> PRCurve:
    """Dataset-wide PR curve for one class.

    Pools every detection of class ``label`` across images, sorts by score,
    and greedily matches against unclaimed ground truth per the VOC protocol.
    Annotations arrive pre-flattened when a :class:`GroundTruthBatch` (or a
    ``Dataset`` with its cached batch) is passed.
    """
    gt = GroundTruthBatch.coerce(truths)
    if len(detections) != len(gt):
        raise ConfigurationError(f"got {len(detections)} detection sets for {len(gt)} images")
    batch = DetectionBatch.coerce(detections)
    gt_mask = gt.labels == label
    det_mask = batch.labels == label
    return _pooled_pr_curve(
        batch.scores[det_mask],
        batch.boxes[det_mask],
        batch.image_indices()[det_mask],
        gt.boxes[gt_mask],
        gt.image_indices()[gt_mask],
        len(gt),
        iou_threshold,
    )


def evaluate_detections(
    detections: DetectionBatch | list[Detections],
    truths: GroundTruthBatch | list[GroundTruth],
    num_classes: int,
    *,
    iou_threshold: float = 0.5,
    use_07_metric: bool = True,
) -> EvalResult:
    """Evaluate a detector over a split: per-class AP and mAP.

    Classes with no ground-truth instances in the split are skipped, matching
    the VOC devkit behaviour.  Detections are pooled into flat arrays once,
    annotations come pre-pooled from the :class:`GroundTruthBatch` (lists are
    flattened on entry); each class then evaluates with pure mask selections
    over them.
    """
    gt = GroundTruthBatch.coerce(truths)
    if len(detections) != len(gt):
        raise ConfigurationError(f"got {len(detections)} detection sets for {len(gt)} images")
    batch = DetectionBatch.coerce(detections)
    det_images = batch.image_indices()
    gt_labels, gt_images = gt.labels, gt.image_indices()
    per_class_ap: dict[int, float] = {}
    per_class_curves: dict[int, PRCurve] = {}
    for label in range(num_classes):
        gt_mask = gt_labels == label
        if not gt_mask.any():
            continue
        det_mask = batch.labels == label
        curve = _pooled_pr_curve(
            batch.scores[det_mask],
            batch.boxes[det_mask],
            det_images[det_mask],
            gt.boxes[gt_mask],
            gt_images[gt_mask],
            len(gt),
            iou_threshold,
        )
        per_class_curves[label] = curve
        per_class_ap[label] = curve.ap(use_07_metric=use_07_metric)
    return EvalResult(
        per_class_ap=per_class_ap,
        per_class_curves=per_class_curves,
        use_07_metric=use_07_metric,
    )
