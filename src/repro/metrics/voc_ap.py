"""PASCAL VOC average-precision evaluation.

Implements both the classic 11-point interpolated AP (VOC2007 devkit, the
protocol behind every mAP number in the paper) and the all-point variant
(VOC2010+/COCO-style area under the interpolated PR curve).

A split is matched once, every class together, by
:func:`~repro.detection.matching.greedy_match_segments` (the matcher
detected-object counting and rolling stream evaluation share);
:meth:`PRCurve.from_matches` then turns one class's flags into its curve,
the same step every rolling-evaluation window takes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.detection.batch import DetectionBatch, GroundTruthBatch
from repro.detection.matching import greedy_match_segments
from repro.detection.types import Detections, GroundTruth
from repro.errors import ConfigurationError

__all__ = [
    "PRCurve",
    "EvalResult",
    "voc_ap_from_pr",
    "precision_recall_curve",
    "evaluate_detections",
    "mean_average_precision",
]


@dataclass(frozen=True)
class PRCurve:
    """A precision/recall curve for one class, sorted by descending score."""

    recall: np.ndarray
    precision: np.ndarray
    scores: np.ndarray
    num_gt: int

    @classmethod
    def from_matches(cls, scores: np.ndarray, is_tp: np.ndarray, num_gt: int) -> "PRCurve":
        """The curve of one class's pooled detections and their match flags.

        ``scores`` and ``is_tp`` are aligned and in pooled order (image by
        image, each score-descending); ranking is score-descending with ties
        kept in pooled order.  Recall is all zero when the class has no
        ground truth.
        """
        order = np.argsort(-scores, kind="stable")
        tp_ranked = is_tp[order]
        tp_cum = np.cumsum(tp_ranked)
        fp_cum = np.cumsum(~tp_ranked)
        recall = tp_cum / num_gt if num_gt > 0 else np.zeros(tp_ranked.size)
        precision = tp_cum / np.maximum(tp_cum + fp_cum, 1)
        return cls(recall=recall, precision=precision, scores=scores[order], num_gt=num_gt)

    def ap(self, *, use_07_metric: bool = True) -> float:
        """Average precision of this curve."""
        return voc_ap_from_pr(self.recall, self.precision, use_07_metric=use_07_metric)


@dataclass(frozen=True)
class EvalResult:
    """Full evaluation of one detector over one dataset split."""

    per_class_ap: dict[int, float]
    per_class_curves: dict[int, PRCurve] = field(repr=False)
    use_07_metric: bool = True

    @property
    def map(self) -> float:
        """Mean average precision over classes that have ground truth."""
        if not self.per_class_ap:
            return 0.0
        return float(np.mean(list(self.per_class_ap.values())))

    @property
    def map_percent(self) -> float:
        """mAP expressed in percent, as the paper's tables report it."""
        return 100.0 * self.map


def voc_ap_from_pr(recall: np.ndarray, precision: np.ndarray, *, use_07_metric: bool = True) -> float:
    """Average precision from a PR curve.

    With ``use_07_metric`` the 11-point interpolation of the VOC2007 devkit
    is used (mean of interpolated precision at recall 0, 0.1, ..., 1.0);
    otherwise the exact area under the monotonised curve.
    """
    recall = np.asarray(recall, dtype=np.float64).reshape(-1)
    precision = np.asarray(precision, dtype=np.float64).reshape(-1)
    if recall.shape != precision.shape:
        raise ConfigurationError("recall and precision must have equal length")
    if recall.size == 0:
        return 0.0
    if use_07_metric:
        points = np.linspace(0.0, 1.0, 11)
        if np.all(recall[1:] >= recall[:-1]):
            # Sorted recall (every PR curve): the interpolated precision at
            # each point is a suffix maximum, found by one reversed running
            # max plus a searchsorted — no per-point boolean scans.
            suffix_max = np.maximum.accumulate(precision[::-1])[::-1]
            first = np.searchsorted(recall, points, side="left")
            interpolated = np.where(
                first < recall.size,
                suffix_max[np.minimum(first, recall.size - 1)],
                0.0,
            )
        else:
            interpolated = np.array(
                [
                    precision[recall >= point].max() if (recall >= point).any() else 0.0
                    for point in points
                ]
            )
        ap = 0.0
        for p in interpolated:
            ap += float(p) / 11.0
        return ap
    # All-point metric: monotonise precision from the right, then integrate.
    mrec = np.concatenate([[0.0], recall, [1.0]])
    mpre = np.concatenate([[0.0], precision, [0.0]])
    for i in range(mpre.size - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    changes = np.flatnonzero(mrec[1:] != mrec[:-1]) + 1
    return float(np.sum((mrec[changes] - mrec[changes - 1]) * mpre[changes]))


def _match_split(
    detections: DetectionBatch | list[Detections],
    truths: GroundTruthBatch | list[GroundTruth],
    iou_threshold: float,
) -> tuple[DetectionBatch, GroundTruthBatch, np.ndarray]:
    """Pool a split and greedily match all of it, every class, in one pass.

    Returns the pooled detections and annotations with the per-row
    true-positive flags over the detections.  Detections only contend for
    ground truth of their own image and class, so masking the flags by
    label gives each class exactly the matches of a per-class pooled loop.
    """
    gt = GroundTruthBatch.coerce(truths)
    if len(detections) != len(gt):
        raise ConfigurationError(f"got {len(detections)} detection sets for {len(gt)} images")
    batch = DetectionBatch.coerce(detections)
    _, row_tp = greedy_match_segments(
        batch, batch.offsets[:-1], batch.counts(), gt, np.arange(len(gt)), iou_threshold=iou_threshold
    )
    return batch, gt, row_tp


def precision_recall_curve(
    detections: DetectionBatch | list[Detections],
    truths: GroundTruthBatch | list[GroundTruth],
    label: int,
    *,
    iou_threshold: float = 0.5,
) -> PRCurve:
    """Dataset-wide PR curve for one class.

    Pools every detection of class ``label`` across images and ranks them by
    score; their true-positive flags come from the split's one greedy
    matching pass.  Annotations arrive pre-flattened when a
    :class:`GroundTruthBatch` (or a ``Dataset`` with its cached batch) is
    passed.
    """
    batch, gt, row_tp = _match_split(detections, truths, iou_threshold)
    mask = batch.labels == label
    return PRCurve.from_matches(batch.scores[mask], row_tp[mask], int(np.count_nonzero(gt.labels == label)))


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
    the VOC devkit behaviour.  The split is matched once, over all classes;
    each class then builds its curve from label-masked flags and scores.
    """
    batch, gt, row_tp = _match_split(detections, truths, iou_threshold)
    per_class_ap: dict[int, float] = {}
    per_class_curves: dict[int, PRCurve] = {}
    for label in range(num_classes):
        num_gt = int(np.count_nonzero(gt.labels == label))
        if num_gt == 0:
            continue
        mask = batch.labels == label
        curve = PRCurve.from_matches(batch.scores[mask], row_tp[mask], num_gt)
        per_class_curves[label] = curve
        per_class_ap[label] = curve.ap(use_07_metric=use_07_metric)
    return EvalResult(
        per_class_ap=per_class_ap,
        per_class_curves=per_class_curves,
        use_07_metric=use_07_metric,
    )


def mean_average_precision(
    detections: DetectionBatch | list[Detections],
    truths: GroundTruthBatch | list[GroundTruth],
    num_classes: int,
    *,
    iou_threshold: float = 0.5,
    use_07_metric: bool = True,
) -> float:
    """Convenience wrapper returning the mAP in percent."""
    result = evaluate_detections(
        detections,
        truths,
        num_classes,
        iou_threshold=iou_threshold,
        use_07_metric=use_07_metric,
    )
    return result.map_percent
