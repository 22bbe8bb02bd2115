"""PASCAL VOC average-precision evaluation.

Implements the classic 11-point interpolated AP of the VOC2007 devkit, the
protocol behind every mAP number in the paper, at the VOC overlap
:data:`~repro.detection.matching.IOU_THRESHOLD`.

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
        kept in pooled order.  ``num_gt`` is positive: a class with no
        ground truth has no curve (the devkit skips it).
        """
        order = np.argsort(-scores, kind="stable")
        tp_ranked = is_tp[order]
        tp_cum = np.cumsum(tp_ranked)
        fp_cum = np.cumsum(~tp_ranked)
        recall = tp_cum / num_gt
        precision = tp_cum / np.maximum(tp_cum + fp_cum, 1)
        return cls(recall=recall, precision=precision, scores=scores[order], num_gt=num_gt)

    def ap(self) -> float:
        """11-point average precision of this curve."""
        return voc_ap_from_pr(self.recall, self.precision)


@dataclass(frozen=True)
class EvalResult:
    """Full evaluation of one detector over one dataset split."""

    per_class_ap: dict[int, float]
    per_class_curves: dict[int, PRCurve] = field(repr=False)

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


def voc_ap_from_pr(recall: np.ndarray, precision: np.ndarray) -> float:
    """11-point average precision from a PR curve (VOC2007 devkit).

    The mean of the interpolated precision at recall 0, 0.1, ..., 1.0.
    ``recall`` must be non-decreasing, as along every PR curve.
    """
    recall = np.asarray(recall, dtype=np.float64).reshape(-1)
    precision = np.asarray(precision, dtype=np.float64).reshape(-1)
    if recall.shape != precision.shape:
        raise ConfigurationError("recall and precision must have equal length")
    if recall.size == 0:
        return 0.0
    # Neighbour comparisons catch a NaN anywhere but in a one-point curve.
    if np.isnan(recall[0]) or not np.all(recall[1:] >= recall[:-1]):
        raise ConfigurationError("recall must be non-decreasing")
    # The interpolated precision at each point is a suffix maximum, found
    # by one reversed running max plus a searchsorted.
    suffix_max = np.maximum.accumulate(precision[::-1])[::-1]
    first = np.searchsorted(recall, np.linspace(0.0, 1.0, 11), side="left")
    interpolated = np.where(
        first < recall.size,
        suffix_max[np.minimum(first, recall.size - 1)],
        0.0,
    )
    ap = 0.0
    for p in interpolated:
        ap += float(p) / 11.0
    return ap


def _match_split(
    detections: DetectionBatch | list[Detections],
    truths: GroundTruthBatch | list[GroundTruth],
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
    _, row_tp = greedy_match_segments(batch, batch.offsets[:-1], batch.counts(), gt, np.arange(len(gt)))
    return batch, gt, row_tp


def evaluate_detections(
    detections: DetectionBatch | list[Detections],
    truths: GroundTruthBatch | list[GroundTruth],
    num_classes: int,
) -> EvalResult:
    """Evaluate a detector over a split: per-class AP and mAP.

    Classes with no ground-truth instances in the split are skipped, matching
    the VOC devkit behaviour.  The split is matched once, over all classes;
    each class then builds its curve from label-masked flags and scores.
    """
    batch, gt, row_tp = _match_split(detections, truths)
    per_class_ap: dict[int, float] = {}
    per_class_curves: dict[int, PRCurve] = {}
    for label in range(num_classes):
        num_gt = int(np.count_nonzero(gt.labels == label))
        if num_gt == 0:
            continue
        mask = batch.labels == label
        curve = PRCurve.from_matches(batch.scores[mask], row_tp[mask], num_gt)
        per_class_curves[label] = curve
        per_class_ap[label] = curve.ap()
    return EvalResult(per_class_ap=per_class_ap, per_class_curves=per_class_curves)


def mean_average_precision(
    detections: DetectionBatch | list[Detections],
    truths: GroundTruthBatch | list[GroundTruth],
    num_classes: int,
) -> float:
    """Convenience wrapper returning the mAP in percent."""
    return evaluate_detections(detections, truths, num_classes).map_percent
