"""Detected-object counting — the paper's second headline metric.

Tables IV/VI/VIII/X/XI/XIII/XV/XVII all report "the number of detected
objects": how many annotated objects a scheme's served detections correctly
find at serving threshold 0.5.  We count true positives (class-aware,
IoU >= 0.5) rather than raw box counts so that false positives cannot inflate
the numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.detection.batch import DetectionBatch, GroundTruthBatch
from repro.detection.matching import check_thresholds, greedy_match_segments
from repro.detection.types import Detections, GroundTruth
from repro.errors import ConfigurationError

__all__ = ["CountSummary", "count_detected_objects", "count_summary"]


@dataclass(frozen=True)
class CountSummary:
    """Aggregate detection counts of one scheme over one split."""

    detected: int
    total_ground_truth: int

    @property
    def detected_fraction(self) -> float:
        """Share of annotated objects detected (0 when the split is empty)."""
        if self.total_ground_truth == 0:
            return 0.0
        return self.detected / self.total_ground_truth

    def ratio_to(self, other: "CountSummary") -> float:
        """This scheme's count relative to ``other``'s, in percent.

        This is the paper's "End-to-end / Big model (%)" column.
        """
        if other.detected == 0:
            return 0.0
        return 100.0 * self.detected / other.detected


def count_detected_objects(
    detections: DetectionBatch | list[Detections],
    truths: GroundTruthBatch | list[GroundTruth],
    *,
    score_threshold: float = 0.5,
    iou_threshold: float = 0.5,
) -> int:
    """Total true-positive count over a split.

    Both sides are consumed as flat batches (coerced once for list inputs):
    the serving filter runs in one pass over the detection arrays and every
    image is matched in one block-diagonal pass
    (:func:`~repro.detection.matching.greedy_match_segments`), bit for bit
    the per-image greedy VOC matching.
    """
    check_thresholds(score_threshold=score_threshold, iou_threshold=iou_threshold)
    gt = GroundTruthBatch.coerce(truths)
    if len(detections) != len(gt):
        raise ConfigurationError(f"got {len(detections)} detection sets for {len(gt)} images")
    served = DetectionBatch.coerce(detections).above(score_threshold)
    image_tp, _ = greedy_match_segments(
        served, served.offsets[:-1], served.counts(), gt, np.arange(len(gt)), iou_threshold=iou_threshold
    )
    return int(image_tp.sum())


def count_summary(
    detections: DetectionBatch | list[Detections],
    truths: GroundTruthBatch | list[GroundTruth],
    *,
    score_threshold: float = 0.5,
    iou_threshold: float = 0.5,
) -> CountSummary:
    """Detected-object count plus the split's ground-truth total."""
    gt = GroundTruthBatch.coerce(truths)
    detected = count_detected_objects(
        detections,
        gt,
        score_threshold=score_threshold,
        iou_threshold=iou_threshold,
    )
    return CountSummary(detected=detected, total_ground_truth=gt.total_objects)
