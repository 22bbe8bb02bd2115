"""Tests for detection-to-ground-truth matching (the VOC protocol).

Each case matches one image through ``greedy_match_segments`` (the one
matcher split mAP, counting and rolling evaluation share) or counts it
through ``count_detected_objects``.
"""

from __future__ import annotations

import numpy as np

from repro.detection.batch import DetectionBatch, GroundTruthBatch
from repro.detection.matching import greedy_match_segments
from repro.metrics.counting import count_detected_objects


def _gt(boxes, labels) -> GroundTruthBatch:
    boxes = np.asarray(boxes, float).reshape(-1, 4)
    return GroundTruthBatch(("img",), boxes, np.asarray(labels, np.int64), np.array([0, len(boxes)]))


def _dets(boxes, scores, labels) -> DetectionBatch:
    boxes = np.asarray(boxes, float).reshape(-1, 4)
    order = np.argsort(-np.asarray(scores, float), kind="stable")  # segments are score-descending
    return DetectionBatch(
        ("img",),
        boxes[order],
        np.asarray(scores, float)[order],
        np.asarray(labels, np.int64)[order],
        np.array([0, len(boxes)]),
    )


def _match(dets: DetectionBatch, gt: GroundTruthBatch) -> tuple[int, list[bool]]:
    """``(true positives, per-detection flags)`` of the single image."""
    image_tp, row_tp = greedy_match_segments(dets, dets.offsets[:-1], dets.counts(), gt, np.array([0]))
    return int(image_tp[0]), row_tp.tolist()


def _empty_dets() -> DetectionBatch:
    return _dets(np.zeros((0, 4)), [], [])


class TestGreedyMatchSegments:
    def test_perfect_match(self):
        gt = _gt([[0.1, 0.1, 0.4, 0.4]], [3])
        dets = _dets([[0.1, 0.1, 0.4, 0.4]], [0.9], [3])
        assert _match(dets, gt) == (1, [True])

    def test_wrong_class_not_matched(self):
        gt = _gt([[0.1, 0.1, 0.4, 0.4]], [3])
        dets = _dets([[0.1, 0.1, 0.4, 0.4]], [0.9], [4])
        assert _match(dets, gt) == (0, [False])

    def test_each_gt_claimed_once(self):
        gt = _gt([[0.1, 0.1, 0.4, 0.4]], [0])
        dets = _dets([[0.1, 0.1, 0.4, 0.4], [0.12, 0.1, 0.42, 0.4]], [0.9, 0.8], [0, 0])
        assert _match(dets, gt) == (1, [True, False])

    def test_higher_score_claims_first(self):
        gt = _gt([[0.1, 0.1, 0.4, 0.4]], [0])
        dets = _dets([[0.1, 0.1, 0.4, 0.4], [0.1, 0.1, 0.4, 0.4]], [0.7, 0.95], [0, 0])
        # Detections sorted by score: the 0.95 one is rank 0 and claims the GT.
        assert dets.scores.tolist() == [0.95, 0.7]
        assert _match(dets, gt) == (1, [True, False])

    def test_iou_below_threshold_not_matched(self):
        gt = _gt([[0.0, 0.0, 0.2, 0.2]], [0])
        dets = _dets([[0.15, 0.15, 0.35, 0.35]], [0.9], [0])
        assert _match(dets, gt) == (0, [False])

    def test_empty_detections(self):
        gt = _gt([[0.1, 0.1, 0.4, 0.4]], [0])
        assert _match(_empty_dets(), gt) == (0, [])

    def test_empty_ground_truth(self):
        dets = _dets([[0.1, 0.1, 0.4, 0.4]], [0.9], [0])
        gt = _gt(np.zeros((0, 4)), np.zeros(0, dtype=int))
        assert _match(dets, gt) == (0, [False])


class TestCountDetectedObjects:
    def test_score_threshold_applied(self):
        gt = _gt([[0.1, 0.1, 0.4, 0.4], [0.6, 0.6, 0.9, 0.9]], [0, 1])
        dets = _dets([[0.1, 0.1, 0.4, 0.4], [0.6, 0.6, 0.9, 0.9]], [0.9, 0.4], [0, 1])
        # Only the 0.9 box passes the 0.5 serving threshold.
        assert count_detected_objects(dets, gt) == 1

    def test_counts_bounded_by_gt(self):
        gt = _gt([[0.1, 0.1, 0.4, 0.4]], [0])
        dets = _dets(
            [[0.1, 0.1, 0.4, 0.4], [0.1, 0.1, 0.4, 0.4], [0.1, 0.1, 0.4, 0.4]],
            [0.9, 0.8, 0.7],
            [0, 0, 0],
        )
        assert count_detected_objects(dets, gt) == 1
