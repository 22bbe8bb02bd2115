"""Tests for the GroundTruth / Detections containers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.detection.types import Detections, GroundTruth
from repro.errors import GeometryError


def _gt(boxes, labels, image_id="img"):
    return GroundTruth(image_id, np.asarray(boxes, dtype=float), np.asarray(labels))


def _dets(boxes, scores, labels, image_id="img"):
    return Detections(
        image_id,
        np.asarray(boxes, dtype=float),
        np.asarray(scores, dtype=float),
        np.asarray(labels),
        detector="test",
    )


class TestGroundTruth:
    def test_len_and_num_objects(self):
        gt = _gt([[0.1, 0.1, 0.2, 0.2], [0.3, 0.3, 0.6, 0.6]], [0, 1])
        assert len(gt) == 2 and gt.num_objects == 2

    def test_area_ratios(self):
        gt = _gt([[0.0, 0.0, 0.5, 0.5]], [0])
        assert gt.area_ratios[0] == pytest.approx(0.25)

    def test_min_area_ratio(self):
        gt = _gt([[0.0, 0.0, 0.5, 0.5], [0.0, 0.0, 0.1, 0.1]], [0, 0])
        assert gt.min_area_ratio == pytest.approx(0.01)

    def test_min_area_of_empty_image_is_one(self):
        gt = _gt(np.zeros((0, 4)), np.zeros(0, dtype=int))
        assert gt.min_area_ratio == 1.0

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(GeometryError):
            _gt([[0.1, 0.1, 0.2, 0.2]], [0, 1])


class TestDetections:
    def test_sorted_by_score_descending(self):
        dets = _dets(
            [[0.1, 0.1, 0.2, 0.2], [0.3, 0.3, 0.4, 0.4], [0.5, 0.5, 0.6, 0.6]],
            [0.3, 0.9, 0.6],
            [0, 1, 2],
        )
        assert dets.scores.tolist() == [0.9, 0.6, 0.3]
        assert dets.labels.tolist() == [1, 2, 0]

    def test_empty_constructor(self):
        dets = Detections.empty("img", detector="x")
        assert len(dets) == 0

    def test_above_threshold(self):
        dets = _dets([[0.1, 0.1, 0.2, 0.2], [0.3, 0.3, 0.4, 0.4]], [0.8, 0.3], [0, 0])
        assert len(dets.above(0.5)) == 1
        assert dets.count_above(0.5) == 1
        assert dets.count_above(0.2) == 2

    def test_min_area_above(self):
        dets = _dets([[0.0, 0.0, 0.5, 0.5], [0.0, 0.0, 0.1, 0.1]], [0.9, 0.6], [0, 0])
        assert dets.min_area_above(0.5) == pytest.approx(0.01)
        assert dets.min_area_above(0.7) == pytest.approx(0.25)

    def test_min_area_above_empty_returns_one(self):
        dets = _dets([[0.0, 0.0, 0.5, 0.5]], [0.3], [0])
        assert dets.min_area_above(0.5) == 1.0

    def test_score_out_of_range_rejected(self):
        with pytest.raises(GeometryError):
            _dets([[0.1, 0.1, 0.2, 0.2]], [1.5], [0])

    def test_score_count_mismatch_rejected(self):
        with pytest.raises(GeometryError):
            _dets([[0.1, 0.1, 0.2, 0.2]], [0.5, 0.6], [0])
