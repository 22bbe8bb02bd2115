"""Unit and property tests for non-maximum suppression."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.boxes import iou_matrix
from repro.detection.nms import class_aware_nms, nms_indices
from repro.detection.types import Detections
from repro.errors import ConfigurationError


def _dets(boxes, scores, labels):
    return Detections("img", np.asarray(boxes, float), np.asarray(scores, float), np.asarray(labels), detector="t")


class TestNmsIndices:
    def test_keeps_highest_of_duplicates(self):
        boxes = [[0.1, 0.1, 0.3, 0.3], [0.11, 0.1, 0.31, 0.3]]
        keep = nms_indices(np.array(boxes), np.array([0.6, 0.9]), 0.5)
        assert keep.tolist() == [1]

    def test_disjoint_boxes_all_kept(self):
        boxes = [[0.0, 0.0, 0.1, 0.1], [0.5, 0.5, 0.6, 0.6], [0.8, 0.8, 0.9, 0.9]]
        keep = nms_indices(np.array(boxes), np.array([0.9, 0.8, 0.7]), 0.45)
        assert len(keep) == 3

    def test_empty_input(self):
        assert nms_indices(np.zeros((0, 4)), np.zeros(0), 0.5).shape == (0,)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            nms_indices(np.zeros((1, 4)), np.zeros(1), 1.5)

    @settings(max_examples=40)
    @given(
        n=st.integers(1, 12),
        seed=st.integers(0, 10_000),
        threshold=st.floats(0.2, 0.8),
    )
    def test_survivors_are_mutually_below_threshold(self, n, seed, threshold):
        rng = np.random.default_rng(seed)
        mins = rng.uniform(0, 0.7, size=(n, 2))
        sizes = rng.uniform(0.05, 0.3, size=(n, 2))
        boxes = np.concatenate([mins, np.minimum(mins + sizes, 1.0)], axis=1)
        scores = rng.uniform(0.1, 1.0, size=n)
        keep = nms_indices(boxes, scores, threshold)
        assert len(keep) >= 1
        survivors = boxes[keep]
        iou = iou_matrix(survivors, survivors)
        np.fill_diagonal(iou, 0.0)
        assert (iou <= threshold + 1e-9).all()

    @settings(max_examples=40)
    @given(n=st.integers(1, 12), seed=st.integers(0, 10_000))
    def test_keep_sorted_by_score(self, n, seed):
        rng = np.random.default_rng(seed)
        mins = rng.uniform(0, 0.7, size=(n, 2))
        sizes = rng.uniform(0.05, 0.3, size=(n, 2))
        boxes = np.concatenate([mins, np.minimum(mins + sizes, 1.0)], axis=1)
        scores = rng.uniform(0.1, 1.0, size=n)
        keep = nms_indices(boxes, scores, 0.5)
        kept_scores = scores[keep]
        assert (np.diff(kept_scores) <= 1e-12).all()


class TestClassAwareNms:
    def test_different_classes_not_suppressed(self):
        dets = _dets([[0.1, 0.1, 0.3, 0.3], [0.1, 0.1, 0.3, 0.3]], [0.9, 0.8], [0, 1])
        out = class_aware_nms(dets, 0.45)
        assert len(out) == 2

    def test_same_class_duplicates_suppressed(self):
        dets = _dets([[0.1, 0.1, 0.3, 0.3], [0.1, 0.1, 0.3, 0.3]], [0.9, 0.8], [0, 0])
        out = class_aware_nms(dets, 0.45)
        assert len(out) == 1 and out.scores[0] == pytest.approx(0.9)

    def test_empty_passthrough(self):
        dets = Detections.empty("img")
        assert class_aware_nms(dets) is dets

    def test_metadata_preserved(self):
        dets = _dets([[0.1, 0.1, 0.3, 0.3]], [0.9], [0])
        out = class_aware_nms(dets)
        assert out.image_id == "img" and out.detector == "t"
