"""Unit and property tests for the VOC AP evaluator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.types import Detections, GroundTruth
from repro.errors import ConfigurationError
from repro.metrics.voc_ap import evaluate_detections, mean_average_precision, voc_ap_from_pr


def _gt(boxes, labels, image_id="img0"):
    return GroundTruth(image_id, np.asarray(boxes, float), np.asarray(labels))


def _dets(boxes, scores, labels, image_id="img0"):
    return Detections(image_id, np.asarray(boxes, float), np.asarray(scores, float), np.asarray(labels), detector="t")


def _curve(dets, gts):
    """The split's class-0 precision/recall curve."""
    return evaluate_detections(dets, gts, num_classes=1).per_class_curves[0]


class TestVocApFromPr:
    def test_perfect_curve_gives_one(self):
        recall = np.linspace(0.1, 1.0, 10)
        precision = np.ones(10)
        assert voc_ap_from_pr(recall, precision) == pytest.approx(1.0)

    def test_empty_curve_gives_zero(self):
        assert voc_ap_from_pr(np.zeros(0), np.zeros(0)) == 0.0

    def test_11_point_known_value(self):
        # Recall reaches 0.5 at precision 1.0: interpolated precision is 1.0
        # at recall points 0..0.5 (6 of 11 points) and 0 beyond.
        ap = voc_ap_from_pr(np.array([0.5]), np.array([1.0]))
        assert ap == pytest.approx(6 / 11)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            voc_ap_from_pr(np.zeros(3), np.zeros(2))

    @pytest.mark.parametrize("recall", [[0.5, 0.2], [0.1, np.nan, 0.3], [np.nan]])
    def test_unsorted_recall_rejected(self, recall):
        with pytest.raises(ConfigurationError, match="non-decreasing"):
            voc_ap_from_pr(np.asarray(recall), np.ones(len(recall)))

    @settings(max_examples=50)
    @given(n=st.integers(1, 30), seed=st.integers(0, 10_000))
    def test_ap_bounded(self, n, seed):
        rng = np.random.default_rng(seed)
        recall = np.sort(rng.uniform(0, 1, n))
        precision = rng.uniform(0, 1, n)
        ap = voc_ap_from_pr(recall, precision)
        assert 0.0 <= ap <= 1.0 + 1e-9


class TestPrecisionRecallCurve:
    def test_single_perfect_detection(self):
        gts = [_gt([[0.1, 0.1, 0.4, 0.4]], [0])]
        dets = [_dets([[0.1, 0.1, 0.4, 0.4]], [0.9], [0])]
        curve = _curve(dets, gts)
        assert curve.num_gt == 1
        assert curve.recall[-1] == pytest.approx(1.0)
        assert curve.precision[-1] == pytest.approx(1.0)

    def test_false_positive_lowers_precision(self):
        gts = [_gt([[0.1, 0.1, 0.4, 0.4]], [0])]
        dets = [_dets([[0.1, 0.1, 0.4, 0.4], [0.6, 0.6, 0.9, 0.9]], [0.9, 0.8], [0, 0])]
        curve = _curve(dets, gts)
        assert curve.precision[-1] == pytest.approx(0.5)
        assert curve.recall[-1] == pytest.approx(1.0)

    def test_recall_monotone_nondecreasing(self):
        gts = [_gt([[0.1, 0.1, 0.4, 0.4], [0.5, 0.5, 0.8, 0.8]], [0, 0])]
        dets = [
            _dets(
                [[0.1, 0.1, 0.4, 0.4], [0.5, 0.5, 0.8, 0.8], [0.0, 0.0, 0.05, 0.05]],
                [0.9, 0.7, 0.8],
                [0, 0, 0],
            )
        ]
        curve = _curve(dets, gts)
        assert (np.diff(curve.recall) >= -1e-12).all()

    def test_no_detections_empty_curve(self):
        gts = [_gt([[0.1, 0.1, 0.4, 0.4]], [0])]
        curve = _curve([Detections.empty("img0")], gts)
        assert curve.recall.size == 0 and curve.num_gt == 1

    def test_cross_image_pooling(self):
        gts = [
            _gt([[0.1, 0.1, 0.4, 0.4]], [0], "a"),
            _gt([[0.1, 0.1, 0.4, 0.4]], [0], "b"),
        ]
        dets = [
            _dets([[0.1, 0.1, 0.4, 0.4]], [0.9], [0], "a"),
            Detections.empty("b"),
        ]
        curve = _curve(dets, gts)
        assert curve.num_gt == 2
        assert curve.recall[-1] == pytest.approx(0.5)

    def test_misaligned_lists_rejected(self):
        with pytest.raises(ConfigurationError):
            evaluate_detections([Detections.empty("a")], [], num_classes=1)


class TestEvaluateDetections:
    def test_classes_without_gt_skipped(self):
        gts = [_gt([[0.1, 0.1, 0.4, 0.4]], [0])]
        dets = [_dets([[0.1, 0.1, 0.4, 0.4]], [0.9], [0])]
        result = evaluate_detections(dets, gts, num_classes=5)
        assert set(result.per_class_ap) == {0}

    def test_map_is_mean_of_class_aps(self):
        gts = [_gt([[0.1, 0.1, 0.4, 0.4], [0.5, 0.5, 0.8, 0.8]], [0, 1])]
        dets = [
            _dets([[0.1, 0.1, 0.4, 0.4]], [0.9], [0])  # class 1 entirely missed
        ]
        result = evaluate_detections(dets, gts, num_classes=2)
        expected = (result.per_class_ap[0] + result.per_class_ap[1]) / 2
        assert result.map == pytest.approx(expected)
        assert result.per_class_ap[1] == 0.0

    def test_map_percent(self):
        gts = [_gt([[0.1, 0.1, 0.4, 0.4]], [0])]
        dets = [_dets([[0.1, 0.1, 0.4, 0.4]], [0.9], [0])]
        assert mean_average_precision(dets, gts, 1) == pytest.approx(100.0)

    def test_empty_dataset_gives_zero(self):
        result = evaluate_detections([], [], num_classes=3)
        assert result.map == 0.0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_map_bounded_on_random_data(self, seed):
        rng = np.random.default_rng(seed)
        gts, dets = [], []
        for i in range(4):
            n = int(rng.integers(1, 5))
            mins = rng.uniform(0, 0.6, (n, 2))
            sizes = rng.uniform(0.05, 0.3, (n, 2))
            boxes = np.concatenate([mins, np.minimum(mins + sizes, 1.0)], 1)
            labels = rng.integers(0, 3, n)
            gts.append(_gt(boxes, labels, f"im{i}"))
            m = int(rng.integers(0, 6))
            dmins = rng.uniform(0, 0.6, (m, 2))
            dsizes = rng.uniform(0.05, 0.3, (m, 2))
            dboxes = np.concatenate([dmins, np.minimum(dmins + dsizes, 1.0)], 1)
            dets.append(_dets(dboxes, rng.uniform(0.1, 1.0, m), rng.integers(0, 3, m), f"im{i}"))
        value = mean_average_precision(dets, gts, 3)
        assert 0.0 <= value <= 100.0
