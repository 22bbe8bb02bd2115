"""Tests for difficult-case labelling and feature extraction."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.cases import SERVING_THRESHOLD, is_difficult_case, label_cases
from repro.core.features import CaseFeatures, extract_feature_arrays, extract_features
from repro.detection.types import Detections
from repro.errors import ConfigurationError


BELOW, ABOVE = float(np.nextafter(0.5, 0.0)), float(np.nextafter(0.5, 1.0))
#: (score, whether it is served): both sides of the serving threshold, one
#: float apart, and the threshold itself, which is served.
EDGE = [(0.0, False), (BELOW, False), (0.5, True), (ABOVE, True), (1.0, True)]


def _dets(scores, image_id="img", areas=None):
    scores = np.asarray(scores, dtype=float)
    n = scores.shape[0]
    if areas is None:
        areas = np.full(n, 0.04)
    sides = np.sqrt(np.asarray(areas, dtype=float))
    boxes = np.stack([np.full(n, 0.1), np.full(n, 0.1), 0.1 + sides, 0.1 + sides], axis=1)
    return Detections(image_id, boxes, scores, np.zeros(n, dtype=np.int64), "t")


class TestIsDifficult:
    def test_big_finds_more_is_difficult(self):
        small = _dets([0.9])
        big = _dets([0.9, 0.8])
        assert is_difficult_case(small, big) is True

    def test_equal_counts_is_easy(self):
        assert is_difficult_case(_dets([0.9]), _dets([0.8])) is False

    def test_small_finding_more_is_easy(self):
        assert is_difficult_case(_dets([0.9, 0.8]), _dets([0.9])) is False

    def test_subthreshold_boxes_ignored(self):
        small = _dets([0.9, 0.3])  # the 0.3 box is not served
        big = _dets([0.9, 0.8])
        assert is_difficult_case(small, big) is True

    def test_mismatched_images_rejected(self):
        with pytest.raises(ConfigurationError):
            is_difficult_case(_dets([0.9], "a"), _dets([0.9], "b"))

    @pytest.mark.parametrize("score, served", EDGE)
    def test_serving_threshold_edge(self, score, served):
        # the big model's extra box makes the case difficult only if served
        assert is_difficult_case(_dets([0.9]), _dets([0.9, score])) is served


class TestLabelCases:
    def test_vectorised_labels(self):
        small = [_dets([0.9], "a"), _dets([0.9], "b")]
        big = [_dets([0.9, 0.8], "a"), _dets([0.9], "b")]
        labels = label_cases(small, big)
        assert labels.tolist() == [True, False]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            label_cases([_dets([0.9])], [])

    @pytest.mark.parametrize("score, served", EDGE)
    def test_serving_threshold_edge(self, score, served):
        small = [_dets([0.9], "a"), _dets([score], "b")]
        big = [_dets([0.9, score], "a"), _dets([0.9], "b")]
        assert label_cases(small, big).tolist() == [served, not served]


class TestFeatures:
    def test_counts_at_both_thresholds(self):
        dets = _dets([0.9, 0.6, 0.3, 0.05])
        features = extract_features(dets, noise_threshold=0.2)
        assert features.n_predict == 2  # >= 0.5
        assert features.n_estimated == 3  # >= 0.2

    def test_min_area_over_estimated_boxes(self):
        dets = _dets([0.9, 0.3], areas=[0.25, 0.01])
        features = extract_features(dets, noise_threshold=0.2)
        assert features.min_area_estimated == pytest.approx(0.01, rel=0.05)

    def test_empty_detections(self):
        features = extract_features(Detections.empty("x"), noise_threshold=0.2)
        assert features == CaseFeatures("x", 0, 0, 1.0)

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            extract_features(_dets([0.9]), noise_threshold=0.7)

    @pytest.mark.parametrize("score, served", EDGE)
    def test_n_predict_at_serving_threshold_edge(self, score, served):
        dets = _dets([0.9, score])
        assert extract_features(dets, noise_threshold=0.2).n_predict == 1 + served
        assert extract_feature_arrays([dets], 0.2)[0].tolist() == [1 + served]

    @pytest.mark.parametrize("noise", [0.0, -0.1, ABOVE, 0.7, math.nan, math.inf])
    def test_noise_threshold_outside_range_rejected(self, noise):
        # the noise threshold must lie in (0, SERVING_THRESHOLD]
        with pytest.raises(ConfigurationError, match="noise_threshold"):
            extract_features(_dets([0.9]), noise_threshold=noise)
        with pytest.raises(ConfigurationError, match="noise_threshold"):
            extract_feature_arrays([_dets([0.9])], noise)

    @pytest.mark.parametrize("noise", [1e-9, 0.5])
    def test_noise_threshold_range_edges_accepted(self, noise):
        features = extract_features(_dets([0.9, 0.5, 1e-9]), noise_threshold=noise)
        assert features.n_predict == 2
        assert features.n_estimated == (3 if noise < 0.5 else 2)

    def test_array_extraction_alignment(self):
        dets = [_dets([0.9, 0.3], "a"), _dets([0.6], "b")]
        n_predict, n_estimated, min_area = extract_feature_arrays(dets, 0.2)
        assert n_predict.tolist() == [1, 1]
        assert n_estimated.tolist() == [2, 1]
        assert min_area.shape == (2,)

    def test_serving_threshold_constant(self):
        assert SERVING_THRESHOLD == 0.5
