"""Tests for the upload-policy baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    BlurUploadPolicy,
    ConfidenceUploadPolicy,
    RandomUploadPolicy,
    mean_top1_confidence,
    quota_mask,
)
from repro.detection.types import Detections
from repro.errors import ConfigurationError


@pytest.fixture(scope="module")
def voc_mini():
    from repro.data import load_dataset

    return load_dataset("voc07", "test", fraction=0.02)


@pytest.fixture(scope="module")
def small_dets(voc_mini):
    from repro.simulate import make_detector

    return make_detector("small1", "voc07").detect_split(voc_mini)


class TestQuotaMask:
    def test_selects_exact_count(self):
        mask = quota_mask(np.array([5.0, 1.0, 3.0, 2.0]), 0.5)
        assert mask.sum() == 2
        assert mask.tolist() == [True, False, True, False]

    def test_zero_ratio(self):
        assert quota_mask(np.ones(4), 0.0).sum() == 0

    def test_full_ratio(self):
        assert quota_mask(np.ones(4), 1.0).sum() == 4

    def test_ties_broken_by_index(self):
        mask = quota_mask(np.array([1.0, 1.0, 1.0, 1.0]), 0.5)
        assert mask.tolist() == [True, True, False, False]

    def test_bad_ratio_rejected(self):
        with pytest.raises(ConfigurationError):
            quota_mask(np.ones(3), 1.5)


class TestRandomPolicy:
    def test_ratio_respected(self, voc_mini, small_dets):
        mask = RandomUploadPolicy(ratio=0.5, seed=1).select(voc_mini, small_dets)
        assert mask.sum() == round(0.5 * len(voc_mini))

    def test_deterministic_in_seed(self, voc_mini, small_dets):
        a = RandomUploadPolicy(ratio=0.5, seed=1).select(voc_mini, small_dets)
        b = RandomUploadPolicy(ratio=0.5, seed=1).select(voc_mini, small_dets)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_selection(self, voc_mini, small_dets):
        a = RandomUploadPolicy(ratio=0.5, seed=1).select(voc_mini, small_dets)
        b = RandomUploadPolicy(ratio=0.5, seed=2).select(voc_mini, small_dets)
        assert (a != b).any()

    def test_bad_ratio_rejected(self):
        with pytest.raises(ConfigurationError):
            RandomUploadPolicy(ratio=-0.1)


class TestBlurPolicy:
    def test_uploads_blurriest(self, voc_mini, small_dets):
        policy = BlurUploadPolicy(ratio=0.3, render_size=48)
        sharpness = policy.sharpness(voc_mini)
        mask = policy.select(voc_mini, small_dets)
        assert mask.sum() == round(0.3 * len(voc_mini))
        # Every uploaded image is at most as sharp as every kept image
        # (up to quota ties).
        assert sharpness[mask].max() <= np.partition(sharpness, mask.sum())[
            mask.sum()
        ] + 1e-6

    def test_degraded_images_prioritised(self, small_dets):
        from repro.data import load_dataset

        helmet = load_dataset("helmet", "test", fraction=0.1)
        from repro.simulate import make_detector

        dets = make_detector("small1", "helmet").detect_split(helmet)
        policy = BlurUploadPolicy(ratio=0.4, render_size=48)
        mask = policy.select(helmet, dets)
        qualities = np.array([r.quality for r in helmet.records])
        # Uploaded images should be lower quality on average.
        assert qualities[mask].mean() < qualities[~mask].mean()


class TestConfidencePolicy:
    def test_mean_top1_present_classes(self):
        dets = Detections(
            "x",
            np.tile([0.1, 0.1, 0.3, 0.3], (3, 1)),
            np.array([0.9, 0.7, 0.6]),
            np.array([0, 0, 4]),
            "t",
        )
        # class 0 top-1 = 0.9, class 4 top-1 = 0.6 -> mean 0.75
        assert mean_top1_confidence(dets, 20) == pytest.approx(0.75)

    def test_empty_detections_score_zero(self):
        assert mean_top1_confidence(Detections.empty("x"), 20) == 0.0

    def test_least_confident_uploaded(self, voc_mini, small_dets):
        policy = ConfidenceUploadPolicy(ratio=0.5)
        mask = policy.select(voc_mini, small_dets)
        confidences = np.array([mean_top1_confidence(d, voc_mini.num_classes) for d in small_dets])
        assert confidences[mask].mean() < confidences[~mask].mean()

    def test_ratio_respected(self, voc_mini, small_dets):
        mask = ConfidenceUploadPolicy(ratio=0.25).select(voc_mini, small_dets)
        assert mask.sum() == round(0.25 * len(voc_mini))
