"""Property-based tests of end-to-end system invariants.

These fuzz the serving machinery with randomised upload masks and verify
the algebraic invariants the experiments rely on: the end-to-end result is
always a per-image mixture of the two models' outputs, and quality is
monotone in the upload decisions' correctness, not just their count.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SmallBigSystem
from repro.core.discriminator import DifficultCaseDiscriminator
from repro.data import load_dataset
from repro.detection import DetectionBatch
from repro.detection.matching import greedy_match_segments
from repro.simulate import make_detector


@pytest.fixture(scope="module")
def context():
    dataset = load_dataset("voc07", "test", fraction=150 / 4952)
    small = make_detector("small1", "voc07")
    big = make_detector("ssd", "voc07")
    system = SmallBigSystem(
        small_model=small,
        big_model=big,
        discriminator=DifficultCaseDiscriminator(0.15, 2, 0.31),
    )
    # Per-image lists, so the served mixture can be checked by identity.
    return system, dataset, list(small.detect_split(dataset)), list(big.detect_split(dataset))


def _served_true_positives(detections, dataset) -> np.ndarray:
    """Per-image detected-object counts: served (score >= 0.5) detections
    that claim a ground-truth object of their class at IoU 0.5."""
    served = DetectionBatch.coerce(detections).above(0.5)
    image_tp, _ = greedy_match_segments(
        served, served.offsets[:-1], served.counts(), dataset.truth_batch, np.arange(len(dataset))
    )
    return image_tp


class TestSystemProperties:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_final_is_pointwise_mixture(self, context, seed):
        system, dataset, small_dets, big_dets = context
        rng = np.random.default_rng(seed)
        mask = rng.uniform(size=len(dataset)) < rng.uniform(0.0, 1.0)
        run = system.run(
            dataset,
            small_detections=small_dets,
            big_detections=big_dets,
            uploaded=mask,
        )
        final = run.final_batch()
        for i in range(len(dataset)):
            expected = big_dets[i] if mask[i] else small_dets[i]
            served = final[i]
            assert served.image_id == expected.image_id
            for name in ("boxes", "scores", "labels"):
                np.testing.assert_array_equal(getattr(served, name), getattr(expected, name))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_upload_ratio_equals_mask_mean(self, context, seed):
        system, dataset, small_dets, big_dets = context
        rng = np.random.default_rng(seed)
        mask = rng.uniform(size=len(dataset)) < 0.4
        run = system.run(
            dataset,
            small_detections=small_dets,
            big_detections=big_dets,
            uploaded=mask,
        )
        assert run.upload_ratio == pytest.approx(float(np.mean(mask)))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_e2e_counts_bounded_by_models(self, context, seed):
        # The end-to-end count is a per-image mixture of the two models'
        # true-positive counts, so the tight (and correct) bounds are the
        # sums of the per-image minima and maxima — the split-level totals
        # do NOT bound it (a mask can pick the worse model on every image).
        system, dataset, small_dets, big_dets = context
        rng = np.random.default_rng(seed)
        mask = rng.uniform(size=len(dataset)) < rng.uniform(0.0, 1.0)
        run = system.run(
            dataset,
            small_detections=small_dets,
            big_detections=big_dets,
            uploaded=mask,
        )
        e2e = run.end_to_end_counts().detected
        small_tp = _served_true_positives(small_dets, dataset)
        big_tp = _served_true_positives(big_dets, dataset)
        assert np.minimum(small_tp, big_tp).sum() <= e2e
        assert e2e <= np.maximum(small_tp, big_tp).sum()

    def test_informed_mask_beats_random_mask(self, context):
        """Uploading the images where the big model actually finds more
        objects must beat uploading the same number of random images."""
        system, dataset, small_dets, big_dets = context
        gains = np.array([big.count_above(0.5) - small.count_above(0.5) for small, big in zip(small_dets, big_dets)])
        budget = int(0.4 * len(dataset))
        informed = np.zeros(len(dataset), dtype=bool)
        informed[np.argsort(-gains)[:budget]] = True
        rng = np.random.default_rng(0)
        random_mask = np.zeros(len(dataset), dtype=bool)
        random_mask[rng.choice(len(dataset), size=budget, replace=False)] = True

        informed_run = system.run(
            dataset,
            small_detections=small_dets,
            big_detections=big_dets,
            uploaded=informed,
        )
        random_run = system.run(
            dataset,
            small_detections=small_dets,
            big_detections=big_dets,
            uploaded=random_mask,
        )
        assert (informed_run.end_to_end_counts().detected >= random_run.end_to_end_counts().detected)

    def test_flipping_one_correct_upload_never_helps(self, context):
        """Un-uploading a difficult image can only reduce detected objects."""
        system, dataset, small_dets, big_dets = context
        gains = np.array([big.count_above(0.5) - small.count_above(0.5) for small, big in zip(small_dets, big_dets)])
        target = int(np.argmax(gains))
        assert gains[target] >= 1
        mask = np.ones(len(dataset), dtype=bool)
        with_upload = system.run(
            dataset,
            small_detections=small_dets,
            big_detections=big_dets,
            uploaded=mask,
        )
        mask2 = mask.copy()
        mask2[target] = False
        without_upload = system.run(
            dataset,
            small_detections=small_dets,
            big_detections=big_dets,
            uploaded=mask2,
        )
        assert (without_upload.end_to_end_counts().detected <= with_upload.end_to_end_counts().detected)
