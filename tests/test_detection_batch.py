"""Equivalence suite for the structure-of-arrays detection batch.

The simulated detectors are deterministic, so the batch-routed pipeline must
produce *bit-for-bit* identical numbers to the per-image ``list[Detections]``
path: features, verdicts, mAP, counts and baseline masks are all asserted
with exact equality, not tolerances.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.confidence_upload import (
    ConfidenceUploadPolicy,
    mean_top1_confidence,
)
from repro.core.cases import is_difficult_case, label_cases
from repro.core.features import extract_feature_arrays, extract_features
from repro.core.system import SystemRun
from repro.core.thresholds import count_loss_curve
from repro.detection.batch import DetectionBatch
from repro.detection.types import Detections
from repro.errors import GeometryError
from repro.metrics.counting import count_summary
from repro.metrics.voc_ap import evaluate_detections


@pytest.fixture(scope="module")
def small_batch(harness):
    return harness.detections("small1", "voc07", "test")


@pytest.fixture(scope="module")
def big_batch(harness):
    return harness.detections("ssd", "voc07", "test")


@pytest.fixture(scope="module")
def small_list(small_batch):
    # Fully materialised per-image containers (the pre-batch representation):
    # rebuilt through the Detections constructor, not zero-copy views.
    return [
        Detections(v.image_id, v.boxes.copy(), v.scores.copy(), v.labels.copy(), "small1")
        for v in small_batch
    ]


@pytest.fixture(scope="module")
def big_list(big_batch):
    return [Detections(v.image_id, v.boxes.copy(), v.scores.copy(), v.labels.copy(), "ssd") for v in big_batch]


class TestStructure:
    def test_roundtrip_is_exact(self, small_list):
        batch = DetectionBatch.from_list(small_list)
        assert len(batch) == len(small_list)
        for original, view in zip(small_list, batch):
            assert view.image_id == original.image_id
            np.testing.assert_array_equal(view.boxes, original.boxes)
            np.testing.assert_array_equal(view.scores, original.scores)
            np.testing.assert_array_equal(view.labels, original.labels)

    def test_views_are_zero_copy(self, small_batch):
        view = next(v for v in small_batch if len(v))
        assert np.shares_memory(view.boxes, small_batch.boxes)
        assert np.shares_memory(view.scores, small_batch.scores)

    def test_slice_matches_list_slice(self, small_batch, small_list):
        sub = small_batch[10:60]
        assert len(sub) == 50
        for view, original in zip(sub, small_list[10:60]):
            np.testing.assert_array_equal(view.boxes, original.boxes)

    def test_unsorted_segment_rejected(self):
        with pytest.raises(GeometryError):
            DetectionBatch(
                image_ids=("a",),
                boxes=np.array([[0.1, 0.1, 0.2, 0.2], [0.3, 0.3, 0.4, 0.4]]),
                scores=np.array([0.2, 0.9]),
                labels=np.array([0, 0]),
                offsets=np.array([0, 2]),
            )

    def test_misaligned_offsets_rejected(self):
        with pytest.raises(GeometryError):
            DetectionBatch(
                image_ids=("a", "b"),
                boxes=np.zeros((0, 4)),
                scores=np.zeros(0),
                labels=np.zeros(0, dtype=np.int64),
                offsets=np.array([0]),
            )


class TestPerImageOpEquivalence:
    @pytest.mark.parametrize("threshold", [0.15, 0.35, 0.5])
    def test_count_above(self, small_batch, small_list, threshold):
        np.testing.assert_array_equal(
            small_batch.count_above(threshold),
            [d.count_above(threshold) for d in small_list],
        )

    @pytest.mark.parametrize("threshold", [0.15, 0.35, 0.5])
    def test_min_area_above_bitwise(self, small_batch, small_list, threshold):
        batched = small_batch.min_area_above(threshold)
        listed = np.array([d.min_area_above(threshold) for d in small_list])
        assert (batched == listed).all()  # exact, not approximate

    @pytest.mark.parametrize("threshold", [0.3, 0.5])
    def test_above_filter(self, small_batch, small_list, threshold):
        served = small_batch.above(threshold)
        for view, original in zip(served, small_list):
            filtered = original.above(threshold)
            np.testing.assert_array_equal(view.boxes, filtered.boxes)
            np.testing.assert_array_equal(view.scores, filtered.scores)
            np.testing.assert_array_equal(view.labels, filtered.labels)


class TestPipelineEquivalence:
    def test_features_bitwise(self, small_batch, small_list):
        batched = extract_feature_arrays(small_batch, 0.2)
        listed = [extract_features(d, 0.2) for d in small_list]
        assert (batched[0] == np.array([f.n_predict for f in listed])).all()
        assert (batched[1] == np.array([f.n_estimated for f in listed])).all()
        assert (batched[2] == np.array([f.min_area_estimated for f in listed])).all()

    def test_verdicts_bitwise(self, harness, small_batch, small_list):
        discriminator, _ = harness.discriminator("small1", "ssd", "voc07")
        batched = discriminator.decide_split(small_batch)
        listed = discriminator.decide_split(small_list)
        singles = np.array([discriminator.decide(d) for d in small_list])
        np.testing.assert_array_equal(batched, listed)
        np.testing.assert_array_equal(batched, singles)

    def test_labels_bitwise(self, small_batch, big_batch, small_list, big_list):
        batched = label_cases(small_batch, big_batch)
        listed = np.array([is_difficult_case(s, b) for s, b in zip(small_list, big_list)])
        np.testing.assert_array_equal(batched, listed)

    def test_count_loss_curve_bitwise(self, harness, small_batch, small_list):
        truths = harness.dataset("voc07", "test").truths
        grid_b, losses_b = count_loss_curve(small_batch, truths)
        grid_l, losses_l = count_loss_curve(small_list, truths)
        np.testing.assert_array_equal(grid_b, grid_l)
        assert (losses_b == losses_l).all()

    def test_map_bitwise(self, harness, big_batch, big_list):
        dataset = harness.dataset("voc07", "test")
        served_batch = big_batch.above(0.5)
        served_list = [d.above(0.5) for d in big_list]
        batched = evaluate_detections(served_batch, dataset.truths, dataset.num_classes)
        listed = evaluate_detections(served_list, dataset.truths, dataset.num_classes)
        assert set(batched.per_class_ap) == set(listed.per_class_ap)
        for label, ap in listed.per_class_ap.items():
            assert batched.per_class_ap[label] == ap  # exact
        assert batched.map == listed.map

    def test_counts_bitwise(self, harness, big_batch, big_list):
        truths = harness.dataset("voc07", "test").truths
        assert count_summary(big_batch, truths) == count_summary(big_list, truths)

    def test_confidence_policy_mask_bitwise(self, harness, small_batch, small_list):
        dataset = harness.dataset("voc07", "test")
        policy = ConfidenceUploadPolicy(ratio=0.5)
        np.testing.assert_array_equal(policy.select(dataset, small_batch), policy.select(dataset, small_list))
        listed = np.array([mean_top1_confidence(d, dataset.num_classes) for d in small_list])
        from repro.baselines.confidence_upload import mean_top1_confidence_split

        assert (mean_top1_confidence_split(small_batch, dataset.num_classes) == listed).all()

    def test_confidence_split_ignores_out_of_vocabulary_labels(self):
        from repro.baselines.confidence_upload import mean_top1_confidence_split

        dets = [
            Detections(
                "a",
                np.array([[0.1, 0.1, 0.4, 0.4], [0.2, 0.2, 0.5, 0.5]]),
                np.array([0.9, 0.3]),
                np.array([7, 1]),  # label 7 outside the 3-class vocabulary
            ),
            Detections.empty("b"),
        ]
        batch = DetectionBatch.from_list(dets)
        batched = mean_top1_confidence_split(batch, 3)
        listed = np.array([mean_top1_confidence(d, 3) for d in dets])
        assert batched.shape == (2,)
        np.testing.assert_array_equal(batched, listed)


class TestSystemRunEquivalence:
    def test_full_quick_run_bitwise(self, harness, small_batch, big_batch, small_list, big_list):
        dataset = harness.dataset("voc07", "test")
        discriminator, _ = harness.discriminator("small1", "ssd", "voc07")
        uploaded = discriminator.decide_split(small_batch)
        run_batch = SystemRun(
            dataset=dataset,
            uploaded=uploaded,
            small_detections=small_batch,
            big_detections=big_batch,
        )
        run_list = SystemRun(
            dataset=dataset,
            uploaded=uploaded,
            small_detections=small_list,
            big_detections=big_list,
        )
        assert run_batch.end_to_end_map() == run_list.end_to_end_map()
        assert run_batch.big_model_map() == run_list.big_model_map()
        assert run_batch.end_to_end_counts() == run_list.end_to_end_counts()
        assert run_batch.upload_ratio == run_list.upload_ratio

    def test_final_batch_composition(self, harness, small_batch, big_batch):
        dataset = harness.dataset("voc07", "test")
        discriminator, _ = harness.discriminator("small1", "ssd", "voc07")
        uploaded = discriminator.decide_split(small_batch)
        run = SystemRun(
            dataset=dataset,
            uploaded=uploaded,
            small_detections=small_batch,
            big_detections=big_batch,
        )
        final = run.final_batch()
        assert isinstance(final, DetectionBatch)
        for index in range(0, len(dataset), 97):
            source = big_batch if uploaded[index] else small_batch
            np.testing.assert_array_equal(final[index].boxes, source[index].boxes)

    def test_fit_identical_across_representations(self, harness):
        train = harness.dataset("voc07", "train")
        small_train = harness.detections("small1", "voc07", "train")
        big_train = harness.detections("ssd", "voc07", "train")
        from repro.core.discriminator import DifficultCaseDiscriminator

        small_rebuilt = [Detections(v.image_id, v.boxes.copy(), v.scores.copy(), v.labels.copy()) for v in small_train]
        big_rebuilt = [Detections(v.image_id, v.boxes.copy(), v.scores.copy(), v.labels.copy()) for v in big_train]
        disc_batch, _ = DifficultCaseDiscriminator.fit(small_train, big_train, train.truths)
        disc_list, _ = DifficultCaseDiscriminator.fit(small_rebuilt, big_rebuilt, train.truths)
        assert disc_batch == disc_list
