"""Tests for the discriminator and the small-big system (integration-ish)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cases import label_cases
from repro.core.discriminator import DifficultCaseDiscriminator
from repro.core.system import SmallBigSystem
from repro.errors import CalibrationError


@pytest.fixture(scope="module")
def fitted(voc_train_small_module, detectors_module):
    small, big = detectors_module
    train = voc_train_small_module
    sd = small.detect_split(train)
    bd = big.detect_split(train)
    disc, report = DifficultCaseDiscriminator.fit(sd, bd, train.truths)
    return disc, report, sd, bd, train


@pytest.fixture(scope="module")
def voc_train_small_module(request):
    from repro.data import load_dataset

    return load_dataset("voc07", "train", fraction=500 / 5011)


@pytest.fixture(scope="module")
def detectors_module():
    from repro.simulate import make_detector

    return make_detector("small1", "voc07"), make_detector("ssd", "voc07")


class TestFit:
    def test_thresholds_in_plausible_ranges(self, fitted):
        disc, _, _, _, _ = fitted
        assert 0.05 <= disc.confidence_threshold <= 0.45
        assert 1 <= disc.count_threshold <= 6
        assert 0.0 <= disc.area_threshold <= 0.7

    def test_ground_truth_metrics_strong(self, fitted):
        _, report, _, _, _ = fitted
        assert report.ground_truth_metrics.accuracy > 0.75
        assert report.ground_truth_metrics.recall > 0.9

    def test_predicted_weaker_than_ground_truth(self, fitted):
        _, report, _, _, _ = fitted
        assert (report.predicted_metrics.accuracy <= report.ground_truth_metrics.accuracy + 1e-9)

    def test_difficult_fraction_moderate(self, fitted):
        _, report, _, _, _ = fitted
        assert 0.2 < report.difficult_fraction < 0.7

    def test_empty_split_rejected(self):
        with pytest.raises(CalibrationError):
            DifficultCaseDiscriminator.fit([], [], [])

    def test_misaligned_inputs_rejected(self, fitted):
        _, _, sd, bd, train = fitted
        with pytest.raises(CalibrationError):
            DifficultCaseDiscriminator.fit(sd[:-1], bd, train.truths)


class TestDecide:
    def test_decide_matches_decide_split(self, fitted):
        disc, _, sd, _, _ = fitted
        split_verdicts = disc.decide_split(sd[:50])
        single_verdicts = np.array([disc.decide(d) for d in sd[:50]])
        np.testing.assert_array_equal(split_verdicts, single_verdicts)

    def test_evaluate_consistency(self, fitted):
        disc, _, sd, bd, _ = fitted
        metrics = disc.evaluate(sd, bd)
        labels = label_cases(sd, bd)
        predicted = disc.decide_split(sd)
        assert metrics.tp == int(np.sum(predicted & labels))


class TestSystem:
    def test_run_composition(self, fitted, detectors_module):
        disc, _, _, _, train = fitted
        small, big = detectors_module
        system = SmallBigSystem(small_model=small, big_model=big, discriminator=disc)
        run = system.run(train)
        finals = run.final_detections
        for i, sent in enumerate(run.uploaded):
            expected = run.big_detections[i] if sent else run.small_detections[i]
            assert finals[i].image_id == expected.image_id
            for name in ("boxes", "scores", "labels"):
                np.testing.assert_array_equal(getattr(finals[i], name), getattr(expected, name))
        # List inputs compose the original per-image objects themselves.
        listed = system.run(
            train,
            small_detections=list(run.small_detections),
            big_detections=list(run.big_detections),
        )
        finals = listed.final_detections
        for i, sent in enumerate(listed.uploaded):
            expected = listed.big_detections[i] if sent else listed.small_detections[i]
            assert finals[i] is expected

    def test_upload_ratio_bounds(self, fitted, detectors_module):
        disc, _, _, _, train = fitted
        small, big = detectors_module
        system = SmallBigSystem(small_model=small, big_model=big, discriminator=disc)
        run = system.run(train)
        assert 0.0 <= run.upload_ratio <= 1.0

    def test_metric_ordering_small_e2e_big(self, fitted, detectors_module):
        disc, _, _, _, train = fitted
        small, big = detectors_module
        system = SmallBigSystem(small_model=small, big_model=big, discriminator=disc)
        run = system.run(train)
        assert run.small_model_map() < run.end_to_end_map() <= run.big_model_map() + 2.0
        assert (
            run.small_model_counts().detected
            < run.end_to_end_counts().detected
            <= run.big_model_counts().detected + 10
        )

    def test_process_image_matches_run(self, fitted, detectors_module):
        disc, _, _, _, train = fitted
        small, big = detectors_module
        system = SmallBigSystem(small_model=small, big_model=big, discriminator=disc)
        run = system.run(train)
        for index in (0, 7, 23):
            dets, uploaded = system.process_image(train.records[index])
            assert uploaded == bool(run.uploaded[index])
            np.testing.assert_array_equal(dets.boxes, run.final_detections[index].boxes)

    def test_external_mask_respected(self, fitted, detectors_module):
        disc, _, _, _, train = fitted
        small, big = detectors_module
        system = SmallBigSystem(small_model=small, big_model=big, discriminator=disc)
        mask = np.zeros(len(train), dtype=bool)
        mask[:10] = True
        run = system.run(train, uploaded=mask)
        assert run.uploaded.sum() == 10

    def test_all_uploaded_equals_big_model(self, fitted, detectors_module):
        disc, _, _, _, train = fitted
        small, big = detectors_module
        system = SmallBigSystem(small_model=small, big_model=big, discriminator=disc)
        run = system.run(train, uploaded=np.ones(len(train), dtype=bool))
        assert run.end_to_end_map() == pytest.approx(run.big_model_map())

    def test_none_uploaded_equals_small_model(self, fitted, detectors_module):
        disc, _, _, _, train = fitted
        small, big = detectors_module
        system = SmallBigSystem(small_model=small, big_model=big, discriminator=disc)
        run = system.run(train, uploaded=np.zeros(len(train), dtype=bool))
        assert run.end_to_end_map() == pytest.approx(run.small_model_map())
