"""Tests for the detector-behaviour simulator and its calibration."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.datasets import load_dataset
from repro.errors import CalibrationError, ConfigurationError, RegistryError
from repro.metrics.counting import count_summary
from repro.simulate.calibrate import expected_recall, solve_base_recall
from repro.simulate.detector import SimulatedDetector
from repro.simulate.presets import (
    RECALL_TARGETS,
    SHAPE_PRESETS,
    available_pairs,
    make_detector,
)
from repro.simulate.profile import DetectorProfile, detection_probability


@pytest.fixture(scope="module")
def voc_mini():
    return load_dataset("voc07", "test", fraction=0.02)


def _profile(**kwargs) -> DetectorProfile:
    return DetectorProfile(name="test", **kwargs)


class TestDetectionProbability:
    def test_monotone_in_area(self):
        profile = _profile(area_half=0.05)
        areas = np.array([0.001, 0.01, 0.05, 0.2, 0.8])
        p = detection_probability(profile, areas, num_objects=5)
        assert (np.diff(p) > 0).all()

    def test_monotone_decreasing_in_crowding(self):
        profile = _profile(crowd_half=5.0)
        p_few = detection_probability(profile, np.array([0.1]), num_objects=1)
        p_many = detection_probability(profile, np.array([0.1]), num_objects=20)
        assert p_many[0] < p_few[0]

    def test_quality_penalty(self):
        profile = _profile(quality_sensitivity=2.0)
        clean = detection_probability(profile, np.array([0.1]), 1, quality=1.0)
        fuzzy = detection_probability(profile, np.array([0.1]), 1, quality=0.5)
        assert fuzzy[0] < clean[0]

    def test_capped_below_one(self):
        profile = _profile(base_recall=20.0)
        p = detection_probability(profile, np.array([0.5]), 1)
        assert p[0] <= 0.995

    def test_negative_area_rejected(self):
        with pytest.raises(ConfigurationError):
            detection_probability(_profile(), np.array([-0.1]), 1)

    def test_bad_quality_rejected(self):
        with pytest.raises(ConfigurationError):
            detection_probability(_profile(), np.array([0.1]), 1, quality=0.0)

    @settings(max_examples=50)
    @given(
        area=st.floats(1e-4, 0.9),
        count=st.integers(1, 30),
        base=st.floats(0.1, 5.0),
    )
    def test_probability_bounds(self, area, count, base):
        profile = _profile(base_recall=base)
        p = detection_probability(profile, np.array([area]), count)
        assert 0.0 <= p[0] <= 0.995


class TestProfileValidation:
    def test_bad_miss_range_rejected(self):
        with pytest.raises(ConfigurationError):
            _profile(miss_score_lo=0.4, miss_score_hi=0.3)

    def test_supra_threshold_miss_rejected(self):
        with pytest.raises(ConfigurationError):
            _profile(miss_score_lo=0.2, miss_score_hi=0.6)

    def test_zero_base_recall_rejected(self):
        with pytest.raises(ConfigurationError):
            _profile(base_recall=0.0)

    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("base_recall", float("nan")),
            ("base_recall", float("inf")),
            ("area_half", float("inf")),
            ("area_half", float("nan")),
            ("area_gamma", float("nan")),
            ("crowd_half", float("nan")),
            ("crowd_half", float("inf")),
            ("crowd_gamma", float("nan")),
            ("quality_sensitivity", float("nan")),
            ("quality_sensitivity", -0.5),
            ("loc_sigma", -0.01),
            ("loc_sigma", float("nan")),
            ("loc_sigma", float("inf")),
            ("score_sharpness", float("nan")),
            ("score_sharpness", -1.0),
            ("fp_rate", float("nan")),
            ("fp_rate", float("inf")),
            ("fp_score_scale", float("nan")),
            ("fp_score_scale", float("inf")),
            ("miss_visibility", float("nan")),
            ("class_confusion", float("nan")),
        ],
    )
    def test_non_finite_or_out_of_range_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            _profile(**{field: value})

    def test_edge_values_accepted(self):
        profile = _profile(loc_sigma=0.0, score_sharpness=0.0, fp_rate=0.0, quality_sensitivity=0.0)
        assert profile.loc_sigma == 0.0 and profile.fp_rate == 0.0

    def test_with_base_recall_copy(self):
        profile = _profile(base_recall=1.0)
        copy = profile.with_base_recall(2.0)
        assert copy.base_recall == 2.0 and profile.base_recall == 1.0


class TestSimulatedDetector:
    def test_deterministic_per_image(self, voc_mini):
        detector = SimulatedDetector(_profile(), num_classes=20, seed=11)
        a = detector.detect(voc_mini.records[0])
        b = detector.detect(voc_mini.records[0])
        np.testing.assert_array_equal(a.boxes, b.boxes)
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_different_images_independent(self, voc_mini):
        detector = SimulatedDetector(_profile(), num_classes=20, seed=11)
        a = detector.detect(voc_mini.records[0])
        b = detector.detect(voc_mini.records[1])
        assert a.image_id != b.image_id

    def test_different_profiles_differ(self, voc_mini):
        weak = SimulatedDetector(_profile(base_recall=0.2), 20, seed=11)
        strong = SimulatedDetector(DetectorProfile(name="other", base_recall=3.0), 20, seed=11)
        record = voc_mini.records[0]
        weak_count = sum(weak.detect(r).count_above(0.5) for r in voc_mini.records[:40])
        strong_count = sum(strong.detect(r).count_above(0.5) for r in voc_mini.records[:40])
        assert strong_count > weak_count
        assert record is not None

    def test_scores_in_unit_interval(self, voc_mini):
        detector = SimulatedDetector(_profile(), num_classes=20, seed=3)
        for record in voc_mini.records[:30]:
            dets = detector.detect(record)
            if len(dets):
                assert dets.scores.min() >= 0.0 and dets.scores.max() <= 1.0

    def test_served_labels_in_vocabulary(self, voc_mini):
        detector = SimulatedDetector(_profile(), num_classes=20, seed=3)
        for record in voc_mini.records[:30]:
            dets = detector.detect(record)
            if len(dets):
                assert dets.labels.min() >= 0 and dets.labels.max() < 20

    def test_miss_boxes_are_subthreshold(self, voc_mini):
        # With base_recall tiny everything is missed; visible misses must
        # score strictly below 0.5.
        profile = _profile(base_recall=1e-3, miss_visibility=1.0, fp_rate=0.0)
        detector = SimulatedDetector(profile, num_classes=20, seed=5)
        for record in voc_mini.records[:30]:
            dets = detector.detect(record)
            if len(dets):
                assert dets.scores.max() < 0.5

    def test_zero_fp_rate_no_spurious_boxes(self, voc_mini):
        profile = _profile(base_recall=1e-3, miss_visibility=0.0, fp_rate=0.0)
        detector = SimulatedDetector(profile, num_classes=20, seed=5)
        assert all(len(detector.detect(r)) == 0 for r in voc_mini.records[:20])

    def test_detect_split_order(self, voc_mini):
        detector = SimulatedDetector(_profile(), num_classes=20, seed=3)
        split = detector.detect_split(voc_mini)
        assert [d.image_id for d in split] == [r.image_id for r in voc_mini.records]


class TestCalibration:
    def test_expected_recall_monotone_in_base(self, voc_mini):
        lo = expected_recall(_profile(base_recall=0.3), voc_mini)
        hi = expected_recall(_profile(base_recall=1.5), voc_mini)
        assert hi > lo

    def test_solve_hits_target(self, voc_mini):
        solved = solve_base_recall(_profile(), voc_mini, target=0.6)
        assert expected_recall(solved, voc_mini) == pytest.approx(0.6, abs=0.002)

    def test_unreachable_target_raises(self, voc_mini):
        # An absurd area response makes high recall unreachable.
        hard = _profile(area_half=50.0)
        with pytest.raises(CalibrationError):
            solve_base_recall(hard, voc_mini, target=0.9)

    def test_bad_target_rejected(self, voc_mini):
        with pytest.raises(CalibrationError):
            solve_base_recall(_profile(), voc_mini, target=1.5)


class TestPresets:
    def test_available_pairs_cover_paper(self):
        pairs = available_pairs()
        assert ("ssd", "voc07") in pairs
        assert ("yolov4", "voc07+12") in pairs
        assert ("small1", "helmet") in pairs

    def test_unknown_model_rejected(self):
        with pytest.raises(RegistryError):
            make_detector("alexnet", "voc07")

    def test_unknown_pair_rejected(self):
        with pytest.raises(RegistryError):
            make_detector("yolov4", "helmet")

    def test_shape_presets_encode_design_claims(self):
        # Small models must degrade earlier with object size and crowding.
        assert SHAPE_PRESETS["small1"].area_half > SHAPE_PRESETS["ssd"].area_half
        assert SHAPE_PRESETS["small1"].crowd_half < SHAPE_PRESETS["ssd"].crowd_half
        assert SHAPE_PRESETS["yolov4"].area_half < SHAPE_PRESETS["ssd"].area_half

    def test_calibrated_recall_near_target(self, small1_voc07, voc_mini):
        detections = small1_voc07.detect_split(voc_mini)
        summary = count_summary(detections, voc_mini.truths)
        target = RECALL_TARGETS[("small1", "voc07")]
        assert summary.detected_fraction == pytest.approx(target, abs=0.08)

    @pytest.mark.parametrize(
        ("model", "expected"),
        [
            # 3.6164185424804685 and 1.6816118286132813, as calibrated by
            # the per-image reference implementation.
            ("small1", "0x1.cee6cd844d013p+1"),
            ("ssd", "0x1.ae7e1ce075f70p+0"),
        ],
    )
    def test_helmet_calibration_pinned(self, model, expected):
        assert make_detector(model, "helmet").profile.base_recall.hex() == expected

    def test_detector_cache_returns_same_object(self):
        a = make_detector("small1", "voc07")
        b = make_detector("small1", "voc07")
        assert a is b

    def test_big_model_beats_small_model(self, ssd_voc07, small1_voc07, voc_mini):
        big = count_summary(ssd_voc07.detect_split(voc_mini), voc_mini.truths)
        small = count_summary(small1_voc07.detect_split(voc_mini), voc_mini.truths)
        assert big.detected > small.detected
