"""Tests for budget-constrained fitting and the online budget controller."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _legacy_budget as legacy
from repro.core import adaptive
from repro.core.adaptive import BudgetController, fit_for_budget
from repro.core.cases import label_cases
from repro.core.discriminator import DifficultCaseDiscriminator
from repro.core.features import extract_feature_arrays, extract_features
from repro.core.thresholds import decide_rule
from repro.detection.boxes import box_area
from repro.detection.types import Detections
from repro.errors import CalibrationError, ConfigurationError


def _synthetic_features(n: int = 2000, seed: int = 0):
    rng = np.random.default_rng(seed)
    true_counts = rng.integers(1, 8, size=n)
    min_areas = rng.uniform(0.0, 0.6, size=n)
    labels = (true_counts > 3) | (min_areas < 0.2)
    uncertain = labels | (rng.uniform(size=n) < 0.3)
    n_predict = np.where(uncertain, np.maximum(true_counts - 1, 0), true_counts)
    return n_predict, true_counts, min_areas, labels


class TestFitForBudget:
    def test_respects_budget(self):
        n_predict, counts, areas, labels = _synthetic_features()
        for budget in (0.2, 0.4, 0.6):
            fit = fit_for_budget(n_predict, counts, areas, labels, budget)
            assert fit.expected_upload_ratio <= budget + 1e-9

    def test_recall_monotone_in_budget(self):
        n_predict, counts, areas, labels = _synthetic_features()
        recalls = [fit_for_budget(n_predict, counts, areas, labels, budget).recall for budget in (0.15, 0.3, 0.5, 0.7)]
        assert all(b >= a - 1e-9 for a, b in zip(recalls, recalls[1:]))

    def test_generous_budget_reaches_high_recall(self):
        n_predict, counts, areas, labels = _synthetic_features()
        fit = fit_for_budget(n_predict, counts, areas, labels, 0.9)
        assert fit.recall > 0.9

    def test_impossible_budget_raises(self):
        n_predict, counts, areas, labels = _synthetic_features()
        # Force the uncertainty gate alone above the budget: every image
        # uncertain, thresholds cannot go below the most conservative pair.
        always_uncertain = n_predict * 0
        with pytest.raises(CalibrationError):
            fit_for_budget(
                always_uncertain,
                counts,
                areas,
                labels,
                0.001,
                count_grid=np.array([0]),
                area_grid=np.array([0.6]),
            )

    def test_invalid_budget_rejected(self):
        n_predict, counts, areas, labels = _synthetic_features()
        with pytest.raises(ConfigurationError):
            fit_for_budget(n_predict, counts, areas, labels, 0.0)


def test_budget_fits_and_controller_on_the_harness(harness):
    """The two deployment extensions on VOC07+12's small model 1: the
    offline budget fit trades recall for bandwidth monotonically, and the
    online controller holds the test stream near its upload target."""
    discriminator, _ = harness.discriminator("small1", "ssd", "voc07+12")
    small_train = harness.detections("small1", "voc07+12", "train")
    labels = label_cases(small_train, harness.detections("ssd", "voc07+12", "train"))
    features = extract_feature_arrays(small_train, discriminator.confidence_threshold)
    recalls = []
    for budget in (0.2, 0.35, 0.5, 0.7):
        fit = fit_for_budget(*features, labels, budget)
        assert fit.expected_upload_ratio <= budget + 1e-9
        recalls.append(fit.recall)
    assert all(b >= a - 1e-9 for a, b in zip(recalls, recalls[1:]))

    controller = BudgetController(discriminator, target_ratio=0.3)
    for dets in harness.detections("small1", "voc07+12", "test"):
        controller.decide(dets)
    assert controller.realised_ratio == np.clip(controller.realised_ratio, 0.2, 0.4)


class TestBudgetController:
    def _controller(self, target=0.3, area=0.3):
        discriminator = DifficultCaseDiscriminator(confidence_threshold=0.15, count_threshold=2, area_threshold=area)
        return BudgetController(discriminator, target)

    def test_tracks_target_on_live_detections(self, small1_voc07, voc_test_small):
        controller = self._controller(target=0.3)
        for record in voc_test_small.records:
            controller.decide(small1_voc07.detect(record))
        assert controller.realised_ratio == pytest.approx(0.3, abs=0.12)

    def test_threshold_moves_toward_budget(self, small1_voc07, voc_test_small):
        # Start with an aggressive threshold; a small target must pull the
        # area threshold down over time.
        controller = self._controller(target=0.1, area=0.6)
        start = controller.discriminator.area_threshold
        for record in voc_test_small.records:
            controller.decide(small1_voc07.detect(record))
        assert controller.discriminator.area_threshold < start

    def test_counts_bookkeeping(self, small1_voc07, voc_test_small):
        controller = self._controller()
        for record in voc_test_small.records[:50]:
            controller.decide(small1_voc07.detect(record))
        assert controller.decisions == 50
        assert 0 <= controller.uploads <= 50

    def test_threshold_stays_in_bounds(self, small1_voc07, voc_test_small):
        controller = BudgetController(DifficultCaseDiscriminator(0.15, 2, 0.5), target_ratio=0.05)
        for record in voc_test_small.records:
            controller.decide(small1_voc07.detect(record))
            assert 0.0 <= controller.discriminator.area_threshold <= 0.8

    @pytest.mark.parametrize("target", [0.0, 1.0, -0.1, math.nan])
    def test_invalid_target_rejected(self, target):
        with pytest.raises(ConfigurationError):
            BudgetController(DifficultCaseDiscriminator(0.15, 2, 0.3), target)

    def test_discriminator_materialised_on_read(self):
        discriminator = DifficultCaseDiscriminator(0.15, 2, 0.3)
        controller = BudgetController(discriminator, 0.5)
        assert controller.discriminator is discriminator
        controller.decide_features(1, 3, 0.1)
        adapted = controller.discriminator
        assert adapted.area_threshold != 0.3
        assert adapted == DifficultCaseDiscriminator(0.15, 2, adapted.area_threshold)
        controller.reset()
        assert controller.discriminator is discriminator


# --------------------------------------------------------------------- #
# bit-for-bit equivalence with the per-frame legacy controller
# --------------------------------------------------------------------- #
#: The settings the legacy oracle is given: ``BudgetController``'s constants.
LEGACY_SETTINGS = {"gain": 0.05, "ema_halflife": 20, "area_bounds": (0.0, 0.8)}


def test_legacy_settings_are_the_constants():
    assert (adaptive.GAIN, adaptive.EMA_HALFLIFE, adaptive.AREA_BOUNDS) == tuple(LEGACY_SETTINGS.values())


def _bits(value: float) -> str:
    """``repr`` tells -0.0 from 0.0, so equal strings are equal bits."""
    return repr(float(value))


@st.composite
def _detections(draw) -> Detections:
    count = draw(st.integers(0, 6))
    unit = st.floats(0.0, 1.0, allow_nan=False)
    boxes = []
    for _ in range(count):
        x1, y1 = draw(unit), draw(unit)
        boxes.append([x1, y1, x1 + draw(unit) * (1.0 - x1), y1 + draw(unit) * (1.0 - y1)])
    return Detections(
        image_id="generated",
        boxes=np.asarray(boxes, dtype=np.float64).reshape(-1, 4),
        scores=np.asarray([draw(unit) for _ in range(count)], dtype=np.float64),
        labels=np.zeros(count, dtype=np.int64),
    )


@st.composite
def _controller_runs(draw):
    images = draw(st.lists(_detections(), min_size=1, max_size=40))
    # Thresholds and bounds sometimes sit exactly on a box area, so the
    # strict "too small" comparison meets ties.
    areas = sorted({float(area) for image in images for area in box_area(image.boxes)})
    on_box = st.sampled_from(areas) if areas else st.nothing()
    discriminator = DifficultCaseDiscriminator(
        confidence_threshold=draw(st.floats(0.01, 0.5)),
        count_threshold=draw(st.integers(0, 4)),
        area_threshold=draw(st.floats(0.0, 1.0) | on_box),
    )
    target = draw(st.floats(0.01, 0.99))
    # Mid-run target moves: ``target_ratio`` is a public, writable attribute.
    retargets = draw(st.dictionaries(st.integers(0, 3 * len(images)), st.floats(0.02, 0.98), max_size=4))
    return images, discriminator, target, retargets


def _run_controllers(images, discriminator, target, retargets, passes=3):
    """Drive the legacy, detection and feature paths over the same stream."""
    old = legacy.BudgetController(discriminator, target, **LEGACY_SETTINGS)
    via_detections = BudgetController(discriminator, target)
    via_features = BudgetController(discriminator, target)
    features = []
    for image in images:
        f = extract_features(image, discriminator.confidence_threshold)
        features.append((f.n_predict, f.n_estimated, f.min_area_estimated))
    count = discriminator.count_threshold
    areas = []
    for step in range(passes * len(images)):
        if step in retargets:
            old.target_ratio = via_detections.target_ratio = via_features.target_ratio = retargets[step]
        image = images[step % len(images)]
        n_predict, n_estimated, min_area = features[step % len(images)]
        area = via_features.discriminator.area_threshold
        verdict = old.decide(image)
        # The vectorised rule is an independent transcription of the oracle's.
        assert verdict is bool(decide_rule([n_predict], [n_estimated], [min_area], count, area)[0])
        assert via_detections.decide(image) is verdict
        assert via_features.decide_features(n_predict, n_estimated, min_area) is verdict
        expected = _bits(old.discriminator.area_threshold)
        assert _bits(via_detections.discriminator.area_threshold) == expected
        assert _bits(via_features.discriminator.area_threshold) == expected
        areas.append(old.discriminator.area_threshold)
    for controller in (via_detections, via_features):
        assert (controller.decisions, controller.uploads) == (old.decisions, old.uploads)
        assert controller.realised_ratio == old.realised_ratio
        assert controller.discriminator == old.discriminator
    return areas


class TestLegacyEquivalence:
    """The scalar controller is the per-frame legacy one, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(_controller_runs())
    def test_matches_legacy_controller(self, run):
        _run_controllers(*run)

    def test_clipping_at_both_bounds(self):
        """A run of difficult images under a low target, then easy ones
        under a high target, drive the area threshold into both clamps;
        the trajectories still agree."""
        difficult = Detections("hard", np.array([[0.0, 0.0, 0.1, 0.1]]), np.array([0.3]), np.array([0]))
        easy = Detections("easy", np.array([[0.0, 0.0, 0.9, 0.9]]), np.array([0.9]), np.array([0]))
        images = [difficult] * 60 + [easy] * 60
        discriminator = DifficultCaseDiscriminator(0.2, 3, 0.3)
        areas = _run_controllers(images, discriminator, 0.02, {60: 0.98}, passes=1)
        assert (min(areas), max(areas)) == adaptive.AREA_BOUNDS

    def test_reset_reuse_matches_legacy(self):
        difficult = Detections("hard", np.array([[0.0, 0.0, 0.1, 0.1]]), np.array([0.3]), np.array([0]))
        easy = Detections("easy", np.array([[0.0, 0.0, 0.9, 0.9]]), np.array([0.9]), np.array([0]))
        discriminator = DifficultCaseDiscriminator(0.2, 3, 0.3)
        old = legacy.BudgetController(discriminator, 0.3, **LEGACY_SETTINGS)
        new = BudgetController(discriminator, 0.3)
        for _ in range(2):
            old.reset()
            new.reset()
            for image in [difficult, easy, easy, difficult, easy] * 10:
                assert new.decide(image) is old.decide(image)
            assert _bits(new.discriminator.area_threshold) == _bits(old.discriminator.area_threshold)
            assert (new.decisions, new.uploads) == (old.decisions, old.uploads)
