"""Ablations of the discriminator's design choices, on the quick harness.

Each test removes or replaces one ingredient of the paper's rule on the
VOC07+12 small model 1 + SSD pairing and checks that the ingredient pays
for itself.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.baselines.confidence_upload import mean_top1_confidence
from repro.core.cases import label_cases
from repro.core.discriminator import DifficultCaseDiscriminator
from repro.core.features import extract_feature_arrays
from repro.core.thresholds import count_loss_curve, decide_rule, fit_decision_thresholds
from repro.metrics.classify import binary_metrics
from repro.simulate.calibrate import calibrate_profile
from repro.simulate.detector import SimulatedDetector
from repro.simulate.presets import RECALL_TARGETS

SETTING = "voc07+12"


def test_two_features_beat_either_alone_and_confidence(harness):
    """The paper's count + minimum-area rule against each feature alone and
    a mean-confidence threshold classifier, all fitted on the same labels."""
    train = harness.dataset(SETTING, "train")
    small_train = harness.detections("small1", SETTING, "train")
    labels = label_cases(small_train, harness.detections("ssd", SETTING, "train"))
    n_predict = np.array([d.count_above(0.5) for d in small_train])
    true_counts = np.array([len(t) for t in train.truths])
    true_min_areas = np.array([t.min_area_ratio for t in train.truths])

    fit_inputs = (n_predict, true_counts, true_min_areas, labels)
    _, _, both = fit_decision_thresholds(*fit_inputs)
    # Count only: area threshold pinned at 0 (step 3 never fires).
    _, _, count_only = fit_decision_thresholds(*fit_inputs, area_grid=np.array([0.0]))
    # Area only: count threshold pinned far above any scene (step 2 never fires).
    _, _, area_only = fit_decision_thresholds(*fit_inputs, count_grid=np.array([10_000]))
    confidences = np.array([mean_top1_confidence(d, train.num_classes) for d in small_train])
    confidence_accuracy = max(
        binary_metrics(confidences < threshold, labels).accuracy for threshold in np.arange(0.0, 1.0, 0.02)
    )

    assert both.accuracy >= count_only.accuracy - 1e-9
    assert both.accuracy >= area_only.accuracy - 1e-9
    assert both.accuracy > confidence_accuracy


def test_equal_count_exit_saves_uploads_without_costing_accuracy(harness):
    """Sec. V.C.2's step 1 declares an image easy when the served count
    equals the noise-filtered estimate; without it the rule is a plain
    (count OR area) test."""
    discriminator, _ = harness.discriminator("small1", "ssd", SETTING)
    small_test = harness.detections("small1", SETTING, "test")
    labels = label_cases(small_test, harness.detections("ssd", SETTING, "test"))
    n_predict, n_estimated, min_area = extract_feature_arrays(small_test, discriminator.confidence_threshold)
    without_step1 = (n_estimated > discriminator.count_threshold) | (min_area < discriminator.area_threshold)
    with_step1 = (n_predict != n_estimated) & without_step1

    # Without the exit every small or crowded but well-handled image is
    # uploaded, while accuracy does not improve.
    assert without_step1.mean() > with_step1.mean() + 0.10
    assert binary_metrics(with_step1, labels).accuracy >= binary_metrics(without_step1, labels).accuracy - 0.01


def test_fitted_confidence_threshold_minimises_count_loss(harness):
    """The noise filter's fitted threshold (Eq. 1) against fixed 0.25 and 0.45."""
    discriminator, _ = harness.discriminator("small1", "ssd", SETTING)
    train = harness.dataset(SETTING, "train")
    small_train = harness.detections("small1", SETTING, "train")
    small_test = harness.detections("small1", SETTING, "test")
    labels = label_cases(small_test, harness.detections("ssd", SETTING, "test"))
    candidates = np.asarray([discriminator.confidence_threshold, 0.25, 0.45])
    _, losses = count_loss_curve(small_train, train.truths, grid=candidates)
    thresholds = (discriminator.count_threshold, discriminator.area_threshold)
    recalls = []
    for threshold in candidates:
        features = extract_feature_arrays(small_test, float(threshold))
        recalls.append(binary_metrics(decide_rule(*features, *thresholds), labels).recall)
    fitted_loss, mid_loss, high_loss = losses / len(train)

    assert fitted_loss <= mid_loss + 1e-9
    assert fitted_loss <= high_loss + 1e-9
    # A grossly misplaced threshold filters sub-threshold misses out with
    # the noise and costs verdict recall.
    assert recalls[0] > recalls[2]


def test_subthreshold_signal_carries_the_recall(harness):
    """Small model 1 rebuilt without the Fig. 6 signal (missed objects still
    emit low-confidence boxes): ``miss_visibility = 0``, recalibrated to the
    same recall.  The estimated count then degenerates to the served count
    and the deployed discriminator's recall drops hard."""
    train = harness.dataset(SETTING, "train")
    test = harness.dataset(SETTING, "test")
    big_train = harness.detections("ssd", SETTING, "train")
    big_test = harness.detections("ssd", SETTING, "test")
    default_disc, _ = harness.discriminator("small1", "ssd", SETTING)
    default = default_disc.evaluate(harness.detections("small1", SETTING, "test"), big_test)

    base = harness.detector("small1", SETTING)
    muted_profile = replace(base.profile, name=f"small1-muted@{SETTING}", miss_visibility=0.0)
    muted_profile, _ = calibrate_profile(
        muted_profile,
        train,
        RECALL_TARGETS[("small1", SETTING)],
        num_classes=train.num_classes,
        seed=harness.config.seed,
    )
    muted = SimulatedDetector(profile=muted_profile, num_classes=train.num_classes, seed=harness.config.seed)
    muted_disc, _ = DifficultCaseDiscriminator.fit(muted.detect_split(train), big_train, train.truths)
    muted_metrics = muted_disc.evaluate(muted.detect_split(test), big_test)

    assert muted_metrics.recall < default.recall - 0.15
