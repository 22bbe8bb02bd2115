"""Ablation 4: the sub-threshold confidence signal.

The discriminator's estimated-count feature relies on the Fig. 6 phenomenon:
missed objects still emit low-confidence boxes.  This bench rebuilds small
model 1 with that signal removed (``miss_visibility = 0``, recalibrated to
the same recall) and measures how far the deployed discriminator falls.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.cases import label_cases
from repro.core.discriminator import DifficultCaseDiscriminator
from repro.simulate.calibrate import calibrate_profile
from repro.simulate.detector import SimulatedDetector
from repro.simulate.presets import RECALL_TARGETS


def _compare(harness):
    setting = "voc07+12"
    train = harness.dataset(setting, "train")
    test = harness.dataset(setting, "test")
    big_train = harness.detections("ssd", setting, "train")
    big_test = harness.detections("ssd", setting, "test")

    # Default small model (with the sub-threshold signal).
    small_train = harness.detections("small1", setting, "train")
    small_test = harness.detections("small1", setting, "test")
    _, default_report = DifficultCaseDiscriminator.fit(small_train, big_train, train.truths)
    default_disc, _ = harness.discriminator("small1", "ssd", setting)
    default_test = default_disc.evaluate(small_test, big_test)

    # Muted small model: identical recall, no sub-threshold boxes.
    base = harness.detector("small1", setting)
    muted_profile = replace(base.profile, name="small1-muted@voc07+12", miss_visibility=0.0)
    muted_profile, _ = calibrate_profile(
        muted_profile,
        train,
        RECALL_TARGETS[("small1", setting)],
        num_classes=train.num_classes,
        seed=harness.config.seed,
    )
    muted = SimulatedDetector(
        profile=muted_profile,
        num_classes=train.num_classes,
        seed=harness.config.seed,
    )
    muted_train = muted.detect_split(train)
    muted_test = muted.detect_split(test)
    muted_disc, muted_report = DifficultCaseDiscriminator.fit(muted_train, big_train, train.truths)
    muted_metrics = muted_disc.evaluate(muted_test, big_test)
    # Labels differ per small model; recompute for reporting only.
    label_cases(muted_test, big_test)
    return default_test, muted_metrics, default_report, muted_report


def test_ablation_subthreshold_signal(benchmark, harness):
    default_m, muted_m, _, _ = benchmark.pedantic(
        _compare, args=(harness,), rounds=1, iterations=1
    )

    print()
    print("Ablation: sub-threshold miss signal (deployed discriminator, test split)")
    print(f"  with signal:    acc {100 * default_m.accuracy:6.2f}%  rec {100 * default_m.recall:6.2f}%")
    print(f"  without signal: acc {100 * muted_m.accuracy:6.2f}%  rec {100 * muted_m.recall:6.2f}%")

    # Without the Fig. 6 signal the estimated count degenerates to the served
    # count: the uncertainty gate loses most of its power and recall drops
    # hard.
    assert muted_m.recall < default_m.recall - 0.15
