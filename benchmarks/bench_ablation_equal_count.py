"""Ablation 2: the step-1 equal-count early exit.

Sec. V.C.2's first step declares an image easy when the served count equals
the noise-filtered estimate.  Removing it turns the rule into a plain
(count OR area) test; this bench quantifies what the early exit buys.
"""

from __future__ import annotations

from repro.core.cases import label_cases
from repro.core.features import extract_feature_arrays
from repro.metrics.classify import binary_metrics


def _compare(harness):
    setting = "voc07+12"
    discriminator, _ = harness.discriminator("small1", "ssd", setting)
    small_test = harness.detections("small1", setting, "test")
    labels = label_cases(small_test, harness.detections("ssd", setting, "test"))
    n_predict, n_estimated, min_area = extract_feature_arrays(small_test, discriminator.confidence_threshold)
    with_step1 = (n_predict != n_estimated) & (
        (n_estimated > discriminator.count_threshold)
        | (min_area < discriminator.area_threshold)
    )
    without_step1 = (n_estimated > discriminator.count_threshold) | (min_area < discriminator.area_threshold)
    return (
        binary_metrics(with_step1, labels),
        binary_metrics(without_step1, labels),
        float(with_step1.mean()),
        float(without_step1.mean()),
    )


def test_ablation_equal_count_exit(benchmark, harness):
    with_m, without_m, upload_with, upload_without = benchmark.pedantic(
        _compare, args=(harness,), rounds=1, iterations=1
    )

    print()
    print("Ablation: step-1 equal-count early exit (VOC07+12 test)")
    print(f"  with step 1:    acc {100 * with_m.accuracy:6.2f}%  upload {100 * upload_with:5.1f}%")
    print(f"  without step 1: acc {100 * without_m.accuracy:6.2f}%  upload {100 * upload_without:5.1f}%")

    # Without the early exit, every small/crowded-but-well-handled image is
    # uploaded: bandwidth rises substantially...
    assert upload_without > upload_with + 0.10
    # ...while accuracy does not improve (the exit only removes false alarms).
    assert with_m.accuracy >= without_m.accuracy - 0.01
