"""Ablation 1: feature choice for the discriminator.

Compares the paper's two semantic features (object count + minimum area
ratio) against each feature alone and against a mean-confidence threshold
classifier, all fitted on the same training labels.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.confidence_upload import mean_top1_confidence
from repro.core.cases import label_cases
from repro.core.thresholds import fit_decision_thresholds
from repro.metrics.classify import binary_metrics


def _fit_variants(harness):
    setting = "voc07+12"
    train = harness.dataset(setting, "train")
    small_train = harness.detections("small1", setting, "train")
    labels = label_cases(small_train, harness.detections("ssd", setting, "train"))
    n_predict = np.array([d.count_above(0.5) for d in small_train])
    true_counts = np.array([len(t) for t in train.truths])
    true_min_areas = np.array([t.min_area_ratio for t in train.truths])

    _, _, both = fit_decision_thresholds(n_predict, true_counts, true_min_areas, labels)
    # Count only: area threshold pinned at 0 (step 3 never fires).
    _, _, count_only = fit_decision_thresholds(
        n_predict, true_counts, true_min_areas, labels,
        area_grid=np.array([0.0]),
    )
    # Area only: count threshold pinned far above any scene (step 2 never fires).
    _, _, area_only = fit_decision_thresholds(
        n_predict, true_counts, true_min_areas, labels,
        count_grid=np.array([10_000]),
    )
    # Mean-confidence threshold classifier (no semantic features at all).
    confidences = np.array(
        [mean_top1_confidence(d, train.num_classes) for d in small_train]
    )
    best_conf = None
    for threshold in np.arange(0.0, 1.0, 0.02):
        metrics = binary_metrics(confidences < threshold, labels)
        if best_conf is None or metrics.accuracy > best_conf.accuracy:
            best_conf = metrics
    return {
        "both": both,
        "count_only": count_only,
        "area_only": area_only,
        "confidence": best_conf,
    }


def test_ablation_feature_choice(benchmark, harness):
    variants = benchmark.pedantic(_fit_variants, args=(harness,), rounds=1, iterations=1)

    print()
    print("Ablation: discriminator feature choice (fit accuracy on VOC07+12 train)")
    for name, metrics in variants.items():
        print(
            f"  {name:<12} acc {100 * metrics.accuracy:6.2f}%  "
            f"prec {100 * metrics.precision:6.2f}%  rec {100 * metrics.recall:6.2f}%"
        )

    both = variants["both"]
    # The paper's two-feature rule must not lose to either single feature...
    assert both.accuracy >= variants["count_only"].accuracy - 1e-9
    assert both.accuracy >= variants["area_only"].accuracy - 1e-9
    # ...and must beat the non-semantic confidence classifier.
    assert both.accuracy > variants["confidence"].accuracy
