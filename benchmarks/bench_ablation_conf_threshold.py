"""Ablation 3: fitted vs fixed noise-filter threshold.

The paper fits the confidence threshold by minimising Eq. 1's count loss.
This bench compares the fitted optimum against fixed alternatives (0.25 and
0.45) on the count-estimation loss and on downstream verdict accuracy.
"""

from __future__ import annotations

import numpy as np

from repro.core.cases import label_cases
from repro.core.features import extract_feature_arrays
from repro.core.thresholds import count_loss_curve, decide_rule
from repro.metrics.classify import binary_metrics


def _evaluate(harness):
    setting = "voc07+12"
    discriminator, _ = harness.discriminator("small1", "ssd", setting)
    train = harness.dataset(setting, "train")
    small_train = harness.detections("small1", setting, "train")
    small_test = harness.detections("small1", setting, "test")
    labels = label_cases(small_test, harness.detections("ssd", setting, "test"))

    fitted = discriminator.confidence_threshold
    candidates = [fitted, 0.25, 0.45]
    grid, losses = count_loss_curve(small_train, train.truths, grid=np.asarray(candidates))
    rows = []
    for threshold, loss in zip(grid, losses):
        n_predict, n_estimated, min_area = extract_feature_arrays(small_test, float(threshold))
        verdicts = decide_rule(
            n_predict,
            n_estimated,
            min_area,
            discriminator.count_threshold,
            discriminator.area_threshold,
        )
        metrics = binary_metrics(verdicts, labels)
        rows.append(
            {
                "threshold": float(threshold),
                "count_loss": float(loss) / len(train),
                "accuracy": metrics.accuracy,
                "recall": metrics.recall,
            }
        )
    return rows


def test_ablation_confidence_threshold(benchmark, harness):
    rows = benchmark.pedantic(_evaluate, args=(harness,), rounds=1, iterations=1)

    print()
    print("Ablation: noise-filter confidence threshold (fitted vs fixed)")
    for row in rows:
        print(
            f"  t={row['threshold']:.2f}  count-loss/img {row['count_loss']:.3f}  "
            f"verdict acc {100 * row['accuracy']:6.2f}%  rec {100 * row['recall']:6.2f}%"
        )

    fitted, fixed_mid, fixed_high = rows
    # The fitted threshold minimises the per-image count loss (Eq. 1)...
    assert fitted["count_loss"] <= fixed_mid["count_loss"] + 1e-9
    assert fitted["count_loss"] <= fixed_high["count_loss"] + 1e-9
    # ...and a grossly misplaced threshold (0.45: sub-threshold misses are
    # filtered out with the noise) costs verdict recall.
    assert fitted["recall"] > fixed_high["recall"]
