"""Threshold calibration for the discriminator (Sec. V.D).

Three thresholds are fit on the training split:

1. **noise-filter confidence threshold** — minimises the paper's Eq. 1 loss
   ``L = |N_predict - N_truth|`` summed over training images, where
   ``N_predict(t)`` is the number of small-model boxes scoring at least
   ``t``.  The optimum separates noise boxes (exponential tail near 0) from
   the sub-threshold boxes of missed objects (0.1-0.45).
2. **object-count threshold** and 3. **minimum-area-ratio threshold** — a
   grid search maximising the accuracy of the three-step decision rule
   against the difficult-case labels.  Following the paper, the *true*
   object count and minimum area ratio are fed to the rule during fitting
   ("we input the true number of objects and minimum object area ratio into
   the discriminator here, instead of the estimated values").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.detection.batch import DetectionBatch, GroundTruthBatch
from repro.detection.types import Detections, GroundTruth
from repro.errors import CalibrationError
from repro.metrics.classify import BinaryMetrics, binary_metrics

__all__ = [
    "ThresholdFit",
    "fit_confidence_threshold",
    "count_loss_curve",
    "decide_rule",
    "decide_one",
    "fit_decision_thresholds",
    "area_threshold_sweep",
]

#: Default search grid for the noise-filter confidence threshold.
_CONFIDENCE_GRID = np.round(np.arange(0.05, 0.51, 0.01), 2)

#: Default grids for the decision thresholds.
_COUNT_GRID = np.arange(1, 9)
_AREA_GRID = np.round(np.arange(0.0, 0.52, 0.01), 2)

#: Decision-threshold grid points this close to the best accuracy are
#: admissible; the recall-maximal one among them is fitted.
_ACCURACY_TOLERANCE = 0.015


@dataclass(frozen=True)
class ThresholdFit:
    """Result of the full three-threshold calibration."""

    confidence_threshold: float
    count_threshold: int
    area_threshold: float
    train_metrics: BinaryMetrics


def count_loss_curve(
    detections: DetectionBatch | list[Detections],
    truths: GroundTruthBatch | list[GroundTruth],
    grid: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Eq. 1 loss ``sum_images |N_predict(t) - N_truth|`` over a grid of t.

    Per-image counts at every grid point come from threshold passes over the
    batch's flat score array (true counts straight off the ground-truth
    batch's offsets); the losses are integer sums, so the result is
    independent of accumulation order.
    """
    gt = GroundTruthBatch.coerce(truths)
    if len(detections) != len(gt):
        raise CalibrationError(f"got {len(detections)} detection sets for {len(gt)} truths")
    thresholds = _CONFIDENCE_GRID if grid is None else np.asarray(grid, dtype=np.float64)
    if thresholds.size == 0:
        raise CalibrationError("empty confidence-threshold grid")
    batch = DetectionBatch.coerce(detections)
    n_truth = gt.counts()
    losses = np.zeros(thresholds.size)
    for index, threshold in enumerate(thresholds):
        counts = batch.count_above(float(threshold))
        losses[index] = np.abs(counts - n_truth).sum()
    return thresholds, losses


def fit_confidence_threshold(
    detections: DetectionBatch | list[Detections],
    truths: GroundTruthBatch | list[GroundTruth],
) -> float:
    """The noise-filter threshold minimising the Eq. 1 count loss."""
    thresholds, losses = count_loss_curve(detections, truths)
    return float(thresholds[int(np.argmin(losses))])


def decide_rule(
    n_predict: np.ndarray,
    n_estimated: np.ndarray,
    min_area: np.ndarray,
    count_threshold: int,
    area_threshold: float,
) -> np.ndarray:
    """The paper's three-step decision, vectorised.  True = difficult.

    1. ``n_predict == n_estimated``  -> easy (everything detected);
    2. else ``n_estimated > count_threshold`` -> difficult (too many objects);
    3. else ``min_area < area_threshold``     -> difficult (too small);
       otherwise easy.

    :func:`decide_one` is the scalar transcription of this rule for
    single-image serving — change both together.
    """
    n_predict = np.asarray(n_predict)
    n_estimated = np.asarray(n_estimated)
    min_area = np.asarray(min_area)
    uncertain = n_predict != n_estimated
    return uncertain & ((n_estimated > count_threshold) | (min_area < area_threshold))


def decide_one(
    n_predict: int,
    n_estimated: int,
    min_area: float,
    count_threshold: int,
    area_threshold: float,
) -> bool:
    """:func:`decide_rule` for one image, on plain scalars.  True = difficult.

    The per-frame serving paths (:meth:`DifficultCaseDiscriminator.decide`,
    :class:`~repro.core.adaptive.BudgetController`) call this instead of
    allocating arrays; the equivalence tests pin it to :func:`decide_rule`.
    """
    if n_predict == n_estimated:
        return False
    return bool(n_estimated > count_threshold or min_area < area_threshold)


def fit_decision_thresholds(
    n_predict: np.ndarray,
    true_counts: np.ndarray,
    true_min_areas: np.ndarray,
    difficult_labels: np.ndarray,
    *,
    count_grid: np.ndarray | None = None,
    area_grid: np.ndarray | None = None,
) -> tuple[int, float, BinaryMetrics]:
    """Grid-search the count and area thresholds (Sec. V.D).

    Per the paper, the rule is evaluated with the *true* count and minimum
    area ratio during fitting, "when the accuracy reaches the top".  Among
    grid points within 0.015 of the best accuracy, the recall-maximal one
    is selected (precision breaks remaining ties): the
    paper's own optimum sits at 98.24 % recall because missing a difficult
    case costs end-to-end accuracy while uploading an easy one only costs
    bandwidth.
    """
    counts = _COUNT_GRID if count_grid is None else np.asarray(count_grid)
    areas = _AREA_GRID if area_grid is None else np.asarray(area_grid, dtype=np.float64)
    if counts.size == 0 or areas.size == 0:
        raise CalibrationError("empty decision-threshold grid")
    labels = np.asarray(difficult_labels, dtype=bool)
    candidates: list[tuple[BinaryMetrics, int, float]] = []
    for count_threshold in counts:
        for area_threshold in areas:
            predicted = decide_rule(
                n_predict,
                true_counts,
                true_min_areas,
                int(count_threshold),
                float(area_threshold),
            )
            metrics = binary_metrics(predicted, labels)
            candidates.append((metrics, int(count_threshold), float(area_threshold)))
    top_accuracy = max(metrics.accuracy for metrics, _, _ in candidates)
    admissible = [entry for entry in candidates if entry[0].accuracy >= top_accuracy - _ACCURACY_TOLERANCE]
    best_metrics, best_count, best_area = max(
        admissible,
        key=lambda entry: (entry[0].recall, entry[0].precision, entry[0].accuracy),
    )
    return best_count, best_area, best_metrics


def area_threshold_sweep(
    n_predict: np.ndarray,
    true_counts: np.ndarray,
    true_min_areas: np.ndarray,
    difficult_labels: np.ndarray,
    *,
    count_threshold: int = 2,
    area_grid: np.ndarray | None = None,
) -> list[dict[str, float]]:
    """Fig. 7: discriminator metrics as the area threshold sweeps.

    The count threshold is held at the paper's optimum (2) and each grid
    point's accuracy / precision / recall / F1 is reported.
    """
    areas = _AREA_GRID if area_grid is None else np.asarray(area_grid, dtype=np.float64)
    labels = np.asarray(difficult_labels, dtype=bool)
    rows: list[dict[str, float]] = []
    for area_threshold in areas:
        predicted = decide_rule(
            n_predict,
            true_counts,
            true_min_areas,
            count_threshold,
            float(area_threshold),
        )
        metrics = binary_metrics(predicted, labels)
        rows.append(
            {
                "area_threshold": float(area_threshold),
                "accuracy": metrics.accuracy,
                "precision": metrics.precision,
                "recall": metrics.recall,
                "f1": metrics.f1,
            }
        )
    return rows
