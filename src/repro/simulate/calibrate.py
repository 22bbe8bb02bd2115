"""Profile calibration: solve the capability scale for a recall target.

The paper's count tables (IV, VI, VIII, X, XI) pin down each model's recall
at serving threshold 0.5 on each dataset (detected objects / annotated
objects).  Calibration turns those published recalls into ``base_recall``
values:

1. an *analytic* bisection matches the expected per-object detection
   probability to the target, then
2. two *measured* secant corrections run the full simulator on a sample and
   absorb the residual losses (NMS suppression, localisation jitter pushing
   IoU below 0.5, class confusion).

Everything is deterministic in the experiment seed.

The analytic recall is columnar: a split's area, crowd and quality factors
are computed once (:func:`~repro.simulate.profile.probability_terms`), and
each probe of the capability scale is one clipped product over every
object.  The per-image sums are taken on ``(images, k)`` blocks of the
images holding ``k`` objects each, so each image's probabilities are summed
exactly as ``p.sum()`` summed them image by image (numpy's pairwise sum,
which a flat ``reduceat`` does not reproduce to the last ulp); one in-order
``cumsum`` then adds the image sums in record order.  The result is
bit-identical to the per-image loop, so the calibrated profiles are too.
"""

from __future__ import annotations

import numpy as np

from repro._rng import DEFAULT_SEED
from repro.data.datasets import Dataset
from repro.errors import CalibrationError
from repro.metrics.counting import count_detected_objects
from repro.simulate.detector import SimulatedDetector
from repro.simulate.profile import DetectorProfile, capped_probability, probability_terms

__all__ = ["expected_recall", "solve_base_recall", "calibrate_profile"]

#: Upper bound for the capability scale during bisection.
_MAX_BASE_RECALL = 25.0


class _RecallColumns:
    """A split's detection-probability factors, laid out for exact sums.

    Built once per split and profile shape; :meth:`recall` then evaluates
    the analytic recall at any ``base_recall`` without touching the records
    again.
    """

    def __init__(self, profile: DetectorProfile, dataset: Dataset) -> None:
        truths = dataset.truth_batch
        self._terms = probability_terms(profile, truths, [record.quality for record in dataset.records])
        counts = truths.counts()
        occupied = counts[counts > 0]
        self._total = int(occupied.sum())
        if self._total == 0:
            raise CalibrationError("dataset has no objects to calibrate on")
        # Image j (of the images with objects) owns term rows starts[j]:starts[j] + occupied[j].
        starts = np.cumsum(occupied) - occupied
        self._images = occupied.size
        self._groups = [
            (np.flatnonzero(occupied == k), starts[occupied == k][:, None] + np.arange(k)) for k in np.unique(occupied)
        ]

    def recall(self, base_recall: float) -> float:
        """Mean per-object detection probability at ``base_recall``."""
        p = capped_probability(base_recall, self._terms)
        sums = np.empty(self._images)
        for images, rows in self._groups:
            sums[images] = p[rows].sum(axis=1)
        return float(np.cumsum(sums)[-1]) / self._total


def expected_recall(profile: DetectorProfile, dataset: Dataset) -> float:
    """Mean per-object detection probability over a split (analytic)."""
    return _RecallColumns(profile, dataset).recall(profile.base_recall)


def solve_base_recall(
    profile: DetectorProfile,
    dataset: Dataset,
    target: float,
    *,
    tolerance: float = 1e-4,
    max_iterations: int = 60,
) -> DetectorProfile:
    """Bisection on ``base_recall`` so the analytic recall hits ``target``.

    The per-object probability is monotone in ``base_recall`` (until every
    object saturates at the cap), so bisection is exact.  Raises
    :class:`~repro.errors.CalibrationError` when the target is unreachable
    even at the maximum scale (e.g. a dataset of exclusively tiny objects).
    """
    return _bisect(profile, _RecallColumns(profile, dataset), target, tolerance, max_iterations)


def _bisect(
    profile: DetectorProfile,
    columns: _RecallColumns,
    target: float,
    tolerance: float = 1e-4,
    max_iterations: int = 60,
) -> DetectorProfile:
    """:func:`solve_base_recall` over a split's prebuilt columns."""
    if not 0.0 < target < 1.0:
        raise CalibrationError(f"target recall must be in (0, 1), got {target}")
    reachable = columns.recall(_MAX_BASE_RECALL)
    if reachable < target:
        raise CalibrationError(
            f"target recall {target:.3f} unreachable: even at maximum "
            f"capability the expected recall is {reachable:.3f}"
        )
    lo, hi = 1e-4, _MAX_BASE_RECALL
    for _ in range(max_iterations):
        mid = (lo + hi) / 2.0
        value = columns.recall(mid)
        if abs(value - target) < tolerance:
            return profile.with_base_recall(mid)
        if value < target:
            lo = mid
        else:
            hi = mid
    return profile.with_base_recall((lo + hi) / 2.0)


def calibrate_profile(
    profile: DetectorProfile,
    dataset: Dataset,
    target_recall: float,
    *,
    num_classes: int,
    seed: int = DEFAULT_SEED,
    sample_size: int = 1000,
    measured_rounds: int = 2,
) -> DetectorProfile:
    """Full calibration: analytic solve plus measured loss-factor estimation.

    The analytic solve runs over the whole ``dataset`` (cheap, vectorised:
    its factor columns are built once and every bisection probe is one
    clipped product and a grouped sum);
    the *loss factor* — how much measured true-positive recall falls short of
    the analytic expectation because of NMS suppression, localisation jitter
    and class confusion — is estimated on a ``sample_size`` subset as
    ``measured / expected`` *on the same subset*, so subset sampling bias
    cancels out of the final profile.

    Parameters
    ----------
    dataset:
        The split to calibrate against (a train split in the experiments).
    target_recall:
        Detected-objects / annotated-objects ratio to reproduce, taken from
        the paper's count tables.
    sample_size:
        Number of images used to estimate the simulation loss factor.
    """
    sample = dataset.subset(min(sample_size, len(dataset)))
    # Only base_recall changes from round to round, so both splits' factor
    # columns are built once.
    columns = _RecallColumns(profile, dataset)
    sample_columns = _RecallColumns(profile, sample)
    loss_factor = 1.0
    calibrated = profile
    for _ in range(measured_rounds + 1):
        analytic_target = min(0.995, target_recall / loss_factor)
        calibrated = _bisect(calibrated, columns, analytic_target)
        detector = SimulatedDetector(profile=calibrated, num_classes=num_classes, seed=seed)
        detections = detector.detect_split(sample)
        measured = count_detected_objects(detections, sample.truth_batch) / max(sample.total_objects, 1)
        if measured <= 0.0:
            raise CalibrationError("measured recall collapsed to zero")
        expected_on_sample = sample_columns.recall(calibrated.base_recall)
        new_loss = float(np.clip(measured / expected_on_sample, 0.5, 1.0))
        if abs(new_loss - loss_factor) < 0.005:
            loss_factor = new_loss
            break
        loss_factor = new_loss
    return calibrated
