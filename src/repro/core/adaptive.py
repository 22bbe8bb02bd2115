"""Budget-constrained and adaptive discrimination.

Two extensions of the paper's static threshold model that a production
deployment needs:

* :func:`fit_for_budget` — instead of maximising accuracy (Sec. V.D), pick
  the count/area thresholds that maximise difficult-case *recall subject to
  an upload-ratio budget*.  This turns the discriminator into a family of
  operating points: give it the bandwidth you can afford and it catches as
  many difficult cases as that budget allows (the mechanism behind the
  Figs. 8-9 trade-off curves).
* :class:`BudgetController` — an online integral controller that nudges the
  area threshold while a stream is being served so the *realised* upload
  ratio tracks a target even when scene statistics drift (day/night,
  crowded/quiet periods).  The paper's thresholds are fit once offline;
  this keeps them honest in deployment.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.core.discriminator import DifficultCaseDiscriminator
from repro.core.features import extract_features
from repro.core.thresholds import decide_one, decide_rule
from repro.errors import CalibrationError, ConfigurationError
from repro.metrics.classify import binary_metrics

__all__ = ["BudgetFit", "fit_for_budget", "BudgetController", "GAIN", "EMA_HALFLIFE", "AREA_BOUNDS"]

#: :class:`BudgetController`'s integral gain: the area-threshold step per
#: unit of upload-ratio error.
GAIN = 0.05
#: Halflife, in decisions, of the controller's realised-ratio EMA.
EMA_HALFLIFE = 20
#: The range the adapted area threshold is clamped to.
AREA_BOUNDS = (0.0, 0.8)
_AREA_LO, _AREA_HI = AREA_BOUNDS
_ALPHA = 1.0 - 0.5 ** (1.0 / EMA_HALFLIFE)


@dataclass(frozen=True)
class BudgetFit:
    """Result of a budget-constrained threshold search."""

    count_threshold: int
    area_threshold: float
    expected_upload_ratio: float
    recall: float
    precision: float


def fit_for_budget(
    n_predict: np.ndarray,
    n_estimated: np.ndarray,
    min_area: np.ndarray,
    difficult_labels: np.ndarray,
    upload_budget: float,
    *,
    count_grid: np.ndarray | None = None,
    area_grid: np.ndarray | None = None,
) -> BudgetFit:
    """Maximise difficult-case recall subject to an upload-ratio budget.

    All feature arrays are the *estimated* (deployed) features on a training
    split.  Among threshold pairs whose predicted upload ratio stays within
    ``upload_budget``, the pair with the highest recall wins; precision
    breaks ties.  Raises when even the most conservative pair exceeds the
    budget (i.e. the uncertainty gate alone uploads too much).
    """
    if not 0.0 < upload_budget <= 1.0:
        raise ConfigurationError(f"upload_budget must be in (0, 1], got {upload_budget}")
    counts = np.arange(0, 12) if count_grid is None else np.asarray(count_grid)
    areas = np.round(np.arange(0.0, 0.62, 0.01), 2) if area_grid is None else np.asarray(area_grid, dtype=np.float64)
    labels = np.asarray(difficult_labels, dtype=bool)
    best: BudgetFit | None = None
    for count_threshold in counts:
        for area_threshold in areas:
            verdicts = decide_rule(
                n_predict,
                n_estimated,
                min_area,
                int(count_threshold),
                float(area_threshold),
            )
            ratio = float(np.mean(verdicts))
            if ratio > upload_budget:
                continue
            metrics = binary_metrics(verdicts, labels)
            candidate = BudgetFit(
                count_threshold=int(count_threshold),
                area_threshold=float(area_threshold),
                expected_upload_ratio=ratio,
                recall=metrics.recall,
                precision=metrics.precision,
            )
            if best is None or (candidate.recall, candidate.precision) > (best.recall, best.precision):
                best = candidate
    if best is None:
        raise CalibrationError(f"no threshold pair fits within an upload budget of {upload_budget:.2f}")
    return best


class BudgetController:
    """Online integral controller tracking a target upload ratio.

    Wraps a fitted :class:`DifficultCaseDiscriminator` and adjusts its area
    threshold after every decision:

    ``area = clip(area + GAIN * (target - realised_ratio), *AREA_BOUNDS)``

    A higher area threshold uploads more (more images fail the "too small"
    test), so the sign is positive.  The realised ratio is tracked with an
    exponential moving average of halflife :data:`EMA_HALFLIFE`, making the
    controller robust to drift in the scene distribution.

    Only the area threshold ever moves, so an image's features are fixed
    for the controller's lifetime: callers serving a known split extract
    them once and feed :meth:`decide_features`; :meth:`decide` extracts
    them from one image's detections first.
    """

    def __init__(self, discriminator: DifficultCaseDiscriminator, target_ratio: float) -> None:
        if not 0.0 < target_ratio < 1.0:  # also catches NaN
            raise ConfigurationError(f"target_ratio must be in (0, 1), got {target_ratio}")
        self._initial = discriminator
        self._initial_target = target_ratio
        self._count_threshold = discriminator.count_threshold
        self._area = float(discriminator.area_threshold)
        self.target_ratio = target_ratio
        self._ema = target_ratio
        self.decisions = 0
        self.uploads = 0

    def reset(self) -> None:
        """Forget all adaptation: behave as freshly constructed.

        Restores the area threshold, target ratio and EMA to their
        construction-time values and zeroes the decision counters, so the
        same controller can be reused across independent runs without
        leaking threshold state between them.
        """
        self._area = float(self._initial.area_threshold)
        self.target_ratio = self._initial_target
        self._ema = self._initial_target
        self.decisions = 0
        self.uploads = 0

    @property
    def discriminator(self) -> DifficultCaseDiscriminator:
        """The currently adapted discriminator (built on each read)."""
        if self.decisions == 0:
            return self._initial
        return replace(self._initial, area_threshold=self._area)

    @property
    def realised_ratio(self) -> float:
        """Total uploads / total decisions so far."""
        if self.decisions == 0:
            return 0.0
        return self.uploads / self.decisions

    def decide(self, detections) -> bool:
        """Decide one image and adapt the area threshold."""
        features = extract_features(detections, self._initial.confidence_threshold)
        return self.decide_features(features.n_predict, features.n_estimated, features.min_area_estimated)

    def decide_features(self, n_predict: int, n_estimated: int, min_area: float) -> bool:
        """Decide one image from its precomputed features and adapt.

        The features are :func:`~repro.core.features.extract_features`'
        ``(n_predict, n_estimated, min_area_estimated)`` under the wrapped
        discriminator's confidence threshold.
        """
        verdict = decide_one(n_predict, n_estimated, min_area, self._count_threshold, self._area)
        self.decisions += 1
        self.uploads += verdict
        self._ema = (1.0 - _ALPHA) * self._ema + _ALPHA * float(verdict)
        error = self.target_ratio - self._ema
        # min/max in this order is np.clip bit for bit, signed zeros included.
        self._area = min(max(self._area + GAIN * error, _AREA_LO), _AREA_HI)
        return verdict
