"""The difficult-case discriminator (Sec. V).

The discriminator is the system's core: a three-threshold model over two
semantic features of the small model's raw output.  :meth:`fit` reproduces
the paper's full calibration procedure; :meth:`decide` implements the
three-step runtime rule of Sec. V.C.2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cases import SERVING_THRESHOLD, label_cases
from repro.core.features import extract_feature_arrays, extract_features
from repro.core.thresholds import (
    ThresholdFit,
    decide_one,
    decide_rule,
    fit_confidence_threshold,
    fit_decision_thresholds,
)
from repro.detection.batch import DetectionBatch, GroundTruthBatch
from repro.detection.types import Detections, GroundTruth
from repro.errors import CalibrationError, ConfigurationError
from repro.metrics.classify import BinaryMetrics, binary_metrics

__all__ = ["DiscriminatorFitReport", "DifficultCaseDiscriminator", "DiscriminatorPolicy"]


@dataclass(frozen=True)
class DiscriminatorFitReport:
    """Everything Table I needs about a fit.

    ``ground_truth_metrics`` evaluates the decision rule with *true*
    features on the training split (Table I row "Ground Truth");
    ``predicted_metrics`` evaluates the deployed rule — estimated features
    from the small model's output — on the same split (row "Predicted" uses
    the test split; the harness recomputes it there).
    """

    fit: ThresholdFit
    ground_truth_metrics: BinaryMetrics
    predicted_metrics: BinaryMetrics
    num_train_images: int
    difficult_fraction: float


@dataclass(frozen=True)
class DifficultCaseDiscriminator:
    """Three-threshold difficult-case discriminator.

    Attributes
    ----------
    confidence_threshold:
        Noise-filter threshold for estimating object count/min-area from the
        small model's raw boxes (paper: 0.15-0.35).
    count_threshold:
        "Too many objects" cut-off (paper: 2).
    area_threshold:
        "Too small an object" cut-off on the minimum area ratio
        (paper: 0.31).
    """

    confidence_threshold: float
    count_threshold: int
    area_threshold: float

    def decide(self, detections: Detections) -> bool:
        """Classify one image from its small-model detections.

        Returns ``True`` when the image is a difficult case (upload it).
        The three-step rule is applied on scalars directly — single-image
        serving never allocates per-frame numpy arrays.
        """
        features = extract_features(detections, self.confidence_threshold)
        return decide_one(
            features.n_predict,
            features.n_estimated,
            features.min_area_estimated,
            self.count_threshold,
            self.area_threshold,
        )

    def decide_split(self, detections: DetectionBatch | list[Detections]) -> np.ndarray:
        """Vectorised verdicts for a whole split (True = difficult)."""
        n_predict, n_estimated, min_area = extract_feature_arrays(detections, self.confidence_threshold)
        return decide_rule(
            n_predict,
            n_estimated,
            min_area,
            self.count_threshold,
            self.area_threshold,
        )

    def evaluate(
        self,
        small_detections: DetectionBatch | list[Detections],
        big_detections: DetectionBatch | list[Detections],
    ) -> BinaryMetrics:
        """Classification quality against difficult-case labels."""
        labels = label_cases(small_detections, big_detections)
        predicted = self.decide_split(small_detections)
        return binary_metrics(predicted, labels)

    # ------------------------------------------------------------------ #
    # calibration
    # ------------------------------------------------------------------ #
    @classmethod
    def fit(
        cls,
        small_detections: DetectionBatch | list[Detections],
        big_detections: DetectionBatch | list[Detections],
        truths: GroundTruthBatch | list[GroundTruth],
    ) -> tuple["DifficultCaseDiscriminator", DiscriminatorFitReport]:
        """Calibrate all three thresholds on a training split (Sec. V.D).

        Parameters
        ----------
        small_detections / big_detections:
            Both models' raw outputs on the *training* split.
        truths:
            The training annotations (ground truths for Eq. 1 and for the
            true-feature grid search) — a :class:`GroundTruthBatch` (or a
            ``Dataset``, via its cached batch) or a plain list.
        """
        gt = GroundTruthBatch.coerce(truths)
        if not (len(small_detections) == len(big_detections) == len(gt)):
            raise CalibrationError("small detections, big detections and truths must align")
        if len(gt) == 0:
            raise CalibrationError("cannot fit a discriminator on an empty split")

        small_batch = DetectionBatch.coerce(small_detections)
        big_batch = DetectionBatch.coerce(big_detections)
        labels = label_cases(small_batch, big_batch)
        confidence_threshold = fit_confidence_threshold(small_batch, gt)

        n_predict = small_batch.count_above(SERVING_THRESHOLD)
        true_counts = gt.counts()
        true_min_areas = gt.min_area_ratios()
        count_threshold, area_threshold, gt_metrics = fit_decision_thresholds(
            n_predict,
            true_counts,
            true_min_areas,
            labels,
        )

        discriminator = cls(
            confidence_threshold=confidence_threshold,
            count_threshold=count_threshold,
            area_threshold=area_threshold,
        )
        predicted_metrics = discriminator.evaluate(small_batch, big_batch)
        report = DiscriminatorFitReport(
            fit=ThresholdFit(
                confidence_threshold=confidence_threshold,
                count_threshold=count_threshold,
                area_threshold=area_threshold,
                train_metrics=gt_metrics,
            ),
            ground_truth_metrics=gt_metrics,
            predicted_metrics=predicted_metrics,
            num_train_images=len(gt),
            difficult_fraction=float(np.mean(labels)),
        )
        return discriminator, report


@dataclass(frozen=True)
class DiscriminatorPolicy:
    """The fitted discriminator as a serving-pipeline offload policy.

    Adapts :class:`DifficultCaseDiscriminator` to the
    :class:`~repro.runtime.policies.OffloadPolicy` protocol, so the paper's
    contribution plugs into the same pipeline slot as the Sec. VI.E upload
    baselines and the degenerate always/never decisions.
    """

    discriminator: DifficultCaseDiscriminator

    @property
    def name(self) -> str:
        """Policy identifier used in reports."""
        return "discriminator"

    def select(
        self,
        dataset,
        small_detections: DetectionBatch | list[Detections] | None,
    ) -> np.ndarray:
        """Upload mask: the discriminator's verdicts on the split."""
        if small_detections is None:
            raise ConfigurationError(
                "the discriminator policy needs the small model's detections "
                "(pass small_detections= to the serving engine)"
            )
        if len(small_detections) != len(dataset):
            raise ConfigurationError(f"{len(small_detections)} detection sets for {len(dataset)} images")
        return self.discriminator.decide_split(small_detections)
