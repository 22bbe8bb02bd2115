"""The small-big model system (Sec. III, Fig. 2).

``SmallBigSystem`` wires the three modules together: the small model and the
difficult-case discriminator at the edge, the big model in the cloud.  Easy
cases are served by the small model locally (flow 1-2-3-6); difficult cases
are uploaded and served by the big model (flow 1-2-3-4-5-6).

``run`` accepts precomputed detections so experiments can share cached model
outputs; when omitted, the detectors are invoked directly.  Because the
simulated detectors are deterministic per image, both paths yield identical
results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.cases import SERVING_THRESHOLD
from repro.core.discriminator import DifficultCaseDiscriminator
from repro.data.datasets import Dataset
from repro.detection.batch import DetectionBatch
from repro.detection.types import Detections
from repro.errors import ConfigurationError
from repro.metrics.counting import CountSummary, count_summary
from repro.metrics.voc_ap import mean_average_precision
from repro.simulate.detector import SimulatedDetector

__all__ = ["SystemRun", "SmallBigSystem"]


@dataclass(frozen=True)
class SystemRun:
    """Outcome of serving one split through the small-big system.

    ``small_detections``/``big_detections`` may be ``list[Detections]`` or
    :class:`DetectionBatch`; every metric is computed over batches (coerced
    once and cached), so the hot serving/evaluation path never loops over
    per-image containers.
    """

    dataset: Dataset
    uploaded: np.ndarray = field(repr=False)
    small_detections: DetectionBatch | list[Detections] = field(repr=False)
    big_detections: DetectionBatch | list[Detections] = field(repr=False)

    def __post_init__(self) -> None:
        count = len(self.dataset)
        if not (self.uploaded.shape[0] == len(self.small_detections) == len(self.big_detections) == count):
            raise ConfigurationError("system run components are misaligned")
        object.__setattr__(self, "_batches", {})

    # ------------------------------------------------------------------ #
    # batch views (coerced lazily, cached per run)
    # ------------------------------------------------------------------ #
    def small_batch(self) -> DetectionBatch:
        """The small model's raw output as a batch."""
        return self._batch("small", lambda: DetectionBatch.coerce(self.small_detections))

    def big_batch(self) -> DetectionBatch:
        """The big model's raw output as a batch."""
        return self._batch("big", lambda: DetectionBatch.coerce(self.big_detections))

    def final_batch(self) -> DetectionBatch:
        """The served composition: big segments where uploaded, small
        elsewhere, merged with one vectorised gather."""
        return self._batch(
            "final",
            lambda: DetectionBatch.where(
                self.uploaded, self.big_batch(), self.small_batch()
            ),
        )

    def _batch(self, key: str, build) -> DetectionBatch:
        cache = self._batches
        if key not in cache:
            cache[key] = build()
        return cache[key]

    @property
    def upload_ratio(self) -> float:
        """Fraction of images uploaded to the cloud."""
        if self.uploaded.shape[0] == 0:
            return 0.0
        return float(np.mean(self.uploaded))

    def _served_map(self, batch: DetectionBatch) -> float:
        return mean_average_precision(
            batch.above(SERVING_THRESHOLD),
            self.dataset.truth_batch,
            self.dataset.num_classes,
        )

    # ------------------------------------------------------------------ #
    # metrics (all measured over served boxes, the paper's protocol)
    # ------------------------------------------------------------------ #
    def end_to_end_map(self) -> float:
        """mAP (percent) of the system's served output."""
        return self._served_map(self.final_batch())

    def big_model_map(self) -> float:
        """mAP (percent) of the big model alone on this split."""
        return self._served_map(self.big_batch())

    def end_to_end_counts(self) -> CountSummary:
        """Detected-object count of the system's served output."""
        return count_summary(self.final_batch(), self.dataset.truth_batch)

    def big_model_counts(self) -> CountSummary:
        """Detected-object count of the big model alone."""
        return count_summary(self.big_batch(), self.dataset.truth_batch)


@dataclass(frozen=True)
class SmallBigSystem:
    """Small model + discriminator at the edge, big model in the cloud."""

    small_model: SimulatedDetector
    big_model: SimulatedDetector
    discriminator: DifficultCaseDiscriminator

    def process_image(self, record) -> tuple[Detections, bool]:
        """Serve a single image (the Fig. 2 workflow).

        Returns ``(final detections, uploaded?)``.
        """
        preliminary = self.small_model.detect(record)
        difficult = self.discriminator.decide(preliminary)
        if difficult:
            return self.big_model.detect(record), True
        return preliminary, False

    def run(
        self,
        dataset: Dataset,
        *,
        small_detections: DetectionBatch | list[Detections] | None = None,
        big_detections: DetectionBatch | list[Detections] | None = None,
        uploaded: np.ndarray | None = None,
    ) -> SystemRun:
        """Serve a whole split.

        Parameters
        ----------
        small_detections / big_detections:
            Optional precomputed raw outputs (cache sharing).  When omitted
            the system's detectors run directly.
        uploaded:
            Optional externally supplied upload mask — used by the baseline
            policies (random / blur / confidence), which replace the
            discriminator's verdicts but keep the serving machinery.
        """
        if small_detections is None:
            small_detections = self.small_model.detect_split(dataset)
        if big_detections is None:
            big_detections = self.big_model.detect_split(dataset)
        if uploaded is None:
            uploaded = self.discriminator.decide_split(small_detections)
        uploaded = np.asarray(uploaded, dtype=bool)
        return SystemRun(
            dataset=dataset,
            uploaded=uploaded,
            small_detections=small_detections,
            big_detections=big_detections,
        )
