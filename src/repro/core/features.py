"""Semantic feature extraction from preliminary detections (Sec. V.C.1).

The discriminator never looks at pixels or CNN features — only at the small
model's raw output.  Two semantics are estimated per image:

* the **estimated number of objects**: boxes surviving the fitted
  noise-filter confidence threshold (0.15-0.35 in the paper — far below the
  0.5 serving threshold, so missed-but-noticed objects are counted);
* the **estimated minimum object area ratio** among those boxes.

Alongside them travels ``n_predict``, the number of boxes the small model
would actually serve (>= 0.5), because step 1 of the decision procedure
compares it with the estimated count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cases import SERVING_THRESHOLD
from repro.detection.batch import DetectionBatch
from repro.detection.types import Detections
from repro.errors import ConfigurationError

__all__ = ["CaseFeatures", "extract_features", "extract_feature_arrays"]


@dataclass(frozen=True)
class CaseFeatures:
    """Discriminator inputs for one image."""

    image_id: str
    n_predict: int
    n_estimated: int
    min_area_estimated: float


def _check_noise_threshold(noise_threshold: float) -> None:
    if not 0.0 < noise_threshold <= SERVING_THRESHOLD:
        raise ConfigurationError(f"noise_threshold must lie in (0, {SERVING_THRESHOLD}], got {noise_threshold}")


def extract_features(detections: Detections, noise_threshold: float) -> CaseFeatures:
    """Compute one image's :class:`CaseFeatures` from its raw detections."""
    _check_noise_threshold(noise_threshold)
    return CaseFeatures(
        image_id=detections.image_id,
        n_predict=detections.count_above(SERVING_THRESHOLD),
        n_estimated=detections.count_above(noise_threshold),
        min_area_estimated=detections.min_area_above(noise_threshold),
    )


def extract_feature_arrays(
    detections: DetectionBatch | list[Detections], noise_threshold: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised features for a split.

    Accepts a :class:`DetectionBatch` (the fast path — three array passes
    over the flat score/box arrays) or a ``list[Detections]``, which is
    concatenated first.  Returns ``(n_predict, n_estimated,
    min_area_estimated)`` arrays aligned with the input.
    """
    _check_noise_threshold(noise_threshold)
    batch = DetectionBatch.coerce(detections)
    return (
        batch.count_above(SERVING_THRESHOLD),
        batch.count_above(noise_threshold),
        batch.min_area_above(noise_threshold),
    )
