"""Difficult-case definition and labelling (Sec. V.A).

    "We define an image as a difficult case if the small model fails to
     detect all the objects in it and vice versa. [...] The detection result
     of the big model is compared with the result of the small model.  When
     the difference in the number of detected objects is greater than or
     equal to 1 [...] we will mark the image as a difficult case."

The serving confidence threshold is 0.5 throughout the paper: only boxes
scoring at least 0.5 count as detected objects.
"""

from __future__ import annotations

import numpy as np

from repro.detection.batch import DetectionBatch
from repro.detection.types import Detections
from repro.errors import ConfigurationError

__all__ = ["SERVING_THRESHOLD", "is_difficult_case", "label_cases"]

#: The paper's serving confidence threshold (Sec. V.A).
SERVING_THRESHOLD = 0.5


def is_difficult_case(small: Detections, big: Detections) -> bool:
    """Label one image from the two models' served detection counts.

    The image is difficult when the big model serves at least one more
    object than the small model did — evidence the small model missed
    something.
    """
    if small.image_id != big.image_id:
        raise ConfigurationError(f"detections belong to different images: " f"{small.image_id!r} vs {big.image_id!r}")
    return big.count_above(SERVING_THRESHOLD) - small.count_above(SERVING_THRESHOLD) >= 1


def label_cases(
    small_detections: DetectionBatch | list[Detections],
    big_detections: DetectionBatch | list[Detections],
) -> np.ndarray:
    """Vectorised difficult-case labels for a whole split.

    Returns a boolean array aligned with the detection splits;
    ``True`` = difficult.  Both splits are compared as
    :class:`DetectionBatch` flat arrays — two threshold-count passes instead
    of a per-image Python loop.
    """
    if len(small_detections) != len(big_detections):
        raise ConfigurationError(f"got {len(small_detections)} small vs {len(big_detections)} big " f"detection sets")
    small = DetectionBatch.coerce(small_detections)
    big = DetectionBatch.coerce(big_detections)
    if small.image_ids != big.image_ids:
        mismatch = next((a, b) for a, b in zip(small.image_ids, big.image_ids) if a != b)
        raise ConfigurationError(f"detections belong to different images: " f"{mismatch[0]!r} vs {mismatch[1]!r}")
    return big.count_above(SERVING_THRESHOLD) - small.count_above(SERVING_THRESHOLD) >= 1
