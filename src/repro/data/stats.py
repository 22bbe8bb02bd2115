"""Dataset statistics: the inputs to Fig. 4."""

from __future__ import annotations

import numpy as np

from repro.data.datasets import Dataset

__all__ = ["per_image_features"]


def per_image_features(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-image ``(object count, minimum area ratio)`` arrays.

    These are the two ground-truth semantics the discriminator is built on
    (Sec. V.B); Fig. 4 scatters exactly these values.
    """
    truths = dataset.truth_batch
    return truths.counts(), truths.min_area_ratios()

