"""Dataset statistics: the inputs to Fig. 4 and to profile calibration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.datasets import Dataset

__all__ = ["SplitStats", "split_stats", "per_image_features"]


@dataclass(frozen=True)
class SplitStats:
    """Aggregate statistics of one dataset split."""

    num_images: int
    total_objects: int
    mean_objects: float
    median_min_area: float
    p10_min_area: float
    crowded_fraction: float  # images with more than 2 objects
    tiny_fraction: float  # images whose smallest object is below 2 % area

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.num_images} images, {self.total_objects} objects "
            f"({self.mean_objects:.2f}/image), median min-area "
            f"{self.median_min_area:.3f}, crowded {100 * self.crowded_fraction:.1f}%, "
            f"tiny {100 * self.tiny_fraction:.1f}%"
        )


def per_image_features(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-image ``(object count, minimum area ratio)`` arrays.

    These are the two ground-truth semantics the discriminator is built on
    (Sec. V.B); Fig. 4 scatters exactly these values.
    """
    truths = dataset.truth_batch
    return truths.counts(), truths.min_area_ratios()


def split_stats(dataset: Dataset) -> SplitStats:
    """Compute :class:`SplitStats` for a materialised split."""
    counts, min_areas = per_image_features(dataset)
    if counts.size == 0:
        return SplitStats(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return SplitStats(
        num_images=int(counts.size),
        total_objects=int(counts.sum()),
        mean_objects=float(counts.mean()),
        median_min_area=float(np.median(min_areas)),
        p10_min_area=float(np.percentile(min_areas, 10)),
        crowded_fraction=float(np.mean(counts > 2)),
        tiny_fraction=float(np.mean(min_areas < 0.02)),
    )
