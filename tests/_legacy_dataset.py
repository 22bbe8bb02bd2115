"""Verbatim per-image scene sampling and ``load_dataset`` (reference oracle).

This is dataset generation as it was before it became columnar: every image
drew its scene with ``rng.normal(mu, sigma, size)``, ``rng.choice(p=)`` and
two array ``rng.uniform(lo, hi)`` calls, placed its boxes on its own small
arrays and was wrapped in a validated :class:`GroundTruth`.  It is kept as
the equality oracle for ``test_dataset_equivalence.py``: the columnar
``load_dataset`` and ``sample_scene`` are pinned *bit for bit* against it.
The columnar form reproduces ``choice(p=)`` and array ``uniform`` from the
same raw draws, which copies how NumPy implements them; this oracle still
calls NumPy, so a NumPy release that changes those internals fails the
equivalence tests instead of silently changing every split.  Do not
modernise this file; its value is that it does not change.
"""

from __future__ import annotations

import numpy as np

from repro._rng import DEFAULT_SEED, generator_for
from repro.data.datasets import DATASET_SETTINGS, DatasetSetting, ImageRecord
from repro.data.scene import Scene, SceneProfile
from repro.detection.types import GroundTruth
from repro.errors import ConfigurationError

__all__ = ["legacy_records", "load_records", "sample_scene"]


def _sample_count(profile: SceneProfile, rng: np.random.Generator) -> int:
    if profile.mean_extra_objects == 0:
        return 1
    extra = int(rng.negative_binomial(profile.count_dispersion, profile.count_p))
    return min(1 + extra, profile.max_objects)


def _sample_areas(profile: SceneProfile, count: int, rng: np.random.Generator) -> np.ndarray:
    mu = np.log(profile.area_median)
    areas = np.exp(rng.normal(mu, profile.area_sigma, size=count))
    return np.clip(areas, profile.area_min, profile.area_max)


def _class_weights(num_classes: int, zipf: float) -> np.ndarray:
    ranks = np.arange(1, num_classes + 1, dtype=np.float64)
    weights = ranks ** (-zipf)
    return weights / weights.sum()


def _place_boxes(areas: np.ndarray, aspect_sigma: float, rng: np.random.Generator) -> np.ndarray:
    count = areas.shape[0]
    aspect = np.exp(rng.normal(0.0, aspect_sigma, size=count))
    widths = np.sqrt(areas * aspect)
    heights = np.sqrt(areas / aspect)
    overflow_w = widths > 1.0
    heights[overflow_w] = np.minimum(areas[overflow_w], 1.0)
    widths[overflow_w] = 1.0
    overflow_h = heights > 1.0
    widths[overflow_h] = np.minimum(areas[overflow_h], 1.0)
    heights[overflow_h] = 1.0
    cx = rng.uniform(widths / 2.0, 1.0 - widths / 2.0)
    cy = rng.uniform(heights / 2.0, 1.0 - heights / 2.0)
    return np.stack(
        [cx - widths / 2.0, cy - heights / 2.0, cx + widths / 2.0, cy + heights / 2.0],
        axis=1,
    )


def sample_scene(profile: SceneProfile, num_classes: int, rng: np.random.Generator) -> Scene:
    if num_classes < 1:
        raise ConfigurationError("num_classes must be >= 1")
    count = _sample_count(profile, rng)
    areas = _sample_areas(profile, count, rng)
    weights = _class_weights(num_classes, profile.class_zipf)
    labels = rng.choice(num_classes, size=count, p=weights).astype(np.int64)
    boxes = _place_boxes(areas, profile.aspect_sigma, rng)
    final_areas = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    return Scene(boxes=boxes, labels=labels, areas=final_areas)


def legacy_records(entry: DatasetSetting, scope: str, size: int, seed: int = DEFAULT_SEED) -> list[ImageRecord]:
    """The per-image body of ``load_dataset`` for ``size`` images of ``scope``."""
    records: list[ImageRecord] = []
    for index in range(size):
        rng = generator_for(seed, "scene", scope, index)
        scene = sample_scene(entry.scene_profile, entry.num_classes, rng)
        degradation = entry.degradation.sample(rng)
        image_id = f"{scope}-{index:06d}"
        truth = GroundTruth(
            image_id=image_id,
            boxes=scene.boxes,
            labels=scene.labels,
            width=entry.image_width,
            height=entry.image_height,
        )
        records.append(
            ImageRecord(
                truth=truth,
                degradation=degradation,
                render_seed=int(rng.integers(0, 2**31 - 1)),
            )
        )
    return records


def load_records(
    setting: str,
    split: str = "test",
    *,
    seed: int = DEFAULT_SEED,
    fraction: float = 1.0,
) -> list[ImageRecord]:
    """The records ``load_dataset(setting, split, seed=, fraction=)`` produced."""
    entry = DATASET_SETTINGS[setting]
    size = int(np.ceil(entry.size_for(split) * fraction))
    return legacy_records(entry, entry.scope_for(split), size, seed)
