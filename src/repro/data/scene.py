"""Synthetic scene sampling.

A *scene* is the annotation content of one image: how many objects it has,
their classes, their area ratios and their placement.  The joint distribution
of (object count, minimum object area ratio) is the statistic every paper
experiment keys on — Fig. 4's easy/difficult separation, the discriminator
thresholds (2 objects / 0.31 area ratio) and the ~50 % difficult-case
prevalence all derive from it — so the generator controls it explicitly.

Count model:   ``K = 1 + NegativeBinomial(dispersion, p)`` (zero-truncated,
capped), giving VOC-like single-object dominance with a long crowded tail.
Area model:    log-normal area ratios, clipped; aspect ratios log-normal
around 1.  Class model: Zipf-tilted categorical over the vocabulary.

A split's scenes are generated in one columnar pass (:class:`SceneDraws`).
Only the random draws stay per image, from that image's own generator and
in a fixed order; the arithmetic on them (log-normal areas and aspects,
clipping, the overflow transfer, the label inverse CDF and centre
placement) runs once over the split's flat arrays.  ``rng.choice(p=)`` and
array ``rng.uniform(lo, hi)`` are reproduced from the same raw
``rng.random`` draws, exactly as NumPy computes them, so the columnar
splits are bit-identical to sampling each scene on its own.
:func:`sample_scene` is the one-image case.  The centre placement and the
log-normal helper are shared with the simulated detector's noise boxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["SceneProfile", "Scene", "SceneDraws", "sample_scene"]


@dataclass(frozen=True)
class SceneProfile:
    """Distribution parameters for one dataset's scenes.

    Attributes
    ----------
    mean_extra_objects:
        Mean of the zero-truncated part: mean object count is 1 + this.
    count_dispersion:
        Negative-binomial ``n``; smaller values give heavier crowded tails.
    max_objects:
        Hard cap on per-image object count.
    area_median:
        Median object area ratio (log-normal location).
    area_sigma:
        Log-normal shape; larger = wider spread toward tiny/huge objects.
    area_min, area_max:
        Clip bounds for a single object's area ratio.
    class_zipf:
        Zipf exponent tilting class frequencies (0 = uniform).
    aspect_sigma:
        Log-normal sigma of the box aspect ratio around 1.
    """

    mean_extra_objects: float
    count_dispersion: float
    max_objects: int = 40
    area_median: float = 0.09
    area_sigma: float = 1.3
    area_min: float = 3e-4
    area_max: float = 0.9
    class_zipf: float = 0.8
    aspect_sigma: float = 0.45

    def __post_init__(self) -> None:
        # Every check is written ``not <valid range>`` so NaN fails it too,
        # here rather than deep inside a numpy draw.
        if not 0.0 <= self.mean_extra_objects < math.inf:
            raise ConfigurationError(f"mean_extra_objects must be finite and >= 0, got {self.mean_extra_objects}")
        if not 0.0 < self.count_dispersion < math.inf:
            raise ConfigurationError(f"count_dispersion must be finite and > 0, got {self.count_dispersion}")
        if not 0.0 <= self.area_sigma < math.inf:
            raise ConfigurationError(f"area_sigma must be finite and >= 0, got {self.area_sigma}")
        if not 0.0 <= self.aspect_sigma < math.inf:
            raise ConfigurationError(f"aspect_sigma must be finite and >= 0, got {self.aspect_sigma}")
        if not -math.inf < self.class_zipf < math.inf:
            raise ConfigurationError(f"class_zipf must be finite, got {self.class_zipf}")
        if not 0 < self.area_min < self.area_max <= 1.0:
            raise ConfigurationError(
                f"area bounds must satisfy 0 < min < max <= 1, got "
                f"({self.area_min}, {self.area_max})"
            )
        if not self.area_min <= self.area_median <= self.area_max:
            raise ConfigurationError("area_median outside clip bounds")
        if self.max_objects < 1:
            raise ConfigurationError("max_objects must be >= 1")

    @property
    def count_p(self) -> float:
        """Negative-binomial success probability implied by the mean."""
        if self.mean_extra_objects == 0:
            return 1.0
        return self.count_dispersion / (self.count_dispersion + self.mean_extra_objects)


@dataclass(frozen=True)
class Scene:
    """One sampled scene: normalised boxes, labels, derived statistics."""

    boxes: np.ndarray
    labels: np.ndarray
    areas: np.ndarray = field(repr=False)

    @property
    def num_objects(self) -> int:
        """Number of objects in the scene."""
        return int(self.labels.shape[0])

    @property
    def min_area_ratio(self) -> float:
        """Smallest object area ratio (1.0 for an empty scene)."""
        return float(self.areas.min()) if self.areas.size else 1.0




def split_halves(draws: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split per-image ``2 * count`` draws into their two halves.

    ``draws`` concatenates, in image order, one ``rng.random(2 * count)``
    (or ``standard_normal``) call per image; image ``j`` with ``counts[j]``
    rows contributes ``[first half | second half]``.  Returns the first
    halves and the second halves, each one row per object.
    """
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    first = np.arange(starts.size, dtype=np.int64) + starts
    return draws[first], draws[first + np.repeat(counts, counts)]


def lognormal(log_median: float, sigma: float, normals: np.ndarray) -> np.ndarray:
    """``exp(log_median + sigma * z)``: what ``rng.normal(log_median, sigma)``
    followed by ``np.exp`` computes from the same standard-normal draws."""
    return np.exp(log_median + sigma * normals)


def place_boxes(widths: np.ndarray, heights: np.ndarray, uniforms: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Centre boxes of the given sizes uniformly so that each fits the unit square.

    ``uniforms`` holds every image's ``rng.random(2 * count)`` draw (the
    first half places centre x, the second centre y; see
    :func:`split_halves`).  ``lo + (hi - lo) * u`` is exactly what
    ``rng.uniform(lo, hi)`` computes from the same draw, so one flat pass
    reproduces per-image ``uniform`` calls bit for bit.
    """
    ux, uy = split_halves(uniforms, counts)
    half_w = widths / 2.0
    half_h = heights / 2.0
    cx = half_w + ((1.0 - half_w) - half_w) * ux
    cy = half_h + ((1.0 - half_h) - half_h) * uy
    return np.stack([cx - half_w, cy - half_h, cx + half_w, cy + half_h], axis=1)


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0)


class SceneDraws:
    """The scenes of one split: draws collected per image, boxes built once.

    :meth:`draw` takes one image's random draws from that image's generator,
    in a fixed order and with sizes that depend only on the image: the
    object count, ``standard_normal(count)`` for areas, ``random(count)``
    for labels, ``standard_normal(count)`` for aspect ratios and
    ``random(2 * count)`` for centres (the same draws ``rng.normal``,
    ``rng.choice(p=)`` and two array ``rng.uniform`` calls consume).  :meth:`scenes` then runs the arithmetic (log-normal areas
    and aspects, clipping, the overflow transfer, the label inverse CDF and
    centre placement) once over every drawn image.
    """

    def __init__(self, profile: SceneProfile, num_classes: int) -> None:
        if num_classes < 1:
            raise ConfigurationError("num_classes must be >= 1")
        self.profile = profile
        ranks = np.arange(1, num_classes + 1, dtype=np.float64)
        weights = ranks ** (-profile.class_zipf)
        # rng.choice(p=) draws random(count) and inverts this normalised CDF
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf
        self._counts: list[int] = []
        self._areas: list[np.ndarray] = []
        self._labels: list[np.ndarray] = []
        self._aspects: list[np.ndarray] = []
        self._centres: list[np.ndarray] = []

    def draw(self, rng: np.random.Generator) -> None:
        """Take one image's scene draws from ``rng``."""
        profile = self.profile
        if profile.mean_extra_objects == 0:
            count = 1
        else:
            extra = int(rng.negative_binomial(profile.count_dispersion, profile.count_p))
            count = min(1 + extra, profile.max_objects)
        self._counts.append(count)
        self._areas.append(rng.standard_normal(count))
        self._labels.append(rng.random(count))
        self._aspects.append(rng.standard_normal(count))
        self._centres.append(rng.random(2 * count))

    def scenes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(boxes, labels, offsets)`` of every drawn scene, in draw order.

        Boxes are normalised xyxy; image ``i`` owns rows
        ``offsets[i]:offsets[i + 1]``.
        """
        profile = self.profile
        counts = np.array(self._counts, dtype=np.int64)
        offsets = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        areas = np.clip(
            lognormal(np.log(profile.area_median), profile.area_sigma, _concat(self._areas)),
            profile.area_min,
            profile.area_max,
        )
        labels = self._cdf.searchsorted(_concat(self._labels), side="right").astype(np.int64)
        aspect = lognormal(0.0, profile.aspect_sigma, _concat(self._aspects))
        widths = np.sqrt(areas * aspect)
        heights = np.sqrt(areas / aspect)
        # If a side overflows the unit square, transfer extent to the other
        # side to preserve area, then clip.
        overflow_w = widths > 1.0
        heights[overflow_w] = np.minimum(areas[overflow_w], 1.0)
        widths[overflow_w] = 1.0
        overflow_h = heights > 1.0
        widths[overflow_h] = np.minimum(areas[overflow_h], 1.0)
        heights[overflow_h] = 1.0
        boxes = place_boxes(widths, heights, _concat(self._centres), counts)
        return boxes, labels, offsets


def sample_scene(profile: SceneProfile, num_classes: int, rng: np.random.Generator) -> Scene:
    """Draw one scene from ``profile``: the one-image case of :class:`SceneDraws`.

    The returned boxes are normalised xyxy within the unit square; labels are
    class indices drawn from the Zipf-tilted categorical distribution.
    """
    draws = SceneDraws(profile, num_classes)
    draws.draw(rng)
    boxes, labels, _ = draws.scenes()
    # Areas after placement can differ slightly from the sampled ones when a
    # box overflowed; recompute so Scene statistics match the boxes.
    areas = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    return Scene(boxes=boxes, labels=labels, areas=areas)
