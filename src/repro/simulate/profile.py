"""Detector capability profiles.

A :class:`DetectorProfile` is the statistical stand-in for a trained
detector's weights: it determines, per object, the probability that the
detector finds the object, how confident it is, how tight its boxes are and
how much noise it emits.  The functional form encodes the paper's own
analysis (Sec. IV.B / Fig. 4):

* detection probability *falls with the object's area ratio* — small models,
  having lost the 38x38 feature map (66 % of the default boxes), degrade
  much earlier than the big model;
* detection probability *falls with scene crowding* — fewer default boxes
  also means crowded images lose objects;
* degraded imagery (blur, low light) lowers detection probability through
  the profile's quality sensitivity.

Everything downstream — mAP, detected-object counts, difficult-case labels —
is *measured* from the boxes these profiles emit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.detection.batch import GroundTruthBatch
from repro.detection.boxes import box_area
from repro.errors import ConfigurationError

__all__ = ["DetectorProfile", "capped_probability", "detection_probability", "probability_terms"]

#: Detection probability is capped here: no detector is perfect.
_MAX_DETECTION_PROBABILITY = 0.995


@dataclass(frozen=True)
class DetectorProfile:
    """Capability parameters of one simulated detector.

    Attributes
    ----------
    name:
        Identifier; detections are deterministic in ``(seed, name, image)``.
    base_recall:
        Capability scale.  Values above 1 saturate large easy objects at the
        cap — the signature of a strong model.  This is the single knob the
        calibration module solves for.
    area_half:
        Object area ratio at which detection probability halves.  Small
        models have large values (they miss small objects early); big models
        have tiny values.
    area_gamma:
        Steepness of the area response (in log-area).
    crowd_half:
        Scene object count at which the crowding factor halves.
    crowd_gamma:
        Steepness of the crowding response.
    quality_sensitivity:
        Exponent translating image quality (0, 1] into a recall penalty.
    loc_sigma:
        Localisation noise: relative jitter of box centre and size.
    miss_visibility:
        Probability that a *missed* object still emits a sub-threshold box —
        the Fig. 6 phenomenon (the missed dog still scored 0.2507).  This is
        the signal the discriminator's noise-filter threshold taps.
    miss_score_lo / miss_score_hi:
        Score range of those sub-threshold boxes.
    score_sharpness:
        Concentration of served-detection scores around the object's
        difficulty (higher = better-ranked PR curves).
    fp_rate:
        Poisson mean of spurious noise boxes per image.
    fp_score_scale:
        Exponential scale of noise-box scores (most score far below 0.5).
    class_confusion:
        Probability that a detected object is reported with a wrong label.
    """

    name: str
    base_recall: float = 1.0
    area_half: float = 0.02
    area_gamma: float = 1.2
    crowd_half: float = 12.0
    crowd_gamma: float = 1.6
    quality_sensitivity: float = 1.0
    loc_sigma: float = 0.05
    miss_visibility: float = 0.75
    miss_score_lo: float = 0.10
    miss_score_hi: float = 0.45
    score_sharpness: float = 5.0
    fp_rate: float = 0.7
    fp_score_scale: float = 0.06
    class_confusion: float = 0.03

    def __post_init__(self) -> None:
        # Every check is written ``not <valid range>`` so NaN fails it too:
        # one NaN parameter would otherwise spread through every object row.
        if not 0.0 < self.base_recall < math.inf:
            raise ConfigurationError(f"base_recall must be finite and > 0, got {self.base_recall}")
        if not (0.0 < self.area_half < math.inf and 0.0 < self.area_gamma < math.inf):
            raise ConfigurationError("area response parameters must be finite and > 0")
        if not (0.0 < self.crowd_half < math.inf and 0.0 < self.crowd_gamma < math.inf):
            raise ConfigurationError("crowd response parameters must be finite and > 0")
        if not 0.0 <= self.quality_sensitivity < math.inf:
            raise ConfigurationError(f"quality_sensitivity must be finite and >= 0, got {self.quality_sensitivity}")
        if not 0.0 <= self.loc_sigma < math.inf:
            raise ConfigurationError(f"loc_sigma must be finite and >= 0, got {self.loc_sigma}")
        if not 0.0 <= self.miss_visibility <= 1.0:
            raise ConfigurationError("miss_visibility must be in [0, 1]")
        if not 0.0 < self.miss_score_lo < self.miss_score_hi < 0.5:
            raise ConfigurationError("miss score range must satisfy 0 < lo < hi < 0.5 (sub-threshold)")
        if not 0.0 <= self.score_sharpness < math.inf:
            raise ConfigurationError(f"score_sharpness must be finite and >= 0, got {self.score_sharpness}")
        if not (0.0 <= self.fp_rate < math.inf and 0.0 < self.fp_score_scale < math.inf):
            raise ConfigurationError("false-positive parameters out of range")
        if not 0.0 <= self.class_confusion < 1.0:
            raise ConfigurationError("class_confusion must be in [0, 1)")

    def with_base_recall(self, base_recall: float) -> "DetectorProfile":
        """A copy with a different capability scale (used by calibration)."""
        return replace(self, base_recall=base_recall)


def _per_value(fn, values):
    """``fn`` of each distinct value in Python scalar arithmetic, gathered
    back per element (a scalar stays a scalar).

    The crowd and quality factors use this instead of a vector ``**``:
    numpy's SIMD ``power`` can differ from the scalar ``pow`` of the
    one-image form in the last ulp, and there are few distinct values.
    """
    if np.ndim(values) == 0:
        return fn(values)
    distinct, inverse = np.unique(values, return_inverse=True)
    return np.array([fn(value) for value in distinct.tolist()], dtype=np.float64)[inverse]


def _terms(
    profile: DetectorProfile,
    areas: np.ndarray,
    num_objects,
    quality,
) -> tuple[np.ndarray, np.ndarray | float, np.ndarray | float]:
    """Area, crowd and quality factors, one row per object; ``num_objects``
    and ``quality`` are scalars for one image or per-object columns."""
    area_term = 1.0 / (1.0 + (profile.area_half / areas) ** profile.area_gamma)
    crowd_term = _per_value(
        lambda count: 1.0 / (1.0 + (count / profile.crowd_half) ** profile.crowd_gamma), num_objects
    )
    quality_term = _per_value(lambda value: value**profile.quality_sensitivity, quality)
    return area_term, crowd_term, quality_term


def capped_probability(base_recall: float, terms: tuple) -> np.ndarray:
    """``cap(base_recall * area_term * crowd_term * quality_term)`` from the
    factors of :func:`probability_terms` — the only part that depends on the
    capability scale, so calibration probes re-run just this."""
    area_term, crowd_term, quality_term = terms
    return np.clip(base_recall * area_term * crowd_term * quality_term, 0.0, _MAX_DETECTION_PROBABILITY)


def probability_terms(
    profile: DetectorProfile,
    truths: GroundTruthBatch,
    qualities: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The factors of :func:`detection_probability` for every object of a split.

    ``truths`` holds the split's annotations and ``qualities`` each image's
    quality; each image's object count is its crowding count.  Returns flat
    per-object columns, bit for bit what :func:`detection_probability` gives
    image by image, with its area and quality checks run as array passes
    (the count check holds by construction).
    """
    areas = box_area(truths.boxes)
    if (areas <= 0.0).any():
        raise ConfigurationError("object areas must be positive")
    counts = truths.counts()
    qualities = np.asarray(qualities, dtype=np.float64).reshape(-1)[counts > 0]
    valid = (0.0 < qualities) & (qualities <= 1.0)
    if not valid.all():
        raise ConfigurationError(f"quality must be in (0, 1], got {qualities[~valid][0]}")
    occupied = counts[counts > 0]
    return _terms(profile, areas, np.repeat(occupied, occupied), np.repeat(qualities, occupied))


def detection_probability(
    profile: DetectorProfile,
    areas: np.ndarray,
    num_objects: int,
    quality: float = 1.0,
) -> np.ndarray:
    """Per-object detection probability under ``profile`` for one image.

    ``p = cap(base_recall * area_term * crowd_term * quality_term)`` with

    * ``area_term  = 1 / (1 + (area_half / area) ** area_gamma)``
    * ``crowd_term = 1 / (1 + (count / crowd_half) ** crowd_gamma)``
    * ``quality_term = quality ** quality_sensitivity``

    :func:`probability_terms` computes the same factors for a whole split.
    """
    areas = np.asarray(areas, dtype=np.float64).reshape(-1)
    if (areas <= 0.0).any():
        raise ConfigurationError("object areas must be positive")
    if num_objects < areas.shape[0]:
        raise ConfigurationError(f"num_objects={num_objects} smaller than the {areas.shape[0]} areas given")
    if not 0.0 < quality <= 1.0:
        raise ConfigurationError(f"quality must be in (0, 1], got {quality}")
    return capped_probability(profile.base_recall, _terms(profile, areas, num_objects, quality))
