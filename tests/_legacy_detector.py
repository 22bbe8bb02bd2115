"""Verbatim per-image ``SimulatedDetector`` and per-record ``expected_recall`` (reference oracle).

This is the simulator as it was before detection and calibration became
columnar: ``detect`` built one :class:`Detections` per image and ran
``class_aware_nms`` on it, ``detect_split`` looped ``detect`` over the
records, and ``expected_recall`` looped ``detection_probability`` over the
records and summed each image's probabilities with ``p.sum()``.  It is kept
as the equality oracle for ``test_detector_equivalence.py``: the columnar
``detect_split``, ``detect`` and ``expected_recall`` are pinned *bit for
bit* against it.  Do not modernise this file; its value is that it does not
change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._rng import DEFAULT_SEED, generator_for
from repro.data.datasets import Dataset, ImageRecord
from repro.detection.boxes import clip_boxes
from repro.detection.nms import class_aware_nms
from repro.detection.types import Detections
from repro.errors import CalibrationError, ConfigurationError
from repro.simulate.profile import DetectorProfile

__all__ = ["LegacySimulatedDetector", "detection_probability", "expected_recall"]

#: Detection probability is capped here: no detector is perfect.
_MAX_DETECTION_PROBABILITY = 0.995


def detection_probability(
    profile: DetectorProfile,
    areas: np.ndarray,
    num_objects: int,
    quality: float = 1.0,
) -> np.ndarray:
    """Per-object detection probability under ``profile``.

    ``p = cap(base_recall * area_term * crowd_term * quality_term)`` with

    * ``area_term  = 1 / (1 + (area_half / area) ** area_gamma)``
    * ``crowd_term = 1 / (1 + (count / crowd_half) ** crowd_gamma)``
    * ``quality_term = quality ** quality_sensitivity``
    """
    areas = np.asarray(areas, dtype=np.float64).reshape(-1)
    if (areas <= 0.0).any():
        raise ConfigurationError("object areas must be positive")
    if num_objects < areas.shape[0]:
        raise ConfigurationError(f"num_objects={num_objects} smaller than the {areas.shape[0]} areas given")
    if not 0.0 < quality <= 1.0:
        raise ConfigurationError(f"quality must be in (0, 1], got {quality}")
    area_term = 1.0 / (1.0 + (profile.area_half / areas) ** profile.area_gamma)
    crowd_term = 1.0 / (1.0 + (num_objects / profile.crowd_half) ** profile.crowd_gamma)
    quality_term = quality**profile.quality_sensitivity
    raw = profile.base_recall * area_term * crowd_term * quality_term
    return np.clip(raw, 0.0, _MAX_DETECTION_PROBABILITY)


def expected_recall(profile: DetectorProfile, dataset: Dataset) -> float:
    """Mean per-object detection probability over a split (analytic)."""
    total_p = 0.0
    total_n = 0
    for record in dataset.records:
        truth = record.truth
        if len(truth) == 0:
            continue
        p = detection_probability(profile, truth.area_ratios, len(truth), record.quality)
        total_p += float(p.sum())
        total_n += len(truth)
    if total_n == 0:
        raise CalibrationError("dataset has no objects to calibrate on")
    return total_p / total_n


def served_scores(
    profile: DetectorProfile,
    difficulty: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Scores of served (>= 0.5) detections.

    ``difficulty`` is the per-object detection probability; easier objects
    (higher probability) receive higher scores on average, which is what
    makes the simulated PR curves decrease plausibly.
    """
    q = np.clip(np.asarray(difficulty, dtype=np.float64).reshape(-1), 0.05, 0.995)
    kappa = profile.score_sharpness
    alpha = 1.0 + kappa * q
    beta = 1.0 + kappa * (1.0 - q)
    return 0.5 + 0.4999 * rng.beta(alpha, beta)


def miss_scores(profile: DetectorProfile, count: int, rng: np.random.Generator) -> np.ndarray:
    """Scores of sub-threshold boxes for missed-but-visible objects."""
    return rng.uniform(profile.miss_score_lo, profile.miss_score_hi, size=count)


def noise_scores(profile: DetectorProfile, count: int, rng: np.random.Generator) -> np.ndarray:
    """Scores of spurious noise boxes: exponential, clipped to [0.01, 0.98]."""
    raw = 0.01 + rng.exponential(profile.fp_score_scale, size=count)
    return np.clip(raw, 0.01, 0.98)


def _jitter_boxes(boxes: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Perturb box centres and sizes by relative Gaussian noise."""
    if boxes.shape[0] == 0 or sigma <= 0.0:
        return boxes.copy()
    widths = boxes[:, 2] - boxes[:, 0]
    heights = boxes[:, 3] - boxes[:, 1]
    cx = (boxes[:, 0] + boxes[:, 2]) / 2.0 + rng.normal(0.0, sigma, boxes.shape[0]) * widths
    cy = (boxes[:, 1] + boxes[:, 3]) / 2.0 + rng.normal(0.0, sigma, boxes.shape[0]) * heights
    scale_w = np.exp(rng.normal(0.0, sigma, boxes.shape[0]))
    scale_h = np.exp(rng.normal(0.0, sigma, boxes.shape[0]))
    half_w = widths * scale_w / 2.0
    half_h = heights * scale_h / 2.0
    jittered = np.stack([cx - half_w, cy - half_h, cx + half_w, cy + half_h], axis=1)
    return clip_boxes(jittered)


def _random_fp_boxes(count: int, rng: np.random.Generator) -> np.ndarray:
    """Small random boxes for noise detections."""
    if count == 0:
        return np.zeros((0, 4))
    areas = np.exp(rng.normal(np.log(0.01), 1.0, size=count))
    areas = np.clip(areas, 5e-4, 0.2)
    aspect = np.exp(rng.normal(0.0, 0.4, size=count))
    widths = np.minimum(np.sqrt(areas * aspect), 0.95)
    heights = np.minimum(np.sqrt(areas / aspect), 0.95)
    cx = rng.uniform(widths / 2.0, 1.0 - widths / 2.0)
    cy = rng.uniform(heights / 2.0, 1.0 - heights / 2.0)
    return np.stack(
        [cx - widths / 2.0, cy - heights / 2.0, cx + widths / 2.0, cy + heights / 2.0],
        axis=1,
    )


@dataclass(frozen=True)
class LegacySimulatedDetector:
    """A deterministic simulated detector.

    Parameters
    ----------
    profile:
        The capability profile (usually produced by
        :mod:`repro.simulate.presets` with a calibrated ``base_recall``).
    num_classes:
        Class vocabulary size of the dataset the detector is "trained" on.
    seed:
        Experiment seed; detections depend only on
        ``(seed, profile.name, image_id)``.
    """

    profile: DetectorProfile
    num_classes: int
    seed: int = DEFAULT_SEED

    @property
    def name(self) -> str:
        """Detector name (the profile's name)."""
        return self.profile.name

    def detect(self, record: ImageRecord) -> Detections:
        """Run the detector on one image record."""
        profile = self.profile
        truth = record.truth
        rng = generator_for(self.seed, "detect", profile.name, truth.image_id)

        areas = truth.area_ratios
        count = len(truth)
        boxes_parts: list[np.ndarray] = []
        scores_parts: list[np.ndarray] = []
        labels_parts: list[np.ndarray] = []

        if count:
            p = detection_probability(profile, areas, count, record.quality)
            detected = rng.uniform(size=count) < p

            det_idx = np.flatnonzero(detected)
            if det_idx.size:
                det_boxes = _jitter_boxes(truth.boxes[det_idx], profile.loc_sigma, rng)
                det_scores = served_scores(profile, p[det_idx], rng)
                det_labels = truth.labels[det_idx].copy()
                confused = rng.uniform(size=det_idx.size) < profile.class_confusion
                if confused.any() and self.num_classes > 1:
                    shift = rng.integers(1, self.num_classes, size=int(confused.sum()))
                    det_labels[confused] = (det_labels[confused] + shift) % self.num_classes
                boxes_parts.append(det_boxes)
                scores_parts.append(det_scores)
                labels_parts.append(det_labels)

            miss_idx = np.flatnonzero(~detected)
            if miss_idx.size:
                visible = rng.uniform(size=miss_idx.size) < profile.miss_visibility
                vis_idx = miss_idx[visible]
                if vis_idx.size:
                    vis_boxes = _jitter_boxes(truth.boxes[vis_idx], profile.loc_sigma * 1.5, rng)
                    vis_scores = miss_scores(profile, vis_idx.size, rng)
                    boxes_parts.append(vis_boxes)
                    scores_parts.append(vis_scores)
                    labels_parts.append(truth.labels[vis_idx].copy())

        num_fp = int(rng.poisson(profile.fp_rate))
        if num_fp:
            boxes_parts.append(_random_fp_boxes(num_fp, rng))
            scores_parts.append(noise_scores(profile, num_fp, rng))
            labels_parts.append(rng.integers(0, self.num_classes, size=num_fp).astype(np.int64))

        if not boxes_parts:
            return Detections.empty(truth.image_id, detector=profile.name)
        raw = Detections(
            image_id=truth.image_id,
            boxes=np.concatenate(boxes_parts, axis=0),
            scores=np.concatenate(scores_parts),
            labels=np.concatenate(labels_parts),
            detector=profile.name,
        )
        return class_aware_nms(raw)

    def detect_split(self, dataset: Dataset) -> list[Detections]:
        """Run the detector over every record of a split, in order."""
        return [self.detect(record) for record in dataset.records]
