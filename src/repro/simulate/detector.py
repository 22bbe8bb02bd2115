"""The simulated detector: profile + images -> class-scored boxes.

Detections are a *pure function* of ``(seed, profile name, image id)``:
running the small model during discrimination and again during evaluation
yields identical boxes, exactly like a deterministic neural network.  All
downstream numbers (mAP, counts, difficult-case labels, baselines) are
measured from these boxes with the real VOC evaluator.

A split is detected in one columnar pass.  Only the random draws stay per
image: each image draws from its own stream, the one ``generator_for(seed,
"detect", name, image_id)`` returns, in a fixed order and with sizes that
depend only on that image.  The split's streams are seeded in one pass by
``generators_for``.  The arithmetic on the draws (box jitter, noise-box
placement, shared with scene generation, scores, label confusion), the
per-image score sort and class-aware greedy NMS run once over the split's
flat arrays.  :meth:`SimulatedDetector.detect` is the one-image case of
the same pass.  The pass reads nothing but the split's ground-truth batch
and each image's quality (:func:`split_columns`), so an image span's inputs
travel to a worker process as a few flat arrays
(:meth:`SimulatedDetector.detect_columns`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro._rng import DEFAULT_SEED, generators_for
from repro.data.datasets import Dataset, ImageRecord
from repro.data.scene import lognormal, place_boxes, split_halves
from repro.detection.batch import DetectionBatch, GroundTruthBatch
from repro.detection.boxes import clip_boxes
from repro.detection.nms import grouped_nms_keep
from repro.detection.types import Detections
from repro.simulate.confidence import miss_scores, noise_from_exponential, served_beta, served_from_beta
from repro.simulate.profile import DetectorProfile, capped_probability, probability_terms

__all__ = ["SimulatedDetector", "split_columns"]


def _jitter_draws(sigma: float, count: int, rng: np.random.Generator, out: tuple[list, list, list, list]) -> None:
    """Draw one image's relative Gaussian box noise: centre x, centre y, log
    width scale, log height scale, ``count`` each (nothing when ``sigma`` is 0)."""
    if sigma > 0.0:
        for part in out:
            part.append(rng.normal(0.0, sigma, count))


def _jittered(boxes: np.ndarray, draws: tuple[list, list, list, list]) -> np.ndarray:
    """Perturb box centres and sizes by the collected :func:`_jitter_draws`;
    boxes pass through unchanged when nothing was drawn."""
    if not draws[0]:
        return boxes
    dx, dy, dw, dh = (np.concatenate(part) for part in draws)
    widths = boxes[:, 2] - boxes[:, 0]
    heights = boxes[:, 3] - boxes[:, 1]
    cx = (boxes[:, 0] + boxes[:, 2]) / 2.0 + dx * widths
    cy = (boxes[:, 1] + boxes[:, 3]) / 2.0 + dy * heights
    half_w = widths * np.exp(dw) / 2.0
    half_h = heights * np.exp(dh) / 2.0
    return clip_boxes(np.stack([cx - half_w, cy - half_h, cx + half_w, cy + half_h], axis=1))


def _noise_boxes(normals: np.ndarray, uniforms: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Small random boxes for noise detections, from each noisy image's
    ``standard_normal(2 * n)`` (log area, then log aspect) and
    ``random(2 * n)`` (centres) draws; ``counts`` holds every image's ``n``."""
    area_z, aspect_z = split_halves(normals, counts)
    areas = np.clip(lognormal(np.log(0.01), 1.0, area_z), 5e-4, 0.2)
    aspect = lognormal(0.0, 0.4, aspect_z)
    widths = np.minimum(np.sqrt(areas * aspect), 0.95)
    heights = np.minimum(np.sqrt(areas / aspect), 0.95)
    return place_boxes(widths, heights, uniforms, counts)


def _concat(parts: list, dtype=np.float64) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)


def split_columns(
    split: Dataset | Sequence[ImageRecord],
    span: tuple[int, int] | None = None,
) -> tuple[GroundTruthBatch, np.ndarray]:
    """The detector's inputs for a split, or for its ``[lo, hi)`` image span:
    the ground-truth batch and every image's quality.

    A dataset's cached truth batch is sliced in place; a plain record
    sequence is flattened.
    """
    records = split.records if isinstance(split, Dataset) else split
    lo, hi = span if span is not None else (0, len(records))
    records = records[lo:hi]
    if isinstance(split, Dataset):
        truths = split.truth_batch.span(lo, hi)
    else:
        truths = GroundTruthBatch.from_truths([record.truth for record in records])
    qualities = np.fromiter((record.quality for record in records), dtype=np.float64, count=len(records))
    return truths, qualities


@dataclass(frozen=True)
class SimulatedDetector:
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
        return self.detect_split([record]).view(0)

    def detect_split(self, dataset: Dataset | Sequence[ImageRecord]) -> DetectionBatch:
        """Run the detector over every record of a split (or a record
        sequence), in order, into one batch."""
        return self.detect_columns(*split_columns(dataset))

    def detect_columns(self, truths: GroundTruthBatch, qualities: np.ndarray) -> DetectionBatch:
        """Run the detector over the images of ``truths`` with the given
        per-image qualities — everything a split's detections depend on."""
        profile = self.profile
        classes = self.num_classes
        p = capped_probability(profile.base_recall, probability_terms(profile, truths, qualities))
        alpha, beta = served_beta(profile, p)
        vis_sigma = profile.loc_sigma * 1.5

        # Per-image draws, collected in image order.  Row indices address
        # the split's flat object arrays.
        det_rows: list[np.ndarray] = []
        det_jitter: tuple[list, list, list, list] = ([], [], [], [])
        det_beta: list[np.ndarray] = []
        confused_at: list[np.ndarray] = []
        shifts: list[np.ndarray] = []
        vis_rows: list[np.ndarray] = []
        vis_jitter: tuple[list, list, list, list] = ([], [], [], [])
        vis_scores: list[np.ndarray] = []
        fp_normals: list[np.ndarray] = []
        fp_uniforms: list[np.ndarray] = []
        fp_draws: list[np.ndarray] = []
        fp_labels: list[np.ndarray] = []
        fp_counts = np.zeros(len(truths), dtype=np.int64)
        detected_so_far = 0
        offsets = truths.offsets.tolist()
        rngs = generators_for(self.seed, "detect", profile.name, ids=truths.image_ids)
        for index, rng in enumerate(rngs):
            lo, hi = offsets[index], offsets[index + 1]
            if hi > lo:
                detected = rng.uniform(size=hi - lo) < p[lo:hi]
                det = np.flatnonzero(detected) + lo
                if det.size:
                    _jitter_draws(profile.loc_sigma, det.size, rng, det_jitter)
                    det_beta.append(rng.beta(alpha[det], beta[det]))
                    confused = rng.uniform(size=det.size) < profile.class_confusion
                    if confused.any() and classes > 1:
                        confused_at.append(np.flatnonzero(confused) + detected_so_far)
                        shifts.append(rng.integers(1, classes, size=int(confused.sum())))
                    det_rows.append(det)
                    detected_so_far += det.size
                miss = np.flatnonzero(~detected)
                if miss.size:
                    visible = rng.uniform(size=miss.size) < profile.miss_visibility
                    vis = miss[visible] + lo
                    if vis.size:
                        _jitter_draws(vis_sigma, vis.size, rng, vis_jitter)
                        vis_scores.append(miss_scores(profile, vis.size, rng))
                        vis_rows.append(vis)
            num_fp = int(rng.poisson(profile.fp_rate))
            if num_fp:
                fp_normals.append(rng.standard_normal(2 * num_fp))
                fp_uniforms.append(rng.random(2 * num_fp))
                fp_draws.append(rng.exponential(profile.fp_score_scale, size=num_fp))
                fp_labels.append(rng.integers(0, classes, size=num_fp))
                fp_counts[index] = num_fp

        # Split-level arithmetic, rows category-major: detected, visible
        # misses, noise — each image's rows in that order, as one image's
        # detector concatenates them.
        owner = truths.image_indices()
        det_all = _concat(det_rows, np.int64)
        labels = truths.labels[det_all]
        if shifts:
            at = np.concatenate(confused_at)
            labels[at] = (labels[at] + np.concatenate(shifts)) % classes
        vis_all = _concat(vis_rows, np.int64)
        jittered = [_jittered(truths.boxes[det_all], det_jitter), _jittered(truths.boxes[vis_all], vis_jitter)]
        fp_boxes = _noise_boxes(_concat(fp_normals), _concat(fp_uniforms), fp_counts)
        boxes = np.concatenate(jittered + [fp_boxes])
        scores = np.concatenate(
            [served_from_beta(_concat(det_beta)), _concat(vis_scores), noise_from_exponential(_concat(fp_draws))]
        )
        labels = np.concatenate([labels, truths.labels[vis_all], _concat(fp_labels, np.int64)])
        images = np.concatenate(
            [owner[det_all], owner[vis_all], np.repeat(np.arange(len(truths), dtype=np.int64), fp_counts)]
        )

        # Stable per-image score sort: ties keep the category-major order.
        order = np.lexsort((-scores, images))
        boxes, scores, labels, images = boxes[order], scores[order], labels[order], images[order]
        keep = grouped_nms_keep(boxes, labels, images)
        offsets = np.zeros(len(truths) + 1, dtype=np.int64)
        np.cumsum(np.bincount(images[keep], minlength=len(truths)), out=offsets[1:])
        return DetectionBatch(
            image_ids=truths.image_ids,
            boxes=boxes[keep],
            scores=scores[keep],
            labels=labels[keep],
            offsets=offsets,
            detector=profile.name,
        )
