"""Containers passed between the substrates and the core system.

Two immutable-by-convention dataclasses flow through the whole library:

* :class:`GroundTruth` — the annotation of one image (what *is* there),
* :class:`Detections` — the output of one detector on one image (what a
  model *claims* is there).

Both hold normalised ``xyxy`` boxes so areas are area *ratios* directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.detection.boxes import box_area, validate_boxes
from repro.errors import GeometryError

__all__ = ["GroundTruth", "Detections"]


def _as_int_labels(labels: np.ndarray | list, count: int, what: str) -> np.ndarray:
    array = np.asarray(labels, dtype=np.int64).reshape(-1)
    if array.shape[0] != count:
        raise GeometryError(f"{what}: got {array.shape[0]} labels for {count} boxes")
    return array


@dataclass(frozen=True)
class GroundTruth:
    """Annotation of a single image.

    Attributes
    ----------
    image_id:
        Stable identifier of the image inside its dataset split.
    boxes:
        ``(N, 4)`` normalised xyxy boxes.
    labels:
        ``(N,)`` integer class indices.
    width, height:
        Pixel dimensions of the underlying image (used only by the renderer
        and the transfer-size model; the geometry is resolution free).
    """

    image_id: str
    boxes: np.ndarray
    labels: np.ndarray
    width: int = 500
    height: int = 375

    def __post_init__(self) -> None:
        boxes = validate_boxes(self.boxes)
        labels = _as_int_labels(self.labels, boxes.shape[0], "GroundTruth")
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return int(self.boxes.shape[0])

    @property
    def num_objects(self) -> int:
        """Number of annotated objects."""
        return len(self)

    @property
    def area_ratios(self) -> np.ndarray:
        """Per-object area as a fraction of the image area."""
        return box_area(self.boxes)

    @property
    def min_area_ratio(self) -> float:
        """The paper's second semantic feature: the smallest object's area
        ratio.  Defined as 1.0 for an empty image (nothing can be missed)."""
        areas = self.area_ratios
        return float(areas.min()) if areas.size else 1.0


@dataclass(frozen=True)
class Detections:
    """Scored class predictions of one detector on one image.

    Boxes are sorted by descending score at construction time, which every
    consumer (NMS, counting, top-1-confidence baseline) relies on.
    """

    image_id: str
    boxes: np.ndarray
    scores: np.ndarray
    labels: np.ndarray
    detector: str = "unknown"
    extras: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        boxes = validate_boxes(self.boxes)
        count = boxes.shape[0]
        scores = np.asarray(self.scores, dtype=np.float64).reshape(-1)
        if scores.shape[0] != count:
            raise GeometryError(f"Detections: got {scores.shape[0]} scores for {count} boxes")
        if count and (not np.isfinite(scores).all()):
            raise GeometryError("Detections: scores contain non-finite values")
        if count and ((scores < 0.0).any() or (scores > 1.0).any()):
            raise GeometryError("Detections: scores must lie in [0, 1]")
        labels = _as_int_labels(self.labels, count, "Detections")
        order = np.argsort(-scores, kind="stable")
        object.__setattr__(self, "boxes", boxes[order])
        object.__setattr__(self, "scores", scores[order])
        object.__setattr__(self, "labels", labels[order])

    def __len__(self) -> int:
        return int(self.boxes.shape[0])

    @classmethod
    def empty(cls, image_id: str, detector: str = "unknown") -> "Detections":
        """A detections object with no boxes."""
        return cls(
            image_id=image_id,
            boxes=np.zeros((0, 4)),
            scores=np.zeros(0),
            labels=np.zeros(0, dtype=np.int64),
            detector=detector,
        )

    def above(self, threshold: float) -> "Detections":
        """Detections whose score is ``>= threshold`` (the serving filter)."""
        keep = self.scores >= threshold
        return replace(
            self,
            boxes=self.boxes[keep],
            scores=self.scores[keep],
            labels=self.labels[keep],
        )

    def count_above(self, threshold: float) -> int:
        """Number of boxes scoring ``>= threshold``."""
        return int(np.count_nonzero(self.scores >= threshold))

    def min_area_above(self, threshold: float) -> float:
        """Smallest area ratio among boxes scoring ``>= threshold``.

        Returns 1.0 when no box passes — consistent with
        :attr:`GroundTruth.min_area_ratio` for empty images.
        """
        keep = self.scores >= threshold
        if not keep.any():
            return 1.0
        return float(box_area(self.boxes[keep]).min())
