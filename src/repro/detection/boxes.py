"""Axis-aligned bounding-box geometry.

Boxes are ``(N, 4)`` float arrays in ``xyxy`` order — ``(x_min, y_min, x_max,
y_max)`` — normalised to the unit square unless stated otherwise.  Normalised
coordinates make the *object area ratio* (the paper's second discriminator
feature) equal to the plain box area, which keeps the core code free of image
dimensions.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GeometryError

__all__ = [
    "as_boxes",
    "validate_boxes",
    "box_area",
    "clip_boxes",
    "iou_matrix",
    "pairwise_iou",
    "scale_boxes",
]


def as_boxes(boxes: np.ndarray | list | tuple) -> np.ndarray:
    """Coerce ``boxes`` to a float64 ``(N, 4)`` array.

    An empty input becomes a ``(0, 4)`` array so downstream vectorised code
    never needs an emptiness special case.
    """
    array = np.asarray(boxes, dtype=np.float64)
    if array.size == 0:
        return array.reshape(0, 4)
    if array.ndim == 1 and array.shape[0] == 4:
        array = array.reshape(1, 4)
    if array.ndim != 2 or array.shape[1] != 4:
        raise GeometryError(f"expected (N, 4) boxes, got shape {array.shape}")
    return array


def validate_boxes(boxes: np.ndarray, *, allow_empty: bool = True) -> np.ndarray:
    """Validate box well-formedness and return the coerced array.

    Raises :class:`~repro.errors.GeometryError` when a box has non-finite
    coordinates or inverted corners (``x_max < x_min`` or ``y_max < y_min``).
    Zero-width or zero-height boxes are accepted: they legitimately occur
    after clipping.
    """
    array = as_boxes(boxes)
    if array.shape[0] == 0:
        if allow_empty:
            return array
        raise GeometryError("empty box array where at least one box required")
    if not np.isfinite(array).all():
        raise GeometryError("boxes contain non-finite coordinates")
    inverted = (array[:, 2] < array[:, 0]) | (array[:, 3] < array[:, 1])
    if inverted.any():
        index = int(np.flatnonzero(inverted)[0])
        raise GeometryError(f"box {index} has inverted corners: {array[index]}")
    return array


def box_area(boxes: np.ndarray) -> np.ndarray:
    """Areas of ``(N, 4)`` xyxy boxes; degenerate boxes have area 0."""
    array = as_boxes(boxes)
    width = np.clip(array[:, 2] - array[:, 0], 0.0, None)
    height = np.clip(array[:, 3] - array[:, 1], 0.0, None)
    return width * height


def clip_boxes(boxes: np.ndarray, *, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """Clip box coordinates into ``[lo, hi]`` (the unit square by default)."""
    return np.clip(as_boxes(boxes), lo, hi)


def iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise intersection-over-union matrix of shape ``(len(a), len(b))``.

    Degenerate pairs (both boxes with zero area) produce an IoU of 0.
    """
    a = as_boxes(boxes_a)
    b = as_boxes(boxes_b)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((a.shape[0], b.shape[0]))
    lt = np.maximum(a[:, None, :2], b[None, :, :2])
    rb = np.minimum(a[:, None, 2:], b[None, :, 2:])
    wh = np.clip(rb - lt, 0.0, None)
    intersection = wh[:, :, 0] * wh[:, :, 1]
    union = box_area(a)[:, None] + box_area(b)[None, :] - intersection
    with np.errstate(divide="ignore", invalid="ignore"):
        iou = np.where(union > 0.0, intersection / union, 0.0)
    return iou


def pairwise_iou(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Element-wise IoU of two equally sized box arrays (shape ``(N,)``)."""
    a = as_boxes(boxes_a)
    b = as_boxes(boxes_b)
    if a.shape != b.shape:
        raise GeometryError(f"pairwise_iou requires equal shapes, got {a.shape} vs {b.shape}")
    if a.shape[0] == 0:
        return np.zeros(0)
    lt = np.maximum(a[:, :2], b[:, :2])
    rb = np.minimum(a[:, 2:], b[:, 2:])
    wh = np.clip(rb - lt, 0.0, None)
    intersection = wh[:, 0] * wh[:, 1]
    union = box_area(a) + box_area(b) - intersection
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union > 0.0, intersection / union, 0.0)


def scale_boxes(boxes: np.ndarray, width: float, height: float) -> np.ndarray:
    """Scale unit-square boxes to pixel coordinates of a ``width x height`` image."""
    array = as_boxes(boxes).copy()
    array[:, [0, 2]] *= float(width)
    array[:, [1, 3]] *= float(height)
    return array
