"""Non-maximum suppression and score filtering.

The simulated detectors emit raw per-object boxes plus noise boxes; NMS is
applied per class exactly as a real SSD/YOLO post-processing stage would, so
duplicate suppression behaviour (and its failure modes) are part of the
pipeline rather than assumed away.
"""

from __future__ import annotations

import numpy as np

from repro.detection.boxes import iou_matrix, pairwise_iou
from repro.detection.types import Detections
from repro.errors import ConfigurationError

__all__ = ["nms_indices", "grouped_nms_keep", "class_aware_nms"]


def nms_indices(boxes: np.ndarray, scores: np.ndarray, iou_threshold: float) -> np.ndarray:
    """Greedy NMS over one class.

    Returns the indices of kept boxes, ordered by descending score.  Ties are
    broken by original index for determinism.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ConfigurationError(f"iou_threshold must be in [0, 1], got {iou_threshold}")
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    count = boxes.shape[0]
    if count == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(-scores, kind="stable")
    iou = iou_matrix(boxes, boxes)
    suppressed = np.zeros(count, dtype=bool)
    keep: list[int] = []
    for idx in order:
        if suppressed[idx]:
            continue
        keep.append(int(idx))
        suppressed |= iou[idx] > iou_threshold
        suppressed[idx] = True
    return np.asarray(keep, dtype=np.int64)


def grouped_nms_keep(
    boxes: np.ndarray,
    labels: np.ndarray,
    images: np.ndarray,
    iou_threshold: float = 0.45,
) -> np.ndarray:
    """Keep mask of greedy NMS run independently within every (image, label) group.

    Rows must already be in processing order — descending score within each
    image, ties in their original order — as every :class:`Detections` and
    :class:`~repro.detection.batch.DetectionBatch` segment is.  The greedy
    pass is evaluated one rank at a time across all groups: at rank ``r``
    each group's ``r``-th box, if nothing suppressed it, suppresses the
    later boxes of its group that overlap it by more than ``iou_threshold``.
    The result is bit for bit what :func:`nms_indices` keeps group by group.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ConfigurationError(f"iou_threshold must be in [0, 1], got {iou_threshold}")
    count = boxes.shape[0]
    keep = np.ones(count, dtype=bool)
    if count < 2:
        return keep
    # Stable, so each group stays in processing order.
    order = np.lexsort((labels, images))
    grouped_labels = labels[order]
    grouped_images = images[order]
    first = np.ones(count, dtype=bool)
    first[1:] = (grouped_labels[1:] != grouped_labels[:-1]) | (grouped_images[1:] != grouped_images[:-1])
    starts = np.flatnonzero(first)
    ends = np.append(starts[1:], count)
    contested = ends - starts > 1
    leaders, ends = starts[contested], ends[contested]
    grouped_boxes = boxes[order]
    suppressed = np.zeros(count, dtype=bool)
    while leaders.size:
        live = ~suppressed[leaders]
        rivals = ends[live] - leaders[live] - 1
        firsts = np.repeat(leaders[live], rivals)
        seconds = firsts + 1 + np.arange(int(rivals.sum())) - np.repeat(np.cumsum(rivals) - rivals, rivals)
        overlapping = pairwise_iou(grouped_boxes[firsts], grouped_boxes[seconds]) > iou_threshold
        suppressed[seconds[overlapping]] = True
        leaders = leaders + 1
        remaining = leaders + 1 < ends
        leaders, ends = leaders[remaining], ends[remaining]
    keep[order] = ~suppressed
    return keep


def class_aware_nms(detections: Detections, iou_threshold: float = 0.45) -> Detections:
    """Apply greedy NMS independently within each predicted class.

    This mirrors SSD's deployment-time post-processing (per-class NMS with an
    IoU threshold of 0.45).
    """
    if len(detections) == 0:
        return detections
    keep_mask = grouped_nms_keep(
        detections.boxes,
        detections.labels,
        np.zeros(len(detections), dtype=np.int64),
        iou_threshold,
    )
    return Detections(
        image_id=detections.image_id,
        boxes=detections.boxes[keep_mask],
        scores=detections.scores[keep_mask],
        labels=detections.labels[keep_mask],
        detector=detections.detector,
        extras=detections.extras,
    )
