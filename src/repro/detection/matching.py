"""Greedy matching of detections to ground truth.

This is the standard PASCAL VOC protocol: detections are visited in order of
descending score; each claims the highest-IoU unclaimed ground-truth box of
the same class, provided the IoU reaches :data:`IOU_THRESHOLD` (0.5).  The
result drives both the AP computation and the paper's "number of detected
objects" metric.

:func:`greedy_match_segments` is the one matcher: detections only contend
for ground-truth boxes of their own image, so one block-diagonal pass over
every (image, detection, ground-truth) pair matches a whole split, or every
frame of a stream, at once.  Split mAP, detected-object counting and
rolling stream evaluation all use it.
"""

from __future__ import annotations

import numpy as np

from repro.detection.batch import DetectionBatch, GroundTruthBatch
from repro.detection.boxes import pairwise_iou

__all__ = ["IOU_THRESHOLD", "greedy_match_segments"]

#: The VOC overlap a detection needs to claim a ground-truth box.
IOU_THRESHOLD = 0.5


def greedy_match_segments(
    detections: DetectionBatch,
    det_starts: np.ndarray,
    det_counts: np.ndarray,
    truth: GroundTruthBatch,
    records: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Class-aware greedy VOC matching of many images in one pass.

    Image ``i`` matches rows ``det_starts[i] : det_starts[i] +
    det_counts[i]`` of ``detections`` (score-descending, as batch segments
    are) against the annotation of image ``records[i]`` of ``truth``.
    Returns ``(image_tp, row_tp)``: per-image true-positive counts and
    per-row true-positive flags over ``detections``.

    One block-diagonal pass over every (image, detection, ground-truth)
    candidate pair matches each image exactly as a per-image greedy loop
    would: an image's detections visit in segment order, each claims the
    highest-IoU unclaimed same-class ground-truth box at or above
    :data:`IOU_THRESHOLD`, first index winning ties.  Candidate pairs are
    prefiltered to same-class-and-above-threshold, which cannot change the
    greedy outcome (below-threshold or claimed-and-zeroed candidates never
    claim, since the threshold is positive).

    Because detections of different images never contend for the same
    ground-truth box, the flags are the same whether images are scored
    alone, pooled per class across a window (the AP protocol) or summed in
    segment order (the counting protocol).
    """
    num_images = int(det_counts.shape[0])
    image_tp = np.zeros(num_images, dtype=np.int64)
    row_tp = np.zeros(detections.scores.shape[0], dtype=bool)
    gt_counts = truth.counts()[records]
    active = np.flatnonzero((det_counts > 0) & (gt_counts > 0))
    if active.size == 0:
        return image_tp, row_tp
    active_gt = gt_counts[active]
    pair_counts = det_counts[active] * active_gt
    total = int(pair_counts.sum())
    bases = np.zeros(active.size, dtype=np.int64)
    np.cumsum(pair_counts[:-1], out=bases[1:])
    local = np.arange(total, dtype=np.int64) - np.repeat(bases, pair_counts)
    gc_rep = np.repeat(active_gt, pair_counts)
    det_local = local // gc_rep
    gt_local = local % gc_rep
    det_rows = np.repeat(det_starts[active], pair_counts) + det_local
    gt_rows = np.repeat(truth.offsets[:-1][records[active]], pair_counts) + gt_local
    iou = pairwise_iou(detections.boxes[det_rows], truth.boxes[gt_rows])
    ok = (detections.labels[det_rows] == truth.labels[gt_rows]) & (iou >= IOU_THRESHOLD)
    candidates = np.flatnonzero(ok)
    if candidates.size == 0:
        return image_tp, row_tp
    pair_image = np.repeat(np.arange(active.size, dtype=np.int64), pair_counts)
    cand_image = pair_image[candidates].tolist()
    cand_det = det_local[candidates].tolist()
    cand_gt = gt_local[candidates].tolist()
    cand_row = det_rows[candidates].tolist()
    cand_iou = iou[candidates].tolist()
    counts = [0] * int(active.size)
    claimed: set[tuple[int, int]] = set()
    num_pairs = len(cand_image)
    index = 0
    while index < num_pairs:
        image = cand_image[index]
        det = cand_det[index]
        row = cand_row[index]
        best_iou = 0.0
        best_gt = -1
        # candidates are ordered (image, det, gt) ascending, so strict ">"
        # keeps the lowest gt index on IoU ties — argmax's tie-break
        while index < num_pairs and cand_image[index] == image and cand_det[index] == det:
            gt = cand_gt[index]
            if (image, gt) not in claimed and cand_iou[index] > best_iou:
                best_iou = cand_iou[index]
                best_gt = gt
            index += 1
        if best_gt >= 0:
            claimed.add((image, best_gt))
            counts[image] += 1
            row_tp[row] = True
    image_tp[active] = counts
    return image_tp, row_tp
