"""Detected-object counting in one pass against the per-image matcher.

``count_detected_objects`` matches every image of a split in one
block-diagonal pass (``greedy_match_segments``, shared with rolling stream
evaluation).  It is pinned against the per-image loop it replaced — the
serving filter then ``greedy_match_arrays`` on every image — over generated
splits with IoU ties, same-class stacks and empty images.  Threshold checks
run on entry, so a bad threshold fails even when nothing gets matched.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import load_dataset
from repro.detection.batch import DetectionBatch, GroundTruthBatch
from repro.detection.matching import greedy_match_arrays, greedy_match_segments
from repro.errors import ConfigurationError
from repro.metrics import rolling_quality
from repro.metrics.counting import count_detected_objects, count_summary
from repro.runtime import (
    JETSON_NANO,
    RTX3060_SERVER,
    WLAN,
    Deployment,
    StreamConfig,
    StreamSpec,
    cloud_only_scheme,
    serve_stream,
)
from repro.simulate import make_detector


def per_image_count(detections: DetectionBatch, truths: GroundTruthBatch, score: float, iou: float) -> int:
    """The loop ``count_detected_objects`` ran before it became one pass."""
    served = detections.above(score)
    total = 0
    for index in range(len(truths)):
        lo, hi = int(served.offsets[index]), int(served.offsets[index + 1])
        gt_lo, gt_hi = int(truths.offsets[index]), int(truths.offsets[index + 1])
        if lo == hi or gt_lo == gt_hi:
            continue
        total += greedy_match_arrays(
            served.boxes[lo:hi],
            served.labels[lo:hi],
            truths.boxes[gt_lo:gt_hi],
            truths.labels[gt_lo:gt_hi],
            iou_threshold=iou,
        ).num_tp
    return total


def _box(draw, coord, size) -> list[float]:
    x, y = draw(coord), draw(coord)
    return [x, y, min(x + draw(size), 1.0), min(y + draw(size), 1.0)]


@st.composite
def images(draw, num_classes: int):
    """One image's ground truth and score-sorted detections.

    Duplicated ground-truth boxes make IoU ties; a stack of nudged
    same-class detections (and, sometimes, a copy of a ground-truth box)
    makes several detections contend for one object; either side may be
    empty."""
    coord, size = st.floats(0.0, 0.8), st.floats(0.02, 0.4)
    gt = [(_box(draw, coord, size), draw(st.integers(0, num_classes - 1))) for _ in range(draw(st.integers(0, 5)))]
    if gt and draw(st.booleans()):
        gt.append(gt[draw(st.integers(0, len(gt) - 1))])  # exact duplicate: an IoU tie
    dets = [(_box(draw, coord, size), draw(st.integers(0, num_classes - 1))) for _ in range(draw(st.integers(0, 5)))]
    if gt and draw(st.booleans()):
        box, label = gt[draw(st.integers(0, len(gt) - 1))]
        for step in range(draw(st.integers(1, 4))):
            nudge = 0.01 * step
            dets.append(([box[0] + nudge, box[1], min(box[2] + nudge, 1.0), box[3]], label))
    scores = sorted(
        (draw(st.sampled_from([0.2, 0.5, 0.5, 0.7, 0.9, 1.0])) for _ in dets),
        reverse=True,
    )
    return gt, [(box, label, score) for (box, label), score in zip(dets, scores)]


@st.composite
def splits(draw):
    num_classes = draw(st.sampled_from([1, 3]))
    items = draw(st.lists(images(num_classes), min_size=0, max_size=12))
    ids = tuple(f"img-{index}" for index in range(len(items)))

    def flat(rows, width):
        return np.asarray(rows, dtype=np.float64).reshape(-1, width)

    gt_rows = [row for gt, _ in items for row in gt]
    det_rows = [row for _, dets in items for row in dets]
    gt_offsets = np.cumsum([0] + [len(gt) for gt, _ in items], dtype=np.int64)
    det_offsets = np.cumsum([0] + [len(dets) for _, dets in items], dtype=np.int64)
    truths = GroundTruthBatch(
        image_ids=ids,
        boxes=flat([box for box, _ in gt_rows], 4),
        labels=np.asarray([label for _, label in gt_rows], dtype=np.int64),
        offsets=gt_offsets,
    )
    detections = DetectionBatch(
        image_ids=ids,
        boxes=flat([box for box, _, _ in det_rows], 4),
        scores=np.asarray([score for _, _, score in det_rows], dtype=np.float64),
        labels=np.asarray([label for _, label, _ in det_rows], dtype=np.int64),
        offsets=det_offsets,
    )
    return detections, truths


@settings(max_examples=200, deadline=None)
@given(split=splits(), score=st.sampled_from([0.0, 0.5, 0.95]), iou=st.sampled_from([0.3, 0.5, 0.75, 1.0]))
def test_count_matches_per_image_greedy_loop(split, score, iou):
    detections, truths = split
    expected = per_image_count(detections, truths, score, iou)
    assert count_detected_objects(detections, truths, score_threshold=score, iou_threshold=iou) == expected
    summary = count_summary(detections, truths, score_threshold=score, iou_threshold=iou)
    assert summary.detected == expected and summary.total_ground_truth == truths.total_objects


@settings(max_examples=100, deadline=None)
@given(split=splits(), iou=st.sampled_from([0.5, 1.0]))
def test_segment_flags_match_per_image_flags(split, iou):
    detections, truths = split
    image_tp, row_tp = greedy_match_segments(
        detections, detections.offsets[:-1], detections.counts(), truths, np.arange(len(truths)), iou_threshold=iou
    )
    for index in range(len(truths)):
        lo, hi = int(detections.offsets[index]), int(detections.offsets[index + 1])
        gt_lo, gt_hi = int(truths.offsets[index]), int(truths.offsets[index + 1])
        result = greedy_match_arrays(
            detections.boxes[lo:hi],
            detections.labels[lo:hi],
            truths.boxes[gt_lo:gt_hi],
            truths.labels[gt_lo:gt_hi],
            iou_threshold=iou,
        )
        assert image_tp[index] == result.num_tp
        assert row_tp[lo:hi].tolist() == result.is_tp.tolist()


def test_identical_boxes_tie_to_the_first_ground_truth():
    box = [0.1, 0.1, 0.4, 0.4]
    truths = GroundTruthBatch(("a",), np.array([box, box]), np.array([0, 0]), np.array([0, 2]))
    detections = DetectionBatch(
        ("a",), np.array([box, box, box]), np.array([0.9, 0.8, 0.7]), np.zeros(3), np.array([0, 3])
    )
    assert count_detected_objects(detections, truths) == 2 == per_image_count(detections, truths, 0.5, 0.5)


def test_simulated_split_counts_match():
    dataset = load_dataset("voc07", "test", fraction=300 / 4952)
    detections = make_detector("small1", "voc07").detect_split(dataset)
    count = count_detected_objects(detections, dataset.truth_batch)
    assert count > 0
    assert count == per_image_count(detections, dataset.truth_batch, 0.5, 0.5)


# --------------------------------------------------------------------- #
# thresholds are checked on entry
# --------------------------------------------------------------------- #
BAD_IOU = [0.0, -0.2, 1.5, 2.0, math.nan]
BAD_SCORE = [math.nan, math.inf, -math.inf]


@pytest.fixture(scope="module")
def unserved():
    """A split whose detections are all empty: nothing is ever matched, so a
    check that only runs per matched pair never fires."""
    dataset = load_dataset("helmet", "test", fraction=0.02)
    n = len(dataset)
    empty = DetectionBatch(
        dataset.image_ids, np.zeros((0, 4)), np.zeros(0), np.zeros(0, np.int64), np.zeros(n + 1, np.int64)
    )
    return dataset, empty


@pytest.mark.parametrize("iou", BAD_IOU)
def test_count_refuses_bad_iou_threshold(unserved, iou):
    dataset, empty = unserved
    with pytest.raises(ConfigurationError, match="iou_threshold"):
        count_detected_objects(empty, dataset.truth_batch, iou_threshold=iou)
    with pytest.raises(ConfigurationError, match="iou_threshold"):
        count_summary(empty, dataset.truth_batch, iou_threshold=iou)


@pytest.mark.parametrize("score", BAD_SCORE)
def test_count_refuses_non_finite_score_threshold(unserved, score):
    dataset, empty = unserved
    with pytest.raises(ConfigurationError, match="score_threshold"):
        count_detected_objects(empty, dataset.truth_batch, score_threshold=score)
    with pytest.raises(ConfigurationError, match="score_threshold"):
        count_summary(empty, dataset.truth_batch, score_threshold=score)


@pytest.fixture(scope="module")
def unserved_report(unserved):
    dataset, empty = unserved
    deployment = Deployment(
        edge=JETSON_NANO, cloud=RTX3060_SERVER, link=WLAN, small_model_flops=5.6e9, big_model_flops=61.2e9
    )
    config = StreamConfig(fps=2.0, poisson=True, duration_s=10.0)
    return serve_stream(deployment, dataset, StreamSpec(cloud_only_scheme(), config, detections=empty), seed=3)


@pytest.mark.parametrize("iou", BAD_IOU)
def test_rolling_quality_refuses_bad_iou_threshold(unserved, unserved_report, iou):
    dataset, _ = unserved
    assert rolling_quality(unserved_report, dataset, window_s=5.0)  # valid thresholds evaluate
    with pytest.raises(ConfigurationError, match="iou_threshold"):
        rolling_quality(unserved_report, dataset, window_s=5.0, iou_threshold=iou)


@pytest.mark.parametrize("score", BAD_SCORE)
def test_rolling_quality_refuses_non_finite_score_threshold(unserved, unserved_report, score):
    dataset, _ = unserved
    with pytest.raises(ConfigurationError, match="score_threshold"):
        rolling_quality(unserved_report, dataset, window_s=5.0, score_threshold=score)
