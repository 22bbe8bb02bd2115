"""Split mAP and detected-object counting in one pass against the loops
they replaced.

Both metrics match every image of a split in one block-diagonal pass
(``greedy_match_segments``, shared with rolling stream evaluation).  They
are pinned against the oracles in ``_legacy_voc_ap.py`` over generated
splits with score ties, IoU ties, same-class stacks, empty images and
labels outside the evaluated classes: counting against the serving filter
then the per-image ``greedy_match_arrays`` loop, and every per-class PR
curve and the mAP's ``float.hex`` against the per-class pooled loop
(``_pooled_pr_curve``).  Threshold checks run on entry, so a bad threshold
fails even when nothing gets matched.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _legacy_voc_ap as legacy
from repro.data import load_dataset
from repro.detection.batch import DetectionBatch, GroundTruthBatch
from repro.detection.matching import greedy_match_segments
from repro.errors import ConfigurationError
from repro.metrics import evaluate_detections, mean_average_precision, precision_recall_curve, rolling_quality
from repro.metrics.counting import count_detected_objects, count_summary
from repro.runtime import (
    JETSON_NANO,
    RTX3060_SERVER,
    WLAN,
    Deployment,
    FleetSpec,
    StreamConfig,
    cloud_only_scheme,
    serve_fleet,
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
        total += legacy.greedy_match_arrays(
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


def _tie_gadget(draw, num_classes: int) -> tuple[list, list]:
    """Two ground-truth boxes a detection overlaps with exactly equal IoU,
    then a copy of the first box ranked after it.

    Coordinates are multiples of 1/64, so both IoUs are the same float
    (3/5) and the tie-break decides the outcome: the first box wins, the
    copy finds it claimed and the second box (IoU 1/3) out of reach at
    thresholds above 1/3 — a last-index tie-break would make it a true
    positive instead."""
    x, y = draw(st.integers(0, 32)) / 64, draw(st.integers(0, 40)) / 64
    height = draw(st.integers(8, 16)) / 64
    label = draw(st.integers(0, num_classes - 1))
    first = [x, y, x + 16 / 64, y + height]
    second = [x + 8 / 64, y, x + 24 / 64, y + height]
    between = [x + 4 / 64, y, x + 20 / 64, y + height]
    return [(first, label), (second, label)], [(between, label), (first, label)]


@st.composite
def images(draw, num_classes: int):
    """One image's ground truth and score-sorted detections.

    Duplicated ground-truth boxes and the tie gadget make IoU ties; a stack
    of nudged same-class detections (and, sometimes, a copy of a
    ground-truth box) makes several detections contend for one object;
    scores come from a short list, so they tie too; either side may be
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
    if draw(st.booleans()):
        gadget_gt, gadget_dets = _tie_gadget(draw, num_classes)
        gt.extend(gadget_gt)
        dets.extend(gadget_dets)
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
        result = legacy.greedy_match_arrays(
            detections.boxes[lo:hi],
            detections.labels[lo:hi],
            truths.boxes[gt_lo:gt_hi],
            truths.labels[gt_lo:gt_hi],
            iou_threshold=iou,
        )
        assert image_tp[index] == result.num_tp
        assert row_tp[lo:hi].tolist() == result.is_tp.tolist()


def assert_curves_equal(ours, theirs) -> None:
    assert ours.num_gt == theirs.num_gt
    for name in ("recall", "precision", "scores"):
        mine, reference = getattr(ours, name), getattr(theirs, name)
        assert mine.dtype == reference.dtype, name
        assert mine.tolist() == reference.tolist(), name


@settings(max_examples=200, deadline=None)
@given(split=splits(), num_classes=st.integers(1, 4), iou=st.sampled_from([0.1, 0.5, 1.0]), metric=st.booleans())
def test_split_map_matches_pooled_per_class_loop(split, num_classes, iou, metric):
    """Generated labels run 0-2, so ``num_classes`` of 1 or 2 leaves some
    detections and annotations outside the evaluated classes."""
    detections, truths = split
    ours = evaluate_detections(detections, truths, num_classes, iou_threshold=iou, use_07_metric=metric)
    theirs = legacy.evaluate_detections(detections, truths, num_classes, iou_threshold=iou, use_07_metric=metric)
    assert ours.per_class_curves.keys() == theirs.per_class_curves.keys()
    for label, curve in ours.per_class_curves.items():
        assert_curves_equal(curve, theirs.per_class_curves[label])
    assert ours.per_class_ap == theirs.per_class_ap
    assert float.hex(ours.map) == float.hex(theirs.map)
    percent = mean_average_precision(detections, truths, num_classes, iou_threshold=iou, use_07_metric=metric)
    assert float.hex(percent) == float.hex(theirs.map_percent)
    for label in range(num_classes + 1):  # the extra label has no ground truth
        assert_curves_equal(
            precision_recall_curve(detections, truths, label, iou_threshold=iou),
            legacy.precision_recall_curve(detections, truths, label, iou_threshold=iou),
        )


def test_tie_gadget_separates_tie_breaks():
    """The gadget's copy is a false positive at IoU 0.5 (first box wins the
    tie) and a true positive at 0.1 (it reaches the second box)."""
    box = [0.0, 0.0, 16 / 64, 12 / 64]
    second = [8 / 64, 0.0, 24 / 64, 12 / 64]
    between = [4 / 64, 0.0, 20 / 64, 12 / 64]
    truths = GroundTruthBatch(("a",), np.array([box, second]), np.array([0, 0]), np.array([0, 2]))
    detections = DetectionBatch(("a",), np.array([between, box]), np.array([0.9, 0.8]), np.zeros(2), np.array([0, 2]))
    for iou, expected in ((0.5, [True, False]), (0.1, [True, True])):
        _, row_tp = greedy_match_segments(
            detections, np.array([0]), np.array([2]), truths, np.array([0]), iou_threshold=iou
        )
        assert row_tp.tolist() == expected
        oracle = legacy.greedy_match_arrays(
            detections.boxes, detections.labels, truths.boxes, truths.labels, iou_threshold=iou
        )
        assert oracle.is_tp.tolist() == expected


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


@pytest.mark.parametrize("served", [False, True])
def test_simulated_split_map_matches(served):
    dataset = load_dataset("voc07", "test", fraction=300 / 4952)
    detections = make_detector("small1", "voc07").detect_split(dataset)
    if served:
        detections = detections.above(0.5)
    ours = evaluate_detections(detections, dataset.truth_batch, dataset.num_classes)
    theirs = legacy.evaluate_detections(detections, dataset.truth_batch, dataset.num_classes)
    for label, curve in theirs.per_class_curves.items():
        assert_curves_equal(ours.per_class_curves[label], curve)
    assert float.hex(ours.map) == float.hex(theirs.map)


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


@pytest.mark.parametrize("iou", BAD_IOU)
def test_map_refuses_bad_iou_threshold(unserved, iou):
    dataset, empty = unserved
    with pytest.raises(ConfigurationError, match="iou_threshold"):
        evaluate_detections(empty, dataset.truth_batch, dataset.num_classes, iou_threshold=iou)
    with pytest.raises(ConfigurationError, match="iou_threshold"):
        mean_average_precision(empty, dataset.truth_batch, dataset.num_classes, iou_threshold=iou)
    with pytest.raises(ConfigurationError, match="iou_threshold"):
        precision_recall_curve(empty, dataset.truth_batch, 0, iou_threshold=iou)


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
    return serve_fleet(deployment, dataset, FleetSpec(cloud_only_scheme(), config, detections=empty), seed=3)


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
