"""Split mAP and detected-object counting in one pass against the loops
they replaced.

Both metrics match every image of a split in one block-diagonal pass
(``greedy_match_segments``, shared with rolling stream evaluation).  They
are pinned against the oracles in ``_legacy_voc_ap.py`` over generated
splits with score ties, IoU ties, same-class stacks, empty images and
labels outside the evaluated classes: counting against the serving filter
then the per-image ``greedy_match_arrays`` loop, and every per-class PR
curve and the mAP's ``float.hex`` against the per-class pooled loop
(``_pooled_pr_curve``).  Both run at the VOC rule the library fixes: serving
threshold 0.5, IoU 0.5 and 11-point AP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _legacy_voc_ap as legacy
from repro.data import load_dataset
from repro.detection.batch import DetectionBatch, GroundTruthBatch
from repro.detection.matching import greedy_match_segments
from repro.metrics import evaluate_detections, mean_average_precision
from repro.metrics.counting import count_detected_objects, count_summary
from repro.metrics.voc_ap import EvalResult, PRCurve
from repro.simulate import make_detector


class _VOC07Curve(PRCurve):
    """The library's curve under the metric keyword the oracle still passes."""

    def ap(self, *, use_07_metric: bool) -> float:
        assert use_07_metric
        return super().ap()


@dataclass(frozen=True)
class _VOC07Result(EvalResult):
    """The library's result with the metric field the oracle still sets."""

    use_07_metric: bool = True


@pytest.fixture(scope="module", autouse=True)
def _oracle_at_voc07():
    """``_legacy_voc_ap`` stays verbatim: it builds its curves and results
    with the metric keyword the library no longer takes, so it runs here
    with subclasses that accept the 11-point value and nothing else."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(legacy, "PRCurve", _VOC07Curve)
        patch.setattr(legacy, "EvalResult", _VOC07Result)
        yield


def per_image_count(detections: DetectionBatch, truths: GroundTruthBatch) -> int:
    """The loop ``count_detected_objects`` ran before it became one pass."""
    served = detections.above(0.5)
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
            iou_threshold=0.5,
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
    copy finds it claimed and the second box (IoU 1/3) out of reach — a
    last-index tie-break would make it a true positive instead."""
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
@given(split=splits())
def test_count_matches_per_image_greedy_loop(split):
    detections, truths = split
    expected = per_image_count(detections, truths)
    assert count_detected_objects(detections, truths) == expected
    summary = count_summary(detections, truths)
    assert summary.detected == expected and summary.total_ground_truth == truths.total_objects


@settings(max_examples=100, deadline=None)
@given(split=splits())
def test_segment_flags_match_per_image_flags(split):
    detections, truths = split
    image_tp, row_tp = greedy_match_segments(
        detections, detections.offsets[:-1], detections.counts(), truths, np.arange(len(truths))
    )
    for index in range(len(truths)):
        lo, hi = int(detections.offsets[index]), int(detections.offsets[index + 1])
        gt_lo, gt_hi = int(truths.offsets[index]), int(truths.offsets[index + 1])
        result = legacy.greedy_match_arrays(
            detections.boxes[lo:hi],
            detections.labels[lo:hi],
            truths.boxes[gt_lo:gt_hi],
            truths.labels[gt_lo:gt_hi],
            iou_threshold=0.5,
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
@given(split=splits(), num_classes=st.integers(1, 4))
def test_split_map_matches_pooled_per_class_loop(split, num_classes):
    """Generated labels run 0-2, so ``num_classes`` of 1 or 2 leaves some
    detections and annotations outside the evaluated classes."""
    detections, truths = split
    ours = evaluate_detections(detections, truths, num_classes)
    theirs = legacy.evaluate_detections(detections, truths, num_classes, iou_threshold=0.5, use_07_metric=True)
    assert ours.per_class_curves.keys() == theirs.per_class_curves.keys()
    for label, curve in ours.per_class_curves.items():
        assert_curves_equal(curve, theirs.per_class_curves[label])
    assert ours.per_class_ap == theirs.per_class_ap
    assert float.hex(ours.map) == float.hex(theirs.map)
    percent = mean_average_precision(detections, truths, num_classes)
    assert float.hex(percent) == float.hex(theirs.map_percent)


def test_tie_gadget_separates_tie_breaks():
    """The gadget's copy is a false positive: the first box wins the tie,
    and the second box (IoU 1/3) is out of reach at IoU 0.5."""
    box = [0.0, 0.0, 16 / 64, 12 / 64]
    second = [8 / 64, 0.0, 24 / 64, 12 / 64]
    between = [4 / 64, 0.0, 20 / 64, 12 / 64]
    truths = GroundTruthBatch(("a",), np.array([box, second]), np.array([0, 0]), np.array([0, 2]))
    detections = DetectionBatch(("a",), np.array([between, box]), np.array([0.9, 0.8]), np.zeros(2), np.array([0, 2]))
    _, row_tp = greedy_match_segments(detections, np.array([0]), np.array([2]), truths, np.array([0]))
    assert row_tp.tolist() == [True, False]
    oracle = legacy.greedy_match_arrays(
        detections.boxes, detections.labels, truths.boxes, truths.labels, iou_threshold=0.5
    )
    assert oracle.is_tp.tolist() == [True, False]


def test_identical_boxes_tie_to_the_first_ground_truth():
    box = [0.1, 0.1, 0.4, 0.4]
    truths = GroundTruthBatch(("a",), np.array([box, box]), np.array([0, 0]), np.array([0, 2]))
    detections = DetectionBatch(
        ("a",), np.array([box, box, box]), np.array([0.9, 0.8, 0.7]), np.zeros(3), np.array([0, 3])
    )
    assert count_detected_objects(detections, truths) == 2 == per_image_count(detections, truths)


def test_simulated_split_counts_match():
    dataset = load_dataset("voc07", "test", fraction=300 / 4952)
    detections = make_detector("small1", "voc07").detect_split(dataset)
    count = count_detected_objects(detections, dataset.truth_batch)
    assert count > 0
    assert count == per_image_count(detections, dataset.truth_batch)


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
# the fixed VOC rule at its edges
# --------------------------------------------------------------------- #
BELOW, ABOVE = float(np.nextafter(0.5, 0.0)), float(np.nextafter(0.5, 1.0))
#: (value, whether it passes a ``>= 0.5`` rule): both sides of the edge,
#: one float apart, and the edge itself, which passes.
EDGE = [(0.0, False), (BELOW, False), (0.5, True), (ABOVE, True), (1.0, True)]
UNIT = [0.0, 0.0, 1.0, 1.0]


def _one_box(box, score: float) -> tuple[DetectionBatch, GroundTruthBatch]:
    """One image: one detection against one unit-square annotation."""
    truths = GroundTruthBatch(("a",), np.array([UNIT]), np.array([0]), np.array([0, 1]))
    detections = DetectionBatch(("a",), np.array([box]), np.array([score]), np.zeros(1), np.array([0, 1]))
    return detections, truths


def _at_overlap(width: float) -> tuple[DetectionBatch, GroundTruthBatch]:
    """A ``[0, 0, width, 1]`` box covers ``width`` of the unit square, so
    its IoU with it is ``width`` (one ulp off only past the edge)."""
    return _one_box([0.0, 0.0, width, 1.0], 0.9)


@pytest.mark.parametrize("score, served", EDGE)
def test_count_serves_at_the_serving_threshold(score, served):
    """A box scoring exactly 0.5 is served; one float below it is not."""
    detections, truths = _one_box(UNIT, score)
    assert count_detected_objects(detections, truths) == int(served)
    assert count_summary(detections, truths).detected == int(served)
    assert per_image_count(detections, truths) == int(served)


@pytest.mark.parametrize("width, matched", EDGE[1:] + [(0.25, False)])
def test_count_matches_at_the_iou_threshold(width, matched):
    """An overlap of exactly 0.5 claims the annotation, as the oracle's did."""
    detections, truths = _at_overlap(width)
    assert count_detected_objects(detections, truths) == int(matched)
    _, row_tp = greedy_match_segments(detections, np.array([0]), np.array([1]), truths, np.array([0]))
    assert row_tp.tolist() == [matched]
    oracle = legacy.greedy_match_arrays(
        detections.boxes, detections.labels, truths.boxes, truths.labels, iou_threshold=0.5
    )
    assert oracle.is_tp.tolist() == [matched]


@pytest.mark.parametrize("width, matched", EDGE[1:] + [(0.25, False)])
def test_map_matches_at_the_iou_threshold(width, matched):
    """A lone detection at the edge scores AP 1 when it matches, else 0."""
    detections, truths = _at_overlap(width)
    ours = evaluate_detections(detections, truths, 1)
    theirs = legacy.evaluate_detections(detections, truths, 1, iou_threshold=0.5, use_07_metric=True)
    assert ours.per_class_ap == theirs.per_class_ap
    assert (ours.per_class_ap[0] > 0.99) is matched and (ours.per_class_ap[0] == 0.0) is not matched
    assert float.hex(mean_average_precision(detections, truths, 1)) == float.hex(theirs.map_percent)


@pytest.mark.parametrize("score", [0.0, BELOW, 0.5])
def test_map_ranks_boxes_below_the_serving_threshold(score):
    """mAP ranks every box it is given: the serving threshold gates counting
    only, so a matched box scores AP 1 at any confidence."""
    detections, truths = _one_box(UNIT, score)
    assert evaluate_detections(detections, truths, 1).per_class_ap[0] == pytest.approx(1.0)
