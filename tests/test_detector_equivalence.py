"""The columnar detector and recall against the per-image reference oracle.

``SimulatedDetector.detect_split`` draws per image and runs the arithmetic,
the score sort and class-aware NMS over the whole split;
``expected_recall`` sums each image's probabilities on grouped blocks.
Both are pinned *bit for bit* against the verbatim per-image
implementation in ``_legacy_detector.py``: batch digests, ``detect(record)``
views and recall floats must be equal, not close.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _legacy_detector as legacy
from repro.data.datasets import Dataset, ImageRecord, load_dataset
from repro.data.degrade import Degradation
from repro.detection.batch import DetectionBatch
from repro.detection.nms import grouped_nms_keep, nms_indices
from repro.detection.types import GroundTruth
from repro.errors import CalibrationError
from repro.runtime.parallel import detect_records
from repro.simulate.calibrate import expected_recall
from repro.simulate.detector import SimulatedDetector
from repro.simulate.presets import SHAPE_PRESETS, make_detector
from repro.simulate.profile import DetectorProfile


def batch_digest(batch: DetectionBatch) -> str:
    digest = hashlib.sha256()
    for column in (batch.boxes, batch.scores, batch.labels, batch.offsets):
        digest.update(np.ascontiguousarray(column).tobytes())
    digest.update(repr((batch.image_ids, batch.detector)).encode())
    return digest.hexdigest()


def assert_matches_oracle(detector: SimulatedDetector, dataset: Dataset) -> None:
    oracle = legacy.LegacySimulatedDetector(detector.profile, detector.num_classes, detector.seed)
    expected = oracle.detect_split(dataset)
    batch = detector.detect_split(dataset)
    assert isinstance(batch, DetectionBatch)
    assert batch_digest(batch) == batch_digest(DetectionBatch.from_list(expected, detector=detector.name))
    assert batch_digest(detect_records(detector, dataset.records)) == batch_digest(batch)
    for record, old in zip(dataset.records, expected):
        new = detector.detect(record)
        assert new.image_id == old.image_id and new.detector == old.detector
        for name in ("boxes", "scores", "labels"):
            assert getattr(new, name).dtype == getattr(old, name).dtype
            np.testing.assert_array_equal(getattr(new, name), getattr(old, name))


def _box(x: float, y: float, w: float, h: float) -> list[float]:
    return [x, y, min(x + w, 1.0), min(y + h, 1.0)]


@st.composite
def scenes(draw, num_classes: int):
    """One image: scattered boxes plus, sometimes, a stack of overlapping
    same-class boxes (NMS groups with several ranks)."""
    coord = st.floats(0.0, 0.85)
    size = st.floats(0.01, 0.3)
    boxes = [_box(draw(coord), draw(coord), draw(size), draw(size)) for _ in range(draw(st.integers(0, 12)))]
    labels = [draw(st.integers(0, num_classes - 1)) for _ in boxes]
    stack = draw(st.integers(0, 6))
    if stack:
        x, y, w, h = draw(coord), draw(coord), draw(st.floats(0.05, 0.15)), draw(st.floats(0.05, 0.15))
        label = draw(st.integers(0, num_classes - 1))
        for offset in range(stack):
            nudge = 0.004 * offset
            boxes.append(_box(x + nudge, y + nudge, w, h))
            labels.append(label)
    quality = draw(st.sampled_from([1.0, 1.0, 0.9, 0.55, 0.3]))
    return boxes, labels, quality


def make_dataset(images, num_classes: int) -> Dataset:
    records = [
        ImageRecord(
            truth=GroundTruth(
                image_id=f"synthetic-{index:04d}",
                boxes=np.asarray(boxes, dtype=np.float64).reshape(-1, 4),
                labels=np.asarray(labels, dtype=np.int64),
            ),
            degradation=Degradation(quality=quality),
            render_seed=index,
        )
        for index, (boxes, labels, quality) in enumerate(images)
    ]
    return Dataset(name="synthetic", split="test", classes=tuple(f"c{i}" for i in range(num_classes)), records=records)


@st.composite
def cases(draw):
    num_classes = draw(st.sampled_from([1, 2, 5]))
    images = draw(st.lists(scenes(num_classes), min_size=1, max_size=10))
    profile = DetectorProfile(
        name=draw(st.sampled_from(["gen-a", "gen-b"])),
        base_recall=draw(st.floats(0.05, 12.0)),
        area_half=draw(st.sampled_from([0.003, 0.02, 0.08])),
        crowd_half=draw(st.sampled_from([3.0, 12.0])),
        quality_sensitivity=draw(st.sampled_from([0.0, 1.0, 1.8])),
        loc_sigma=draw(st.sampled_from([0.0, 0.002, 0.05, 0.12])),
        miss_visibility=draw(st.sampled_from([0.0, 0.5, 1.0])),
        score_sharpness=draw(st.sampled_from([0.0, 5.0])),
        fp_rate=draw(st.sampled_from([0.0, 0.7, 3.0])),
        class_confusion=draw(st.sampled_from([0.0, 0.03, 0.5])),
    )
    seed = draw(st.integers(0, 2**31 - 1))
    return SimulatedDetector(profile, num_classes, seed), make_dataset(images, num_classes)


@settings(max_examples=80, deadline=None)
@given(cases())
def test_detection_matches_per_image_oracle(case):
    detector, dataset = case
    assert_matches_oracle(detector, dataset)


@settings(max_examples=80, deadline=None)
@given(cases(), st.lists(st.floats(1e-4, 25.0), min_size=1, max_size=4))
def test_expected_recall_matches_per_image_oracle(case, bases):
    detector, dataset = case
    for base in bases:
        profile = detector.profile.with_base_recall(base)
        if dataset.total_objects == 0:
            for recall in (expected_recall, legacy.expected_recall):
                with pytest.raises(CalibrationError):
                    recall(profile, dataset)
            continue
        assert expected_recall(profile, dataset) == legacy.expected_recall(profile, dataset)


def corner_dataset(num_classes: int) -> Dataset:
    """Empty images, 9- and 14-object images, a five-box same-class stack
    and degraded quality, in one small split."""
    rng = np.random.default_rng(11)
    images = []
    for count, quality in ((0, 1.0), (9, 1.0), (0, 0.4), (14, 0.6), (2, 1.0)):
        corners = rng.uniform(0.0, 0.7, size=(count, 2))
        boxes = np.concatenate([corners, corners + rng.uniform(0.02, 0.3, size=(count, 2))], axis=1)
        images.append((boxes, rng.integers(0, num_classes, size=count), quality))
    stack = np.array([[0.3 + 0.003 * k, 0.3, 0.45 + 0.003 * k, 0.5] for k in range(5)])
    images.append((stack, np.zeros(5, dtype=np.int64), 0.8))
    return make_dataset(images, num_classes)


@pytest.mark.parametrize("loc_sigma", [0.0, 0.05])
@pytest.mark.parametrize("num_classes", [1, 5])
@pytest.mark.parametrize("fp_rate", [0.0, 3.0])
@pytest.mark.parametrize("miss_visibility", [0.0, 1.0])
@pytest.mark.parametrize("base_recall", [0.3, 20.0])
def test_corner_profiles_match_oracle(loc_sigma, num_classes, fp_rate, miss_visibility, base_recall):
    profile = DetectorProfile(
        name="corner",
        base_recall=base_recall,
        loc_sigma=loc_sigma,
        fp_rate=fp_rate,
        miss_visibility=miss_visibility,
        class_confusion=0.3,
    )
    dataset = corner_dataset(num_classes)
    for seed in range(3):
        assert_matches_oracle(SimulatedDetector(profile, num_classes, seed), dataset)
    assert expected_recall(profile, dataset) == legacy.expected_recall(profile, dataset)


def test_expected_recall_pairwise_sum_blocks():
    """Images of 9 and 130 objects take numpy's unrolled and recursive
    pairwise sums; empty images are skipped, not summed as zeros."""
    rng = np.random.default_rng(7)
    images = []
    for count in (0, 1, 7, 8, 9, 16, 130, 0, 9, 3):
        corners = rng.uniform(0.0, 0.7, size=(count, 2))
        sizes = rng.uniform(0.005, 0.3, size=(count, 2))
        boxes = np.concatenate([corners, corners + sizes], axis=1)
        images.append((boxes, rng.integers(0, 3, size=count), float(rng.uniform(0.4, 1.0))))
    dataset = make_dataset(images, 3)
    for base in np.linspace(0.01, 25.0, 40):
        profile = DetectorProfile(name="blocks", base_recall=float(base), crowd_half=40.0)
        assert expected_recall(profile, dataset) == legacy.expected_recall(profile, dataset)


@pytest.mark.parametrize(
    ("setting", "fraction"),
    [("helmet", 120 / 3000), ("voc07", 120 / 5011), ("coco18", 120 / 93353)],
)
@pytest.mark.parametrize("model", ["ssd", "small1"])
def test_real_splits_match_oracle(setting, fraction, model):
    dataset = load_dataset(setting, "train", fraction=fraction)
    profile = replace(SHAPE_PRESETS[model], name=f"{model}@{setting}", base_recall=2.5)
    assert_matches_oracle(SimulatedDetector(profile, dataset.num_classes), dataset)
    for base in (0.4, 1.7, 25.0):
        probe = profile.with_base_recall(base)
        assert expected_recall(probe, dataset) == legacy.expected_recall(probe, dataset)


def test_calibrated_helmet_detectors_match_oracle():
    dataset = load_dataset("helmet", "test", fraction=0.2)
    for model in ("small1", "ssd"):
        assert_matches_oracle(make_detector(model, "helmet"), dataset)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 5), st.integers(0, 5)),
        min_size=0,
        max_size=40,
    ),
    st.sampled_from([0.0, 0.1, 0.45, 0.7, 1.0]),
)
def test_grouped_nms_matches_per_group_greedy(rows, threshold):
    """Overlapping boxes on a coarse grid: groups of many ranks, ties and
    identical boxes, checked against ``nms_indices`` group by group."""
    images = np.asarray([row[0] for row in rows], dtype=np.int64)
    labels = np.asarray([row[1] for row in rows], dtype=np.int64)
    corners = np.asarray([[row[2] * 0.05, row[3] * 0.05] for row in rows]).reshape(-1, 2)
    boxes = np.concatenate([corners, corners + 0.2], axis=1)
    keep = grouped_nms_keep(boxes, labels, images, threshold)
    expected = np.zeros(len(rows), dtype=bool)
    for image in np.unique(images):
        for label in np.unique(labels):
            members = np.flatnonzero((images == image) & (labels == label))
            # Equal scores: rows are already in processing order.
            kept = nms_indices(boxes[members], np.ones(members.size), threshold)
            expected[members[kept]] = True
    np.testing.assert_array_equal(keep, expected)
