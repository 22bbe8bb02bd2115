"""Round-trip tests for dataset/detection JSON serialization."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.data import load_dataset
from repro.data.io import (
    dataset_from_dict,
    dataset_to_dict,
    detections_from_dict,
    detections_to_dict,
    save_dataset,
    save_detections,
)
from repro.errors import DatasetError
from repro.simulate import SimulatedDetector
from repro.simulate.profile import DetectorProfile


@pytest.fixture(scope="module")
def split():
    return load_dataset("helmet", "test", fraction=0.03)


@pytest.fixture(scope="module")
def detections(split):
    detector = SimulatedDetector(DetectorProfile(name="io-test"), 2, seed=5)
    return detector.detect_split(split)


class TestDatasetRoundTrip:
    def test_dict_round_trip_exact(self, split):
        rebuilt = dataset_from_dict(dataset_to_dict(split))
        assert rebuilt.name == split.name and rebuilt.split == split.split
        assert rebuilt.classes == split.classes
        assert len(rebuilt) == len(split)
        for a, b in zip(split.records, rebuilt.records):
            assert a.image_id == b.image_id
            np.testing.assert_array_equal(a.truth.boxes, b.truth.boxes)
            np.testing.assert_array_equal(a.truth.labels, b.truth.labels)
            assert a.degradation == b.degradation
            assert a.render_seed == b.render_seed

    def test_file_round_trip(self, split, tmp_path):
        path = save_dataset(split, tmp_path / "split.json")
        rebuilt = dataset_from_dict(json.loads(path.read_text()))
        assert rebuilt.total_objects == split.total_objects

    def test_json_serializable(self, split):
        # The dict must survive an actual json encode/decode cycle.
        payload = json.loads(json.dumps(dataset_to_dict(split)))
        rebuilt = dataset_from_dict(payload)
        assert len(rebuilt) == len(split)

    def test_wrong_kind_rejected(self, split):
        payload = dataset_to_dict(split)
        payload["kind"] = "detections"
        with pytest.raises(DatasetError):
            dataset_from_dict(payload)

    def test_wrong_schema_rejected(self, split):
        payload = dataset_to_dict(split)
        payload["schema"] = 99
        with pytest.raises(DatasetError):
            dataset_from_dict(payload)


class TestDetectionsRoundTrip:
    def test_dict_round_trip_exact(self, detections):
        rebuilt = detections_from_dict(detections_to_dict(detections))
        assert len(rebuilt) == len(detections)
        for a, b in zip(detections, rebuilt):
            assert a.image_id == b.image_id
            np.testing.assert_array_equal(a.boxes, b.boxes)
            np.testing.assert_array_equal(a.scores, b.scores)
            np.testing.assert_array_equal(a.labels, b.labels)

    def test_detector_name_preserved(self, detections, tmp_path):
        path = save_detections(detections, tmp_path / "dets.json")
        rebuilt = detections_from_dict(json.loads(path.read_text()))
        assert rebuilt[0].detector == "io-test"

    def test_explicit_detector_override(self, detections, tmp_path):
        path = save_detections(detections, tmp_path / "dets.json", detector="renamed")
        rebuilt = detections_from_dict(json.loads(path.read_text()))
        assert rebuilt[0].detector == "renamed"

    def test_empty_detections_round_trip(self):
        rebuilt = detections_from_dict(detections_to_dict([]))
        assert rebuilt == []

    def test_metrics_survive_round_trip(self, detections, split):
        from repro.metrics import count_detected_objects

        before = count_detected_objects(detections, split.truths)
        rebuilt = detections_from_dict(detections_to_dict(detections))
        after = count_detected_objects(rebuilt, split.truths)
        assert before == after
