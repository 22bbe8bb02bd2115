"""The harness reuses calibration's train sample and its last-round detections.

Calibrating a setting's detectors generates the first ``CALIBRATION_IMAGES``
images of its train split once (``calibration_sample``) and detects them with
each calibrated profile (``calibration_detections``).  The harness builds its
train split on that sample and slices every train cache shard that lies
wholly inside it from those detections instead of detecting the images
again.  Each case compares the harness's output with an independent build:
the split from :func:`repro.data.load_dataset` and the detections from a
serial :func:`repro.runtime.parallel.detect_records` pass over the same spans,
never with the memo.

The harnesses here take their worker count from ``REPRO_WORKERS`` (serial
when unset), so a pooled run pins the overlapped prefetch against serial
detection.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import repro.data.datasets as datasets_module
import repro.experiments.harness as harness_module
import repro.simulate.presets as presets_module
from repro.data import load_dataset
from repro.detection import DetectionBatch
from repro.experiments import Harness, HarnessConfig
from repro.runtime.parallel import detect_records
from repro.simulate.presets import calibration_detections, calibration_sample, make_detector

COLUMNS = ("boxes", "scores", "labels", "offsets")


def assert_batches_identical(left: DetectionBatch, right: DetectionBatch) -> None:
    assert left.image_ids == right.image_ids
    assert left.detector == right.detector
    for name in COLUMNS:
        a, b = getattr(left, name), getattr(right, name)
        assert a.dtype == b.dtype
        assert np.array_equal(a, b), f"{name} differ"


def assert_datasets_identical(left, right) -> None:
    """Field for field: ids, annotation bytes, degradations, render seeds."""
    assert (left.name, left.split, left.classes) == (right.name, right.split, right.classes)
    assert left.image_ids == right.image_ids
    for name in ("boxes", "labels", "offsets"):
        a, b = getattr(left.truth_batch, name), getattr(right.truth_batch, name)
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes(), f"{name} differ"
    assert [record.degradation for record in left.records] == [record.degradation for record in right.records]
    assert [record.render_seed for record in left.records] == [record.render_seed for record in right.records]
    for a, b in zip(left.truths, right.truths):
        assert (a.image_id, a.width, a.height) == (b.image_id, b.width, b.height)
        assert a.boxes.tobytes() == b.boxes.tobytes() and a.labels.tobytes() == b.labels.tobytes()


@pytest.fixture
def detected_spans(monkeypatch) -> list:
    """Every ``(setting, split, span)`` job the harness hands the pool."""
    spans: list = []
    in_flight = harness_module._spans_in_flight

    def spy(jobs, pool):
        spans.extend((dataset.name, dataset.split, span) for _, dataset, span in jobs)
        return in_flight(jobs, pool)

    monkeypatch.setattr(harness_module, "_spans_in_flight", spy)
    return spans


@pytest.fixture
def generated(monkeypatch) -> list:
    """Every ``[lo, hi)`` image range the dataset generator makes."""
    ranges: list = []
    generate = datasets_module._generate

    def spy(entry, split, seed, lo, hi):
        ranges.append((entry.name, split, lo, hi))
        return generate(entry, split, seed, lo, hi)

    monkeypatch.setattr(datasets_module, "_generate", spy)
    return ranges


def independent_split(config: HarnessConfig, setting: str):
    """The harness's train split, loaded afresh."""
    entry = datasets_module.DATASET_SETTINGS[setting]
    fraction = min(1.0, config.train_images / entry.train_size)
    return load_dataset(setting, "train", seed=config.seed, fraction=fraction)


def oracle(harness: Harness, model: str, setting: str, split: str = "train") -> DetectionBatch:
    """A split loaded afresh and detected serially, one span per cache shard."""
    detector = harness.detector(model, setting)
    if split == "train":
        dataset = independent_split(harness.config, setting)
    else:
        dataset = load_dataset(setting, split, seed=harness.config.seed, fraction=harness.config.test_fraction)
    spans = harness._cache_spans(len(dataset))
    return DetectionBatch.concat([detect_records(detector, dataset, span) for span in spans], detector=detector.name)


def test_quick_helmet_split_is_one_sliced_shard(tmp_path, detected_spans):
    with Harness(replace(HarnessConfig.quick(), cache_dir=str(tmp_path))) as harness:
        produced = harness.detections("small1", "helmet", "train")
    assert len(produced) == 600
    assert detected_spans == []
    assert len(list(tmp_path.iterdir())) == 1  # the sliced shard is persisted
    assert_batches_identical(oracle(harness, "small1", "helmet"), produced)


def test_full_helmet_layout_is_three_sliced_shards(tmp_path, detected_spans):
    with Harness(HarnessConfig(cache_dir=str(tmp_path))) as harness:
        produced = harness.detections("ssd", "helmet", "train")
    assert harness._cache_spans(len(produced)) == [(0, 1024), (1024, 2048), (2048, 3000)]
    assert len(calibration_detections("ssd", "helmet")) == 3000  # the whole split
    assert detected_spans == []
    assert len(list(tmp_path.iterdir())) == 3
    assert_batches_identical(oracle(harness, "ssd", "helmet"), produced)
    # The split is the sample's detections themselves, not a concatenated copy.
    assert np.shares_memory(produced.scores, calibration_detections("ssd", "helmet").scores)
    # Each persisted shard is what a fresh harness past the sample would read.
    for lo, hi in harness._cache_spans(len(produced)):
        path = harness._shard_path(harness.detector("ssd", "helmet"), harness.dataset("helmet", "train"), (lo, hi))
        loaded = DetectionBatch.load(path, produced.image_ids[lo:hi], detector=produced.detector)
        assert_batches_identical(produced[lo:hi], loaded)


def test_span_past_the_sample_is_detected(tmp_path, detected_spans, small1_voc07):
    config = HarnessConfig(train_images=4100, cache_dir=str(tmp_path), cache_shard_size=512)
    with Harness(config) as harness:
        count = len(harness.dataset("voc07", "train"))
        assert len(calibration_detections("small1", "voc07")) == 4000
        produced = harness.detections("small1", "voc07", "train")
    # Shards up to image 3584 lie inside the sample; (3584, 4096) straddles
    # its end and the rest lies past it, so both are detected.
    assert detected_spans == [("voc07", "train", (3584, 4096)), ("voc07", "train", (4096, count))]
    assert len(list(tmp_path.iterdir())) == 9
    assert_batches_identical(oracle(harness, "small1", "voc07"), produced)


def test_sliced_and_detected_shards_in_one_prefetch(tmp_path, detected_spans):
    """The parent writes the sliced train shard while the test split is
    detected (on the pool when ``REPRO_WORKERS`` asks for one)."""
    keys = [("small1", "helmet", "train"), ("small1", "helmet", "test")]
    with Harness(replace(HarnessConfig.quick(), cache_dir=str(tmp_path))) as harness:
        produced = harness.prefetch(keys)
        assert harness.pool().started == harness.pool().parallel
    assert detected_spans == [("helmet", "test", (0, 80))]
    assert len(list(tmp_path.iterdir())) == 2
    for model, setting, split in keys:
        assert_batches_identical(oracle(harness, model, setting, split), produced[(model, setting, split)])


def test_warm_sliced_shard_is_neither_loaded_nor_rewritten(tmp_path, monkeypatch, detected_spans):
    config = replace(HarnessConfig.quick(), cache_dir=str(tmp_path))
    with Harness(config) as harness:
        harness.detections("small1", "helmet", "train")
    (path,) = tmp_path.iterdir()
    written = path.stat().st_mtime_ns
    stored, loaded = [], []
    monkeypatch.setattr(Harness, "_store_shard", staticmethod(lambda *args: stored.append(args)))
    monkeypatch.setattr(Harness, "_load_shard", staticmethod(lambda *args: loaded.append(args)))
    with Harness(config) as harness:
        produced = harness.detections("small1", "helmet", "train")
    assert stored == [] and loaded == [] and detected_spans == []
    assert path.stat().st_mtime_ns == written
    assert np.shares_memory(produced.scores, calibration_detections("small1", "helmet").scores)
    assert_batches_identical(oracle(harness, "small1", "helmet"), produced)


def test_retained_sample_is_read_only(tmp_path):
    sample = calibration_detections("small1", "helmet")
    with Harness(replace(HarnessConfig.quick(), cache_dir=str(tmp_path))) as harness:
        sliced = harness.detections("small1", "helmet", "train")
    assert np.shares_memory(sliced.scores, sample.scores)  # one shard: a view of the sample
    for batch, names in ((sample, COLUMNS), (sliced, ("boxes", "scores", "labels"))):
        for name in names:
            column = getattr(batch, name)
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[:1] = column[:1]


# --------------------------------------------------------------------- #
# the train split itself
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("setting", ["helmet", "voc07"])
def test_quick_train_split_is_the_sample_head(setting, generated):
    config = HarnessConfig.quick()
    sample = calibration_sample(setting, seed=config.seed)
    generated.clear()
    dataset = Harness(config).dataset(setting, "train")
    assert generated == []  # the 600 images are the sample's first 600
    assert len(dataset) == 600
    assert np.shares_memory(dataset.truth_batch.boxes, sample.truth_batch.boxes)
    assert_datasets_identical(dataset, independent_split(config, setting))


def test_full_helmet_train_split_is_the_sample(generated):
    config = HarnessConfig()
    sample = calibration_sample("helmet", seed=config.seed)
    generated.clear()
    assert Harness(config).dataset("helmet", "train") is sample
    assert generated == []


def test_train_split_past_the_sample_generates_only_the_tail(generated):
    config = HarnessConfig(train_images=4100)
    sample = calibration_sample("voc07", seed=config.seed)
    generated.clear()
    dataset = Harness(config).dataset("voc07", "train")
    assert generated == [("voc07", "train", 4000, 4100)]
    assert all(a is b for a, b in zip(dataset.records, sample.records))  # reused, not regenerated
    assert_datasets_identical(dataset, independent_split(config, "voc07"))
    assert not dataset.truth_batch.boxes.flags.writeable


def test_sample_arrays_are_read_only():
    sample = calibration_sample("helmet")
    truths = sample.truth_batch
    record = sample.records[0].truth
    for column in (truths.boxes, truths.labels, truths.offsets, record.boxes, record.labels):
        assert not column.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            column[:1] = column[:1]


def test_second_model_calibration_generates_no_images(monkeypatch, generated):
    # Empty memos, restored afterwards: calibrate the setting from scratch.
    monkeypatch.setattr(presets_module, "_DETECTOR_CACHE", {})
    monkeypatch.setattr(presets_module, "_SAMPLE_CACHE", {})
    make_detector("small1", "helmet")
    assert generated == [("helmet", "train", 0, 3000)]
    make_detector("ssd", "helmet")
    assert generated == [("helmet", "train", 0, 3000)]
