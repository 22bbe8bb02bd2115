"""The harness reuses calibration's last-round detections for train shards.

Calibrating a detector detects the first ``calibration_images`` images of its
setting's train split with the calibrated profile.  The harness slices every
train cache shard that lies wholly inside that sample from those detections
instead of detecting the images again.  Each case compares the harness's
output with an independent serial detection of the same span
(:func:`repro.runtime.parallel.detect_records`), never with the memo.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import repro.experiments.harness as harness_module
from repro.detection import DetectionBatch
from repro.experiments import Harness, HarnessConfig
from repro.runtime.parallel import detect_records
from repro.simulate.presets import calibration_detections

COLUMNS = ("boxes", "scores", "labels", "offsets")


def assert_batches_identical(left: DetectionBatch, right: DetectionBatch) -> None:
    assert left.image_ids == right.image_ids
    assert left.detector == right.detector
    for name in COLUMNS:
        a, b = getattr(left, name), getattr(right, name)
        assert a.dtype == b.dtype
        assert np.array_equal(a, b), f"{name} differ"


@pytest.fixture
def detected_spans(monkeypatch) -> list:
    """Every ``(setting, split, span)`` job the harness hands ``run_spans``."""
    spans: list = []
    run_spans = harness_module.run_spans

    def spy(jobs, **kwargs):
        spans.extend((dataset.name, dataset.split, span) for _, dataset, span in jobs)
        return run_spans(jobs, **kwargs)

    monkeypatch.setattr(harness_module, "run_spans", spy)
    return spans


def oracle(harness: Harness, model: str, setting: str) -> DetectionBatch:
    """The train split detected serially, one span per cache shard."""
    detector = harness.detector(model, setting)
    dataset = harness.dataset(setting, "train")
    spans = harness._cache_spans(len(dataset))
    return DetectionBatch.concat([detect_records(detector, dataset, span) for span in spans], detector=detector.name)


def test_quick_helmet_split_is_one_sliced_shard(tmp_path, detected_spans):
    harness = Harness(replace(HarnessConfig.quick(), cache_dir=str(tmp_path), workers=1))
    produced = harness.detections("small1", "helmet", "train")
    assert len(produced) == 600
    assert detected_spans == []
    assert len(list(tmp_path.iterdir())) == 1  # the sliced shard is persisted
    assert_batches_identical(oracle(harness, "small1", "helmet"), produced)


def test_full_helmet_layout_is_three_sliced_shards(tmp_path, detected_spans):
    harness = Harness(HarnessConfig(cache_dir=str(tmp_path), workers=1))
    produced = harness.detections("ssd", "helmet", "train")
    assert harness._cache_spans(len(produced)) == [(0, 1024), (1024, 2048), (2048, 3000)]
    assert len(calibration_detections("ssd", "helmet")) == 3000  # the whole split
    assert detected_spans == []
    assert len(list(tmp_path.iterdir())) == 3
    assert_batches_identical(oracle(harness, "ssd", "helmet"), produced)
    # A fresh harness reloads all three shards from disk.
    reloaded = Harness(HarnessConfig(cache_dir=str(tmp_path), workers=1)).detections("ssd", "helmet", "train")
    assert_batches_identical(produced, reloaded)


def test_span_past_the_sample_is_detected(tmp_path, detected_spans, small1_voc07):
    config = HarnessConfig(train_images=4100, cache_dir=str(tmp_path), workers=1, cache_shard_size=512)
    harness = Harness(config)
    count = len(harness.dataset("voc07", "train"))
    assert len(calibration_detections("small1", "voc07")) == 4000
    produced = harness.detections("small1", "voc07", "train")
    # Shards up to image 3584 lie inside the sample; (3584, 4096) straddles
    # its end and the rest lies past it, so both are detected.
    assert detected_spans == [("voc07", "train", (3584, 4096)), ("voc07", "train", (4096, count))]
    assert len(list(tmp_path.iterdir())) == 9
    assert_batches_identical(oracle(harness, "small1", "voc07"), produced)


def test_warm_shard_is_loaded_not_rewritten(tmp_path, monkeypatch, detected_spans):
    config = replace(HarnessConfig.quick(), cache_dir=str(tmp_path), workers=1)
    Harness(config).detections("small1", "helmet", "train")
    (path,) = tmp_path.iterdir()
    written = path.stat().st_mtime_ns
    stored = []
    monkeypatch.setattr(Harness, "_store_shard", lambda self, *args: stored.append(args))
    harness = Harness(config)
    produced = harness.detections("small1", "helmet", "train")
    assert stored == [] and detected_spans == []
    assert path.stat().st_mtime_ns == written
    assert not np.shares_memory(produced.scores, calibration_detections("small1", "helmet").scores)
    assert_batches_identical(oracle(harness, "small1", "helmet"), produced)


def test_retained_sample_is_read_only(tmp_path):
    sample = calibration_detections("small1", "helmet")
    harness = Harness(replace(HarnessConfig.quick(), cache_dir=str(tmp_path), workers=1))
    sliced = harness.detections("small1", "helmet", "train")
    assert np.shares_memory(sliced.scores, sample.scores)  # one shard: a view of the sample
    for batch, names in ((sample, COLUMNS), (sliced, ("boxes", "scores", "labels"))):
        for name in names:
            column = getattr(batch, name)
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[:1] = column[:1]
