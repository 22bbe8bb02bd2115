"""Equivalence suite for the parallel sharded split runner, the streaming
batch builder, the ground-truth batch and the sharded disk cache.

Everything here asserts *exact* (bit-for-bit) identity: detections are a
pure function of ``(seed, profile, image id)``, so sharding, process pools,
builder accumulation and cache round-trips must not change a single byte.
"""

from __future__ import annotations

import os
from dataclasses import replace

import numpy as np
import pytest

from repro.data import load_dataset
from repro.detection import DetectionBatch, DetectionBatchBuilder, GroundTruthBatch
from repro.errors import ConfigurationError, GeometryError
from repro.experiments import Harness, HarnessConfig
from repro.metrics.counting import count_detected_objects, count_summary
from repro.metrics.voc_ap import evaluate_detections, mean_average_precision
from repro.runtime.parallel import (
    detect_records,
    resolve_workers,
    run_shards,
    run_split,
    shard_spans,
)
from repro.runtime.pool import WorkerPool


def assert_batches_identical(left: DetectionBatch, right: DetectionBatch) -> None:
    assert left.image_ids == right.image_ids
    assert left.detector == right.detector
    for name in ("boxes", "scores", "labels", "offsets"):
        a, b = getattr(left, name), getattr(right, name)
        assert a.dtype == b.dtype
        assert np.array_equal(a, b), f"{name} differ"


@pytest.fixture(scope="module")
def split_small():
    """A 120-image slice of the VOC07 test split (module-local size)."""
    return load_dataset("voc07", "test", fraction=120 / 4952)


@pytest.fixture(scope="module")
def serial_batch(split_small, small1_voc07):
    return DetectionBatch.from_list(small1_voc07.detect_split(split_small), detector=small1_voc07.name)


# --------------------------------------------------------------------- #
# worker resolution + sharding geometry
# --------------------------------------------------------------------- #
def test_resolve_workers_explicit_wins(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "7")
    assert resolve_workers(3) == 3
    assert resolve_workers() == 7


def test_resolve_workers_env_default(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert resolve_workers() == 1
    monkeypatch.setenv("REPRO_WORKERS", "")
    assert resolve_workers() == 1


def test_resolve_workers_rejects_bad_values(monkeypatch):
    with pytest.raises(ConfigurationError):
        resolve_workers(0)
    monkeypatch.setenv("REPRO_WORKERS", "two")
    with pytest.raises(ConfigurationError):
        resolve_workers()


@pytest.mark.parametrize("count", [0, 1, 5, 97, 1024])
@pytest.mark.parametrize("shards", [1, 2, 3, 8])
def test_shard_spans_cover_exactly(count, shards):
    spans = shard_spans(count, shards)
    if count == 0:
        assert spans == []
        return
    assert spans[0][0] == 0 and spans[-1][1] == count
    for (_, hi), (lo, _) in zip(spans, spans[1:]):
        assert hi == lo  # contiguous
    lengths = [hi - lo for lo, hi in spans]
    assert all(length >= 1 for length in lengths)
    assert max(lengths) - min(lengths) <= 1  # balanced
    assert len(spans) == min(shards, count)


# --------------------------------------------------------------------- #
# parallel runner ≡ serial detect_split
# --------------------------------------------------------------------- #
def test_run_split_parallel_matches_serial(split_small, small1_voc07, serial_batch):
    with WorkerPool(2) as pool:
        parallel = run_split(small1_voc07, split_small, pool=pool, min_shard_images=8)
    assert_batches_identical(serial_batch, parallel)


def test_run_split_three_workers_matches_serial(split_small, small1_voc07, serial_batch):
    with WorkerPool(3) as pool:
        parallel = run_split(small1_voc07, split_small, pool=pool, min_shard_images=8)
    assert_batches_identical(serial_batch, parallel)


def test_run_split_tiny_split_serial_fallback(split_small, small1_voc07):
    records = split_small.records[:10]
    # 10 images with the default 32-image minimum shard: stays in-process.
    with WorkerPool(8) as pool:
        batch = run_split(small1_voc07, records, pool=pool)
        assert not pool.started  # the fallback never engaged the workers
    assert_batches_identical(batch, detect_records(small1_voc07, records))


def test_run_shards_order_preserved(split_small, small1_voc07, serial_batch):
    records = split_small.records
    shards = [records[0:40], records[40:80], records[80:120]]
    with WorkerPool(2) as pool:
        parts = run_shards(small1_voc07, shards, pool=pool)
    assert [len(part) for part in parts] == [40, 40, 40]
    assert_batches_identical(DetectionBatch.concat(parts), serial_batch)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_shards_on_result_fires_per_completed_shard(split_small, small1_voc07, workers):
    records = split_small.records
    shards = [records[0:40], records[40:80], records[80:120]]
    seen: dict[int, int] = {}
    with WorkerPool(workers) as pool:
        parts = run_shards(
            small1_voc07,
            shards,
            pool=pool,
            on_result=lambda index, batch: seen.__setitem__(index, len(batch)),
        )
    # Every shard reported exactly once, with the batch later returned at
    # that index (completion order may differ; indices must not).
    assert seen == {0: 40, 1: 40, 2: 40}
    assert [len(part) for part in parts] == [40, 40, 40]


def test_detect_records_matches_detect_split(split_small, small1_voc07):
    assert_batches_identical(
        detect_records(small1_voc07, split_small.records),
        DetectionBatch.from_list(
            small1_voc07.detect_split(split_small), detector=small1_voc07.name
        ),
    )


# --------------------------------------------------------------------- #
# DetectionBatchBuilder ≡ from_list
# --------------------------------------------------------------------- #
def test_builder_matches_from_list(serial_batch):
    items = serial_batch.to_list()
    builder = DetectionBatchBuilder()
    for item in items:
        builder.append_detections(item)
    assert len(builder) == len(items)
    assert builder.num_boxes == serial_batch.num_boxes
    assert_batches_identical(builder.build(), DetectionBatch.from_list(items))


def test_builder_raw_append_matches(serial_batch):
    builder = DetectionBatchBuilder(detector=serial_batch.detector)
    for view in serial_batch:
        builder.append(view.image_id, view.boxes, view.scores, view.labels)
    assert_batches_identical(builder.build(), serial_batch)


def test_builder_empty_and_mixed_detectors():
    empty = DetectionBatchBuilder().build()
    assert len(empty) == 0 and empty.num_boxes == 0
    assert empty.detector == "mixed"  # from_list([]) behaviour

    builder = DetectionBatchBuilder()
    builder.append("img-a", np.zeros((0, 4)), np.zeros(0), np.zeros(0, dtype=np.int64))
    batch = builder.build()
    assert batch.image_ids == ("img-a",)
    assert batch.counts().tolist() == [0]


def test_builder_snapshots_are_stable(serial_batch):
    """build() may be called mid-stream; later appends don't mutate it."""
    items = serial_batch.to_list()
    builder = DetectionBatchBuilder(detector=serial_batch.detector)
    half = len(items) // 2
    for item in items[:half]:
        builder.append_detections(item)
    snapshot = builder.build()
    frozen_scores = snapshot.scores.copy()
    for item in items[half:]:
        builder.append_detections(item)
    assert np.array_equal(snapshot.scores, frozen_scores)
    assert_batches_identical(builder.build(), serial_batch)


def test_builder_validates_on_build():
    builder = DetectionBatchBuilder()
    builder.append("bad", np.array([[0.0, 0.0, 0.5, 0.5]]), np.array([1.5]), np.array([0]))
    with pytest.raises(GeometryError):
        builder.build()


def test_builder_rejects_misaligned_appends():
    builder = DetectionBatchBuilder()
    boxes = np.array([[0.0, 0.0, 0.5, 0.5], [0.1, 0.1, 0.6, 0.6]])
    with pytest.raises(GeometryError):  # one score for two boxes: no broadcast
        builder.append("a", boxes, np.array([0.9]), np.array([0, 1]))
    with pytest.raises(GeometryError):  # label shortfall
        builder.append("a", boxes, np.array([0.9, 0.8]), np.array([0]))
    with pytest.raises(GeometryError):  # non-(N, 4) boxes must not reshape
        builder.append("a", np.zeros((2, 8)), np.zeros(4), np.zeros(4, dtype=np.int64))
    assert len(builder) == 0 and builder.num_boxes == 0


def test_concat_inverse_of_slicing(serial_batch):
    pieces = [serial_batch[:30], serial_batch[30:75], serial_batch[75:]]
    assert_batches_identical(DetectionBatch.concat(pieces), serial_batch)
    only = DetectionBatch.concat([serial_batch])
    assert_batches_identical(only, serial_batch)
    none = DetectionBatch.concat([], detector="small1")
    assert len(none) == 0 and none.detector == "small1"


# --------------------------------------------------------------------- #
# GroundTruthBatch ≡ per-image annotations
# --------------------------------------------------------------------- #
def test_ground_truth_batch_flattening(split_small):
    truths = split_small.truths
    gt = GroundTruthBatch.from_truths(truths)
    assert gt.image_ids == split_small.image_ids
    assert gt.total_objects == split_small.total_objects
    assert np.array_equal(gt.counts(), np.array([len(t) for t in truths]))
    assert np.array_equal(gt.boxes, np.concatenate([t.boxes for t in truths]))
    assert np.array_equal(gt.labels, np.concatenate([t.labels for t in truths]))
    assert np.array_equal(gt.min_area_ratios(), np.array([t.min_area_ratio for t in truths]))
    assert np.array_equal(
        gt.image_indices(),
        np.repeat(np.arange(len(truths)), [len(t) for t in truths]),
    )


def test_ground_truth_batch_coerce(split_small):
    gt = split_small.truth_batch
    assert split_small.truth_batch is gt  # cached on the dataset
    assert GroundTruthBatch.coerce(gt) is gt
    assert GroundTruthBatch.coerce(split_small) is gt  # Dataset pass-through
    rebuilt = GroundTruthBatch.coerce(split_small.truths)
    assert rebuilt.image_ids == gt.image_ids
    assert np.array_equal(rebuilt.boxes, gt.boxes)


def test_ground_truth_batch_validation():
    with pytest.raises(GeometryError):
        GroundTruthBatch(
            image_ids=("a",),
            boxes=np.zeros((2, 4)),
            labels=np.zeros(1, dtype=np.int64),
            offsets=np.array([0, 2]),
        )
    with pytest.raises(GeometryError):
        GroundTruthBatch(
            image_ids=("a", "b"),
            boxes=np.zeros((0, 4)),
            labels=np.zeros(0, dtype=np.int64),
            offsets=np.array([0, 0]),
        )


def test_ground_truth_batch_metrics_identical(split_small, serial_batch):
    """mAP / AP curves / counts are bit-for-bit equal via list or batch GT."""
    served = serial_batch.above(0.5)
    truths = split_small.truths
    num_classes = split_small.num_classes

    from_list = evaluate_detections(served, truths, num_classes)
    from_batch = evaluate_detections(served, split_small.truth_batch, num_classes)
    assert from_list.per_class_ap == from_batch.per_class_ap
    assert from_list.map == from_batch.map
    assert mean_average_precision(served, truths, num_classes) == (
        mean_average_precision(served, split_small, num_classes)
    )

    assert count_detected_objects(serial_batch, truths) == (
        count_detected_objects(serial_batch, split_small.truth_batch)
    )
    assert count_summary(serial_batch, truths) == (count_summary(serial_batch, split_small.truth_batch))


def test_count_loss_curve_identical(split_small, serial_batch):
    from repro.core.thresholds import count_loss_curve

    t1, l1 = count_loss_curve(serial_batch, split_small.truths)
    t2, l2 = count_loss_curve(serial_batch, split_small.truth_batch)
    assert np.array_equal(t1, t2) and np.array_equal(l1, l2)


# --------------------------------------------------------------------- #
# harness: sharded disk cache + parallel production
# --------------------------------------------------------------------- #
def _tiny_config(tmp_path, **overrides):
    defaults = dict(
        train_images=40,
        test_fraction=100 / 4952,
        cache_dir=str(tmp_path),
        cache_shard_size=32,
    )
    defaults.update(overrides)
    return HarnessConfig(**defaults)


def test_harness_cache_shards_roundtrip(tmp_path):
    config = _tiny_config(tmp_path)
    first = Harness(config).detections("small1", "voc07", "test")
    shard_files = sorted(os.listdir(tmp_path))
    assert len(shard_files) == 4  # 100 images at shard size 32
    assert all(name.startswith("det-") and name.endswith(".npz") for name in shard_files)
    reloaded = Harness(config).detections("small1", "voc07", "test")
    assert_batches_identical(first, reloaded)


def test_harness_cache_partial_recompute(tmp_path):
    config = _tiny_config(tmp_path)
    first = Harness(config).detections("small1", "voc07", "test")
    shard_files = sorted(os.listdir(tmp_path))
    # Drop one shard and corrupt another: only those two are recomputed,
    # and the reassembled split is identical.
    (tmp_path / shard_files[1]).unlink()
    (tmp_path / shard_files[2]).write_bytes(b"not a zipfile")
    recomputed = Harness(config).detections("small1", "voc07", "test")
    assert_batches_identical(first, recomputed)
    assert len(os.listdir(tmp_path)) == len(shard_files)


def test_harness_parallel_matches_serial(tmp_path):
    serial = Harness(_tiny_config(tmp_path / "serial", workers=1)).detections("small1", "voc07", "test")
    with Harness(_tiny_config(tmp_path / "parallel", workers=2, cache_shard_size=16)) as harness:
        parallel = harness.detections("small1", "voc07", "test")
    assert_batches_identical(serial, parallel)


def test_harness_subset_shares_full_shards(tmp_path):
    """A smaller test fraction reuses the full shards it has in common."""
    big = _tiny_config(tmp_path, test_fraction=96 / 4952, cache_shard_size=32)
    Harness(big).detections("small1", "voc07", "test")
    files_after_big = set(os.listdir(tmp_path))
    assert len(files_after_big) == 3  # 96 images = 3 aligned shards

    small = _tiny_config(tmp_path, test_fraction=80 / 4952, cache_shard_size=32)
    subset = Harness(small).detections("small1", "voc07", "test")
    files_after_small = set(os.listdir(tmp_path))
    # The two aligned shards (0-32, 32-64) were reused; only the truncated
    # final shard (64-80) is new.
    assert len(files_after_small - files_after_big) == 1
    assert len(subset) == 80


def test_harness_workers_from_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_WORKERS", "2")
    config = _tiny_config(tmp_path)
    assert config.resolve_workers() == 2
    with Harness(config) as env_harness:
        env_parallel = env_harness.detections("small1", "voc07", "test")
    monkeypatch.delenv("REPRO_WORKERS")
    serial = Harness(_tiny_config(tmp_path / "serial-check")).detections("small1", "voc07", "test")
    assert_batches_identical(env_parallel, serial)


# --------------------------------------------------------------------- #
# streaming engine served-batch collection
# --------------------------------------------------------------------- #
def test_stream_collects_served_batch(split_small, serial_batch):
    from repro.runtime import StreamConfig, StreamSpec, edge_only_scheme, serve_stream
    from repro.runtime.devices import JETSON_NANO, RTX3060_SERVER
    from repro.runtime.network import WLAN
    from repro.runtime.serving import Deployment

    deployment = Deployment(edge=JETSON_NANO, cloud=RTX3060_SERVER, link=WLAN)
    spec = StreamSpec(edge_only_scheme(), StreamConfig(fps=30.0, duration_s=4.0, poisson=False))
    report = serve_stream(deployment, split_small, replace(spec, detections=serial_batch))
    assert report.served is not None
    assert len(report.served) == report.frames_served
    assert report.served.detector == serial_batch.detector
    # Every served frame's segment matches the source batch's segment.
    for view in report.served:
        index = split_small.image_ids.index(view.image_id)
        source = serial_batch[index]
        assert np.array_equal(view.boxes, source.boxes)
        assert np.array_equal(view.scores, source.scores)
        assert np.array_equal(view.labels, source.labels)
    # Without detections the report stays lean.
    assert serve_stream(deployment, split_small, spec).served is None
