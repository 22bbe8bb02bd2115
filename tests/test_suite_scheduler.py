"""Exact-equality suite for the persistent worker pool and suite scheduler.

Everything here asserts *exact* (bit-for-bit) identity: detections are a
pure function of ``(seed, profile, image id)``, so neither the
harness-lifetime pool nor the suite-level fan-out may change a single byte
relative to the serial path.  Pool-lifecycle tests additionally pin the
"at most one process pool per harness lifetime" guarantee.
"""

from __future__ import annotations

import gc
import os
import weakref

import numpy as np
import pytest

from repro.data import load_dataset
from repro.detection import DetectionBatch
from repro.errors import ConfigurationError
from repro.experiments import Harness, HarnessConfig
from repro.experiments import figures as figures_module
from repro.experiments import tables as tables_module
from repro.experiments.suite import prefetch_detections, suite_artifacts
from repro.runtime.parallel import detect_records, run_spans, run_split
from repro.runtime.pool import WorkerPool


def assert_batches_identical(left: DetectionBatch, right: DetectionBatch) -> None:
    assert left.image_ids == right.image_ids
    assert left.detector == right.detector
    for name in ("boxes", "scores", "labels", "offsets"):
        a, b = getattr(left, name), getattr(right, name)
        assert a.dtype == b.dtype
        assert np.array_equal(a, b), f"{name} differ"


def _tiny_config(tmp_path, **overrides):
    defaults = dict(
        train_images=40,
        test_fraction=100 / 4952,
        cache_dir=str(tmp_path),
        cache_shard_size=32,
    )
    defaults.update(overrides)
    return HarnessConfig(**defaults)


#: A small artifact mix spanning models and splits (all on voc07 so the
#: tiny datasets stay cheap to materialise).
TINY_ARTIFACTS = (
    ("small1", "voc07", "test"),
    ("ssd", "voc07", "test"),
    ("small1", "voc07", "train"),
)


# --------------------------------------------------------------------- #
# WorkerPool lifecycle
# --------------------------------------------------------------------- #
def test_pool_serial_fallback_runs_inline():
    pool = WorkerPool(1)
    assert not pool.parallel
    future = pool.submit(sorted, [3, 1, 2])
    assert future.result() == [1, 2, 3]
    assert not pool.started  # serial submissions never fork
    assert pool.start_count == 0


def test_pool_serial_inline_exception_lands_in_future():
    pool = WorkerPool(1)
    future = pool.submit(int, "not a number")
    with pytest.raises(ValueError):
        future.result()


def test_pool_workers_resolve_from_env(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "3")
    assert WorkerPool().workers == 3
    monkeypatch.delenv("REPRO_WORKERS")
    assert WorkerPool().workers == 1
    with pytest.raises(ConfigurationError):
        WorkerPool(0)


def test_pool_lazy_start_and_at_most_one_executor():
    with WorkerPool(2) as pool:
        assert not pool.started  # construction is free
        first = pool.submit(sorted, [2, 1]).result()
        assert first == [1, 2]
        assert pool.started
        for _ in range(3):
            pool.submit(sorted, [2, 1]).result()
        assert pool.start_count == 1
    assert pool.closed
    assert not pool.started


def test_pool_shutdown_refuses_new_work():
    pool = WorkerPool(2)
    pool.shutdown()
    pool.shutdown()  # idempotent
    with pytest.raises(ConfigurationError):
        pool.submit(sorted, [1])
    with pytest.raises(ConfigurationError):
        with pool:
            pass


def test_pool_context_manager_shuts_down_on_exception():
    with pytest.raises(RuntimeError, match="boom"):
        with WorkerPool(2) as pool:
            assert pool.submit(sorted, [2, 1]).result() == [1, 2]
            raise RuntimeError("boom")
    assert pool.closed
    with pytest.raises(ConfigurationError):
        pool.submit(sorted, [1])


# --------------------------------------------------------------------- #
# shared pool across runner calls
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def split_tiny():
    """A 128-image slice of the VOC07 test split (module-local size)."""
    return load_dataset("voc07", "test", fraction=128 / 4952)


def test_pool_reused_across_runner_calls(split_tiny, small1_voc07):
    records = split_tiny.records
    with WorkerPool(2) as pool:
        first = run_split(small1_voc07, records[:64], pool=pool)
        second = run_split(small1_voc07, records[64:], pool=pool)
        shards = run_spans([(small1_voc07, split_tiny, (0, 48)), (small1_voc07, split_tiny, (48, 128))], pool=pool)
        assert pool.start_count == 1  # one executor served every call
    assert_batches_identical(first, detect_records(small1_voc07, records[:64]))
    assert_batches_identical(second, detect_records(small1_voc07, records[64:]))
    assert_batches_identical(
        DetectionBatch.concat(shards),
        detect_records(small1_voc07, records),
    )


# --------------------------------------------------------------------- #
# harness pool lifetime
# --------------------------------------------------------------------- #
def test_harness_single_pool_per_lifetime(tmp_path):
    with Harness(_tiny_config(tmp_path, workers=2)) as harness:
        pool = harness.pool()
        assert pool is harness.pool()  # one shared object
        harness.detections("small1", "voc07", "test")
        harness.detections("ssd", "voc07", "test")
        assert harness.pool() is pool
        assert pool.start_count == 1
    assert pool.closed


@pytest.mark.parametrize("workers", [1, 2])
def test_closed_harness_frees_its_records(tmp_path, workers):
    """Once a harness that produced detections is closed and dropped, no
    record of its datasets stays alive — pooled production included."""
    with Harness(_tiny_config(tmp_path, workers=workers)) as harness:
        harness.detections("small1", "voc07", "test")
        assert harness.pool().started == (workers > 1)
        record = weakref.ref(harness.dataset("voc07", "test").records[0])
    del harness
    gc.collect()
    assert record() is None


def test_harness_serial_config_never_forks(tmp_path):
    with Harness(_tiny_config(tmp_path, workers=1)) as harness:
        harness.detections("small1", "voc07", "test")
        assert not harness.pool().started


def test_harness_close_is_idempotent(tmp_path):
    harness = Harness(_tiny_config(tmp_path, workers=2))
    harness.detections("small1", "voc07", "test")
    harness.close()
    harness.close()
    assert harness._pool is not None and harness._pool.closed


# --------------------------------------------------------------------- #
# suite scheduler: exact equality with the serial path
# --------------------------------------------------------------------- #
def test_prefetch_matches_serial_detections(tmp_path):
    # The oracle detects every artifact afresh: a harness slices train
    # shards from the calibration sample, so two harnesses would compare
    # that memo with itself.
    serial = Harness(_tiny_config(tmp_path / "serial", workers=1))
    expected = {
        (model, setting, split): detect_records(serial.detector(model, setting), serial.dataset(setting, split))
        for model, setting, split in TINY_ARTIFACTS
    }
    with Harness(_tiny_config(tmp_path / "pooled", workers=2)) as harness:
        produced = prefetch_detections(harness, TINY_ARTIFACTS)
        assert tuple(produced) == TINY_ARTIFACTS
        for key in TINY_ARTIFACTS:
            assert_batches_identical(expected[key], produced[key])
            # Prefetched artifacts are memoised: detections() is now free.
            assert harness.detections(*key) is produced[key]


def test_prefetch_serial_pool_identical(tmp_path):
    """A 1-worker prefetch (inline submissions) is also bit-for-bit exact."""
    serial = Harness(_tiny_config(tmp_path / "serial", workers=1))
    expected = {key: serial.detections(*key) for key in TINY_ARTIFACTS}
    inline = Harness(_tiny_config(tmp_path / "inline", workers=1))
    produced = prefetch_detections(inline, TINY_ARTIFACTS)
    for key in TINY_ARTIFACTS:
        assert_batches_identical(expected[key], produced[key])
    assert not inline.pool().started


def test_prefetch_mixed_warm_and_cold_shards(tmp_path):
    config = _tiny_config(tmp_path, workers=2)
    with Harness(config) as first:
        original = prefetch_detections(first, TINY_ARTIFACTS)
    shard_files = sorted(os.listdir(tmp_path))
    assert len(shard_files) >= 6  # 100-image test split + 40-image train split
    # Drop one shard and corrupt another: the next prefetch reuses every
    # other warm shard and recomputes only these two, byte-identically.
    (tmp_path / shard_files[1]).unlink()
    (tmp_path / shard_files[3]).write_bytes(b"not a zipfile")
    with Harness(config) as second:
        recomputed = prefetch_detections(second, TINY_ARTIFACTS)
    for key in TINY_ARTIFACTS:
        assert_batches_identical(original[key], recomputed[key])
    assert sorted(os.listdir(tmp_path)) == shard_files  # cache healed


def test_prefetch_deduplicates_and_preserves_order(tmp_path):
    with Harness(_tiny_config(tmp_path, workers=2)) as harness:
        duplicated = TINY_ARTIFACTS + TINY_ARTIFACTS[:2]
        produced = prefetch_detections(harness, duplicated)
        assert tuple(produced) == TINY_ARTIFACTS  # first-request order, deduped
        # A second prefetch reuses the same (already started) pool.
        again = prefetch_detections(harness, TINY_ARTIFACTS)
        assert harness.pool().start_count <= 1
        for key in TINY_ARTIFACTS:
            assert produced[key] is again[key]


def test_prefetch_single_span_artifact_subshards_across_pool(tmp_path):
    """One cold artifact whose split fits in a single cache shard still
    engages the pool (sub-sharded like run_split) and stays byte-exact."""
    serial = Harness(_tiny_config(tmp_path / "serial", workers=1, cache_shard_size=1024))
    expected = serial.detections("small1", "voc07", "test")
    pooled_config = _tiny_config(tmp_path / "pooled", workers=2, cache_shard_size=1024)
    with Harness(pooled_config) as harness:
        produced = prefetch_detections(harness, (("small1", "voc07", "test"),))
        assert harness.pool().started  # the single span was split across workers
    assert_batches_identical(expected, produced[("small1", "voc07", "test")])
    # The persisted cache shard is whole: a fresh serial harness reloads it.
    reloaded = Harness(pooled_config).detections("small1", "voc07", "test")
    assert_batches_identical(expected, reloaded)


def test_prefetch_empty_artifact_list(tmp_path):
    with Harness(_tiny_config(tmp_path, workers=2)) as harness:
        assert prefetch_detections(harness, ()) == {}
        assert not harness.pool().started


# --------------------------------------------------------------------- #
# suite artifact enumeration
# --------------------------------------------------------------------- #
def test_table_artifact_enumeration_covers_every_pair():
    artifacts = tables_module.detection_artifacts()
    assert len(artifacts) == len(set(artifacts))  # no duplicates
    for small, big, setting in tables_module.MODEL_PAIRS:
        for split in ("train", "test"):
            assert (small, setting, split) in artifacts
            assert (big, setting, split) in artifacts


def test_figure_artifacts_are_subset_of_tables():
    table_keys = set(tables_module.detection_artifacts())
    assert set(figures_module.detection_artifacts()) <= table_keys


def test_suite_artifacts_selection():
    full = suite_artifacts()
    assert full == tables_module.detection_artifacts()  # figures add nothing
    assert len(full) == len(set(full))

