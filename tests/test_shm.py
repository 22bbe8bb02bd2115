"""Lifecycle and equivalence suite for the zero-copy data plane.

Three invariants, each enforced bit-for-bit or segment-for-segment:

* **Equivalence** — batches transported through shared memory are
  byte-identical to the serial / pickle path, dtype included.
* **No leaks** — ``/dev/shm`` carries zero arena segments after normal pool
  shutdown, after a worker exception, and after ``WorkerPool.__exit__`` on
  an error path (checked via :func:`repro.runtime.shm.leaked_segments`).
* **Fallbacks are exact** — oversized segments, ``REPRO_SHM=0`` and serial
  pools all fall back to pickling with identical bytes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import load_dataset
from repro.detection import DetectionBatch
from repro.errors import ConfigurationError, GeometryError
from repro.runtime.parallel import detect_records, run_spans, shard_spans
from repro.runtime.pool import WorkerPool
from repro.runtime.shm import (
    SharedArena,
    SharedBatchHandle,
    adopt_batch,
    leaked_segments,
    share_batch,
    shm_supported,
)

pytestmark = pytest.mark.skipif(not shm_supported(), reason="no /dev/shm on this platform")


def assert_batches_identical(left: DetectionBatch, right: DetectionBatch) -> None:
    assert left.image_ids == right.image_ids
    assert left.detector == right.detector
    for name in ("boxes", "scores", "labels", "offsets"):
        a, b = getattr(left, name), getattr(right, name)
        assert a.dtype == b.dtype
        assert np.array_equal(a, b), f"{name} differ"


@pytest.fixture(scope="module")
def split_small():
    """A 96-image slice of the VOC07 test split (module-local size)."""
    return load_dataset("voc07", "test", fraction=96 / 4952)


@pytest.fixture(scope="module")
def serial_batch(split_small, small1_voc07):
    return detect_records(small1_voc07, split_small.records)


class _ExplodingDetector:
    """Module-level (hence picklable) detector that always raises."""

    name = "exploding"

    def detect_columns(self, truths, qualities):
        raise RuntimeError("boom")


# --------------------------------------------------------------------- #
# share/adopt round-trip
# --------------------------------------------------------------------- #
def test_to_shared_round_trip_is_bit_for_bit(serial_batch):
    handle = serial_batch.to_shared(prefix="repro-test-rt")
    assert isinstance(handle, SharedBatchHandle)
    adopted = DetectionBatch.from_shared(handle)
    assert_batches_identical(adopted, serial_batch)
    # adoption unlinked the name immediately: nothing to leak, ever
    assert leaked_segments("repro-test-rt") == ()


def test_adopted_views_are_zero_copy_and_read_only(serial_batch):
    adopted = DetectionBatch.from_shared(serial_batch.to_shared(prefix="repro-test-zc"))
    base = adopted.boxes
    while getattr(base, "base", None) is not None:
        base = base.base
    import mmap

    assert isinstance(base, mmap.mmap)
    assert not adopted.boxes.flags.writeable
    with pytest.raises((ValueError, TypeError)):
        adopted.scores[0] = -1.0
    assert leaked_segments("repro-test-zc") == ()


def test_empty_batch_round_trips(small1_voc07):
    empty = DetectionBatch.from_list([], detector=small1_voc07.name)
    adopted = DetectionBatch.from_shared(empty.to_shared(prefix="repro-test-empty"))
    assert_batches_identical(adopted, empty)
    assert leaked_segments("repro-test-empty") == ()


def test_adopting_twice_raises(serial_batch):
    handle = serial_batch.to_shared(prefix="repro-test-once")
    adopt_batch(handle)
    with pytest.raises(ConfigurationError):
        adopt_batch(handle)


def test_to_shared_oversize_raises_and_share_batch_declines(serial_batch):
    with pytest.raises(GeometryError):
        serial_batch.to_shared(prefix="repro-test-big", max_bytes=8)
    assert share_batch(serial_batch, prefix="repro-test-big", max_bytes=8) is None
    assert leaked_segments("repro-test-big") == ()


def test_arena_sweeps_unadopted_handles(serial_batch):
    arena = SharedArena(prefix="repro-test-sweep")
    handle = share_batch(serial_batch, prefix=arena.prefix)
    assert arena.leaked() == (handle.name,)
    assert arena.sweep() == (handle.name,)
    assert arena.leaked() == ()
    with pytest.raises(ConfigurationError):
        adopt_batch(handle)  # swept, not adoptable


def test_arena_rejects_bad_prefix():
    with pytest.raises(ConfigurationError):
        SharedArena(prefix="has/slash")
    with pytest.raises(ConfigurationError):
        SharedArena(prefix="")


# --------------------------------------------------------------------- #
# pool transport equivalence + lifecycle
# --------------------------------------------------------------------- #
def _jobs(detector, split, shards):
    """One job per balanced span of ``split``; spans of at least 32 images
    (the runner's minimum piece) engage the pool."""
    return [(detector, split, span) for span in shard_spans(len(split), shards)]


def test_run_spans_over_pool_matches_serial_with_zero_leaks(split_small, small1_voc07):
    jobs = _jobs(small1_voc07, split_small, 3)
    serial = [detect_records(*job) for job in jobs]
    with WorkerPool(2) as pool:
        assert pool.shm_enabled
        prefix = pool.arena.prefix
        parts = run_spans(jobs, pool=pool)
        assert pool.started
        for got, want in zip(parts, serial):
            assert_batches_identical(got, want)
    assert leaked_segments(prefix) == ()


def test_worker_exception_leaves_no_segments(split_small):
    with WorkerPool(2) as pool:
        prefix = pool.arena.prefix
        with pytest.raises(RuntimeError, match="boom"):
            run_spans(_jobs(_ExplodingDetector(), split_small, 3), pool=pool)
    assert leaked_segments(prefix) == ()


def test_pool_exit_on_error_sweeps_arena(split_small, small1_voc07):
    prefix = None
    with pytest.raises(RuntimeError, match="mid-drain"):
        with WorkerPool(2) as pool:
            prefix = pool.arena.prefix
            run_spans(_jobs(small1_voc07, split_small, 3), pool=pool)
            raise RuntimeError("mid-drain")
    assert prefix is not None
    assert leaked_segments(prefix) == ()
    assert pool.closed


def test_oversized_shards_fall_back_to_pickle_exactly(split_small, small1_voc07):
    jobs = _jobs(small1_voc07, split_small, 3)
    serial = [detect_records(*job) for job in jobs]
    with WorkerPool(2) as pool:
        pool.arena.max_segment_bytes = 8  # every shard is oversized
        assert pool.shm_transport.max_segment_bytes == 8
        prefix = pool.arena.prefix
        parts = run_spans(jobs, pool=pool)
        for got, want in zip(parts, serial):
            assert_batches_identical(got, want)
    assert leaked_segments(prefix) == ()


def test_repro_shm_env_disables_transport(monkeypatch, split_small, small1_voc07):
    monkeypatch.setenv("REPRO_SHM", "0")
    jobs = _jobs(small1_voc07, split_small, 2)
    serial = [detect_records(*job) for job in jobs]
    with WorkerPool(2) as pool:
        assert not pool.shm_enabled
        assert pool.arena is None
        assert pool.shm_transport is None
        parts = run_spans(jobs, pool=pool)
        assert pool.started
        for got, want in zip(parts, serial):
            assert_batches_identical(got, want)


def test_serial_pool_has_no_transport():
    pool = WorkerPool(1)
    assert not pool.shm_enabled
    assert pool.shm_transport is None
    pool.shutdown()


# --------------------------------------------------------------------- #
# inputs travel as columns
# --------------------------------------------------------------------- #
def test_split_loaded_after_pool_start_is_exact(small1_voc07):
    """Workers need nothing from the parent but the task: a split that did
    not exist when the workers forked is detected exactly."""
    with WorkerPool(2) as pool:
        assert pool.submit(len, (1, 2, 3)).result() == 3  # executor up first
        late = load_dataset("voc07", "test", fraction=64 / 4952)
        jobs = _jobs(small1_voc07, late, 2)
        parts = run_spans(jobs, pool=pool)
        assert pool.start_count == 1
    for got, job in zip(parts, jobs):
        assert_batches_identical(got, detect_records(*job))


# --------------------------------------------------------------------- #
# serial submit exception semantics (satellite: BaseException must escape)
# --------------------------------------------------------------------- #
def test_serial_submit_puts_ordinary_errors_on_the_future():
    pool = WorkerPool(1)
    future = pool.submit(_raise, ValueError("bad"))
    with pytest.raises(ValueError, match="bad"):
        future.result()
    pool.shutdown()


def test_serial_submit_propagates_keyboard_interrupt():
    pool = WorkerPool(1)
    with pytest.raises(KeyboardInterrupt):
        pool.submit(_raise, KeyboardInterrupt())
    pool.shutdown()


def test_serial_submit_propagates_system_exit():
    pool = WorkerPool(1)
    with pytest.raises(SystemExit):
        pool.submit(_raise, SystemExit(2))
    pool.shutdown()


def _raise(exc):
    raise exc
