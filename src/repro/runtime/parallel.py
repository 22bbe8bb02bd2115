"""Parallel sharded detection runner with a shared-memory return path.

Detections are a pure function of ``(seed, profile name, image id)`` —
:mod:`repro._rng` derives every stream from SHA-256 digests, never from the
process-salted builtin ``hash`` — so a split can be partitioned into
contiguous image-range shards and detected on separate processes with
bit-for-bit identity to the serial loop.

:func:`run_spans` is the one runner.  It takes a list of jobs — a detector,
a split and one ``[lo, hi)`` image span of it — and returns one batch per
job, in job order.  Every caller goes through it: the harness's cache
planner (:meth:`repro.experiments.harness.Harness.prefetch`, one job per
missing cache shard) and :func:`run_split` (one job covering a whole split,
no cache).

* **Sharding** — each job is cut into ``min(ceil(workers / jobs),
  span // DEFAULT_MIN_SHARD_IMAGES)`` pieces, so a few large jobs still
  fill the pool and no piece is smaller than the minimum.  When fewer than
  two such pool-worthy pieces exist, or the pool is serial, every job runs
  inline instead: shipping the work would cost more than it saves.
* **Inputs** — a piece ships as ``(detector, ground-truth batch slice,
  quality array)``: the only columns
  :meth:`~repro.simulate.detector.SimulatedDetector.detect_columns` reads.
  Workers hold no reference to the split itself.
* **Results** — each worker detects its piece into one
  :class:`~repro.detection.batch.DetectionBatch` and, when the pool's
  shared-memory arena is enabled (parallel pool, Linux, ``REPRO_SHM`` not
  ``0``), parks the batch's flat columns in a named ``/dev/shm`` segment
  (:mod:`repro.runtime.shm`) and returns only a tiny handle; the parent
  adopts the segment as zero-copy numpy views.  Oversized pieces and
  non-Linux platforms return the batch through the pickle pipe instead —
  same bytes either way.

Pooling is external: callers pass a :class:`~repro.runtime.pool.WorkerPool`
(typically the harness-lifetime pool owned by
:class:`~repro.experiments.harness.Harness`) and this module only submits to
it, so process startup is paid at most once per pool lifetime.
"""

from __future__ import annotations

from concurrent.futures import as_completed
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.detection.batch import DetectionBatch, GroundTruthBatch
from repro.errors import ConfigurationError
from repro.runtime.pool import WorkerPool, resolve_workers
from repro.runtime.shm import SharedBatchHandle, ShmTransport, adopt_batch, discard_batch, share_batch
from repro.simulate.detector import split_columns

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.datasets import Dataset, ImageRecord
    from repro.simulate.detector import SimulatedDetector

    #: One detection job: a detector, a split and one ``[lo, hi)`` span of it.
    SpanJob = tuple[SimulatedDetector, Dataset | Sequence[ImageRecord], tuple[int, int]]

__all__ = [
    "DEFAULT_MIN_SHARD_IMAGES",
    "resolve_workers",
    "shard_spans",
    "detect_records",
    "run_spans",
    "run_split",
]

#: Below this many images per piece the pool is not worth engaging.
DEFAULT_MIN_SHARD_IMAGES = 32


def shard_spans(count: int, shards: int) -> list[tuple[int, int]]:
    """Partition ``range(count)`` into ``shards`` contiguous, balanced spans.

    Spans cover the range exactly, in order, and differ in length by at most
    one.  Empty ranges yield no spans; ``shards`` is clamped to ``count``.
    """
    if count < 0:
        raise ConfigurationError(f"count must be >= 0, got {count}")
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    if count == 0:
        return []
    shards = min(shards, count)
    base, extra = divmod(count, shards)
    spans: list[tuple[int, int]] = []
    lo = 0
    for index in range(shards):
        hi = lo + base + (1 if index < extra else 0)
        spans.append((lo, hi))
        lo = hi
    return spans


def detect_records(
    detector: "SimulatedDetector",
    records: "Dataset | Sequence[ImageRecord]",
    span: tuple[int, int] | None = None,
) -> DetectionBatch:
    """Run ``detector`` over a split (or the ``[lo, hi)`` span of it)
    serially into one batch: one columnar
    :meth:`~repro.simulate.detector.SimulatedDetector.detect_columns` pass."""
    return detector.detect_columns(*split_columns(records, span))


def _detect_task(
    detector: "SimulatedDetector",
    truths: GroundTruthBatch,
    qualities: np.ndarray,
    transport: ShmTransport | None,
) -> "SharedBatchHandle | DetectionBatch":
    """Pool worker entry point (module-level so it pickles).

    With a ``transport`` the result returns through the shared-memory arena
    unless the segment would be oversized.
    """
    batch = detector.detect_columns(truths, qualities)
    if transport is not None:
        handle = share_batch(batch, prefix=transport.prefix, max_bytes=transport.max_segment_bytes)
        if handle is not None:
            return handle
    return batch


def _materialize(result: "SharedBatchHandle | DetectionBatch") -> DetectionBatch:
    """Adopt a shared-memory handle; pass a pickled batch through."""
    if isinstance(result, SharedBatchHandle):
        return adopt_batch(result)
    return result


def _discard_pending(futures) -> None:
    """Error-path cleanup: drain outstanding futures, unlinking any
    shared segments their results parked, so no ``/dev/shm`` name survives
    an exception.  Waits for in-flight tasks (their segments must exist
    before they can be removed); swallows their errors — the original
    exception is already propagating."""
    for future in futures:
        future.cancel()
    for future in futures:
        try:
            result = future.result()
        except BaseException:
            continue
        if isinstance(result, SharedBatchHandle):
            discard_batch(result)


def run_spans(
    jobs: "Sequence[SpanJob]",
    *,
    pool: WorkerPool | None = None,
    on_result: Callable[[int, DetectionBatch], None] | None = None,
) -> list[DetectionBatch]:
    """Detect each job's ``[lo, hi)`` image span, one batch per job, in order.

    Jobs are cut into pieces and run on ``pool`` as the module docstring
    describes, or inline; either way each returned batch is bit-for-bit
    what :func:`detect_records` produces for its job.

    ``on_result(job_index, batch)`` is invoked as each job *completes*
    (completion order under the pool, job order inline) — the harness uses
    it to persist finished cache shards immediately, so an interrupted run
    loses at most the jobs still in flight.
    """
    pieces: list[int] = []
    if pool is not None and pool.parallel and jobs:
        per_job = -(-pool.workers // len(jobs))  # ceil
        pieces = [min(per_job, (hi - lo) // DEFAULT_MIN_SHARD_IMAGES) for _, _, (lo, hi) in jobs]
    results: list[DetectionBatch | None] = [None] * len(jobs)
    if sum(pieces) < 2:
        for index, (detector, split, span) in enumerate(jobs):
            results[index] = detect_records(detector, split, span)
            if on_result is not None:
                on_result(index, results[index])
        return results
    transport = pool.shm_transport
    parts: list[list[DetectionBatch | None]] = []
    pending = {}
    for index, ((detector, split, (lo, hi)), count) in enumerate(zip(jobs, pieces)):
        subs = shard_spans(hi - lo, max(1, count)) or [(0, 0)]
        parts.append([None] * len(subs))
        for position, (sub_lo, sub_hi) in enumerate(subs):
            truths, qualities = split_columns(split, (lo + sub_lo, lo + sub_hi))
            future = pool.submit(_detect_task, detector, truths, qualities, transport)
            pending[future] = (index, position)
    # Drain in completion order; on any error the outstanding futures are
    # drained and their shared segments unlinked before the exception
    # propagates.
    outstanding = set(pending)
    try:
        for future in as_completed(pending):
            outstanding.discard(future)
            index, position = pending[future]
            job_parts = parts[index]
            job_parts[position] = _materialize(future.result())
            if all(part is not None for part in job_parts):
                results[index] = DetectionBatch.concat(job_parts, detector=jobs[index][0].name)
                if on_result is not None:
                    on_result(index, results[index])
    except BaseException:
        _discard_pending(outstanding)
        raise
    return results


def run_split(
    detector: "SimulatedDetector",
    dataset: "Dataset | Sequence[ImageRecord]",
    *,
    pool: WorkerPool | None = None,
) -> DetectionBatch:
    """Run a detector over a whole split, sharded across the pool's workers.

    Drop-in replacement for ``detector.detect_split(dataset)`` with
    identical output: the no-cache case of :func:`run_spans`, one job over
    the whole split.
    """
    return run_spans([(detector, dataset, (0, len(dataset)))], pool=pool)[0]
