"""Parallel sharded split runner with a zero-copy data plane.

Detections are a pure function of ``(seed, profile name, image id)`` —
:mod:`repro._rng` derives every stream from SHA-256 digests, never from the
process-salted builtin ``hash`` — so a split can be partitioned into
contiguous image-range shards and detected on separate processes with
bit-for-bit identity to the serial loop.

Data movement between the parent and the workers is minimised end to end:

* **Inputs** — :func:`run_spans` ships ``(detector, token, lo, hi)`` instead
  of pickled record lists: workers resolve the records from the
  fork-inherited dataset snapshot registered (via
  :func:`repro.runtime.pool.register_inherited`) before the executor
  started.  Snapshots registered *after* pool start — and non-fork
  platforms — fall back to pickling the record slice, bit-for-bit
  identical.
* **Results** — each worker detects its span into one
  :class:`~repro.detection.batch.DetectionBatch` and, when the
  pool's shared-memory arena is enabled (parallel pool, Linux,
  ``REPRO_SHM`` not ``0``), parks the finished batch's flat columns in a
  named ``/dev/shm`` segment (:mod:`repro.runtime.shm`) and returns only a
  tiny handle; the parent adopts the segment as zero-copy numpy views.
  Serial pools, non-Linux platforms and oversized shards return the batch
  through the ordinary pickle pipe instead — same bytes either way.

Pooling is external: callers pass a :class:`~repro.runtime.pool.WorkerPool`
(typically the harness-lifetime pool owned by
:class:`~repro.experiments.harness.Harness`) and this module only submits to
it — no executor is ever constructed per call, so process startup is paid at
most once per pool lifetime no matter how many splits run.  Without a pool
(or with a serial pool) everything runs in-process, lazily slicing spans
without ever materialising per-shard record lists.  Tiny splits (fewer than
``min_shard_images`` per would-be worker) also fall back to the serial
path — shipping the work to processes would cost more than it saves.
"""

from __future__ import annotations

from concurrent.futures import as_completed
from typing import TYPE_CHECKING, Callable, Sequence

from repro.detection.batch import DetectionBatch
from repro.errors import ConfigurationError
from repro.runtime.pool import (
    WorkerPool,
    inherited_token,
    inherited_value,
    register_inherited,
    resolve_workers,
)
from repro.runtime.shm import SharedBatchHandle, ShmTransport, adopt_batch, discard_batch, share_batch

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids layering cycles
    from repro.data.datasets import Dataset, ImageRecord
    from repro.simulate.detector import SimulatedDetector

__all__ = [
    "DEFAULT_MIN_SHARD_IMAGES",
    "resolve_workers",
    "shard_spans",
    "detect_records",
    "run_shards",
    "run_spans",
    "run_split",
]

#: Below this many images per worker the pool is not worth engaging.
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
    records: Sequence["ImageRecord"],
    span: tuple[int, int] | None = None,
) -> DetectionBatch:
    """Run ``detector`` over ``records`` (or the ``[lo, hi)`` span of them)
    serially into one batch: one columnar
    :meth:`~repro.simulate.detector.SimulatedDetector.detect_split` pass."""
    if span is not None:
        lo, hi = span
        records = records[lo:hi]
    return detector.detect_split(records)


def _detect_task(
    detector: "SimulatedDetector",
    source: "str | Sequence[ImageRecord]",
    span: tuple[int, int] | None,
    transport: ShmTransport | None,
) -> "SharedBatchHandle | DetectionBatch":
    """Pool worker entry point (module-level so it pickles).

    ``source`` is either a snapshot token (fork-inherited records; ``span``
    selects the shard) or an already-sliced record sequence.  With a
    ``transport`` the result returns through the shared-memory arena unless
    the segment would be oversized.
    """
    records = inherited_value(source) if isinstance(source, str) else source
    batch = detect_records(detector, records, span)
    if transport is not None:
        handle = share_batch(batch, prefix=transport.prefix, max_bytes=transport.max_segment_bytes)
        if handle is not None:
            return handle
    return batch


def span_payload(
    pool: WorkerPool,
    records: Sequence["ImageRecord"],
    span: tuple[int, int],
) -> tuple["str | Sequence[ImageRecord]", tuple[int, int] | None]:
    """The cheapest ``(source, span)`` pair for shipping one shard's inputs.

    Fork-inherited token + span when the workers (will) have the snapshot;
    otherwise the pickled record slice.  An unstarted pool registers the
    records on the spot — the executor forks afterwards and inherits them.
    """
    token = inherited_token(records)
    if token is None and not pool.started:
        token = register_inherited(records)
    if token is not None and pool.inherits(token):
        return token, span
    lo, hi = span
    return records[lo:hi], None


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


def _drain(
    futures: "dict",
    results: list,
    on_result: Callable[[int, DetectionBatch], None] | None,
) -> None:
    """Collect shard futures in completion order into ``results`` by index."""
    pending = set(futures)
    try:
        for future in as_completed(futures):
            pending.discard(future)
            batch = _materialize(future.result())
            index = futures[future]
            results[index] = batch
            if on_result is not None:
                on_result(index, batch)
    except BaseException:
        _discard_pending(pending)
        raise


def run_shards(
    detector: "SimulatedDetector",
    shards: Sequence[Sequence["ImageRecord"]],
    *,
    pool: WorkerPool | None = None,
    on_result: Callable[[int, DetectionBatch], None] | None = None,
) -> list[DetectionBatch]:
    """Detect each record shard, one batch per shard, preserving order.

    With a parallel ``pool`` and more than one shard the shards run on the
    pool's worker processes (results returning through the shared-memory
    arena when enabled); otherwise serially in-process, iterating the given
    shards as-is — nothing is materialised or copied.  Either way the
    returned batches are bit-for-bit what :func:`detect_records` produces
    per shard.

    ``on_result(shard_index, batch)`` is invoked as each shard *completes*
    (completion order under the pool, not shard order) — the harness uses
    it to persist finished cache shards immediately, so an interrupted run
    loses at most the shards still in flight.
    """
    count = len(shards)
    if pool is None or not pool.parallel or count <= 1:
        results = []
        for index in range(count):
            batch = detect_records(detector, shards[index])
            if on_result is not None:
                on_result(index, batch)
            results.append(batch)
        return results
    transport = pool.shm_transport
    futures = {pool.submit(_detect_task, detector, shards[index], None, transport): index for index in range(count)}
    results: list[DetectionBatch | None] = [None] * count
    _drain(futures, results, on_result)
    return results


def run_spans(
    detector: "SimulatedDetector",
    records: Sequence["ImageRecord"],
    spans: Sequence[tuple[int, int]],
    *,
    pool: WorkerPool | None = None,
    on_result: Callable[[int, DetectionBatch], None] | None = None,
) -> list[DetectionBatch]:
    """Detect contiguous ``[lo, hi)`` spans of ``records``, one batch each.

    The zero-copy sibling of :func:`run_shards`: the parent never slices a
    record list per shard unless it has to.  Serial execution indexes
    ``records`` in place; parallel pools ship ``(detector, token, span)``
    against the fork-inherited snapshot (see :func:`span_payload` for the
    fallback matrix) and adopt results from the shared-memory arena.
    """
    spans = list(spans)
    if pool is None or not pool.parallel or len(spans) <= 1:
        results = []
        for index, span in enumerate(spans):
            batch = detect_records(detector, records, span)
            if on_result is not None:
                on_result(index, batch)
            results.append(batch)
        return results
    transport = pool.shm_transport
    futures = {}
    for index, span in enumerate(spans):
        source, span_arg = span_payload(pool, records, span)
        futures[pool.submit(_detect_task, detector, source, span_arg, transport)] = index
    results: list[DetectionBatch | None] = [None] * len(spans)
    _drain(futures, results, on_result)
    return results


def run_split(
    detector: "SimulatedDetector",
    dataset: "Dataset | Sequence[ImageRecord]",
    *,
    pool: WorkerPool | None = None,
    min_shard_images: int = DEFAULT_MIN_SHARD_IMAGES,
) -> DetectionBatch:
    """Run a detector over a whole split, sharded across the pool's workers.

    Drop-in replacement for ``detector.detect_split(dataset)`` with
    identical output: contiguous image-range shards are detected in
    parallel on ``pool`` and concatenated in order.  The dataset's record
    list is used in place (never copied), so repeated calls over the same
    split reuse its fork-inherited snapshot token.
    """
    records = getattr(dataset, "records", dataset)
    workers = pool.workers if pool is not None else 1
    effective = min(workers, max(1, len(records) // max(1, min_shard_images)))
    if effective <= 1:
        return detect_records(detector, records)
    spans = shard_spans(len(records), effective)
    parts = run_spans(detector, records, spans, pool=pool)
    return DetectionBatch.concat(parts, detector=detector.name)
