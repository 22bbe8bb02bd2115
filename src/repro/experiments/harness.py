"""Experiment harness: shared datasets, detectors, detections and fits.

Every table and figure draws on the same handful of expensive artifacts —
materialised splits, calibrated detectors, per-split detections and fitted
discriminators.  The harness memoises all of them (detections additionally
on disk), so the full benchmark suite runs each model/setting combination
exactly once regardless of how many tables consume it.

Detection production is sharded two ways:

* **Disk cache shards** — the on-disk cache stores one ``.npz`` per
  contiguous image range of ``cache_shard_size`` images (fingerprinted over
  the shard's own records), so a partially warm cache recomputes only the
  missing ranges and differently-sized subset runs share their common
  full shards.
* **Worker processes** — missing shards are detected on a harness-lifetime
  :class:`~repro.runtime.pool.WorkerPool` via :mod:`repro.runtime.parallel`.
  The worker count comes from ``HarnessConfig.workers`` when set, else the
  ``REPRO_WORKERS`` environment variable, else 1 (serial).  Detections are a
  pure function of ``(seed, profile, image id)``, so the parallel output is
  bit-for-bit identical to the serial loop.

The pool starts lazily on the first parallel production and is reused by
every later ``detections()`` call (and by the suite scheduler in
:mod:`repro.experiments.suite`, which fans whole artifacts out across it).
Use the harness as a context manager — or call :meth:`Harness.close` — to
shut the workers down deterministically; a serial harness never starts any.
"""

from __future__ import annotations

import hashlib
import os
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro._rng import DEFAULT_SEED
from repro.core.discriminator import DifficultCaseDiscriminator, DiscriminatorFitReport
from repro.core.system import SmallBigSystem, SystemRun
from repro.data.datasets import DATASET_SETTINGS, Dataset, ImageRecord, load_dataset
from repro.detection.batch import DetectionBatch
from repro.errors import GeometryError
from repro.metrics.counting import CountSummary, count_summary
from repro.metrics.voc_ap import mean_average_precision
from repro.runtime.parallel import (
    DEFAULT_MIN_SHARD_IMAGES,
    detect_records,
    run_spans,
    shard_spans,
)
from repro.runtime.pool import WorkerPool, register_inherited, resolve_workers
from repro.runtime.serving import StreamConfig
from repro.simulate.detector import SimulatedDetector
from repro.simulate.presets import make_detector

__all__ = ["HarnessConfig", "Harness"]


@dataclass(frozen=True)
class HarnessConfig:
    """Sizing, caching and parallelism knobs for an experiment run.

    ``quick()`` returns a configuration small enough for unit tests (a few
    hundred images per split) while exercising every code path.

    Attributes
    ----------
    workers:
        Process count for detection production.  ``None`` defers to the
        ``REPRO_WORKERS`` environment variable (unset/empty means 1, i.e.
        serial).  Any value yields identical detections — parallelism only
        changes wall time.
    cache_shard_size:
        Image-range width of one on-disk cache shard.
    mmap_cache:
        Store cache shards as uncompressed one-``.npy``-per-column
        directories and read them back with ``np.load(mmap_mode="r")``:
        warm-cache runs map the shard pages instead of decompressing and
        materialising every ``.npz`` they touch.  The two layouts are
        distinct cache entries — flipping the flag recomputes (or re-stores)
        shards rather than silently reading the other format.
    """

    seed: int = DEFAULT_SEED
    train_images: int = 5000
    test_fraction: float = 1.0
    cache_dir: str | None = None
    workers: int | None = None
    cache_shard_size: int = 1024
    mmap_cache: bool = False

    @classmethod
    def quick(cls) -> "HarnessConfig":
        """A fast configuration for tests: ~600 train / ~15 % test images."""
        return cls(train_images=600, test_fraction=0.08)

    def resolve_cache_dir(self) -> Path | None:
        """Directory for the on-disk detection cache (None disables)."""
        if self.cache_dir is not None:
            return Path(self.cache_dir)
        env = os.environ.get("REPRO_CACHE")
        if env:
            return Path(env)
        return Path(__file__).resolve().parents[3] / ".repro_cache"

    def resolve_workers(self) -> int:
        """Effective worker count (explicit > ``REPRO_WORKERS`` > 1)."""
        return resolve_workers(self.workers)


@dataclass
class Harness:
    """Memoising façade over the whole pipeline.

    Also owns the (single) process pool used for parallel detection
    production: :meth:`pool` creates it lazily on first use and every
    ``detections()`` call — and the suite scheduler — submits to the same
    one, so process startup is paid at most once per harness lifetime.  Use
    the harness as a context manager (or call :meth:`close`) to shut the
    workers down.
    """

    config: HarnessConfig = field(default_factory=HarnessConfig)
    _datasets: dict = field(default_factory=dict, repr=False)
    _detections: dict = field(default_factory=dict, repr=False)
    _discriminators: dict = field(default_factory=dict, repr=False)
    _maps: dict = field(default_factory=dict, repr=False)
    _counts: dict = field(default_factory=dict, repr=False)
    _fleet: dict = field(default_factory=dict, repr=False)
    _pool: WorkerPool | None = field(default=None, repr=False)

    # ------------------------------------------------------------------ #
    # pool lifecycle
    # ------------------------------------------------------------------ #
    def pool(self) -> WorkerPool:
        """The shared worker pool (created lazily, at most one per lifetime).

        The pool itself starts its executor only on the first parallel
        submission, so asking for it is free; a serial configuration
        (``workers`` resolving to 1) yields a pool that runs everything
        inline and never forks.  After :meth:`close` the same (closed) pool
        is returned: parallel production then raises
        :class:`~repro.errors.ConfigurationError` rather than silently
        forking a second executor the context manager would never reap.
        """
        if self._pool is None:
            self._pool = WorkerPool(self.config.resolve_workers())
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (idempotent; a no-op when serial)."""
        if self._pool is not None:
            self._pool.shutdown()

    def __enter__(self) -> "Harness":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------ #
    # artifacts
    # ------------------------------------------------------------------ #
    def dataset(self, setting: str, split: str) -> Dataset:
        """Materialise (once) a split at the harness's configured size."""
        key = (setting, split)
        if key not in self._datasets:
            entry = DATASET_SETTINGS[setting]
            if split == "train":
                fraction = min(1.0, self.config.train_images / entry.train_size)
            else:
                fraction = self.config.test_fraction
            dataset = load_dataset(setting, split, seed=self.config.seed, fraction=fraction)
            if self.config.resolve_workers() > 1:
                # Park the record list for fork inheritance: workers forked
                # after this point resolve (token, span) tasks without the
                # parent pickling a single record out.  Splits materialised
                # only after the pool starts simply fall back to pickled
                # slices (span_payload's matrix) — still bit-for-bit.
                register_inherited(dataset.records)
            self._datasets[key] = dataset
        return self._datasets[key]

    def detector(self, model: str, setting: str) -> SimulatedDetector:
        """Calibrated detector (preset-cached)."""
        return make_detector(model, setting, seed=self.config.seed)

    def detections(self, model: str, setting: str, split: str) -> DetectionBatch:
        """Raw detections of a model over a split, memory- and disk-cached.

        Returned as a :class:`DetectionBatch` — the on-disk layout loads
        straight into the batch's flat arrays, and per-image views are
        available through the batch's sequence protocol.  The disk cache is
        sharded by image range: only shards missing (or corrupt) on disk are
        recomputed, in parallel when the harness is configured with more
        than one worker.
        """
        key = (model, setting, split)
        if key in self._detections:
            return self._detections[key]
        dataset = self.dataset(setting, split)
        detector = self.detector(model, setting)
        self._detections[key] = self._produce(detector, dataset)
        return self._detections[key]

    def discriminator(
        self,
        small: str,
        big: str,
        setting: str,
    ) -> tuple[DifficultCaseDiscriminator, DiscriminatorFitReport]:
        """Fit (once) the discriminator for a model pair on a train split."""
        key = (small, big, setting)
        if key not in self._discriminators:
            train = self.dataset(setting, "train")
            self._discriminators[key] = DifficultCaseDiscriminator.fit(
                self.detections(small, setting, "train"),
                self.detections(big, setting, "train"),
                train.truth_batch,
            )
        return self._discriminators[key]

    # ------------------------------------------------------------------ #
    # system runs
    # ------------------------------------------------------------------ #
    def system_run(
        self,
        small: str,
        big: str,
        setting: str,
        *,
        uploaded: np.ndarray | None = None,
    ) -> SystemRun:
        """Serve the test split: ours when ``uploaded`` is None, otherwise a
        baseline policy's externally supplied mask."""
        discriminator, _ = self.discriminator(small, big, setting)
        system = SmallBigSystem(
            small_model=self.detector(small, setting),
            big_model=self.detector(big, setting),
            discriminator=discriminator,
        )
        return system.run(
            self.dataset(setting, "test"),
            small_detections=self.detections(small, setting, "test"),
            big_detections=self.detections(big, setting, "test"),
            uploaded=uploaded,
        )

    # ------------------------------------------------------------------ #
    # memoised metrics
    # ------------------------------------------------------------------ #
    def model_map(self, model: str, setting: str) -> float:
        """Served mAP (percent) of one model on the test split."""
        key = (model, setting)
        if key not in self._maps:
            dataset = self.dataset(setting, "test")
            served = self.detections(model, setting, "test").above(0.5)
            self._maps[key] = mean_average_precision(served, dataset.truth_batch, dataset.num_classes)
        return self._maps[key]

    def model_counts(self, model: str, setting: str) -> CountSummary:
        """Detected-object count of one model on the test split."""
        key = (model, setting)
        if key not in self._counts:
            dataset = self.dataset(setting, "test")
            self._counts[key] = count_summary(self.detections(model, setting, "test"), dataset.truth_batch)
        return self._counts[key]

    def fleet_grid(self, name: str, *, cameras: int, config: StreamConfig, window_s: float) -> tuple:
        """One fleet experiment grid (Tables XVIII–XXII / Figures 10–14), memoised.

        Cache owner over :func:`repro.experiments.fleet.run_grid`, keyed by
        grid name and sizing: the fleet runs are the suite's heaviest
        non-detection workload, and each table and its figure consume the
        same runs.
        """
        from repro.experiments.fleet import run_grid

        key = (name, cameras, config, window_s)
        if key not in self._fleet:
            self._fleet[key] = run_grid(self, name, cameras=cameras, config=config, window_s=window_s)
        return self._fleet[key]

    # ------------------------------------------------------------------ #
    # detection production (sharded disk cache + parallel runner)
    # ------------------------------------------------------------------ #
    def _produce(
        self, detector: SimulatedDetector, dataset: Dataset
    ) -> DetectionBatch:
        """Assemble a split's detections from cache shards, computing (and
        persisting) only the missing image ranges."""
        spans, shards, missing = self._production_state(detector, dataset)
        if missing:
            missing_spans = [spans[index] for index in missing]

            def store(position: int, batch: DetectionBatch) -> None:
                # Runs as each shard completes, so an interrupted cold run
                # keeps every shard already finished.
                self._store_shard(detector, dataset, missing_spans[position], batch)

            computed = self._detect_spans(detector, dataset, missing_spans, store)
            for index, batch in zip(missing, computed):
                shards[index] = batch
        return self._assemble(detector, shards)

    def _production_state(
        self,
        detector: SimulatedDetector,
        dataset: Dataset,
    ) -> tuple[list[tuple[int, int]], list[DetectionBatch | None], list[int]]:
        """Cache spans, warm shard loads, and the indices still missing.

        Shared by :meth:`_produce` (one artifact at a time) and the suite
        scheduler in :mod:`repro.experiments.suite` (which fans the missing
        spans of *many* artifacts out across the shared pool at once).
        """
        spans = self._cache_spans(len(dataset))
        shards: list[DetectionBatch | None] = [self._load_shard(detector, dataset, span) for span in spans]
        missing = [index for index, shard in enumerate(shards) if shard is None]
        return spans, shards, missing

    def _assemble(self, detector: SimulatedDetector, shards: Sequence[DetectionBatch]) -> DetectionBatch:
        """Concatenate completed cache shards into one split batch."""
        if not shards:
            return DetectionBatch.from_list([], detector=detector.name)
        if len(shards) == 1:
            return shards[0]
        return DetectionBatch.concat(shards, detector=detector.name)

    def _cache_spans(self, count: int) -> list[tuple[int, int]]:
        """Contiguous image ranges backing one cache shard each."""
        size = max(1, self.config.cache_shard_size)
        return [(lo, min(lo + size, count)) for lo in range(0, count, size)]

    def _detect_spans(
        self,
        detector: SimulatedDetector,
        dataset: Dataset,
        spans: list[tuple[int, int]],
        on_result,
    ) -> list[DetectionBatch]:
        """Detect the given image ranges, one batch per range.

        A single missing range parallelises internally (sub-sharded across
        the shared pool's workers); several missing ranges parallelise at
        range granularity, and ``on_result(position, batch)`` fires as each
        range completes so it is persisted as its cache shard right away.
        Workers receive ``(detector, span)`` against the dataset's
        fork-inherited record snapshot — the parent never slices a record
        list per shard unless the pool predates the snapshot.
        """
        records = dataset.records
        pool = self.pool()
        if len(spans) == 1:
            lo, hi = spans[0]
            effective = min(pool.workers, max(1, (hi - lo) // DEFAULT_MIN_SHARD_IMAGES))
            if effective <= 1:
                batch = detect_records(detector, records, (lo, hi))
            else:
                subs = [(lo + sub_lo, lo + sub_hi) for sub_lo, sub_hi in shard_spans(hi - lo, effective)]
                parts = run_spans(detector, records, subs, pool=pool)
                batch = DetectionBatch.concat(parts, detector=detector.name)
            on_result(0, batch)
            return [batch]
        # Same tiny-split fallback as run_split: don't fork workers when the
        # total missing work is under one pool-worthy shard per worker.
        total = sum(hi - lo for lo, hi in spans)
        workers = min(self.config.resolve_workers(), max(1, total // DEFAULT_MIN_SHARD_IMAGES))
        return run_spans(
            detector,
            records,
            spans,
            pool=pool if workers > 1 else None,
            on_result=on_result,
        )

    # ------------------------------------------------------------------ #
    # disk cache
    # ------------------------------------------------------------------ #
    @staticmethod
    def _records_digest(records: Sequence[ImageRecord]) -> bytes:
        """Cheap content digest of an image range.

        Hashes every record's object *count* plus the full annotation of a
        strided sample (~8 records per shard, endpoints included).  Any edit
        that changes a per-image count invalidates the shard wherever it
        lands; pure coordinate/label jitter is only caught on the sampled
        records — hashing every box would cost as much as recomputing small
        shards, and the experiment generators key every scene off the seed
        that is already part of the fingerprint."""
        counts = np.fromiter(
            (len(record.truth) for record in records),
            dtype=np.int64,
            count=len(records),
        )
        hasher = hashlib.sha256(counts.tobytes())
        if records:
            stride = max(1, len(records) // 8)
            for index in list(range(0, len(records), stride)) + [len(records) - 1]:
                record = records[index]
                hasher.update(record.image_id.encode())
                hasher.update(record.truth.boxes.tobytes())
                hasher.update(record.truth.labels.tobytes())
        return hasher.digest()

    def _shard_path(
        self,
        detector: SimulatedDetector,
        dataset: Dataset,
        span: tuple[int, int],
    ) -> Path | None:
        root = self.config.resolve_cache_dir()
        if root is None:
            return None
        lo, hi = span
        fingerprint = hashlib.sha256(
            repr(
                (
                    self.config.seed,
                    detector.profile,
                    dataset.name,
                    dataset.split,
                    lo,
                    hi,
                )
            ).encode()
            + self._records_digest(dataset.records[lo:hi])
        ).hexdigest()[:20]
        stem = f"det-{fingerprint}-{lo:06d}-{hi:06d}"
        # The two on-disk layouts are distinct cache entries: compressed
        # single-file .npz vs a directory of raw per-column .npy files that
        # numpy can memory-map (zip containers cannot be mmapped).
        if self.config.mmap_cache:
            return root / f"{stem}.mm"
        return root / f"{stem}.npz"

    def _load_shard(
        self,
        detector: SimulatedDetector,
        dataset: Dataset,
        span: tuple[int, int],
    ) -> DetectionBatch | None:
        path = self._shard_path(detector, dataset, span)
        if path is None or not path.exists():
            return None
        lo, hi = span
        try:
            if self.config.mmap_cache:
                batch = DetectionBatch.load_npy(path, dataset.image_ids[lo:hi], detector=detector.name)
            else:
                batch = DetectionBatch.load(path, dataset.image_ids[lo:hi], detector=detector.name)
        except (
            OSError,
            KeyError,
            ValueError,
            EOFError,
            zipfile.BadZipFile,
            GeometryError,
        ):
            return None  # corrupt/stale cache entries are recomputed
        return batch

    def _store_shard(
        self,
        detector: SimulatedDetector,
        dataset: Dataset,
        span: tuple[int, int],
        detections: DetectionBatch,
    ) -> None:
        path = self._shard_path(detector, dataset, span)
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            if self.config.mmap_cache:
                detections.save_npy(path)
            else:
                detections.save(path)
        except OSError:
            pass  # cache is best effort
