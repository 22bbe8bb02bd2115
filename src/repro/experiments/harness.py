"""Experiment harness: shared datasets, detectors, detections and fits.

Every table and figure draws on the same handful of expensive artifacts —
materialised splits, calibrated detectors, per-split detections and fitted
discriminators.  The harness memoises all of them (detections additionally
on disk), so the full benchmark suite runs each model/setting combination
exactly once regardless of how many tables consume it.

Detections are produced by one planner, :meth:`Harness.prefetch`;
``detections()`` is its one-key case and the suite scheduler in
:mod:`repro.experiments.suite` hands it whole artifact lists.  No image is
generated or detected twice: calibrating a setting's detectors already
generated the first :data:`~repro.simulate.presets.CALIBRATION_IMAGES`
images of its train split (:func:`repro.simulate.presets.calibration_sample`)
and detected them (:func:`repro.simulate.presets.calibration_detections`).
Every harness train split is built on that sample — the sample itself, its
head, or the sample followed by the images past it — and a train shard that
lies wholly inside the sample is sliced from its detections, warm cache or
cold: its cache file is written when missing and never read.  Production is
sharded two ways:

* **Disk cache shards** — the on-disk cache stores one ``.npz`` per
  contiguous image range of ``cache_shard_size`` images (fingerprinted over
  the shard's own records), so a partially warm cache recomputes only the
  missing ranges and differently-sized subset runs share their common
  full shards.
* **Worker processes** — the other missing shards of every requested
  artifact go to the pool together (:func:`repro.runtime.parallel.run_spans`'s
  submit/drain halves), on a harness-lifetime
  :class:`~repro.runtime.pool.WorkerPool`; the parent writes the sliced
  shards' missing cache files while the workers detect, and persists each
  detected shard the moment it completes.  The worker count comes from
  ``HarnessConfig.workers`` when set, else the ``REPRO_WORKERS``
  environment variable, else 1 (serial).  Detections are a pure function
  of ``(seed, profile, image id)``, so the parallel output is bit-for-bit
  identical to the serial loop.

The pool starts lazily on the first parallel production and is reused by
every later one.  Use the harness as a context manager — or call
:meth:`Harness.close` — to shut the workers down deterministically; a
serial harness never starts any.
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
from repro.core.cases import SERVING_THRESHOLD
from repro.core.discriminator import DifficultCaseDiscriminator, DiscriminatorFitReport
from repro.core.system import SmallBigSystem, SystemRun
from repro.data.datasets import DATASET_SETTINGS, Dataset, extend_dataset, load_dataset
from repro.detection.batch import DetectionBatch, GroundTruthBatch
from repro.errors import ConfigurationError, GeometryError
from repro.metrics.counting import CountSummary, count_summary
from repro.metrics.voc_ap import mean_average_precision
# ``detect_records`` and ``run_spans`` are not called here: they are imported
# so that perfbench/workloads.py can rebind both runner entry points on this
# module.  The planner submits through run_spans's private halves.
from repro.runtime.parallel import _spans_in_flight, detect_records, run_spans  # noqa: F401
from repro.runtime.pool import WorkerPool, resolve_workers
from repro.simulate.detector import SimulatedDetector
from repro.simulate.presets import calibration_detections, calibration_sample, make_detector

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

    Every field is checked at construction; an out-of-range value raises
    :class:`~repro.errors.ConfigurationError`.
    """

    seed: int = DEFAULT_SEED
    train_images: int = 5000
    test_fraction: float = 1.0
    cache_dir: str | None = None
    workers: int | None = None
    cache_shard_size: int = 1024

    def __post_init__(self) -> None:
        if not self.train_images >= 1:
            raise ConfigurationError(f"train_images must be >= 1, got {self.train_images}")
        if not 0.0 < self.test_fraction <= 1.0:
            raise ConfigurationError(f"test_fraction must be in (0, 1], got {self.test_fraction}")
        if not (self.workers is None or self.workers >= 1):
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        if not self.cache_shard_size >= 1:
            raise ConfigurationError(f"cache_shard_size must be >= 1, got {self.cache_shard_size}")

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
        """Materialise (once) a split at the harness's configured size.

        A train split is built on the setting's calibration sample, which
        is generated once per process: only images past it are generated.
        """
        key = (setting, split)
        if key not in self._datasets:
            entry = DATASET_SETTINGS[setting]
            seed = self.config.seed
            if split == "train":
                fraction = min(1.0, self.config.train_images / entry.train_size)
                dataset = extend_dataset(calibration_sample(setting, seed=seed), fraction, seed=seed)
            else:
                dataset = load_dataset(setting, split, seed=seed, fraction=self.config.test_fraction)
            self._datasets[key] = dataset
        return self._datasets[key]

    def detector(self, model: str, setting: str) -> SimulatedDetector:
        """Calibrated detector (preset-cached)."""
        return make_detector(model, setting, seed=self.config.seed)

    def detections(self, model: str, setting: str, split: str) -> DetectionBatch:
        """Raw detections of a model over a split, memory- and disk-cached.

        Returned as a :class:`DetectionBatch` — the on-disk layout loads
        straight into the batch's flat arrays, and per-image views are
        available through the batch's sequence protocol.  The one-key case
        of :meth:`prefetch`.
        """
        key = (model, setting, split)
        if key not in self._detections:
            self.prefetch([key])
        return self._detections[key]

    def prefetch(self, keys: Sequence[tuple[str, str, str]]) -> dict[tuple[str, str, str], DetectionBatch]:
        """Produce (once) the detections of many ``(model, setting, split)``
        artifacts, returned in first-request order.

        A train shard that lies wholly inside the detector's calibration
        sample is sliced from the detections its calibration already made,
        whether or not its cache file exists; a split inside the sample is
        one view of it.  Every other shard loads from the disk cache when
        warm.  The missing (or corrupt) ones across *all* requested
        artifacts go to the pool together, so models, settings and splits
        overlap on it, and the parent writes the sliced shards' missing
        cache files while the workers detect.  Each detected shard is
        persisted the moment it is made, so an interrupted run keeps every
        finished shard.
        """
        plans: dict[tuple[str, str, str], tuple[SimulatedDetector, list]] = {}
        jobs: list[tuple[SimulatedDetector, Dataset, tuple[int, int]]] = []
        slots: list[tuple[list, int, Path | None]] = []
        unwritten: list[tuple[Path, DetectionBatch]] = []
        for key in keys:
            if key in self._detections or key in plans:
                continue
            model, setting, split = key
            dataset = self.dataset(setting, split)
            # Keep this order: self.detector calibrates through make_detector
            # (the call perfbench's tracer counts) before calibration_detections
            # reads the memo that call filled.
            detector = self.detector(model, setting)
            sample = calibration_detections(model, setting, seed=self.config.seed) if split == "train" else None
            covered = len(sample) if sample is not None else 0
            shards: list[DetectionBatch | None] = []
            for index, span in enumerate(self._cache_spans(len(dataset))):
                lo, hi = span
                path = self._shard_path(detector, dataset, span)
                if hi <= covered:
                    shards.append(sample[lo:hi])
                    if path is not None and not path.exists():
                        unwritten.append((path, shards[index]))
                    continue
                shards.append(self._load_shard(path, dataset.image_ids[lo:hi], detector.name))
                if shards[index] is None:
                    jobs.append((detector, dataset, span))
                    slots.append((shards, index, path))
            if len(dataset) <= covered:
                shards = [sample[: len(dataset)]]  # one view: no concatenated copy
            plans[key] = (detector, shards)

        def store(position: int, batch: DetectionBatch) -> None:
            # Runs as each shard completes, so an interrupted cold run
            # keeps every shard already finished.
            self._store_shard(slots[position][2], batch)

        with _spans_in_flight(jobs, self.pool()) as drain:
            for path, batch in unwritten:
                self._store_shard(path, batch)
            batches = drain(store)
        for (shards, index, _), batch in zip(slots, batches):
            shards[index] = batch
        for key, (detector, shards) in plans.items():
            self._detections[key] = DetectionBatch.concat(shards, detector=detector.name)
        return {key: self._detections[key] for key in keys}

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
            served = self.detections(model, setting, "test").above(SERVING_THRESHOLD)
            self._maps[key] = mean_average_precision(served, dataset.truth_batch, dataset.num_classes)
        return self._maps[key]

    def model_counts(self, model: str, setting: str) -> CountSummary:
        """Detected-object count of one model on the test split."""
        key = (model, setting)
        if key not in self._counts:
            dataset = self.dataset(setting, "test")
            self._counts[key] = count_summary(self.detections(model, setting, "test"), dataset.truth_batch)
        return self._counts[key]

    def fleet_grid(self, name: str) -> tuple:
        """One fleet experiment grid (Tables XVIII–XXII / Figures 10–14), memoised.

        Cache owner over :func:`repro.experiments.fleet.run_grid`, keyed by
        grid name: the fleet runs are the suite's heaviest non-detection
        workload, and each table and its figure consume the same runs.
        """
        from repro.experiments.fleet import run_grid

        if name not in self._fleet:
            self._fleet[name] = run_grid(self, name)
        return self._fleet[name]

    # ------------------------------------------------------------------ #
    # disk cache
    # ------------------------------------------------------------------ #
    def _cache_spans(self, count: int) -> list[tuple[int, int]]:
        """Contiguous image ranges backing one cache shard each."""
        size = self.config.cache_shard_size
        return [(lo, min(lo + size, count)) for lo in range(0, count, size)]

    @staticmethod
    def _span_digest(truths: GroundTruthBatch, lo: int, hi: int) -> bytes:
        """Cheap content digest of the image range ``[lo, hi)``.

        Hashes every image's object *count* plus the full annotation of a
        strided sample (~8 images per shard, endpoints included).  Any edit
        that changes a per-image count invalidates the shard wherever it
        lands; pure coordinate/label jitter is only caught on the sampled
        images — hashing every box would cost as much as recomputing small
        shards, and the experiment generators key every scene off the seed
        that is already part of the fingerprint."""
        offsets = truths.offsets
        hasher = hashlib.sha256(np.diff(offsets[lo : hi + 1]).tobytes())
        count = hi - lo
        if count:
            stride = max(1, count // 8)
            for index in list(range(lo, hi, stride)) + [hi - 1]:
                start, end = offsets[index], offsets[index + 1]
                hasher.update(truths.image_ids[index].encode())
                hasher.update(truths.boxes[start:end].tobytes())
                hasher.update(truths.labels[start:end].tobytes())
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
            + self._span_digest(dataset.truth_batch, lo, hi)
        ).hexdigest()[:20]
        return root / f"det-{fingerprint}-{lo:06d}-{hi:06d}.npz"

    @staticmethod
    def _load_shard(path: Path | None, image_ids: tuple[str, ...], detector: str) -> DetectionBatch | None:
        if path is None or not path.exists():
            return None
        try:
            return DetectionBatch.load(path, image_ids, detector=detector)
        except (
            OSError,
            KeyError,
            ValueError,
            EOFError,
            zipfile.BadZipFile,
            GeometryError,
        ):
            return None  # corrupt/stale cache entries are recomputed

    @staticmethod
    def _store_shard(path: Path | None, detections: DetectionBatch) -> None:
        if path is None:
            return
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            detections.save(path)
        except OSError:
            pass  # cache is best effort
