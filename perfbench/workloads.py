"""The benchmark's workloads: seeded inputs, a timed region, checked outputs.

Each workload builds its inputs from the workload seed in ``setup``, runs
its timed region in ``run``, and ``check`` reduces the outputs to a summary
— a JSON-able dict of exact values (digests, counters, full-precision
floats) that the runner compares against a stored reference or against the
run's first iteration — plus named identities that hold for every seed.

Everything here calls the package's public functions from outside ``src/``.
The traced variants add spans from this file only: around the runner's own
calls, around public functions rebound where their caller imported them
(:func:`tracing.rebound`), and through forwarding proxies around policy
objects (:class:`tracing.TimedProxy`).
"""

from __future__ import annotations

import hashlib
import math
import resource
import shutil
import tempfile
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np
from tracing import LoopProxy, TimedProxy, Tracer, rebound

import repro.experiments.fleet as fleet_module
import repro.experiments.harness as harness_module
import repro.simulate.presets as presets_module
from repro.core.discriminator import DifficultCaseDiscriminator
from repro.data import load_dataset
from repro.detection import DetectionBatch
from repro.experiments import (
    Harness,
    HarnessConfig,
    admission_policy_outcomes,
    availability_outcomes,
    control_plane_outcomes,
    figures,
    fleet_deployment,
    fleet_policy_outcomes,
    format_figure,
    format_table,
    network_outcomes,
    prefetch_detections,
    tables,
)
from repro.metrics import rolling_quality
from repro.runtime.control import AdaptiveQuota, EstimatedDeadlineAware, UplinkCoordinator
from repro.runtime.network import OutageSchedule, RateSchedule, UnreliableLink
from repro.runtime.serving import (
    DropNewest,
    EscalationPolicy,
    FleetSpec,
    StreamConfig,
    cloud_only_scheme,
    collaborative_scheme,
    serve_fleet,
)
from repro.runtime.shm import leaked_segments
from repro.runtime.traces import bundled_trace
from repro.simulate import SimulatedDetector, make_detector

def text_digest(text: str) -> str:
    """sha256 of a rendered table or figure."""
    return hashlib.sha256(text.encode()).hexdigest()


def batch_digest(batch: DetectionBatch) -> str:
    """sha256 over a detection batch's image ids and flat columns."""
    hasher = hashlib.sha256("\n".join(batch.image_ids).encode())
    for column in (batch.boxes, batch.scores, batch.labels, batch.offsets):
        hasher.update(np.ascontiguousarray(column).tobytes())
    return hasher.hexdigest()


def synthetic_detections(dataset, rng: np.random.Generator, *, keep: float, flip: float, name: str) -> DetectionBatch:
    """Ground-truth boxes turned into a seeded TP/FP mix.

    A ``keep`` share of the annotated objects survives (the rest are
    misses), scores are uniform and a ``flip`` share of labels is wrong —
    detections that exercise matching without any calibrated detector.
    """
    truth = dataset.truth_batch
    total = truth.labels.shape[0]
    segments = truth.image_indices()
    kept = rng.random(total) < keep
    scores = rng.uniform(0.05, 1.0, total)
    labels = np.where(rng.random(total) < flip, (truth.labels + 1) % dataset.num_classes, truth.labels)
    boxes, scores, labels, segments = truth.boxes[kept], scores[kept], labels[kept], segments[kept]
    order = np.lexsort((-scores, segments))  # score-descending within each image
    counts = np.bincount(segments, minlength=len(truth))
    return DetectionBatch(
        image_ids=truth.image_ids,
        boxes=boxes[order],
        scores=scores[order],
        labels=labels[order],
        offsets=np.concatenate([[0], np.cumsum(counts)]).astype(np.int64),
        detector=name,
    )


def tiled_schedule(schedule: RateSchedule, duration_s: float) -> RateSchedule:
    """Repeat a bundled trace end to end until it covers ``duration_s``."""
    period = schedule.times[-1] + (schedule.times[-1] - schedule.times[-2])
    repeats = math.ceil(duration_s / period)
    times = [start + k * period for k in range(repeats) for start in schedule.times]
    return RateSchedule.from_trace(times, list(schedule.rates_mbps) * repeats)


# --------------------------------------------------------------------- #
# tracing hooks shared by every workload
# --------------------------------------------------------------------- #
def _count_report(tracer: Tracer):
    def on_result(report, args, kwargs) -> None:
        tracer.count("serving.runs")
        tracer.count("serving.frames_offered", report.frames_offered)
        tracer.count("serving.frames_served", report.frames_served)
        tracer.count("serving.frames_dropped", report.frames_dropped)
        tracer.count("serving.frames_shed", report.frames_shed)
        tracer.count("serving.frames_uploaded", report.frames_uploaded)
        tracer.count("serving.escalations_failed", report.escalations_failed)
        tracer.count("serving.escalations_recovered", report.escalations_recovered)
        tracer.count("serving.uplink_util_sum", report.uplink_utilization)
        tracer.count("serving.cloud_util_sum", report.cloud_utilization)

    return on_result


def _count_windows(tracer: Tracer):
    def on_result(windows, args, kwargs) -> None:
        tracer.count("rolling.frames", sum(window.frames for window in windows))

    return on_result


def _count_images(tracer: Tracer, key: str):
    def on_result(dataset, args, kwargs) -> None:
        tracer.count(key, len(dataset))

    return on_result


def _count_detected(tracer: Tracer):
    def on_result(detections, args, kwargs) -> None:
        tracer.count("detector.images")

    return on_result


def _count_dataset_images(tracer: Tracer):
    return _count_images(tracer, "datasets.images")


def _count_calibrations(tracer: Tracer):
    """Count each calibrated detector once; later calls are memo hits."""

    def on_result(detector, args, kwargs) -> None:
        tracer.count_distinct("calibrate.detectors", (detector.name, detector.seed))

    return on_result


def library_hooks(tracer: Tracer | None):
    """Rebind the layer entry points reached only from inside other calls."""
    if tracer is None:
        return nullcontext()
    return rebound(
        tracer,
        [
            (harness_module, "make_detector", "simulate.calibrate", _count_calibrations(tracer)),
            (harness_module, "load_dataset", "data.datasets", _count_dataset_images(tracer)),
            (presets_module, "load_dataset", "data.datasets", _count_dataset_images(tracer)),
            (SimulatedDetector, "detect", "simulate.detector", _count_detected(tracer)),
            (harness_module, "detect_records", "runtime.parallel", None),
            (harness_module, "run_spans", "runtime.parallel", None),
            (DetectionBatch, "save", "detection.batch.save", None),
            (DifficultCaseDiscriminator, "fit", "core.discriminator.fit", None),
            (DifficultCaseDiscriminator, "decide", "core.discriminator.decide", None),
            (DifficultCaseDiscriminator, "decide_split", "core.discriminator.decide", None),
            (fleet_module, "serve_fleet", "runtime.serving", _count_report(tracer)),
            (fleet_module, "simulate_fleet", "runtime.serving", _count_report(tracer)),
            (fleet_module, "rolling_quality", "metrics.rolling", _count_windows(tracer)),
        ],
    )


def _traced(tracer: Tracer | None, layer: str, fn, counter=None):
    """``fn`` itself untraced; traced, a wrapper counting via ``counter(tracer)``."""
    if tracer is None:
        return fn
    return tracer.wrap(layer, fn, None if counter is None else counter(tracer))


def _span(tracer: Tracer | None, layer: str):
    return nullcontext() if tracer is None else tracer.span(layer)


def fleet_summary(report, percentiles: dict, windows) -> dict:
    """Every simulated statistic of one fleet run, at full precision."""
    latency = report.latency
    return {
        "frames": [
            report.frames_offered,
            report.frames_served,
            report.frames_dropped,
            report.frames_shed,
            report.frames_uploaded,
        ],
        "escalations": [report.escalations_failed, report.escalations_dropped, report.escalations_recovered],
        "utilization": [report.edge_utilization, report.uplink_utilization, report.cloud_utilization],
        "latency": [latency.total, latency.mean, latency.p50, latency.p90, latency.p99, latency.count],
        "percentiles": [percentiles[key] for key in sorted(percentiles)],
        "windows": [
            [
                window.t_start,
                window.t_end,
                window.frames,
                window.served,
                window.dropped,
                window.stale,
                window.map_percent,
                window.detected_objects,
                window.true_objects,
            ]
            for window in windows
        ],
    }


def fleet_invariants(report, percentiles: dict, windows) -> dict[str, bool]:
    """Conservation and ordering identities every fleet run must satisfy."""
    ordered = [percentiles[key] for key in sorted(percentiles)]
    return {
        "served+dropped==offered": report.frames_served + report.frames_dropped == report.frames_offered,
        "uploaded<=served": report.frames_uploaded <= report.frames_served,
        "trace-length==offered": len(report.trace()) == report.frames_offered,
        "percentiles-ordered": all(0.0 < a <= b for a, b in zip(ordered, ordered[1:])),
        "windows-cover-offered": sum(window.frames for window in windows) == report.frames_offered,
        "window-conservation": all(w.frames == w.served + w.dropped + w.stale for w in windows),
        "window-map-range": all(0.0 <= w.map_percent <= 100.0 for w in windows),
    }


# --------------------------------------------------------------------- #
# report-helmet
# --------------------------------------------------------------------- #
class ReportHelmet:
    """Table XI, Tables XVIII-XXII and Figures 10-14 from a fresh interpreter.

    Quick-scale harness, one worker, an empty cache directory.  Set-up
    calibrates the report's two detectors (``make_detector`` memoises them
    in-process, as a fresh interpreter would on its first table); each
    timed iteration is the rest of the report from a fresh harness and an
    empty cache: generating the splits, detecting, fitting the
    discriminator, serving the fleet grids and formatting.
    """

    name = "report-helmet"
    ARTIFACTS = (
        ("table", "XI", tables.table_11_helmet_realworld),
        ("table", "XVIII", tables.table_18_fleet_policies),
        ("table", "XIX", tables.table_19_admission_policies),
        ("table", "XX", tables.table_20_availability),
        ("table", "XXI", tables.table_21_control_plane),
        ("table", "XXII", tables.table_22_network),
        ("figure", "10", figures.figure_10_fleet_quality),
        ("figure", "11", figures.figure_11_staleness_tradeoff),
        ("figure", "12", figures.figure_12_outage_recovery),
        ("figure", "13", figures.figure_13_control_plane),
        ("figure", "14", figures.figure_14_network),
    )

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch

    MODELS = ("small1", "ssd")

    def setup(self, tracer: Tracer | None) -> None:
        calibrate = _traced(tracer, "simulate.calibrate", make_detector, _count_calibrations)
        with library_hooks(tracer):
            for model in self.MODELS:
                calibrate(model, "helmet", seed=self.seed)
        self.config = replace(HarnessConfig.quick(), seed=self.seed, workers=1)

    def inputs(self) -> dict:
        config = self.config
        return {"train_images": config.train_images, "test_fraction": config.test_fraction, "workers": 1}

    def run(self, tracer: Tracer | None) -> dict:
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.scratch)
        harness = self.harness = Harness(replace(self.config, cache_dir=cache_dir))
        rendered = {}
        with library_hooks(tracer):
            for kind, ident, build in self.ARTIFACTS:
                with _span(tracer, f"experiments.{kind}s"):
                    result = build(harness)
                with _span(tracer, "experiments.formatting"):
                    rendered[ident] = format_table(result) if kind == "table" else format_figure(result)
        return {"rendered": rendered, "cache_dir": cache_dir, "items": len(rendered)}

    def check(self, outputs: dict) -> tuple[dict, dict[str, bool]]:
        rendered = outputs["rendered"]
        summary = {ident: text_digest(text) for ident, text in rendered.items()}
        grids = (
            fleet_policy_outcomes,
            admission_policy_outcomes,
            availability_outcomes,
            control_plane_outcomes,
            network_outcomes,
        )
        # memo hits: the fleet runs the tables above already served
        summary["fleet_frames_offered"] = sum(
            outcome.report.frames_offered for grid in grids for outcome in grid(self.harness)
        )
        shutil.rmtree(outputs["cache_dir"])
        invariants = {f"rendered:{ident}": bool(rendered.get(ident, "").strip()) for _, ident, _ in self.ARTIFACTS}
        invariants["no-nan-in-report"] = not any("nan" in text.lower().split() for text in rendered.values())
        return summary, invariants


# --------------------------------------------------------------------- #
# fleet-1000
# --------------------------------------------------------------------- #
class Fleet1000:
    """1000 cloud-only cameras sharing one constant WLAN uplink and one GPU.

    Poisson arrivals at 0.1 fps for 1200 simulated seconds (~120k offered
    frames), ``DropNewest`` admission, synthetic TP/FP detections built from
    the helmet ground truth.  The timed region is ``serve_fleet``, the
    fleet-wide latency percentiles off the columnar trace, and the rolling
    evaluation: the serving engine, trace and rolling layers at scale with
    no calibration, control plane or rate schedule in the run.
    """

    name = "fleet-1000"
    CAMERAS = 1000
    FPS = 0.1
    DURATION_S = 1200.0
    WINDOW_S = 60.0

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed

    def setup(self, tracer: Tracer | None) -> None:
        load = _traced(tracer, "data.datasets", load_dataset, _count_dataset_images)
        self.dataset = load("helmet", "test", seed=self.seed, fraction=0.1)
        rng = np.random.default_rng([self.seed, 1000])
        self.detections = synthetic_detections(self.dataset, rng, keep=1.0, flip=0.2, name="synthetic")
        self.deployment = fleet_deployment(self.dataset.num_classes)
        self.config = StreamConfig(fps=self.FPS, poisson=True, duration_s=self.DURATION_S, max_edge_queue=30)

    def inputs(self) -> dict:
        return {
            "cameras": self.CAMERAS,
            "fps": self.FPS,
            "duration_s": self.DURATION_S,
            "dataset_images": len(self.dataset),
        }

    def spec(self, tracer: Tracer | None) -> FleetSpec:
        admission = DropNewest()
        if tracer is not None:
            admission = TimedProxy(admission, tracer, {"admit": "runtime.control.admit"})
        return FleetSpec(
            scheme=cloud_only_scheme(),
            config=self.config,
            cameras=self.CAMERAS,
            detections=self.detections,
            admission=admission,
        )

    def run(self, tracer: Tracer | None) -> dict:
        spec = self.spec(tracer)
        serve = _traced(tracer, "runtime.serving", serve_fleet, _count_report)
        report = serve(self.deployment, self.dataset, spec, seed=self.seed)
        with _span(tracer, "runtime.trace"):
            percentiles = report.latency_percentiles()
        rolling = _traced(tracer, "metrics.rolling", rolling_quality, _count_windows)
        windows = rolling(report, self.dataset, window_s=self.WINDOW_S, duration_s=self.DURATION_S)
        return {"report": report, "percentiles": percentiles, "windows": windows, "items": report.frames_offered}

    def check(self, outputs: dict) -> tuple[dict, dict[str, bool]]:
        fields = (outputs["report"], outputs["percentiles"], outputs["windows"])
        return fleet_summary(*fields), fleet_invariants(*fields)


# --------------------------------------------------------------------- #
# fleet-control
# --------------------------------------------------------------------- #
class FleetControl:
    """A saturated collaborative fleet through every control and network path.

    32 cameras at 1.5 fps for 600 simulated seconds (~29k offered frames).
    Each frame's edge decision is a discriminator verdict through
    :class:`AdaptiveQuota` (30% upload target); the discriminator is fitted
    in setup on synthetic small/big train detections.  Admission is
    :class:`EstimatedDeadlineAware` (schedule-aware) with an
    :class:`UplinkCoordinator` sweeping doomed frames across cameras.  The
    uplink runs the bundled ``lte_like`` trace, tiled over the run, wrapped
    in :class:`UnreliableLink` with a 6 s outage every 60 s and 5% loss;
    failed uploads go to a durable escalation queue.
    """

    name = "fleet-control"
    CAMERAS = 32
    FPS = 1.5
    DURATION_S = 600.0
    WINDOW_S = 60.0
    FRESHNESS_S = 2.0
    UPLOAD_TARGET = 0.3
    LOSS_PROBABILITY = 0.05

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed

    def setup(self, tracer: Tracer | None) -> None:
        load = _traced(tracer, "data.datasets", load_dataset, _count_dataset_images)
        train = load("helmet", "train", seed=self.seed, fraction=0.1)
        self.dataset = load("helmet", "test", seed=self.seed, fraction=0.1)
        rng = np.random.default_rng([self.seed, 32])
        small_train = synthetic_detections(train, rng, keep=0.7, flip=0.1, name="small")
        big_train = synthetic_detections(train, rng, keep=0.95, flip=0.05, name="big")
        small = synthetic_detections(self.dataset, rng, keep=0.7, flip=0.1, name="small")
        self.big = synthetic_detections(self.dataset, rng, keep=0.95, flip=0.05, name="big")
        with _span(tracer, "core.discriminator.fit"):
            discriminator, _ = DifficultCaseDiscriminator.fit(small_train, big_train, train.truth_batch)
        self.train_images = len(train)
        self.small = small
        self.scheme = collaborative_scheme(name="discriminator")
        self.quota = AdaptiveQuota(discriminator, small, self.UPLOAD_TARGET)
        self.admission = EstimatedDeadlineAware(freshness_s=self.FRESHNESS_S, schedule_aware=True)
        self.coordinator = UplinkCoordinator(freshness_s=self.FRESHNESS_S, schedule_aware=True)
        self.escalation = EscalationPolicy.durable_queue(capacity=64, max_retries=6, max_backoff_s=8.0)
        base = fleet_deployment(self.dataset.num_classes)
        link = UnreliableLink.wrap(
            base.link.with_rate_schedule(tiled_schedule(bundled_trace("lte_like"), self.DURATION_S)),
            outages=OutageSchedule.periodic(period_s=60.0, downtime_s=6.0, duration_s=self.DURATION_S),
            loss_probability=self.LOSS_PROBABILITY,
        )
        self.deployment = replace(base, link=link)
        self.config = StreamConfig(fps=self.FPS, poisson=True, duration_s=self.DURATION_S, max_edge_queue=30)

    def inputs(self) -> dict:
        return {
            "cameras": self.CAMERAS,
            "fps": self.FPS,
            "duration_s": self.DURATION_S,
            "dataset_images": len(self.dataset),
            "train_images": self.train_images,
        }

    def spec(self, tracer: Tracer | None) -> FleetSpec:
        offload, admission, controller = self.quota, self.admission, self.coordinator
        if tracer is not None:
            observe = {"observe": "runtime.control.observe"}
            offload = TimedProxy(offload, tracer, {"decide": "runtime.control.offload", **observe})
            admission = TimedProxy(admission, tracer, {"admit": "runtime.control.admit", **observe})
            coordinator = self.coordinator

            def attach(loop, cameras, *, horizon_s):
                coordinator.attach(LoopProxy(loop, tracer, "runtime.control.sweep"), cameras, horizon_s=horizon_s)

            controller = TimedProxy(coordinator, tracer, observe, overrides={"attach": attach})
        return FleetSpec(
            scheme=self.scheme,
            config=self.config,
            cameras=self.CAMERAS,
            detections=self.big,
            small_detections=self.small,
            admission=admission,
            escalation=self.escalation,
            offload=offload,
            controller=controller,
        )

    def run(self, tracer: Tracer | None) -> dict:
        spec = self.spec(tracer)
        with library_hooks(tracer):
            serve = _traced(tracer, "runtime.serving", serve_fleet, _count_report)
            report = serve(self.deployment, self.dataset, spec, seed=self.seed)
            with _span(tracer, "runtime.trace"):
                percentiles = report.latency_percentiles()
            rolling = _traced(tracer, "metrics.rolling", rolling_quality, _count_windows)
            windows = rolling(
                report,
                self.dataset,
                window_s=self.WINDOW_S,
                duration_s=self.DURATION_S,
                freshness_s=self.FRESHNESS_S,
            )
        return {
            "report": report,
            "percentiles": percentiles,
            "windows": windows,
            "control": [self.quota.decisions, self.quota.uploads, self.coordinator.swept],
            "items": report.frames_offered,
        }

    def check(self, outputs: dict) -> tuple[dict, dict[str, bool]]:
        report = outputs["report"]
        fields = (report, outputs["percentiles"], outputs["windows"])
        summary = fleet_summary(*fields)
        summary["control"] = outputs["control"]
        invariants = fleet_invariants(*fields)
        decisions, uploads, _ = outputs["control"]
        invariants["quota-uploads<=decisions"] = 0 < uploads <= decisions
        invariants["escalations-exercised"] = report.escalations_failed > 0 and report.escalations_recovered > 0
        invariants["admission-shed"] = report.frames_shed > 0
        return summary, invariants


# --------------------------------------------------------------------- #
# detect-2w
# --------------------------------------------------------------------- #
class Detect2W:
    """Cold full-scale helmet detection on two worker processes.

    ``small1``/``ssd`` x train/test (8000 images) through a fresh
    ``Harness(workers=2)`` into an empty cache directory: the suite
    scheduler, the worker pool, shared-memory shard transport and the
    cache store.  The two detectors are calibrated in setup; the timed
    region starts with the harness and ends after its pool has shut down.
    """

    name = "detect-2w"
    MODELS = ("small1", "ssd")
    KEYS = tuple((model, "helmet", split) for model in MODELS for split in ("train", "test"))
    WORKERS = 2

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.serial: dict[str, str] | None = None

    def setup(self, tracer: Tracer | None) -> None:
        calibrate = _traced(tracer, "simulate.calibrate", make_detector, _count_calibrations)
        with library_hooks(tracer):
            for model in self.MODELS:
                calibrate(model, "helmet", seed=self.seed)
        self.config = HarnessConfig(seed=self.seed, workers=self.WORKERS)

    def serial_digests(self) -> dict[str, str]:
        """Serial production of every artifact, the reference for the pool's.

        Made once, at the first check: after the first timed iteration, so
        it never counts toward set-up time or the measured peak memory.
        """
        if self.serial is None:
            cache_dir = tempfile.mkdtemp(prefix="serial-", dir=self.scratch)
            with Harness(replace(self.config, workers=1, cache_dir=cache_dir)) as serial:
                self.serial = {
                    f"{model}/{split}": batch_digest(serial.detections(model, setting, split))
                    for model, setting, split in self.KEYS
                }
            shutil.rmtree(cache_dir)
        return self.serial

    def inputs(self) -> dict:
        return {"images": self.images, "workers": self.WORKERS, "artifacts": len(self.KEYS)}

    def run(self, tracer: Tracer | None) -> dict:
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.scratch)
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        with library_hooks(tracer), _span(tracer, "runtime.parallel"):
            with Harness(replace(self.config, cache_dir=cache_dir)) as harness:
                batches = prefetch_detections(harness, self.KEYS)
                arena = harness.pool().arena
                prefix = arena.prefix if arena is not None else None
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        self.images = sum(len(batch) for batch in batches.values())
        return {
            "batches": batches,
            "cache_dir": cache_dir,
            "shm_used": prefix is not None,
            "shm_leaked": len(leaked_segments(prefix)) if prefix is not None else 0,
            "worker_cpu_s": (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
            "items": self.images,
        }

    def check(self, outputs: dict) -> tuple[dict, dict[str, bool]]:
        cache_dir = Path(outputs["cache_dir"])
        shards = sorted(path.name for path in cache_dir.iterdir())
        shutil.rmtree(cache_dir)
        summary = {}
        for model, setting, split in self.KEYS:
            summary[f"{model}/{split}"] = batch_digest(outputs["batches"][(model, setting, split)])
        summary["images"] = outputs["items"]
        summary["cache_shards"] = len(shards)
        invariants = {f"serial-equal:{key}": summary[key] == value for key, value in self.serial_digests().items()}
        invariants["shm-used"] = outputs["shm_used"]
        invariants["no-leaked-segments"] = outputs["shm_leaked"] == 0
        invariants["workers-did-the-work"] = outputs["worker_cpu_s"] > 0.0
        return summary, invariants



WORKLOADS = {workload.name: workload for workload in (ReportHelmet, Fleet1000, FleetControl, Detect2W)}


def layer_metrics(tracer: Tracer, region: tuple[float, float], outputs: dict, workers: int) -> dict:
    """Per-layer metrics of a traced child: self times, counts, coverage.

    ``region`` is the traced iteration's timed region (for span coverage);
    ``outputs`` are its outputs, which carry the pool-side figures the
    parent's spans cannot see.
    """
    worker_cpu_s = outputs.get("worker_cpu_s", 0.0)
    self_times = tracer.self_times()
    counters = tracer.counters

    def seconds(layer: str) -> float:
        return self_times.get(layer, (0.0, 0))[0]

    def calls(layer: str) -> int:
        return self_times.get(layer, (0.0, 0))[1]

    runs = counters.get("serving.runs", 0)
    offered = counters.get("serving.frames_offered", 0)
    parallel_wall = tracer.inclusive_time("runtime.parallel")
    serving_wall = tracer.inclusive_time("runtime.serving")
    metrics = {
        "simulate.calibrate.s": seconds("simulate.calibrate"),
        "simulate.calibrate.total_s": tracer.inclusive_time("simulate.calibrate"),
        "simulate.calibrate.detectors": counters.get("calibrate.detectors", 0),
        "simulate.detector.s": seconds("simulate.detector"),
        "simulate.detector.images": counters.get("detector.images", 0),
        "runtime.parallel.s": seconds("runtime.parallel"),
        "runtime.parallel.worker_cpu_s": worker_cpu_s,
        "runtime.parallel.shm_leaked": outputs.get("shm_leaked", 0),
        "runtime.parallel.efficiency": worker_cpu_s / (workers * parallel_wall) if parallel_wall else 0.0,
        "runtime.serving.s": seconds("runtime.serving"),
        "runtime.serving.us_per_frame": 1e6 * serving_wall / offered if offered else 0.0,
        "runtime.serving.frames_offered": offered,
        "runtime.serving.uplink_util": counters.get("serving.uplink_util_sum", 0.0) / runs if runs else 0.0,
        "runtime.serving.cloud_util": counters.get("serving.cloud_util_sum", 0.0) / runs if runs else 0.0,
        "runtime.trace.s": seconds("runtime.trace"),
        "metrics.rolling.s": seconds("metrics.rolling"),
        "metrics.rolling.frames": counters.get("rolling.frames", 0),
        "core.discriminator.fit_s": seconds("core.discriminator.fit"),
        "core.discriminator.decide_s": seconds("core.discriminator.decide"),
        "core.discriminator.decide_calls": calls("core.discriminator.decide"),
        "data.datasets.s": seconds("data.datasets"),
        "data.datasets.images": counters.get("datasets.images", 0),
        "detection.batch.save_s": seconds("detection.batch.save"),
        "experiments.tables.s": seconds("experiments.tables"),
        "experiments.figures.s": seconds("experiments.figures"),
        "experiments.formatting.s": seconds("experiments.formatting"),
        "trace.coverage_pct": 100.0 * tracer.coverage(*region),
        "trace.spans": len(tracer),
    }
    for counter in (
        "frames_served",
        "frames_dropped",
        "frames_shed",
        "frames_uploaded",
        "escalations_failed",
        "escalations_recovered",
    ):
        metrics[f"runtime.serving.{counter}"] = counters.get(f"serving.{counter}", 0)
    for hook in ("admit", "observe", "offload", "sweep"):
        metrics[f"runtime.control.{hook}_s"] = seconds(f"runtime.control.{hook}")
        metrics[f"runtime.control.{hook}_calls"] = calls(f"runtime.control.{hook}")
    return metrics
