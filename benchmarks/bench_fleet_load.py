"""Fleet-scale load benchmarks: columnar traces and latency percentiles.

The columnar :class:`FrameTrace` exists so fleet runs in the hundreds-to-
thousands of cameras stay cheap to simulate *and* to read back; these cases
track that claim.  Each run serves a cloud-only fleet against one shared
uplink and cloud GPU — the saturation regime where per-frame bookkeeping
dominates — then reads p50/p95/p99 per-frame latency straight off the
fleet trace.

All cases are harness-free (no detection artifacts): the load cases log
traces through an all-empty detection batch, and the rolling-evaluation
case scores synthetic detections derived from the ground truth, so the
bench-micro gate stays cheap on cold CI runners.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import load_dataset
from repro.detection import DetectionBatch
from repro.metrics import rolling_quality
from repro.runtime import (
    JETSON_NANO,
    RTX3060_SERVER,
    WLAN,
    Deployment,
    FleetSpec,
    StreamConfig,
    cloud_only_scheme,
    serve_fleet,
)


@pytest.fixture(scope="module")
def helmet_slice():
    return load_dataset("helmet", "test", fraction=0.1)


@pytest.fixture(scope="module")
def deployment():
    return Deployment(
        edge=JETSON_NANO,
        cloud=RTX3060_SERVER,
        link=WLAN,
        small_model_flops=5.6e9,
        big_model_flops=61.2e9,
    )


@pytest.fixture(scope="module")
def empty_batch(helmet_slice):
    """Zero detections per record: serving logs full traces with no
    per-segment payload, keeping the load cases pure engine + trace."""
    truth = helmet_slice.truth_batch
    return DetectionBatch(
        image_ids=truth.image_ids,
        boxes=np.zeros((0, 4)),
        scores=np.zeros(0),
        labels=np.zeros(0, dtype=np.int64),
        offsets=np.zeros(len(truth) + 1, dtype=np.int64),
        detector="empty",
    )


@pytest.fixture(scope="module")
def synthetic_batch(helmet_slice):
    """Ground-truth boxes with random scores and 20% flipped labels: a
    deterministic TP/FP mix that exercises the greedy matching without any
    detection artifacts."""
    truth = helmet_slice.truth_batch
    rng = np.random.default_rng(7)
    scores = rng.uniform(0.05, 1.0, truth.labels.shape[0])
    segments = truth.image_indices()
    order = np.lexsort((-scores, segments))  # score-descending within each segment
    labels = truth.labels[order]
    flip = rng.random(labels.shape[0]) < 0.2
    labels = np.where(flip, (labels + 1) % helmet_slice.num_classes, labels)
    return DetectionBatch(
        image_ids=truth.image_ids,
        boxes=truth.boxes[order],
        scores=scores[order],
        labels=labels,
        offsets=truth.offsets,
        detector="synthetic",
    )


def test_load_fleet_100_cameras_percentiles(benchmark, deployment, helmet_slice, empty_batch):
    """100 cameras x 60 s on one uplink: simulate, then read p50/p95/p99."""
    config = StreamConfig(fps=1.0, duration_s=60.0, poisson=False, max_edge_queue=30)

    def run():
        report = serve_fleet(
            deployment,
            helmet_slice,
            FleetSpec(scheme=cloud_only_scheme(), config=config, cameras=100, detections=empty_batch),
            seed=1,
        )
        return report, report.latency_percentiles()

    report, points = benchmark(run)
    assert report.frames_offered == 100 * 59  # periodic arrivals: 1/fps .. <60 s
    assert len(report.trace()) == report.frames_offered
    assert 0.0 < points[50.0] <= points[95.0] <= points[99.0]


def test_load_fleet_1000_cameras_percentiles(benchmark, deployment, helmet_slice, empty_batch):
    """1000 cameras x 60 s: the fleet-scale stress case behind the trace
    layer — 29k offered frames through one shared uplink and cloud GPU."""
    config = StreamConfig(fps=0.5, duration_s=60.0, poisson=False, max_edge_queue=30)

    def run():
        report = serve_fleet(
            deployment,
            helmet_slice,
            FleetSpec(scheme=cloud_only_scheme(), config=config, cameras=1000, detections=empty_batch),
            seed=1,
        )
        return report, report.latency_percentiles()

    report, points = benchmark(run)
    assert report.frames_offered == 1000 * 29  # periodic arrivals: 2 s .. <60 s
    assert len(report.trace()) == report.frames_offered
    assert len(report.cameras) == 1000
    assert 0.0 < points[50.0] <= points[95.0] <= points[99.0]


def test_load_rolling_quality_8_camera_fleet(benchmark, deployment, helmet_slice, synthetic_batch):
    """Vectorized rolling evaluation of a Table XVIII-shaped fleet run
    (simulation outside the timed region: this tracks the evaluator)."""
    config = StreamConfig(fps=1.5, poisson=True, duration_s=40.0)
    report = serve_fleet(
        deployment,
        helmet_slice,
        FleetSpec(scheme=cloud_only_scheme(), config=config, cameras=8, detections=synthetic_batch),
        seed=5,
    )

    def run():
        return rolling_quality(report, helmet_slice, window_s=8.0, duration_s=40.0, freshness_s=2.0)

    windows = benchmark(run)
    assert len(windows) == 5
    assert any(window.map_percent > 0.0 for window in windows)
    assert all(window.frames == window.served + window.dropped + window.stale for window in windows)
