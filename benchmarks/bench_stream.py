"""Micro-benchmarks of the event-driven serving engine's hot loop.

The fleet simulator multiplies event volume (cameras x frames x pipeline
stages), so the discrete-event core and the stream engine are tracked by
the bench-micro regression gate alongside the detection kernels.  All
cases here are harness-free (no detection artifacts) so the gate stays
cheap on cold CI runners.
"""

from __future__ import annotations

import pytest

from repro.data import load_dataset
from repro.runtime import (
    JETSON_NANO,
    RTX3060_SERVER,
    WLAN,
    CameraSpec,
    DeadlineAware,
    Deployment,
    DropOldest,
    EscalationPolicy,
    EstimatedDeadlineAware,
    EventLoop,
    FifoResource,
    OutageSchedule,
    RateSchedule,
    StreamConfig,
    StreamSpec,
    UnreliableLink,
    bundled_trace,
    cloud_only_scheme,
    collaborative_scheme,
    edge_only_scheme,
    serve_stream,
    simulate_fleet,
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
def half_mask(helmet_slice):
    import numpy as np

    mask = np.zeros(len(helmet_slice), dtype=bool)
    mask[::2] = True
    return mask


def test_micro_event_loop_10k_chained(benchmark):
    """Heap throughput: 10k events, each scheduling its successor."""

    def run() -> float:
        loop = EventLoop()
        remaining = [10_000]

        def tick() -> None:
            if remaining[0] > 0:
                remaining[0] -= 1
                loop.schedule(0.001, tick)

        loop.schedule(0.0, tick)
        return loop.run()

    final = benchmark(run)
    assert final == pytest.approx(10.0, rel=1e-6)


def test_micro_fifo_resource_5k_jobs(benchmark):
    """Queue discipline throughput: 5k jobs through one busy resource."""

    def run() -> int:
        loop = EventLoop()
        resource = FifoResource(loop, "dev")
        for _ in range(5_000):
            resource.acquire(0.01, lambda _t: None)
        loop.run()
        return resource.jobs_served

    assert benchmark(run) == 5_000


def test_micro_stream_collaborative_1200_frames(benchmark, deployment, helmet_slice, half_mask):
    """Single-stream engine: ~1200 frames through the three-stage pipeline."""
    config = StreamConfig(fps=40.0, duration_s=30.0, poisson=False, max_edge_queue=30)

    def run():
        return serve_stream(
            deployment, helmet_slice, StreamSpec(collaborative_scheme(), config, mask=half_mask), seed=1
        )

    report = benchmark(run)
    assert report.frames_offered == 1200
    assert report.frames_served + report.frames_dropped == report.frames_offered


def test_micro_fleet_8_cameras(benchmark, deployment, helmet_slice):
    """Fleet engine: 8 cameras contending for one uplink and cloud GPU."""
    config = StreamConfig(fps=5.0, duration_s=20.0, poisson=False, max_edge_queue=30)

    def run():
        return simulate_fleet(
            cloud_only_scheme(),
            deployment,
            helmet_slice,
            config,
            cameras=8,
            seed=1,
        )

    report = benchmark(run)
    assert len(report.cameras) == 8
    assert report.frames_offered == 8 * 100


def test_micro_fleet_8_cameras_deadline_aware(benchmark, deployment, helmet_slice):
    """Admission-control hot path: deadline sheds on the saturated fleet.

    Same workload as the plain fleet case, but every arrival runs the
    deadline-aware shed scan (queued-wait bounds + cancellations) — the
    admission layer's worst case.
    """
    config = StreamConfig(fps=5.0, duration_s=20.0, poisson=False, max_edge_queue=30)

    def run():
        return simulate_fleet(
            cloud_only_scheme(),
            deployment,
            helmet_slice,
            config,
            cameras=8,
            admission=DeadlineAware(freshness_s=2.0),
            seed=1,
        )

    report = benchmark(run)
    assert report.frames_offered == 8 * 100
    assert report.frames_shed > 0
    assert report.frames_served + report.frames_dropped == report.frames_offered


@pytest.fixture(scope="module")
def outage_deployment(deployment):
    # 30% downtime (down 3 s of every 10) plus 5% per-transfer loss over the
    # 20 s fleet workload — the Table XX failure regime at bench scale.
    outages = OutageSchedule.periodic(period_s=10.0, downtime_s=3.0, duration_s=20.0)
    return Deployment(
        edge=deployment.edge,
        cloud=deployment.cloud,
        link=UnreliableLink.wrap(deployment.link, outages=outages, loss_probability=0.05),
        small_model_flops=deployment.small_model_flops,
        big_model_flops=deployment.big_model_flops,
    )


def test_micro_fleet_8_cameras_outage_drop(benchmark, outage_deployment, helmet_slice):
    """Failure-injection hot path: saturated fleet, failures dropped.

    Same workload as the plain fleet case, but every uplink acquire runs
    the fault hook and outage windows fail transfers mid-flight — the
    failure layer's overhead without any retry traffic.
    """
    config = StreamConfig(fps=5.0, duration_s=20.0, poisson=False, max_edge_queue=30)

    def run():
        return simulate_fleet(
            cloud_only_scheme(),
            outage_deployment,
            helmet_slice,
            config,
            cameras=8,
            seed=1,
        )

    report = benchmark(run)
    assert report.frames_offered == 8 * 100
    assert report.escalations_failed > 0
    assert report.escalations_recovered == 0
    assert report.frames_served + report.frames_dropped == report.frames_offered


def test_micro_fleet_8_cameras_outage_durable(benchmark, outage_deployment, helmet_slice):
    """Durable-queue hot path: spool, backoff timers and retry traffic.

    The same saturated outage fleet with the durable escalation queue: every
    failed transfer is spooled and replayed with exponential backoff, so the
    run pays the queue bookkeeping plus the extra retry events.
    """
    config = StreamConfig(fps=5.0, duration_s=20.0, poisson=False, max_edge_queue=30)

    def run():
        return simulate_fleet(
            cloud_only_scheme(),
            outage_deployment,
            helmet_slice,
            config,
            cameras=8,
            escalation=EscalationPolicy.durable_queue(capacity=64, max_retries=6, max_backoff_s=8.0),
            seed=1,
        )

    report = benchmark(run)
    assert report.frames_offered == 8 * 100
    assert report.escalations_recovered > 0
    assert report.frames_served + report.frames_dropped == report.frames_offered


def test_micro_fleet_8_cameras_lte_trace(benchmark, deployment, helmet_slice):
    """Time-varying-link hot path: schedule integration on every transfer.

    The saturated fleet on the bundled LTE-like trace with schedule-aware
    estimated admission: every uplink grant resolves its duration through
    the schedule's prefix sums, every downlink integrates from *now*, and
    every admission doom test adds the schedule-integrated remaining-time
    floor — the full cost of the trace-driven data path.
    """
    config = StreamConfig(fps=5.0, duration_s=20.0, poisson=False, max_edge_queue=30)
    scheduled = Deployment(
        edge=deployment.edge,
        cloud=deployment.cloud,
        link=deployment.link.with_rate_schedule(bundled_trace("lte_like")),
        small_model_flops=deployment.small_model_flops,
        big_model_flops=deployment.big_model_flops,
    )

    def run():
        return simulate_fleet(
            cloud_only_scheme(),
            scheduled,
            helmet_slice,
            config,
            cameras=8,
            admission=EstimatedDeadlineAware(freshness_s=2.0),
            seed=1,
        )

    report = benchmark(run)
    assert report.frames_offered == 8 * 100
    assert report.frames_served + report.frames_dropped == report.frames_offered


def test_micro_fleet_8_cameras_constant_schedule(benchmark, deployment, helmet_slice):
    """Zero-overhead contract: a constant schedule is the plain fleet.

    Attaching ``RateSchedule.always(bandwidth)`` must keep the exact
    pre-schedule code path — this case benches that path with the schedule
    attached and pins the result bit-for-bit against the plain link, so the
    2x gate catches both a perf leak and a semantic one.
    """
    config = StreamConfig(fps=5.0, duration_s=20.0, poisson=False, max_edge_queue=30)
    scheduled = Deployment(
        edge=deployment.edge,
        cloud=deployment.cloud,
        link=deployment.link.with_rate_schedule(RateSchedule.always(deployment.link.bandwidth_mbps)),
        small_model_flops=deployment.small_model_flops,
        big_model_flops=deployment.big_model_flops,
    )

    def run():
        return simulate_fleet(
            cloud_only_scheme(),
            scheduled,
            helmet_slice,
            config,
            cameras=8,
            seed=1,
        )

    report = benchmark(run)
    plain = simulate_fleet(
        cloud_only_scheme(), deployment, helmet_slice, config, cameras=8, seed=1
    )
    assert report == plain


def test_micro_fleet_heterogeneous(benchmark, deployment, helmet_slice, half_mask):
    """Per-camera specs: mixed rates, schemes and admission on one loop."""
    base = StreamConfig(fps=5.0, duration_s=20.0, poisson=False, max_edge_queue=30)
    specs = [
        CameraSpec(),
        CameraSpec(config=StreamConfig(fps=10.0, duration_s=20.0, poisson=False, max_edge_queue=30)),
        CameraSpec(scheme=edge_only_scheme()),
        CameraSpec(scheme=cloud_only_scheme(), admission=DropOldest()),
    ]

    def run():
        return simulate_fleet(
            collaborative_scheme(),
            deployment,
            helmet_slice,
            base,
            cameras=specs,
            mask=half_mask,
            seed=1,
        )

    report = benchmark(run)
    assert report.scheme == "mixed"
    # the 10 fps camera's 200th periodic arrival rounds just past the
    # 20 s horizon, hence 199 rather than 200
    assert report.frames_offered == (100 + 199 + 100 + 100)
    assert report.cameras[2].frames_uploaded == 0
