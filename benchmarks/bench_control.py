"""Micro-benchmarks of the closed-loop control plane's hot paths.

The estimated admission policy attaches an ``observe`` hook to every
camera, so each served/failed frame constructs a :class:`FrameEvent` and
updates three EWMAs; the uplink coordinator adds a repeating fleet-wide
sweep on the shared event loop.  Both ride the same saturated 8-camera
workload as ``bench_stream.py``'s fleet cases so regressions in the
observer chain or the sweep cadence show up against the same yardstick.
All cases are harness-free (no detection artifacts) to keep the bench-micro
gate cheap on cold CI runners.
"""

from __future__ import annotations

import pytest

from repro.data import load_dataset
from repro.runtime import (
    JETSON_NANO,
    RTX3060_SERVER,
    WLAN,
    Deployment,
    EstimatedDeadlineAware,
    FleetSpec,
    StreamConfig,
    UplinkCoordinator,
    cloud_only_scheme,
    engine,
    serve_fleet,
)

CONFIG = StreamConfig(fps=5.0, duration_s=20.0, poisson=False, max_edge_queue=30)


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


def test_micro_fleet_8_cameras_estimated(benchmark, deployment, helmet_slice):
    """Observer-chain hot path: EWMA estimates drive the shedding scan.

    Same workload as ``test_micro_fleet_8_cameras_deadline_aware``, but the
    policy learns its completion estimates from per-frame events instead of
    reading simulator queue state — every serve builds a FrameEvent and
    every arrival runs the estimated shed scan.
    """
    admission = EstimatedDeadlineAware(freshness_s=2.0)

    def run():
        return serve_fleet(
            deployment,
            helmet_slice,
            FleetSpec(scheme=cloud_only_scheme(), config=CONFIG, cameras=8, admission=admission),
            seed=1,
        )

    report = benchmark(run)
    assert report.frames_offered == 8 * 100
    assert report.frames_shed > 0
    assert report.frames_served + report.frames_dropped == report.frames_offered


def test_micro_fleet_8_cameras_coordinated(benchmark, deployment, helmet_slice):
    """Fleet-controller hot path: the repeating stalest-first uplink sweep.

    Adds the coordinator's repeating timer (pooled fleet EWMAs + a sweep
    across all eight camera buffers every 0.25 s) on top of the estimated
    admission workload.  Each sweep reads every camera's waiting frames
    once, in O(sheddable frames), and judges only the cameras holding one;
    admission makes the same skip.  Most inspections find nothing waiting,
    so they cost no entry-stage queue snapshot (the work count is pinned
    in ``tests/test_control.py::TestSheddingWork``).
    """
    spec = FleetSpec(
        scheme=cloud_only_scheme(),
        config=CONFIG,
        cameras=8,
        admission=EstimatedDeadlineAware(freshness_s=2.0),
        controller=UplinkCoordinator(freshness_s=2.0),
    )

    def run():
        return serve_fleet(deployment, helmet_slice, spec, seed=1)

    report = benchmark(run)
    assert report.frames_offered == 8 * 100
    assert report.frames_shed > 0
    assert report.frames_served + report.frames_dropped == report.frames_offered


def test_fleet_no_controller_path_unchanged(deployment, helmet_slice, monkeypatch):
    """The control plane costs nothing when unused: with no controller and
    a stateless admission default no camera has an observer
    (``observers == ()``), so the hot path never constructs a
    :class:`FrameEvent`.  The timing side of the same claim is held by
    ``test_micro_fleet_8_cameras`` against the checked-in baseline."""
    built = []
    monkeypatch.setattr(engine, "FrameEvent", lambda *args: built.append(args))
    report = serve_fleet(
        deployment,
        helmet_slice,
        FleetSpec(scheme=cloud_only_scheme(), config=CONFIG, cameras=8),
        seed=1,
    )
    assert report.frames_served > 0
    assert built == []
