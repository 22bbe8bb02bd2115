"""Tests for the discrete-event loop and the streaming engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import load_dataset
from repro.errors import ConfigurationError, RuntimeModelError
from repro.runtime import (
    JETSON_NANO,
    RTX3060_SERVER,
    WLAN,
    Deployment,
    EventLoop,
    FifoResource,
    FleetSpec,
    StreamConfig,
    cloud_only_scheme,
    collaborative_scheme,
    edge_only_scheme,
    serve_fleet,
)


@pytest.fixture(scope="module")
def helmet_mini():
    return load_dataset("helmet", "test", fraction=0.1)


@pytest.fixture(scope="module")
def serve(helmet_mini):
    deployment = Deployment(
        edge=JETSON_NANO,
        cloud=RTX3060_SERVER,
        link=WLAN,
        small_model_flops=5.5e9,
        big_model_flops=60e9,
    )

    def run(scheme, config, mask=None):
        return serve_fleet(deployment, helmet_mini, FleetSpec(scheme, config, mask=mask), seed=42).cameras[0]

    return run


class TestEventLoop:
    def test_events_fire_in_time_order(self):
        loop = EventLoop()
        fired: list[str] = []
        loop.schedule(2.0, lambda: fired.append("late"))
        loop.schedule(1.0, lambda: fired.append("early"))
        loop.run()
        assert fired == ["early", "late"]

    def test_same_time_fires_in_schedule_order(self):
        loop = EventLoop()
        fired: list[int] = []
        for i in range(5):
            loop.schedule(1.0, lambda i=i: fired.append(i))
        loop.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_nested_scheduling(self):
        loop = EventLoop()
        fired: list[float] = []
        loop.schedule(1.0, lambda: loop.schedule(0.5, lambda: fired.append(loop.now)))
        final = loop.run()
        assert fired == [1.5] and final == 1.5

    def test_negative_delay_rejected(self):
        loop = EventLoop()
        with pytest.raises(ConfigurationError):
            loop.schedule(-1.0, lambda: None)


class TestFifoResource:
    def test_serialises_jobs(self):
        loop = EventLoop()
        resource = FifoResource(loop, "dev")
        completions: list[float] = []
        for _ in range(3):
            resource.acquire(1.0, completions.append)
        loop.run()
        assert completions == [1.0, 2.0, 3.0]

    def test_utilization(self):
        loop = EventLoop()
        resource = FifoResource(loop, "dev")
        resource.acquire(2.0, lambda _t: None)
        elapsed = loop.run()
        assert resource.utilization(elapsed) == pytest.approx(1.0)
        assert resource.jobs_served == 1

    def test_queue_depth_tracking(self):
        loop = EventLoop()
        resource = FifoResource(loop, "dev")
        for _ in range(4):
            resource.acquire(1.0, lambda _t: None)
        assert resource.max_queue_depth >= 3

    def test_negative_service_rejected(self):
        loop = EventLoop()
        resource = FifoResource(loop, "dev")
        with pytest.raises(RuntimeModelError):
            resource.acquire(-0.1, lambda _t: None)


class TestServeStream:
    def test_light_load_all_served(self, serve, helmet_mini):
        config = StreamConfig(fps=2.0, duration_s=20.0, poisson=False)
        mask = np.zeros(len(helmet_mini), dtype=bool)
        report = serve(collaborative_scheme(), config, mask)
        assert report.frames_dropped == 0
        assert report.frames_served == report.frames_offered

    def test_cloud_saturates_before_collaborative(self, serve, helmet_mini):
        config = StreamConfig(fps=12.0, duration_s=30.0)
        mask = np.zeros(len(helmet_mini), dtype=bool)
        mask[::5] = True
        cloud = serve(cloud_only_scheme(), config)
        ours = serve(collaborative_scheme(), config, mask)
        assert cloud.latency.p50 > ours.latency.p50
        assert cloud.drop_rate >= ours.drop_rate

    def test_edge_scheme_never_uploads(self, serve):
        config = StreamConfig(fps=5.0, duration_s=10.0)
        report = serve(edge_only_scheme(), config)
        assert report.frames_uploaded == 0 and report.upload_ratio == 0.0

    def test_cloud_scheme_uploads_everything_served(self, serve):
        config = StreamConfig(fps=2.0, duration_s=10.0, poisson=False)
        report = serve(cloud_only_scheme(), config)
        assert report.frames_uploaded == report.frames_offered

    def test_upload_ratio_matches_mask(self, serve, helmet_mini):
        config = StreamConfig(fps=2.0, duration_s=30.0, poisson=False)
        mask = np.zeros(len(helmet_mini), dtype=bool)
        mask[::4] = True
        report = serve(collaborative_scheme(), config, mask)
        assert report.upload_ratio == pytest.approx(0.25, abs=0.05)

    def test_deterministic(self, serve, helmet_mini):
        config = StreamConfig(fps=6.0, duration_s=15.0)
        a = serve(cloud_only_scheme(), config)
        b = serve(cloud_only_scheme(), config)
        assert a.latency.total == pytest.approx(b.latency.total)

    def test_collaborative_without_mask_rejected(self, serve):
        with pytest.raises(RuntimeModelError):
            serve(collaborative_scheme(), StreamConfig())

    def test_misaligned_mask_rejected(self, serve):
        with pytest.raises(RuntimeModelError):
            serve(collaborative_scheme(), StreamConfig(), np.zeros(3, dtype=bool))

    def test_empty_dataset_rejected(self, helmet_mini):
        deployment = Deployment(
            edge=JETSON_NANO,
            cloud=RTX3060_SERVER,
            link=WLAN,
            small_model_flops=1e9,
            big_model_flops=1e9,
        )
        empty = helmet_mini.subset(0)
        with pytest.raises(RuntimeModelError):
            serve_fleet(deployment, empty, FleetSpec(edge_only_scheme()))

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamConfig(fps=0.0)
        with pytest.raises(ConfigurationError):
            StreamConfig(max_edge_queue=0)

    @pytest.mark.parametrize("depth", [2.5, 3.0, True, "4", None])
    def test_non_integer_queue_bound_rejected(self, depth):
        # 2.5 used to construct and then act as a bound of 3
        with pytest.raises(ConfigurationError, match="max_edge_queue"):
            StreamConfig(max_edge_queue=depth)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("fps", float("nan")),
            ("fps", float("inf")),
            ("duration_s", float("nan")),
            ("duration_s", float("inf")),
            ("duration_s", -1.0),
        ],
    )
    def test_non_finite_rate_and_duration_rejected_at_construction(self, field, value):
        # these used to pass construction and fail inside the arrival draw
        with pytest.raises(ConfigurationError):
            StreamConfig(**{field: value})
