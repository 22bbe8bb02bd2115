"""Bit-for-bit equivalence of the unified serving pipeline.

The three paper schemes used to be implemented twice — once as per-scheme
loops for the static Table XI accounting and once as a per-scheme event
simulation.  Both now route through :mod:`repro.runtime.serving`
(:func:`run_cost` and a one-camera :func:`serve_fleet`).  This module keeps verbatim copies of
the *pre-refactor* per-scheme implementations and asserts exact equality —
every float, byte count and counter — against the shared-pipeline path, so
the refactor can never drift from the published numbers.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _legacy_budget as legacy
from repro._rng import generator_for
from repro.core.discriminator import DifficultCaseDiscriminator
from repro.data import load_dataset
from repro.detection.batch import DetectionBatch, DetectionBatchBuilder
from repro.metrics.latency import summarize_latencies
from repro.runtime import (
    DISCRIMINATOR_FLOPS,
    JETSON_NANO,
    RTX3060_SERVER,
    WLAN,
    AdaptiveQuota,
    CameraSpec,
    DeadlineAware,
    Deployment,
    DropNewest,
    DropOldest,
    EscalationPolicy,
    EventLoop,
    FifoResource,
    FleetSpec,
    OutageSchedule,
    RateSchedule,
    RunCost,
    StreamConfig,
    UnreliableLink,
    cloud_only_scheme,
    collaborative_scheme,
    edge_only_scheme,
    paper_schemes,
    run_cost,
    serve_fleet,
    simulate_fleet,
)
from repro.runtime import engine
from repro.runtime.codec import detections_payload_bytes
from repro.runtime.engine import _CameraStream
from repro.simulate import make_detector


@pytest.fixture(scope="module")
def helmet_mini():
    return load_dataset("helmet", "test", fraction=0.08)


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
def half_mask(helmet_mini):
    mask = np.zeros(len(helmet_mini), dtype=bool)
    mask[::3] = True
    return mask


# --------------------------------------------------------------------- #
# reference implementations (verbatim pre-refactor executor.py)
# --------------------------------------------------------------------- #
class ReferenceRuntime:
    """The deleted per-scheme static loops, kept as the equality oracle."""

    def __init__(self, deployment: Deployment, seed: int) -> None:
        self.deployment = deployment
        self.seed = seed

    def edge_latency(self, record) -> float:
        device = self.deployment.edge
        return device.inference_latency(
            self.deployment.small_model_flops
        ) + device.inference_latency(DISCRIMINATOR_FLOPS)

    def cloud_round_trip(self, record, result_boxes: int = 8) -> float:
        dep = self.deployment
        rng = generator_for(self.seed, "net", record.image_id)
        upload = dep.link.transfer_time(dep.codec.encoded_bytes(record), rng)
        inference = dep.cloud.inference_latency(dep.big_model_flops)
        download = dep.link.transfer_time(detections_payload_bytes(result_boxes), rng)
        return upload + inference + download

    def run_edge_only(self, dataset) -> RunCost:
        latencies = [self.deployment.edge.inference_latency(self.deployment.small_model_flops) for _ in dataset.records]
        return RunCost(
            latency=summarize_latencies(latencies),
            uploaded_images=0,
            total_images=len(dataset),
            uplink_bytes=0,
            downlink_bytes=0,
        )

    def run_cloud_only(self, dataset) -> RunCost:
        dep = self.deployment
        latencies = [self.cloud_round_trip(record) for record in dataset.records]
        uplink = sum(dep.codec.encoded_bytes(record) for record in dataset.records)
        downlink = len(dataset) * detections_payload_bytes(8)
        return RunCost(
            latency=summarize_latencies(latencies),
            uploaded_images=len(dataset),
            total_images=len(dataset),
            uplink_bytes=uplink,
            downlink_bytes=downlink,
        )

    def run_collaborative(self, dataset, uploaded) -> RunCost:
        mask = np.asarray(uploaded, dtype=bool).reshape(-1)
        dep = self.deployment
        latencies: list[float] = []
        uplink = 0
        for record, send in zip(dataset.records, mask):
            latency = self.edge_latency(record)
            if send:
                latency += self.cloud_round_trip(record)
                uplink += dep.codec.encoded_bytes(record)
            latencies.append(latency)
        downlink = int(mask.sum()) * detections_payload_bytes(8)
        return RunCost(
            latency=summarize_latencies(latencies),
            uploaded_images=int(mask.sum()),
            total_images=len(dataset),
            uplink_bytes=uplink,
            downlink_bytes=downlink,
        )


# --------------------------------------------------------------------- #
# reference implementation (verbatim pre-refactor stream.py)
# --------------------------------------------------------------------- #
def reference_stream_run(deployment, dataset, seed, scheme, config, uploaded=None):
    """The deleted per-scheme event-loop simulation, as the equality oracle."""

    def _arrivals():
        rng = generator_for(seed, "stream-arrivals", config.fps, config.poisson)
        if config.poisson:
            gaps = rng.exponential(1.0 / config.fps, size=int(config.fps * config.duration_s * 2))
        else:
            gaps = np.full(int(config.fps * config.duration_s * 2), 1.0 / config.fps)
        times = np.cumsum(gaps)
        return times[times < config.duration_s]

    dep = deployment
    if uploaded is not None:
        uploaded = np.asarray(uploaded, dtype=bool).reshape(-1)

    loop = EventLoop()
    edge = FifoResource(loop, "edge")
    uplink = FifoResource(loop, "uplink")
    cloud = FifoResource(loop, "cloud")

    latencies: list[float] = []
    counters = {"served": 0, "dropped": 0, "uploads": 0}
    arrivals = _arrivals()
    records = dataset.records
    num_records = len(records)
    edge_service = dep.edge.inference_latency(dep.small_model_flops) + dep.edge.inference_latency(DISCRIMINATOR_FLOPS)
    cloud_service = dep.cloud.inference_latency(dep.big_model_flops)
    downlink_latency = dep.link.expected_transfer_time(detections_payload_bytes(8))

    def finish(start: float) -> None:
        counters["served"] += 1
        latencies.append(loop.now - start + downlink_latency)

    def finish_local(start: float) -> None:
        counters["served"] += 1
        latencies.append(loop.now - start)

    def cloud_path(record, start: float) -> None:
        counters["uploads"] += 1
        uplink.acquire(
            dep.link.expected_transfer_time(dep.codec.encoded_bytes(record)),
            lambda _t: cloud.acquire(cloud_service, lambda _t2: finish(start)),
        )

    def on_frame(index: int, arrival: float) -> None:
        record_index = index % num_records
        record = records[record_index]
        entry_queue = edge if scheme != "cloud" else uplink
        if entry_queue.queue_depth >= config.max_edge_queue:
            counters["dropped"] += 1
            return
        start = arrival
        if scheme == "edge":
            edge.acquire(edge_service, lambda _t: finish_local(start))
        elif scheme == "cloud":
            cloud_path(record, start)
        else:
            send = bool(uploaded[record_index])

            def after_edge(_t: float, record=record, send=send) -> None:
                if send:
                    cloud_path(record, start)
                else:
                    finish_local(start)

            edge.acquire(edge_service, after_edge)

    for index, arrival in enumerate(arrivals):
        loop.schedule(arrival, lambda i=index, a=arrival: on_frame(i, a))
    elapsed = loop.run()

    return {
        "latency": summarize_latencies(latencies),
        "frames_offered": int(arrivals.shape[0]),
        "frames_served": counters["served"],
        "frames_dropped": counters["dropped"],
        "frames_uploaded": counters["uploads"],
        "edge_utilization": edge.utilization(elapsed),
        "uplink_utilization": uplink.utilization(elapsed),
        "cloud_utilization": cloud.utilization(elapsed),
    }


def assert_run_costs_identical(ours: RunCost, reference: RunCost) -> None:
    for name in ("total", "mean", "p50", "p90", "p99", "count"):
        assert getattr(ours.latency, name) == getattr(reference.latency, name), name
    assert ours.uploaded_images == reference.uploaded_images
    assert ours.total_images == reference.total_images
    assert ours.uplink_bytes == reference.uplink_bytes
    assert ours.downlink_bytes == reference.downlink_bytes


def assert_stream_reports_identical(report, reference: dict) -> None:
    for name in ("total", "mean", "p50", "p90", "p99", "count"):
        assert getattr(report.latency, name) == getattr(reference["latency"], name), name
    for name in (
        "frames_offered",
        "frames_served",
        "frames_dropped",
        "frames_uploaded",
        "edge_utilization",
        "uplink_utilization",
        "cloud_utilization",
    ):
        assert getattr(report, name) == reference[name], name


# --------------------------------------------------------------------- #
# static engine equivalence
# --------------------------------------------------------------------- #
class TestStaticEquivalence:
    @pytest.mark.parametrize("seed", [0, 99, 20230701])
    def test_edge_only_identical(self, deployment, helmet_mini, seed):
        cost = run_cost(edge_only_scheme(), deployment, helmet_mini, seed=seed)
        reference = ReferenceRuntime(deployment, seed)
        assert_run_costs_identical(cost, reference.run_edge_only(helmet_mini))

    @pytest.mark.parametrize("seed", [0, 99, 20230701])
    def test_cloud_only_identical(self, deployment, helmet_mini, seed):
        cost = run_cost(cloud_only_scheme(), deployment, helmet_mini, seed=seed)
        reference = ReferenceRuntime(deployment, seed)
        assert_run_costs_identical(cost, reference.run_cloud_only(helmet_mini))

    @pytest.mark.parametrize("seed", [0, 99])
    def test_collaborative_identical(self, deployment, helmet_mini, half_mask, seed):
        reference = ReferenceRuntime(deployment, seed)
        assert_run_costs_identical(
            run_cost(collaborative_scheme(), deployment, helmet_mini, mask=half_mask, seed=seed),
            reference.run_collaborative(helmet_mini, half_mask),
        )

    def test_collaborative_empty_and_full_masks(self, deployment, helmet_mini):
        reference = ReferenceRuntime(deployment, 7)
        for mask in (
            np.zeros(len(helmet_mini), dtype=bool),
            np.ones(len(helmet_mini), dtype=bool),
        ):
            assert_run_costs_identical(
                run_cost(collaborative_scheme(), deployment, helmet_mini, mask=mask, seed=7),
                reference.run_collaborative(helmet_mini, mask),
            )


# --------------------------------------------------------------------- #
# streaming engine equivalence
# --------------------------------------------------------------------- #
class TestStreamEquivalence:
    CONFIGS = [
        StreamConfig(fps=2.0, duration_s=20.0, poisson=False),
        StreamConfig(fps=6.0, duration_s=15.0),
        StreamConfig(fps=14.0, duration_s=25.0, max_edge_queue=5),
    ]

    @pytest.mark.parametrize("config", CONFIGS, ids=["light", "poisson", "saturating"])
    def test_edge_identical(self, deployment, helmet_mini, config):
        report = serve_fleet(deployment, helmet_mini, FleetSpec(edge_only_scheme(), config), seed=42).cameras[0]
        reference = reference_stream_run(deployment, helmet_mini, 42, "edge", config)
        assert_stream_reports_identical(report, reference)

    @pytest.mark.parametrize("config", CONFIGS, ids=["light", "poisson", "saturating"])
    def test_cloud_identical(self, deployment, helmet_mini, config):
        report = serve_fleet(deployment, helmet_mini, FleetSpec(cloud_only_scheme(), config), seed=42).cameras[0]
        reference = reference_stream_run(deployment, helmet_mini, 42, "cloud", config)
        assert_stream_reports_identical(report, reference)

    @pytest.mark.parametrize("config", CONFIGS, ids=["light", "poisson", "saturating"])
    def test_collaborative_identical(self, deployment, helmet_mini, half_mask, config):
        spec = FleetSpec(collaborative_scheme(), config, mask=half_mask)
        report = serve_fleet(deployment, helmet_mini, spec, seed=42).cameras[0]
        reference = reference_stream_run(deployment, helmet_mini, 42, "collaborative", config, half_mask)
        assert_stream_reports_identical(report, reference)

    def test_served_batch_unchanged_by_frame_log(self, deployment, helmet_mini, half_mask):
        """The new per-frame log must not perturb the served accumulation."""
        config = StreamConfig(fps=5.0, duration_s=12.0)
        from repro.simulate import make_detector

        detections = make_detector("small1", "helmet").detect_split(helmet_mini)
        spec = FleetSpec(collaborative_scheme(), config, mask=half_mask, detections=detections)
        report = serve_fleet(deployment, helmet_mini, spec, seed=42).cameras[0]
        reference = reference_stream_run(deployment, helmet_mini, 42, "collaborative", config, half_mask)
        assert_stream_reports_identical(report, reference)
        assert report.served is not None
        assert len(report.served) == report.frames_served
        assert report.trace.times.shape[0] == report.frames_offered
        assert int(report.trace.served.sum()) == report.frames_served


# --------------------------------------------------------------------- #
# admission-control equivalence: DropNewest is the pre-admission pipeline
# --------------------------------------------------------------------- #
class TestAdmissionEquivalence:
    """`DropNewest` (and the admission default) must be bit-for-bit the
    pre-admission-control pipeline on every scheme and engine entry point —
    the camera-buffer refactor may not move a single byte of the published
    numbers."""

    CONFIGS = [
        StreamConfig(fps=2.0, duration_s=20.0, poisson=False),
        StreamConfig(fps=6.0, duration_s=15.0),
        StreamConfig(fps=14.0, duration_s=25.0, max_edge_queue=5),
    ]

    @pytest.mark.parametrize("scheme", ["edge", "cloud", "collaborative"])
    @pytest.mark.parametrize("config", CONFIGS, ids=["light", "poisson", "saturating"])
    def test_drop_newest_identical_to_reference(self, deployment, helmet_mini, half_mask, scheme, config):
        uploaded = half_mask if scheme == "collaborative" else None
        spec = FleetSpec(paper_schemes()[scheme], config, mask=uploaded, admission=DropNewest())
        report = serve_fleet(deployment, helmet_mini, spec, seed=42).cameras[0]
        reference = reference_stream_run(deployment, helmet_mini, 42, scheme, config, uploaded)
        assert_stream_reports_identical(report, reference)
        assert report.frames_shed == 0

    @pytest.mark.parametrize("scheme", ["edge", "cloud", "collaborative"])
    @pytest.mark.parametrize("config", CONFIGS, ids=["light", "poisson", "saturating"])
    def test_drop_newest_identical_to_default(self, deployment, helmet_mini, half_mask, scheme, config):
        """Explicit DropNewest and the omitted-admission default are the
        same run, per-frame log and served batch included."""
        from repro.simulate import make_detector

        detections = make_detector("small1", "helmet").detect_split(helmet_mini)
        uploaded = half_mask if scheme == "collaborative" else None
        spec = FleetSpec(paper_schemes()[scheme], config, mask=uploaded, detections=detections)
        explicit = serve_fleet(deployment, helmet_mini, replace(spec, admission=DropNewest()), seed=42).cameras[0]
        default = serve_fleet(deployment, helmet_mini, spec, seed=42).cameras[0]
        assert explicit == default

    @pytest.mark.parametrize(
        "scheme_factory",
        [edge_only_scheme, cloud_only_scheme],
        ids=["edge", "cloud"],
    )
    def test_fleet_drop_newest_identical_to_default(self, deployment, helmet_mini, scheme_factory):
        config = StreamConfig(fps=1.5, duration_s=30.0)
        kwargs = dict(cameras=8, seed=5)
        explicit = simulate_fleet(
            scheme_factory(), deployment, helmet_mini, config, admission=DropNewest(), **kwargs
        )
        default = simulate_fleet(scheme_factory(), deployment, helmet_mini, config, **kwargs)
        assert explicit == default
        assert explicit.frames_shed == 0

    def test_fleet_collaborative_drop_newest_identical_to_default(self, deployment, helmet_mini, half_mask):
        config = StreamConfig(fps=1.5, duration_s=30.0)
        kwargs = dict(cameras=8, mask=half_mask, seed=5)
        explicit = simulate_fleet(
            collaborative_scheme(), deployment, helmet_mini, config, admission=DropNewest(), **kwargs
        )
        default = simulate_fleet(collaborative_scheme(), deployment, helmet_mini, config, **kwargs)
        assert explicit == default

    @pytest.mark.parametrize(
        "admission",
        [DropOldest(), DeadlineAware(freshness_s=2.0)],
        ids=lambda policy: policy.name,
    )
    @pytest.mark.parametrize("scheme", ["edge", "cloud", "collaborative"])
    def test_new_policies_deterministic_per_stream(self, deployment, helmet_mini, half_mask, admission, scheme):
        """The new shedding policies reproduce exactly in the seed."""
        config = StreamConfig(fps=14.0, duration_s=25.0, max_edge_queue=5)
        uploaded = half_mask if scheme == "collaborative" else None
        spec = FleetSpec(paper_schemes()[scheme], config, mask=uploaded, admission=admission)
        runs = [serve_fleet(deployment, helmet_mini, spec, seed=42).cameras[0] for _ in range(2)]
        assert runs[0] == runs[1]

    def test_paper_schemes_cover_all_shapes(self):
        """The parametrisations above span every pipeline shape."""
        shapes = {(s.edge_compute, s.edge_discriminates) for s in paper_schemes().values()}
        assert shapes == {(True, False), (False, False), (True, True)}


# --------------------------------------------------------------------- #
# availability equivalence: an all-up UnreliableLink is the plain link
# --------------------------------------------------------------------- #
class TestAvailabilityEquivalence:
    """Failure injection may not move a byte while nothing fails: with an
    all-up outage schedule and zero loss probability, every engine, scheme
    and fleet result is bit-for-bit identical to the pre-failure-injection
    path, whatever escalation policy is armed."""

    ESCALATIONS = [
        None,
        EscalationPolicy.no_retry(),
        EscalationPolicy.drop_on_failure(),
        EscalationPolicy.durable_queue(),
    ]
    ESCALATION_IDS = ["default", "no-retry", "drop-on-failure", "durable-queue"]

    @pytest.fixture(scope="class")
    def unreliable_deployment(self, deployment):
        return Deployment(
            edge=deployment.edge,
            cloud=deployment.cloud,
            link=UnreliableLink.wrap(deployment.link, outages=OutageSchedule()),
            small_model_flops=deployment.small_model_flops,
            big_model_flops=deployment.big_model_flops,
        )

    @pytest.fixture(scope="class")
    def small_batch(self, helmet_mini):
        from repro.simulate import make_detector

        return make_detector("small1", "helmet").detect_split(helmet_mini)

    @pytest.mark.parametrize("scheme_name", ["edge", "cloud", "collaborative"])
    def test_static_engine_identical(
        self, deployment, unreliable_deployment, helmet_mini, half_mask, scheme_name
    ):
        scheme = paper_schemes()[scheme_name]
        mask = half_mask if scheme_name == "collaborative" else None
        plain = run_cost(scheme, deployment, helmet_mini, mask=mask, seed=42)
        wrapped = run_cost(scheme, unreliable_deployment, helmet_mini, mask=mask, seed=42)
        assert plain == wrapped

    @pytest.mark.parametrize("escalation", ESCALATIONS, ids=ESCALATION_IDS)
    @pytest.mark.parametrize("scheme_name", ["edge", "cloud", "collaborative"])
    def test_stream_identical(
        self, deployment, unreliable_deployment, helmet_mini, half_mask, small_batch, scheme_name, escalation
    ):
        config = StreamConfig(fps=6.0, duration_s=15.0)
        uploaded = half_mask if scheme_name == "collaborative" else None
        spec = FleetSpec(
            paper_schemes()[scheme_name], config, mask=uploaded, detections=small_batch, small_detections=small_batch
        )
        plain = serve_fleet(deployment, helmet_mini, spec, seed=42).cameras[0]
        wrapped_spec = replace(spec, escalation=escalation)
        wrapped = serve_fleet(unreliable_deployment, helmet_mini, wrapped_spec, seed=42).cameras[0]
        assert plain == wrapped
        assert wrapped.escalations_failed == 0
        assert wrapped.escalations_dropped == 0
        assert wrapped.escalations_recovered == 0

    @pytest.mark.parametrize("escalation", ESCALATIONS, ids=ESCALATION_IDS)
    def test_fleet_identical(self, deployment, unreliable_deployment, helmet_mini, half_mask, escalation):
        config = StreamConfig(fps=1.5, duration_s=30.0)
        kwargs = dict(cameras=8, mask=half_mask, seed=5)
        plain = simulate_fleet(collaborative_scheme(), deployment, helmet_mini, config, **kwargs)
        wrapped = simulate_fleet(
            collaborative_scheme(),
            unreliable_deployment,
            helmet_mini,
            config,
            escalation=escalation,
            **kwargs,
        )
        assert plain.cameras == wrapped.cameras
        assert plain.latency == wrapped.latency
        assert (plain.frames_offered, plain.frames_served, plain.frames_dropped, plain.frames_uploaded) == (
            wrapped.frames_offered,
            wrapped.frames_served,
            wrapped.frames_dropped,
            wrapped.frames_uploaded,
        )
        assert wrapped.escalations_failed == 0


class TestScheduleEquivalence:
    """A constant rate schedule is the plain scalar link: attaching
    ``RateSchedule.always(bandwidth)`` may not move a byte on any engine,
    scheme, fleet, or admission policy — the schedule-aware refactor's
    zero-overhead contract."""

    @pytest.fixture(scope="class")
    def scheduled_deployment(self, deployment):
        link = deployment.link.with_rate_schedule(
            RateSchedule.always(deployment.link.bandwidth_mbps)
        )
        assert link.bandwidth_mbps == deployment.link.bandwidth_mbps
        assert not link.time_varying
        return Deployment(
            edge=deployment.edge,
            cloud=deployment.cloud,
            link=link,
            small_model_flops=deployment.small_model_flops,
            big_model_flops=deployment.big_model_flops,
        )

    @pytest.mark.parametrize("scheme_name", ["edge", "cloud", "collaborative"])
    def test_static_engine_identical(
        self, deployment, scheduled_deployment, helmet_mini, half_mask, scheme_name
    ):
        scheme = paper_schemes()[scheme_name]
        mask = half_mask if scheme_name == "collaborative" else None
        plain = run_cost(scheme, deployment, helmet_mini, mask=mask, seed=42)
        scheduled = run_cost(scheme, scheduled_deployment, helmet_mini, mask=mask, seed=42)
        assert plain == scheduled

    @pytest.mark.parametrize("scheme_name", ["edge", "cloud", "collaborative"])
    @pytest.mark.parametrize(
        "config",
        [
            StreamConfig(fps=6.0, duration_s=15.0),
            StreamConfig(fps=14.0, duration_s=25.0, max_edge_queue=5),
        ],
        ids=["poisson", "saturating"],
    )
    def test_stream_identical(
        self, deployment, scheduled_deployment, helmet_mini, half_mask, scheme_name, config
    ):
        uploaded = half_mask if scheme_name == "collaborative" else None
        spec = FleetSpec(paper_schemes()[scheme_name], config, mask=uploaded)
        plain = serve_fleet(deployment, helmet_mini, spec, seed=42).cameras[0]
        scheduled = serve_fleet(scheduled_deployment, helmet_mini, spec, seed=42).cameras[0]
        assert plain == scheduled

    @pytest.mark.parametrize(
        "scheme_factory",
        [edge_only_scheme, cloud_only_scheme, collaborative_scheme],
        ids=["edge", "cloud", "collaborative"],
    )
    def test_fleet_identical(
        self, deployment, scheduled_deployment, helmet_mini, half_mask, scheme_factory
    ):
        config = StreamConfig(fps=1.5, duration_s=30.0)
        mask = half_mask if scheme_factory is collaborative_scheme else None
        kwargs = dict(cameras=8, mask=mask, seed=5)
        plain = simulate_fleet(scheme_factory(), deployment, helmet_mini, config, **kwargs)
        scheduled = simulate_fleet(
            scheme_factory(), scheduled_deployment, helmet_mini, config, **kwargs
        )
        assert plain == scheduled

    def test_schedule_aware_admission_identical_on_constant_link(
        self, deployment, scheduled_deployment, helmet_mini
    ):
        """On a fixed-rate link the schedule-aware estimator's floor is
        exactly zero, so both variants are the same run."""
        from repro.runtime.control import EstimatedDeadlineAware

        config = StreamConfig(fps=14.0, duration_s=25.0, max_edge_queue=30)
        runs = {}
        for label, dep, aware in (
            ("plain-aware", deployment, True),
            ("scheduled-aware", scheduled_deployment, True),
            ("scheduled-blind", scheduled_deployment, False),
        ):
            spec = FleetSpec(
                scheme=cloud_only_scheme(),
                config=config,
                admission=EstimatedDeadlineAware(freshness_s=2.0, schedule_aware=aware),
            )
            runs[label] = serve_fleet(dep, helmet_mini, spec, seed=42).cameras[0]
        assert runs["plain-aware"] == runs["scheduled-aware"] == runs["scheduled-blind"]
        assert runs["plain-aware"].frames_shed > 0

    def test_constant_schedule_composes_with_unreliable_link(
        self, deployment, scheduled_deployment, helmet_mini, half_mask
    ):
        """Wrapping the scheduled link with an all-up outage schedule keeps
        the schedule field and still matches the plain run."""
        wrapped_link = UnreliableLink.wrap(scheduled_deployment.link, outages=OutageSchedule())
        assert wrapped_link.schedule == scheduled_deployment.link.schedule
        wrapped = Deployment(
            edge=deployment.edge,
            cloud=deployment.cloud,
            link=wrapped_link,
            small_model_flops=deployment.small_model_flops,
            big_model_flops=deployment.big_model_flops,
        )
        config = StreamConfig(fps=6.0, duration_s=15.0)
        spec = FleetSpec(collaborative_scheme(), config, mask=half_mask)
        plain = serve_fleet(deployment, helmet_mini, spec, seed=42).cameras[0]
        scheduled = serve_fleet(wrapped, helmet_mini, spec, seed=42).cameras[0]
        assert plain == scheduled


class TestSpecEquivalence:
    """The fleet spec front door (`serve_fleet`) and the keyword entry point
    (`simulate_fleet`) are the same run, bit for bit, and spec values are
    reusable."""

    CONFIG = StreamConfig(fps=6.0, duration_s=15.0)

    def test_fleet_spec_identical_to_kwargs(self, deployment, helmet_mini, half_mask):
        spec = FleetSpec(
            scheme=collaborative_scheme(),
            config=self.CONFIG,
            cameras=8,
            mask=half_mask,
            admission=DeadlineAware(freshness_s=2.0),
        )
        via_spec = serve_fleet(deployment, helmet_mini, spec, seed=5)
        via_kwargs = simulate_fleet(
            collaborative_scheme(),
            deployment,
            helmet_mini,
            self.CONFIG,
            cameras=8,
            mask=half_mask,
            admission=DeadlineAware(freshness_s=2.0),
            seed=5,
        )
        assert via_spec == via_kwargs

    def test_unset_camera_specs_inherit_fleet_defaults(self, deployment, helmet_mini, half_mask):
        """`CameraSpec()` per camera is the homogeneous fleet, bit for bit."""
        homogeneous = FleetSpec(
            scheme=collaborative_scheme(), config=self.CONFIG, cameras=4, mask=half_mask
        )
        explicit = FleetSpec(
            scheme=collaborative_scheme(),
            config=self.CONFIG,
            cameras=(CameraSpec(),) * 4,
            mask=half_mask,
        )
        assert serve_fleet(deployment, helmet_mini, homogeneous, seed=5) == serve_fleet(
            deployment, helmet_mini, explicit, seed=5
        )

    def test_spec_reuse_is_deterministic(self, deployment, helmet_mini):
        """One frozen spec value re-served across seeds and runs: the same
        seed reproduces exactly, different seeds are independent."""
        spec = FleetSpec(scheme=edge_only_scheme(), config=self.CONFIG)
        first = serve_fleet(deployment, helmet_mini, spec, seed=7).cameras[0]
        second = serve_fleet(deployment, helmet_mini, spec, seed=7).cameras[0]
        other = serve_fleet(deployment, helmet_mini, spec, seed=8).cameras[0]
        assert first == second
        assert first.frames_offered != other.frames_offered or first != other


class TestAdaptiveQuotaEquivalence:
    """``AdaptiveQuota`` decides from per-record features extracted once;
    the historical path re-extracted them from a ``Detections`` view per
    frame inside a legacy controller (``_legacy_budget.py``).  A fleet
    driven by either is the same run, bit for bit, across ``reset()``
    reuse.  The oracle's controllers take the parameters the quota gives
    every :class:`~repro.core.adaptive.BudgetController`."""

    CONFIG = StreamConfig(fps=1.5, poisson=True, duration_s=40.0, max_edge_queue=30)

    @pytest.fixture(scope="class")
    def detections(self, helmet_mini):
        small = make_detector("small1", "helmet").detect_split(helmet_mini)
        big = make_detector("ssd", "helmet").detect_split(helmet_mini)
        return small, big

    def test_fleet_identical_to_legacy_controller(self, deployment, helmet_mini, detections):
        small, big = detections
        # Only 14 of the 80 records are uncertain, with minimum areas of
        # 0.007-0.05: a 10% target keeps the area threshold moving through
        # that band instead of pinning it at a bound.
        discriminator = DifficultCaseDiscriminator(confidence_threshold=0.25, count_threshold=3, area_threshold=0.02)
        oracle = legacy.LegacyAdaptiveQuota(discriminator, small, 0.1)
        quotas = [AdaptiveQuota(discriminator, small, 0.1), oracle]
        runs = []
        for quota in quotas:
            spec = FleetSpec(
                scheme=collaborative_scheme(),
                config=self.CONFIG,
                cameras=4,
                small_detections=small,
                detections=big,
                offload=quota,
            )
            reports = [serve_fleet(deployment, helmet_mini, spec, seed=seed) for seed in (11, 11, 12)]
            states = sorted((c.discriminator.area_threshold, c.target_ratio) for c in quota._controllers.values())
            runs.append((reports, quota.decisions, quota.uploads, states))
        (ours, *counters), (reference, *legacy_counters) = runs
        assert ours[0] == ours[1]
        for report, expected in zip(ours, reference):
            assert report == expected
            assert report.trace() == expected.trace()
        assert counters == legacy_counters
        decisions, uploads, _ = counters
        assert 0 < uploads < decisions


# --------------------------------------------------------------------- #
# served batch: one gather at report time == frame-by-frame copies
# --------------------------------------------------------------------- #
class TestServedGatherEquivalence:
    """A camera records each served frame's source row, and the fleet
    gathers every camera's served batch at report time, one select per
    shared source (``engine._served_batches``).  The oracle below replaces
    that seam with the historical collector — every served frame's segment
    copied into a ``DetectionBatchBuilder`` as it is served — and the two
    runs must agree bit for bit, on a durable-queue fleet where fallback
    serves, recovered verdicts and offload-local serves all feed the
    batch."""

    CONFIG = StreamConfig(fps=1.5, poisson=True, duration_s=40.0)

    @pytest.fixture(scope="class")
    def detections(self, helmet_mini):
        small = make_detector("small1", "helmet").detect_split(helmet_mini)
        big = make_detector("ssd", "helmet").detect_split(helmet_mini)
        return small, big

    @pytest.fixture(scope="class")
    def faulty(self, deployment):
        return Deployment(
            edge=deployment.edge,
            cloud=deployment.cloud,
            link=UnreliableLink.wrap(
                WLAN,
                outages=OutageSchedule.periodic(period_s=10.0, downtime_s=3.0, duration_s=40.0, offset_s=2.0),
                loss_probability=0.05,
            ),
            small_model_flops=deployment.small_model_flops,
            big_model_flops=deployment.big_model_flops,
        )

    @staticmethod
    def _frame_by_frame(monkeypatch):
        builders: dict[_CameraStream, DetectionBatchBuilder] = {}

        def builder(camera):
            return builders.setdefault(camera, DetectionBatchBuilder(detector=camera.detections.detector))

        def copy(camera, batch, record_index):
            segment = batch[record_index]
            target = builder(camera)
            target.append(segment.image_id, segment.boxes, segment.scores, segment.labels)
            return len(target) - 1

        monkeypatch.setattr(_CameraStream, "_collect", lambda self, r: copy(self, self.detections, r))
        monkeypatch.setattr(_CameraStream, "_collect_fallback", lambda self, r: copy(self, self.fallback_detections, r))
        monkeypatch.setattr(
            engine,
            "_served_batches",
            lambda cameras: engine._Served([builder(camera).build() for camera in cameras], None, None),
        )

    @pytest.mark.parametrize("offload", [False, True], ids=["static-mask", "adaptive-quota"])
    def test_gathered_batch_matches_frame_by_frame_copies(
        self, monkeypatch, faulty, helmet_mini, half_mask, detections, offload
    ):
        small, big = detections

        def run():
            quota = None
            if offload:
                discriminator = DifficultCaseDiscriminator(
                    confidence_threshold=0.25, count_threshold=3, area_threshold=0.02
                )
                quota = AdaptiveQuota(discriminator, small, 0.3)
            spec = FleetSpec(
                scheme=collaborative_scheme(),
                config=self.CONFIG,
                cameras=4,
                mask=None if offload else half_mask,
                small_detections=small,
                detections=big,
                escalation=EscalationPolicy.durable_queue(capacity=64, max_retries=6, max_backoff_s=8.0),
                offload=quota,
            )
            return serve_fleet(faulty, helmet_mini, spec, seed=5)

        gathered = run()
        with monkeypatch.context() as patch:
            self._frame_by_frame(patch)
            reference = run()
        assert gathered == reference
        # one shared source: the fleet batch is the engine's gathered batch
        # itself, and equals the per-camera batches concatenated
        fleet, expected = gathered.served(), reference.served()
        assert fleet.image_ids == expected.image_ids and fleet.detector == expected.detector
        for column in ("boxes", "scores", "labels", "offsets"):
            assert np.array_equal(getattr(fleet, column), getattr(expected, column))
        for ours, theirs in zip(gathered.cameras, reference.cameras):
            for column in ("boxes", "scores", "labels", "offsets"):
                assert getattr(ours.served, column).dtype == getattr(theirs.served, column).dtype
            # every first serve and every recovered verdict owns one segment
            recovered = int((ours.trace.verdict_segments >= 0).sum())
            assert len(ours.served) == int(ours.trace.served.sum()) + recovered
        assert gathered.escalations_recovered > 0
        # fallback served first, cloud verdict recovered later
        assert (gathered.trace().verdict_segments >= 0).any()


class TestServedBatchesOfAMixedFleet:
    """The fleet gathers one select per shared ``(detections,
    fallback_detections)`` source and hands each camera its slice.  Every
    camera's batch must equal selecting its own rows from its own source,
    the per-camera gather this replaced: same image ids, arrays, dtypes,
    shapes and detector.  The fleet mixes cameras on the fleet's batches,
    ``CameraSpec`` cameras with their own detections (sharing the fleet's
    fallback, or with their own), and cameras that serve nothing, over a
    failing link whose fallback serves add rows past ``len(detections)``."""

    CONFIG = StreamConfig(fps=2.0, poisson=True, duration_s=20.0)
    SILENT = StreamConfig(fps=0.04, poisson=False, duration_s=20.0)  # its first arrival is past the run

    @pytest.fixture(scope="class")
    def batches(self, helmet_mini):
        small = DetectionBatch.coerce(make_detector("small1", "helmet").detect_split(helmet_mini))
        big = DetectionBatch.coerce(make_detector("ssd", "helmet").detect_split(helmet_mini))
        return small, big.above(0.3), big

    @pytest.fixture(scope="class")
    def faulty(self, deployment):
        return replace(
            deployment,
            link=UnreliableLink.wrap(
                WLAN,
                outages=OutageSchedule.periodic(period_s=6.0, downtime_s=2.0, duration_s=20.0, offset_s=1.0),
                loss_probability=0.1,
            ),
        )

    @staticmethod
    def _own_select(detections, fallback, rows):
        """One camera's gather, as each camera ran it before the fleet batched them."""
        rows = np.array(rows, dtype=np.int64)
        if rows.size and int(rows.max()) >= len(detections):
            detections = DetectionBatch.concat([detections, fallback], detector=detections.detector)
        return detections.select(rows)

    def _check(self, faulty, helmet_mini, half_mask, batches, kinds, seed):
        small, other, big = batches
        cameras = {
            "fleet": CameraSpec(),
            "own": CameraSpec(detections=other),
            "own-fallback": CameraSpec(detections=other, small_detections=big),
            "silent": CameraSpec(config=self.SILENT),
        }
        spec = FleetSpec(
            collaborative_scheme(),
            self.CONFIG,
            cameras=[cameras[kind] for kind in kinds],
            mask=half_mask,
            small_detections=small,
            detections=big,
            escalation=EscalationPolicy.durable_queue(capacity=16, max_retries=3, max_backoff_s=4.0),
        )
        sources = []
        gather = engine._served_batches

        def recording(streams):
            sources[:] = [(s.detections, s.fallback_detections, list(s.served_rows)) for s in streams]
            return gather(streams)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_served_batches", recording)
            report = serve_fleet(faulty, helmet_mini, spec, seed=seed)
        assert len(sources) == len(kinds)
        for camera, (detections, fallback, rows) in zip(report.cameras, sources):
            ours, expected = camera.served, self._own_select(detections, fallback, rows)
            assert ours.image_ids == expected.image_ids
            assert ours.detector == expected.detector
            for column in ("boxes", "scores", "labels", "offsets"):
                mine, theirs = getattr(ours, column), getattr(expected, column)
                assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
                assert np.array_equal(mine, theirs)
        return sources

    @settings(max_examples=25, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(["fleet", "own", "own-fallback", "silent"]), min_size=1, max_size=6),
        seed=st.integers(0, 3),
    )
    @example(kinds=["silent"], seed=0)
    def test_each_camera_slice_equals_its_own_select(self, faulty, helmet_mini, half_mask, batches, kinds, seed):
        self._check(faulty, helmet_mini, half_mask, batches, kinds, seed)

    def test_the_mix_reaches_every_case(self, faulty, helmet_mini, half_mask, batches):
        kinds = ["fleet", "own", "silent", "own-fallback", "fleet", "own-fallback"]
        sources = self._check(faulty, helmet_mini, half_mask, batches, kinds, 1)
        assert len({(id(detections), id(fallback)) for detections, fallback, _ in sources}) == 3
        assert sources[2][2] == []  # the silent camera served nothing
        # fallback serves index past the camera's detections, on every kind of source
        for index in (0, 1, 3):
            detections, _, rows = sources[index]
            assert rows and max(rows) >= len(detections)
