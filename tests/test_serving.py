"""Tests for the unified serving pipeline: schemes, policies, fleet, rolling.

Exact equality with the pre-refactor per-scheme implementations lives in
``test_serving_equivalence.py``; here we test the *new* surface — the
offload-policy protocol, policy-driven scheme runs through both engines,
the multi-camera fleet simulator, and the rolling online quality metric.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines import (
    BlurUploadPolicy,
    ConfidenceUploadPolicy,
    RandomUploadPolicy,
)
from repro.core.discriminator import DifficultCaseDiscriminator, DiscriminatorPolicy
from repro.data import load_dataset
from repro.detection import DetectionBatch
from repro.errors import ConfigurationError, RuntimeModelError
from repro.metrics import rolling_quality
from repro.runtime import (
    JETSON_NANO,
    RTX3060_SERVER,
    WLAN,
    AdmissionPolicy,
    AlwaysOffload,
    CameraSpec,
    DeadlineAware,
    Deployment,
    DropNewest,
    DropOldest,
    FleetSpec,
    NeverOffload,
    OffloadPolicy,
    RunCost,
    StreamConfig,
    cloud_only_scheme,
    collaborative_scheme,
    edge_only_scheme,
    paper_schemes,
    run_cost,
    serve_fleet,
)
from repro.runtime.trace import FrameTrace
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
def small_batch(helmet_mini):
    return DetectionBatch.coerce(make_detector("small1", "helmet").detect_split(helmet_mini))


@pytest.fixture(scope="module")
def big_batch(helmet_mini):
    return DetectionBatch.coerce(make_detector("ssd", "helmet").detect_split(helmet_mini))


@pytest.fixture(scope="module")
def discriminator(helmet_mini):
    train = load_dataset("helmet", "train", fraction=0.2)
    small = make_detector("small1", "helmet").detect_split(train)
    big = make_detector("ssd", "helmet").detect_split(train)
    fitted, _ = DifficultCaseDiscriminator.fit(small, big, train.truths)
    return fitted


def all_policies(discriminator, seed=7):
    return [
        DiscriminatorPolicy(discriminator),
        ConfidenceUploadPolicy(ratio=0.3),
        RandomUploadPolicy(ratio=0.3, seed=seed),
        BlurUploadPolicy(ratio=0.3),
        NeverOffload(),
        AlwaysOffload(),
    ]


class TestOffloadProtocol:
    def test_every_policy_satisfies_protocol(self, discriminator):
        for policy in all_policies(discriminator):
            assert isinstance(policy, OffloadPolicy), type(policy).__name__

    def test_policy_masks_aligned(self, discriminator, helmet_mini, small_batch):
        for policy in all_policies(discriminator):
            mask = policy.select(helmet_mini, small_batch)
            assert mask.dtype == bool and mask.shape == (len(helmet_mini),)

    def test_degenerate_policies_need_no_detections(self, helmet_mini):
        assert not NeverOffload().select(helmet_mini).any()
        assert AlwaysOffload().select(helmet_mini).all()

    def test_paper_schemes_shapes(self):
        schemes = paper_schemes()
        assert set(schemes) == {"edge", "cloud", "collaborative"}
        assert schemes["edge"].edge_compute and not schemes["edge"].edge_discriminates
        assert not schemes["cloud"].edge_compute
        assert schemes["collaborative"].edge_compute
        assert schemes["collaborative"].edge_discriminates

    def test_policyless_scheme_requires_mask(self, deployment, helmet_mini):
        with pytest.raises(RuntimeModelError):
            run_cost(collaborative_scheme(), deployment, helmet_mini)

    def test_detection_needing_policy_without_detections_is_diagnosable(self, deployment, helmet_mini, discriminator):
        """Every policy that needs the small model's output raises the same
        configuration error naming the missing input, not a bare TypeError."""
        from repro.errors import ConfigurationError

        for policy in (
            ConfidenceUploadPolicy(ratio=0.3),
            RandomUploadPolicy(ratio=0.3),
            BlurUploadPolicy(ratio=0.3),
            DiscriminatorPolicy(discriminator),
        ):
            with pytest.raises(ConfigurationError, match="detections"):
                run_cost(collaborative_scheme(policy), deployment, helmet_mini)


class TestPoliciesThroughBothEngines:
    """All five policy families drive the static executor and the stream
    simulator through the one shared protocol."""

    def test_static_engine_accepts_every_policy(self, deployment, helmet_mini, small_batch, discriminator):
        for policy in all_policies(discriminator):
            scheme = collaborative_scheme(policy, name=policy.name)
            cost = run_cost(scheme, deployment, helmet_mini, small_detections=small_batch, seed=3)
            expected = policy.select(helmet_mini, small_batch)
            assert cost.uploaded_images == int(expected.sum())
            assert cost.total_images == len(helmet_mini)

    def test_stream_engine_accepts_every_policy(self, deployment, helmet_mini, small_batch, discriminator):
        config = StreamConfig(fps=2.0, duration_s=10.0, poisson=False)
        for policy in all_policies(discriminator):
            scheme = collaborative_scheme(policy, name=policy.name)
            spec = FleetSpec(scheme, config, small_detections=small_batch)
            report = serve_fleet(deployment, helmet_mini, spec, seed=3).cameras[0]
            assert report.scheme == policy.name
            assert report.frames_served == report.frames_offered  # light load
            mask = policy.select(helmet_mini, small_batch)
            if not mask.any():
                assert report.frames_uploaded == 0
            if mask.all():
                assert report.frames_uploaded == report.frames_served

    def test_policy_mask_equals_explicit_mask(self, deployment, helmet_mini, small_batch, discriminator):
        """A policy-driven run is identical to supplying its mask explicitly."""
        policy = DiscriminatorPolicy(discriminator)
        mask = policy.select(helmet_mini, small_batch)
        by_policy = run_cost(
            collaborative_scheme(policy), deployment, helmet_mini, small_detections=small_batch, seed=11
        )
        by_mask = run_cost(collaborative_scheme(), deployment, helmet_mini, mask=mask, seed=11)
        assert by_policy == by_mask


class TestFleetSimulator:
    CONFIG = StreamConfig(fps=1.5, duration_s=20.0)

    def test_deterministic_at_eight_cameras(self, deployment, helmet_mini, small_batch):
        mask = np.zeros(len(helmet_mini), dtype=bool)
        mask[::4] = True
        runs = [
            serve_fleet(
                deployment,
                helmet_mini,
                FleetSpec(scheme=collaborative_scheme(), config=self.CONFIG, cameras=8, mask=mask),
                seed=5,
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]  # dataclass equality covers every field
        assert len(runs[0].cameras) == 8

    def test_totals_sum_over_cameras(self, deployment, helmet_mini):
        fleet = serve_fleet(
            deployment,
            helmet_mini,
            FleetSpec(scheme=edge_only_scheme(), config=self.CONFIG, cameras=8),
            seed=5,
        )
        for name in ("frames_offered", "frames_served", "frames_dropped", "frames_uploaded"):
            assert getattr(fleet, name) == sum(getattr(c, name) for c in fleet.cameras)
        assert fleet.latency.count == sum(c.latency.count for c in fleet.cameras)

    def test_shared_uplink_contention(self, deployment, helmet_mini):
        """Adding cameras saturates the shared uplink under cloud-only."""
        single = serve_fleet(
            deployment,
            helmet_mini,
            FleetSpec(scheme=cloud_only_scheme(), config=self.CONFIG, cameras=1),
            seed=5,
        )
        fleet = serve_fleet(
            deployment,
            helmet_mini,
            FleetSpec(scheme=cloud_only_scheme(), config=self.CONFIG, cameras=8),
            seed=5,
        )
        assert fleet.uplink_utilization >= single.uplink_utilization
        assert fleet.uplink_utilization > 0.95
        assert fleet.drop_rate > 0.2 or fleet.latency.p50 > 1.0
        # Shared-resource utilizations are reported identically per camera.
        for camera in fleet.cameras:
            assert camera.uplink_utilization == fleet.uplink_utilization
            assert camera.cloud_utilization == fleet.cloud_utilization

    def test_collaborative_fleet_outscales_cloud_only(
        self,
        deployment,
        helmet_mini,
        small_batch,
        big_batch,
        discriminator,
    ):
        # Long enough that cloud-only overruns even the per-camera buffers.
        config = StreamConfig(fps=1.5, duration_s=90.0)
        mask = discriminator.decide_split(small_batch)
        collab = serve_fleet(
            deployment,
            helmet_mini,
            FleetSpec(scheme=collaborative_scheme(), config=config, cameras=8, mask=mask),
            seed=5,
        )
        cloud = serve_fleet(
            deployment,
            helmet_mini,
            FleetSpec(scheme=cloud_only_scheme(), config=config, cameras=8),
            seed=5,
        )
        assert collab.drop_rate == 0.0
        assert cloud.drop_rate > 0.1
        assert collab.latency.p50 < cloud.latency.p50

    def test_cameras_cover_different_records(self, deployment, helmet_mini, small_batch):
        fleet = serve_fleet(
            deployment,
            helmet_mini,
            FleetSpec(
                scheme=edge_only_scheme(),
                config=StreamConfig(fps=1.0, duration_s=10.0, poisson=False),
                cameras=4,
                detections=small_batch,
            ),
            seed=5,
        )
        starts = [int(camera.trace.records[0]) for camera in fleet.cameras]
        assert len(set(starts)) == 4  # staggered offsets into the split

    def test_invalid_camera_count_rejected(self, deployment, helmet_mini):
        with pytest.raises(ConfigurationError):
            serve_fleet(deployment, helmet_mini, FleetSpec(scheme=edge_only_scheme(), config=self.CONFIG, cameras=0))

    @pytest.mark.parametrize("cameras", [[1, 2], "ab", 2.5, True, None, (CameraSpec(), 1)])
    def test_non_integer_camera_count_rejected_at_construction(self, cameras):
        # these used to construct and then die mid-run, or serve one camera
        with pytest.raises(ConfigurationError, match="cameras"):
            FleetSpec(scheme=edge_only_scheme(), cameras=cameras)


class TestRollingQuality:
    CONFIG = StreamConfig(fps=4.0, duration_s=24.0, poisson=False)

    def _stream(self, deployment, dataset, batch, scheme, cameras=1, **kwargs):
        return serve_fleet(
            deployment,
            dataset,
            FleetSpec(scheme=scheme, config=self.CONFIG, cameras=cameras, detections=batch, **kwargs),
            seed=9,
        )

    def test_windows_tile_the_horizon(self, deployment, helmet_mini, small_batch):
        report = self._stream(deployment, helmet_mini, small_batch, edge_only_scheme())
        windows = rolling_quality(report, helmet_mini, window_s=6.0, duration_s=24.0)
        assert [w.t_start for w in windows] == [0.0, 6.0, 12.0, 18.0]
        assert all(w.t_end - w.t_start == 6.0 for w in windows)
        # arrival-keyed windows cover every offered frame exactly once
        assert sum(w.frames for w in windows) == report.frames_offered
        assert all(w.frames == w.served + w.dropped + w.stale for w in windows)

    def test_quality_bounded_and_counts_consistent(self, deployment, helmet_mini, big_batch):
        report = self._stream(deployment, helmet_mini, big_batch, cloud_only_scheme())
        for window in rolling_quality(report, helmet_mini, window_s=8.0):
            assert 0.0 <= window.map_percent <= 100.0
            assert 0 <= window.detected_objects <= window.true_objects
            assert 0.0 <= window.count_error_percent <= 100.0

    def test_drops_degrade_measured_quality(self, deployment, helmet_mini, big_batch):
        """The same scheme, saturated, must score worse — drops are quality."""
        light = serve_fleet(
            deployment,
            helmet_mini,
            FleetSpec(cloud_only_scheme(), StreamConfig(fps=1.0, duration_s=24.0, poisson=False), detections=big_batch),
            seed=9,
        )
        saturated = self._stream(deployment, helmet_mini, big_batch, cloud_only_scheme(), cameras=8)
        assert saturated.drop_rate > light.drop_rate
        light_map = np.mean([w.map_percent for w in rolling_quality(light, helmet_mini, window_s=24.0)])
        saturated_map = np.mean([w.map_percent for w in rolling_quality(saturated, helmet_mini, window_s=24.0)])
        assert saturated_map < light_map

    def test_fleet_reports_merge_all_cameras(self, deployment, helmet_mini, small_batch):
        fleet = self._stream(deployment, helmet_mini, small_batch, edge_only_scheme(), cameras=3)
        windows = rolling_quality(fleet, helmet_mini, window_s=24.0, duration_s=24.0)
        assert len(windows) == 1
        assert windows[0].frames == sum(
            int(((c.trace.times >= 0) & (c.trace.times < 24.0)).sum()) for c in fleet.cameras
        )

    def test_fleet_trace_and_served_batch_built_once(self, monkeypatch, deployment, helmet_mini, small_batch):
        """The fleet trace is concatenated once per report, however many
        readers ask (percentiles, then the evaluator), and the served batch
        of a fleet with one detection source is the batch the engine
        gathered, never concatenated; neither cached view is part of the
        report's equality or repr."""
        fleet = self._stream(deployment, helmet_mini, small_batch, edge_only_scheme(), cameras=3)
        twin = self._stream(deployment, helmet_mini, small_batch, edge_only_scheme(), cameras=3)
        calls = {"trace": 0, "served": 0}
        trace_concat, served_concat = FrameTrace.concat.__func__, DetectionBatch.concat.__func__

        def counting_trace(cls, *args, **kwargs):
            calls["trace"] += 1
            return trace_concat(cls, *args, **kwargs)

        def counting_served(cls, *args, **kwargs):
            calls["served"] += 1
            return served_concat(cls, *args, **kwargs)

        monkeypatch.setattr(FrameTrace, "concat", classmethod(counting_trace))
        monkeypatch.setattr(DetectionBatch, "concat", classmethod(counting_served))
        fleet.latency_percentiles()
        rolling_quality(fleet, helmet_mini, window_s=6.0)
        assert calls == {"trace": 1, "served": 0}
        assert fleet.trace() is fleet.trace() and fleet.served() is fleet.served()
        assert fleet == twin and repr(fleet) == repr(twin)

    def test_report_without_frame_log_rejected(self, deployment, helmet_mini):
        report = serve_fleet(deployment, helmet_mini, FleetSpec(edge_only_scheme(), self.CONFIG), seed=9)
        with pytest.raises(ConfigurationError, match="no frame trace"):
            rolling_quality(report, helmet_mini)

    def test_camera_report_rejected(self, deployment, helmet_mini, small_batch):
        """The evaluator scores the fleet report, not one camera's entry."""
        report = self._stream(deployment, helmet_mini, small_batch, edge_only_scheme())
        with pytest.raises(ConfigurationError, match="scores a FleetReport"):
            rolling_quality(report.cameras[0], helmet_mini)

    def test_window_parameters_must_be_positive_and_finite(self, deployment, helmet_mini, small_batch):
        """NaN once slipped past a ``<= 0`` check: a NaN freshness marked
        every frame stale, an infinite window started at NaN, and a NaN
        window or step died in a bare ``ValueError``."""
        report = self._stream(deployment, helmet_mini, small_batch, edge_only_scheme())
        for field in ("window_s", "step_s", "freshness_s"):
            for value in (0.0, -1.0, math.nan, math.inf, -math.inf):
                with pytest.raises(ConfigurationError, match=field):
                    rolling_quality(report, helmet_mini, **{field: value})


# --------------------------------------------------------------------- #
# camera-buffer admission control
# --------------------------------------------------------------------- #
class TestAdmissionPolicies:
    #: 8 cloud-only cameras over one WLAN uplink: heavily saturated.
    SATURATED = StreamConfig(fps=1.5, duration_s=40.0)
    FRESHNESS = 2.0

    def _fleet(self, deployment, dataset, batch, admission, cameras=8):
        return serve_fleet(
            deployment,
            dataset,
            FleetSpec(
                scheme=cloud_only_scheme(),
                config=self.SATURATED,
                cameras=cameras,
                detections=batch,
                admission=admission,
            ),
            seed=5,
        )

    def test_policies_satisfy_protocol(self):
        for policy in (DropNewest(), DropOldest(), DeadlineAware(freshness_s=2.0)):
            assert isinstance(policy, AdmissionPolicy), type(policy).__name__

    def test_invalid_deadline_rejected(self):
        with pytest.raises(ConfigurationError):
            DeadlineAware(freshness_s=0.0)
        with pytest.raises(ConfigurationError):
            DeadlineAware(freshness_s=-1.0)

    @pytest.mark.parametrize("freshness_s", [math.nan, math.inf, -math.inf])
    def test_non_finite_deadline_rejected(self, freshness_s):
        with pytest.raises(ConfigurationError, match="positive and finite"):
            DeadlineAware(freshness_s=freshness_s)

    @pytest.mark.parametrize(
        "admission",
        [DropNewest(), DropOldest(), DeadlineAware(freshness_s=2.0)],
        ids=lambda policy: policy.name,
    )
    def test_frame_accounting_invariants(self, deployment, helmet_mini, big_batch, admission):
        fleet = self._fleet(deployment, helmet_mini, big_batch, admission)
        assert fleet.frames_served + fleet.frames_dropped == fleet.frames_offered
        assert 0 <= fleet.frames_shed <= fleet.frames_dropped
        for camera in fleet.cameras:
            assert camera.frames_served + camera.frames_dropped == camera.frames_offered
            assert 0 <= camera.frames_shed <= camera.frames_dropped
            # every offered frame appears in the per-frame log exactly once
            assert camera.trace.served.shape[0] == camera.frames_offered
            assert int(camera.trace.served.sum()) == camera.frames_served

    @pytest.mark.parametrize(
        "admission",
        [DropOldest(), DeadlineAware(freshness_s=2.0)],
        ids=lambda policy: policy.name,
    )
    def test_deterministic_in_the_seed(self, deployment, helmet_mini, big_batch, admission):
        runs = [self._fleet(deployment, helmet_mini, big_batch, admission) for _ in range(2)]
        assert runs[0] == runs[1]

    def test_shed_frames_logged_at_shed_time(self, deployment, helmet_mini, big_batch):
        """A shed frame's drop time is when it left the buffer, not its
        arrival; a frame refused at arrival keeps drop time == arrival."""
        fleet = self._fleet(deployment, helmet_mini, big_batch, DeadlineAware(freshness_s=self.FRESHNESS))
        assert fleet.frames_shed > 0
        shed_total = refused_total = 0
        for camera in fleet.cameras:
            trace = camera.trace
            lost = ~trace.served
            shed = lost & (trace.times > trace.arrivals)
            refused = lost & (trace.times == trace.arrivals)
            shed_total += int(shed.sum())
            refused_total += int(refused.sum())
            assert int(shed.sum()) == camera.frames_shed
        assert shed_total == fleet.frames_shed
        assert refused_total == fleet.frames_dropped - fleet.frames_shed

    def test_drop_oldest_sheds_on_a_saturated_edge_queue(self, deployment, helmet_mini, small_batch):
        """Edge-compute schemes shed from the camera's own edge buffer."""
        config = StreamConfig(fps=40.0, duration_s=20.0, poisson=False, max_edge_queue=4)
        report = serve_fleet(
            deployment,
            helmet_mini,
            FleetSpec(edge_only_scheme(), config, detections=small_batch, admission=DropOldest()),
            seed=5,
        ).cameras[0]
        baseline = serve_fleet(
            deployment,
            helmet_mini,
            FleetSpec(edge_only_scheme(), config, detections=small_batch, admission=DropNewest()),
            seed=5,
        ).cameras[0]
        assert report.frames_shed > 0
        assert baseline.frames_shed == 0
        assert report.frames_served + report.frames_dropped == report.frames_offered
        # drop-oldest keeps the newest frames: the served stream is fresher
        assert report.latency.mean < baseline.latency.mean

    def test_deadline_aware_beats_drop_newest_at_the_deadline(self, deployment, helmet_mini, big_batch):
        """The acceptance scenario: on a saturated cloud-only 8-camera
        fleet, deadline-aware admission wins on rolling mAP at the 2 s
        freshness deadline — the served stream stays fresh enough to count,
        where drop-newest serves only stale results."""
        newest = self._fleet(deployment, helmet_mini, big_batch, DropNewest())
        deadline = self._fleet(deployment, helmet_mini, big_batch, DeadlineAware(freshness_s=self.FRESHNESS))
        kwargs = dict(window_s=8.0, duration_s=self.SATURATED.duration_s, freshness_s=self.FRESHNESS)
        newest_map = np.mean([w.map_percent for w in rolling_quality(newest, helmet_mini, **kwargs) if w.frames])
        deadline_map = np.mean(
            [w.map_percent for w in rolling_quality(deadline, helmet_mini, **kwargs) if w.frames]
        )
        assert newest.uplink_utilization > 0.9  # genuinely saturated
        assert deadline_map > 2.0 * newest_map
        # the mechanism: deadline-aware serves fresh, drop-newest stale
        assert deadline.latency.p50 < self.FRESHNESS + 1.0
        assert newest.latency.p50 > self.FRESHNESS

    def test_shed_expired_recredits_freed_wait(self, deployment, helmet_mini):
        """Shedding a doomed frame shortens the wait of frames behind it;
        the same pass must re-judge them against the shortened bound and
        keep a frame the shed just made viable (only provably-stale frames
        go)."""
        from repro.runtime import EventLoop, FifoResource
        from repro.runtime.engine import _CameraStream, _link_columns

        loop = EventLoop()
        camera = _CameraStream(
            cloud_only_scheme(),
            deployment,
            helmet_mini,
            StreamConfig(fps=1.0, duration_s=10.0, max_edge_queue=30),
            np.ones(len(helmet_mini), dtype=bool),
            None,
            loop=loop,
            edge=FifoResource(loop, "edge"),
            uplink=(uplink := FifoResource(loop, "uplink")),
            cloud=FifoResource(loop, "cloud"),
            link=deployment.link,
            link_columns=_link_columns(deployment.codec, helmet_mini, deployment.link),
        )
        deadline = 2.0
        # a foreign long job holds the uplink, so neither frame starts service
        uplink.acquire(100.0, lambda _t: None)
        # frame A: arrived far in the past -> provably doomed at now = 0
        camera._on_frame(0, -10.0)
        # frame B: doomed only while A's service time sits ahead of it
        entry_a = deployment.link.expected_transfer_time(deployment.codec.encoded_bytes(helmet_mini.records[0]))
        viable_arrival = camera._min_remaining(1) - deadline + 0.5 * entry_a
        camera._on_frame(1, viable_arrival)
        assert camera.shed_expired(deadline) == 1
        assert camera.shed == 1
        assert [entry[2] for entry in camera._waiting] == [1]  # B survives

    def test_unsaturated_stream_unaffected_by_admission(self, deployment, helmet_mini, small_batch):
        """With no buffer pressure every admission policy is a no-op."""
        config = StreamConfig(fps=2.0, duration_s=15.0, poisson=False)
        reports = [
            serve_fleet(
                deployment,
                helmet_mini,
                FleetSpec(edge_only_scheme(), config, detections=small_batch, admission=admission),
                seed=5,
            ).cameras[0]
            for admission in (DropNewest(), DropOldest(), DeadlineAware(freshness_s=5.0))
        ]
        assert reports[0] == reports[1] == reports[2]
        assert reports[0].frames_dropped == 0


# --------------------------------------------------------------------- #
# heterogeneous fleets (per-camera specs)
# --------------------------------------------------------------------- #
class TestHeterogeneousFleet:
    BASE = StreamConfig(fps=1.5, duration_s=20.0)

    def _specs(self, small_batch, big_batch):
        return [
            CameraSpec(),
            CameraSpec(config=StreamConfig(fps=4.0, duration_s=20.0)),
            CameraSpec(scheme=edge_only_scheme(), detections=small_batch),
            CameraSpec(
                scheme=cloud_only_scheme(),
                detections=big_batch,
                admission=DeadlineAware(freshness_s=2.0),
            ),
        ]

    def _mask(self, helmet_mini):
        mask = np.zeros(len(helmet_mini), dtype=bool)
        mask[::3] = True
        return mask

    def _run(self, deployment, helmet_mini, small_batch, big_batch):
        mask = self._mask(helmet_mini)
        served = DetectionBatch.where(mask, big_batch, small_batch)
        return serve_fleet(
            deployment,
            helmet_mini,
            FleetSpec(
                scheme=collaborative_scheme(),
                config=self.BASE,
                cameras=self._specs(small_batch, big_batch),
                mask=mask,
                detections=served,
            ),
            seed=5,
        )

    def test_mixed_fleet_deterministic(self, deployment, helmet_mini, small_batch, big_batch):
        runs = [self._run(deployment, helmet_mini, small_batch, big_batch) for _ in range(2)]
        assert runs[0] == runs[1]
        assert len(runs[0].cameras) == 4

    def test_per_camera_schemes_and_rates_honored(self, deployment, helmet_mini, small_batch, big_batch):
        fleet = self._run(deployment, helmet_mini, small_batch, big_batch)
        assert fleet.scheme == "mixed"
        default, fast, edge, cloud = fleet.cameras
        assert default.scheme == "collaborative" and edge.scheme == "edge" and cloud.scheme == "cloud"
        # the 4 fps camera offers ~2.7x the frames of the 1.5 fps default
        assert fast.frames_offered > 2 * default.frames_offered
        # the fleet-level mask must not leak into cameras with their own scheme
        assert edge.frames_uploaded == 0
        assert cloud.frames_uploaded == cloud.frames_served
        assert 0 < default.frames_uploaded < default.frames_served
        assert fleet.frames_offered == sum(camera.frames_offered for camera in fleet.cameras)

    def test_int_cameras_equal_default_specs(self, deployment, helmet_mini, small_batch, big_batch):
        mask = self._mask(helmet_mini)
        served = DetectionBatch.where(mask, big_batch, small_batch)
        by_count, by_specs = (
            serve_fleet(
                deployment,
                helmet_mini,
                FleetSpec(collaborative_scheme(), self.BASE, cameras=cameras, mask=mask, detections=served),
                seed=5,
            )
            for cameras in (4, [CameraSpec()] * 4)
        )
        assert by_count == by_specs

    def test_per_camera_dataset_quality_drift(self, deployment, helmet_mini, small_batch):
        """A night camera rides the same scenes under degraded imagery."""
        from repro.data.degrade import DegradationModel
        from repro.simulate import make_detector

        night = helmet_mini.with_degradation(
            DegradationModel(degraded_fraction=0.9, min_quality=0.45, max_quality=0.7),
            scope="night",
        )
        assert night.image_ids == helmet_mini.image_ids
        night_small = DetectionBatch.coerce(make_detector("small1", "helmet").detect_split(night))
        fleet = serve_fleet(
            deployment,
            helmet_mini,
            FleetSpec(
                scheme=edge_only_scheme(),
                config=self.BASE,
                cameras=[CameraSpec(), CameraSpec(dataset=night, detections=night_small)],
                detections=small_batch,
            ),
            seed=5,
        )
        assert len(fleet.cameras) == 2
        # the night camera's log indexes the shared record order, so the
        # fleet evaluates against one ground truth
        windows = rolling_quality(fleet, helmet_mini, window_s=20.0, duration_s=20.0)
        assert windows[0].frames == fleet.frames_offered

    def test_dataset_override_requires_own_detections(self, deployment, helmet_mini, small_batch):
        night = helmet_mini.subset(len(helmet_mini))
        with pytest.raises(RuntimeModelError, match="detections"):
            serve_fleet(
                deployment,
                helmet_mini,
                FleetSpec(
                    scheme=edge_only_scheme(),
                    config=self.BASE,
                    cameras=[CameraSpec(), CameraSpec(dataset=night)],
                    detections=small_batch,
                ),
                seed=5,
            )

    def test_empty_spec_list_rejected(self, deployment, helmet_mini):
        with pytest.raises(ConfigurationError):
            serve_fleet(deployment, helmet_mini, FleetSpec(scheme=edge_only_scheme(), config=self.BASE, cameras=[]))


# --------------------------------------------------------------------- #
# degenerate-input guards (zero denominators)
# --------------------------------------------------------------------- #
class TestDegenerateGuards:
    def _cost(self, uplink_bytes: int, uploads: int = 0, total: int = 10) -> RunCost:
        from repro.metrics.latency import summarize_latencies

        return RunCost(
            latency=summarize_latencies([0.1] * total),
            uploaded_images=uploads,
            total_images=total,
            uplink_bytes=uplink_bytes,
            downlink_bytes=0,
        )

    def test_bandwidth_saving_over_free_baseline_is_nan(self):
        """A 'saving' over a baseline that uploaded nothing is undefined —
        returning 0.0 would paint a plenty-uploading run as break-even."""
        ours = self._cost(uplink_bytes=123_456, uploads=5)
        free = self._cost(uplink_bytes=0)
        assert math.isnan(ours.bandwidth_saving_over(free))
        # 0 over 0 is just as undefined
        assert math.isnan(free.bandwidth_saving_over(free))

    def test_bandwidth_saving_over_regular_baseline(self):
        ours = self._cost(uplink_bytes=500, uploads=5)
        cloud = self._cost(uplink_bytes=1000, uploads=10)
        assert ours.bandwidth_saving_over(cloud) == pytest.approx(0.5)
        assert cloud.bandwidth_saving_over(cloud) == 0.0

    def test_upload_ratio_of_empty_run_is_zero(self):
        from repro.metrics.latency import summarize_latencies

        empty = RunCost(
            latency=summarize_latencies([]),
            uploaded_images=0,
            total_images=0,
            uplink_bytes=0,
            downlink_bytes=0,
        )
        assert empty.upload_ratio == 0.0

    def test_stream_report_rates_with_zero_frames(self):
        from repro.metrics.latency import summarize_latencies
        from repro.runtime import StreamReport

        report = StreamReport(
            scheme="edge",
            latency=summarize_latencies([]),
            frames_offered=0,
            frames_served=0,
            frames_dropped=0,
            frames_uploaded=0,
            edge_utilization=0.0,
            uplink_utilization=0.0,
            cloud_utilization=0.0,
        )
        assert report.drop_rate == 0.0
        assert report.upload_ratio == 0.0

    def test_fifo_utilization_degenerate_elapsed(self):
        from repro.runtime import EventLoop, FifoResource

        loop = EventLoop()
        resource = FifoResource(loop, "dev")
        resource.acquire(1.0, lambda _t: None)
        loop.run()
        assert resource.utilization(0.0) == 0.0
        assert resource.utilization(-1.0) == 0.0
        # and the capped regular case still reports correctly
        assert resource.utilization(2.0) == pytest.approx(0.5)
        assert resource.utilization(0.5) == 1.0


class TestSpecFailFast:
    """A spec's own mask is checked when the spec is built, not mid-run."""

    class KeepLocal:
        """An offload controller that never escalates."""

        name = "keep-local"

        def decide(self, camera, record_index: int) -> bool:
            return False

    @pytest.fixture(params=["stream", "fleet", "camera"])
    def build(self, request):
        def build(**fields):
            if request.param == "stream":
                return FleetSpec(collaborative_scheme(), **fields)
            if request.param == "fleet":
                return FleetSpec(collaborative_scheme(), **fields)
            return CameraSpec(**fields)

        return build

    def test_mask_with_offload_controller_rejected(self, build, helmet_mini):
        mask = np.zeros(len(helmet_mini), dtype=bool)
        with pytest.raises(ConfigurationError, match="mutually exclusive"):
            build(mask=mask, offload=self.KeepLocal())

    def test_non_1d_mask_rejected(self, build, helmet_mini):
        with pytest.raises(ConfigurationError, match="1-D"):
            build(mask=np.zeros((len(helmet_mini), 1), dtype=bool))
        with pytest.raises(ConfigurationError, match="1-D"):
            build(mask=True)

    @pytest.mark.parametrize("field", ["detections", "small_detections"])
    def test_mask_misaligned_with_own_detections_rejected(self, build, helmet_mini, small_batch, field):
        with pytest.raises(ConfigurationError, match=field):
            build(mask=np.zeros(len(helmet_mini) - 1, dtype=bool), **{field: small_batch})

    def test_aligned_mask_accepted(self, build, helmet_mini, small_batch):
        mask = np.zeros(len(helmet_mini), dtype=bool)
        build(mask=mask, detections=small_batch, small_detections=list(small_batch))
        build(offload=self.KeepLocal(), detections=small_batch)

    def test_fleet_without_cameras_rejected_at_construction(self):
        with pytest.raises(ConfigurationError):
            FleetSpec(edge_only_scheme(), cameras=0)
        with pytest.raises(ConfigurationError):
            FleetSpec(edge_only_scheme(), cameras=())
