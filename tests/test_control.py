"""The closed-loop control plane: estimated-time admission, fleet-wide
uplink coordination, adaptive offload quotas.

Covers the protocol contracts (``observe``/``reset`` are optional and
structural; observation is passive), determinism of the estimated paths,
and the :class:`~repro.runtime.control.AdaptiveQuota` wiring of
:class:`~repro.core.adaptive.BudgetController`.  Quality acceptance (gap
recovery, adaptive-vs-static under drift) lives with the experiment runs
in ``test_experiments.py``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.discriminator import DifficultCaseDiscriminator
from repro.data import load_dataset
from repro.detection.batch import DetectionBatch
from repro.errors import ConfigurationError
from repro.runtime import (
    JETSON_NANO,
    RTX3060_SERVER,
    WLAN,
    AdaptiveQuota,
    CameraSpec,
    Deployment,
    DropNewest,
    EstimatedDeadlineAware,
    FifoResource,
    FleetSpec,
    StreamConfig,
    UplinkCoordinator,
    cloud_only_scheme,
    collaborative_scheme,
    serve_fleet,
)
from repro.runtime import serving
from repro.runtime.engine import _CameraStream
from repro.simulate import make_detector

#: The saturated fleet regime of the Table XXI admission rows: eight
#: cameras offer ~12 fps to a shared WLAN uplink that carries ~5.
SATURATED = StreamConfig(fps=1.5, poisson=True, duration_s=40.0, max_edge_queue=30)

FRESHNESS_S = 2.0


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


def saturated_spec(dataset, big_batch, admission, controller=None) -> FleetSpec:
    return FleetSpec(
        scheme=cloud_only_scheme(),
        config=SATURATED,
        cameras=8,
        mask=~np.zeros(len(dataset), dtype=bool),
        detections=big_batch,
        admission=admission,
        controller=controller,
    )


def fresh_fraction(report) -> float:
    ages = np.concatenate([camera.trace.latencies() for camera in report.cameras])
    return float(np.mean(ages <= FRESHNESS_S)) if ages.size else 0.0


class TestEstimatedDeadlineAware:
    def test_deterministic_and_reusable_across_runs(self, deployment, helmet_mini, big_batch):
        """Same seed, same (reused) policy instance: identical FrameTraces.

        Reuse across runs also exercises the ``reset()`` contract — without
        it the second run would start with the first run's estimates.
        """
        policy = EstimatedDeadlineAware(freshness_s=FRESHNESS_S)
        spec = saturated_spec(helmet_mini, big_batch, policy)
        first = serve_fleet(deployment, helmet_mini, spec, seed=11)
        second = serve_fleet(deployment, helmet_mini, spec, seed=11)
        assert first == second

    def test_sheds_and_stays_fresh_under_saturation(self, deployment, helmet_mini, big_batch):
        baseline = serve_fleet(
            deployment, helmet_mini, saturated_spec(helmet_mini, big_batch, DropNewest()), seed=11
        )
        estimated = serve_fleet(
            deployment,
            helmet_mini,
            saturated_spec(helmet_mini, big_batch, EstimatedDeadlineAware(freshness_s=FRESHNESS_S)),
            seed=11,
        )
        assert estimated.frames_shed > 0
        assert fresh_fraction(estimated) > 4.0 * fresh_fraction(baseline)

    def test_no_shed_before_first_served_completion(self, deployment, helmet_mini, big_batch, monkeypatch):
        """Cold start: until a camera's first frame is served, the policy
        has no estimate and never tries to shed that camera's frames."""
        first_served: dict[int, float] = {}
        shed_calls: list[tuple[int, float]] = []

        class RecordingEstimated(EstimatedDeadlineAware):
            def observe(self, camera, event) -> None:
                if event.kind == "served":
                    first_served.setdefault(id(camera), event.completion)
                super().observe(camera, event)

        shed_frames = _CameraStream.shed_frames

        def recording_shed(camera, doomed):
            shed_calls.append((id(camera), camera.now))
            return shed_frames(camera, doomed)

        monkeypatch.setattr(_CameraStream, "shed_frames", recording_shed)
        policy = RecordingEstimated(freshness_s=FRESHNESS_S)
        report = serve_fleet(deployment, helmet_mini, saturated_spec(helmet_mini, big_batch, policy), seed=11)
        assert report.frames_shed > 0 and shed_calls
        assert all(camera in first_served and now >= first_served[camera] for camera, now in shed_calls)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EstimatedDeadlineAware(freshness_s=0.0)

    def test_nan_rejected(self):
        with pytest.raises(ConfigurationError):
            EstimatedDeadlineAware(freshness_s=math.nan)
        with pytest.raises(ConfigurationError):
            EstimatedDeadlineAware(freshness_s=math.inf)


class TestUplinkCoordinator:
    def test_sweeps_and_is_deterministic(self, deployment, helmet_mini, big_batch):
        coordinator = UplinkCoordinator(freshness_s=FRESHNESS_S)
        spec = saturated_spec(
            helmet_mini,
            big_batch,
            EstimatedDeadlineAware(freshness_s=FRESHNESS_S),
            controller=coordinator,
        )
        first = serve_fleet(deployment, helmet_mini, spec, seed=11)
        swept = coordinator.swept
        assert swept > 0
        second = serve_fleet(deployment, helmet_mini, spec, seed=11)
        assert first == second
        assert coordinator.swept == swept

    def test_coordinated_not_staler_than_uncoordinated(self, deployment, helmet_mini, big_batch):
        estimated = serve_fleet(
            deployment,
            helmet_mini,
            saturated_spec(helmet_mini, big_batch, EstimatedDeadlineAware(freshness_s=FRESHNESS_S)),
            seed=11,
        )
        coordinated = serve_fleet(
            deployment,
            helmet_mini,
            saturated_spec(
                helmet_mini,
                big_batch,
                EstimatedDeadlineAware(freshness_s=FRESHNESS_S),
                controller=UplinkCoordinator(freshness_s=FRESHNESS_S),
            ),
            seed=11,
        )
        assert fresh_fraction(coordinated) >= fresh_fraction(estimated)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            UplinkCoordinator(freshness_s=-1.0)

    def test_nan_rejected(self):
        with pytest.raises(ConfigurationError):
            UplinkCoordinator(freshness_s=math.nan)
        with pytest.raises(ConfigurationError):
            UplinkCoordinator(freshness_s=math.inf)


class TestSheddingWork:
    def test_stage_snapshot_only_when_a_frame_waits(self, deployment, helmet_mini, big_batch, monkeypatch):
        """A work count, not a timing gate: estimated admission and the
        coordinator sweep inspect every camera, and an inspection that finds
        nothing waiting must cost no entry-stage snapshot
        (:meth:`FifoResource.queued_waits`).  A per-inspection snapshot
        would make the count exceed the inspections that found a frame."""
        counts = {"snapshots": 0, "inspections": 0, "found": 0}
        queued_waits = FifoResource.queued_waits
        queued_arrivals = _CameraStream.queued_arrivals

        def counting_waits(resource):
            counts["snapshots"] += 1
            return queued_waits(resource)

        def counting_arrivals(camera):
            arrivals = queued_arrivals(camera)
            counts["inspections"] += 1
            counts["found"] += bool(arrivals)
            return arrivals

        monkeypatch.setattr(FifoResource, "queued_waits", counting_waits)
        monkeypatch.setattr(_CameraStream, "queued_arrivals", counting_arrivals)
        coordinator = UplinkCoordinator(freshness_s=FRESHNESS_S)
        spec = saturated_spec(
            helmet_mini, big_batch, EstimatedDeadlineAware(freshness_s=FRESHNESS_S), controller=coordinator
        )
        report = serve_fleet(deployment, helmet_mini, spec, seed=11)
        assert report.frames_shed > 0 and coordinator.swept > 0
        assert 0 < counts["snapshots"] <= counts["found"] < counts["inspections"]


class _SlackAware:
    """The minimal user policy of the ``repro.runtime.policies`` docstring:
    no ``observe``, no ``reset`` — both must be genuinely optional."""

    name = "slack-aware"

    def admit(self, camera, arrival) -> bool:
        camera.shed_expired(freshness_s=1.0)
        return camera.buffer_has_room()


class _RecordingDropNewest(DropNewest):
    """DropNewest plus a passive ``observe`` hook that only records."""

    def __init__(self) -> None:
        self.events = []

    def observe(self, camera, event) -> None:
        self.events.append(event)


class _NoOpObservedQuota(AdaptiveQuota):
    """A quota whose no-op ``observe`` is attached to every camera."""

    def observe(self, camera, event) -> None:
        pass


class TestObserverContract:
    def test_minimal_user_policy_runs(self, deployment, helmet_mini, big_batch):
        report = serve_fleet(
            deployment, helmet_mini, saturated_spec(helmet_mini, big_batch, _SlackAware()), seed=11
        )
        assert report.frames_shed > 0

    def test_observation_is_passive(self, deployment, helmet_mini, big_batch):
        """Attaching an observer must not move a byte of the run itself."""
        recorder = _RecordingDropNewest()
        observed = serve_fleet(
            deployment, helmet_mini, saturated_spec(helmet_mini, big_batch, recorder), seed=11
        )
        stock = serve_fleet(
            deployment, helmet_mini, saturated_spec(helmet_mini, big_batch, DropNewest()), seed=11
        )
        assert observed == stock
        assert recorder.events
        kinds = {event.kind for event in recorder.events}
        assert kinds <= {"served", "failed"}
        for event in recorder.events[:50]:
            assert event.completion >= event.arrival
            if event.kind == "served":
                assert event.queue_wait >= 0.0
                assert event.entry_time >= 0.0
                assert event.downstream_time >= -1e-12


class TestAdaptiveQuota:
    @pytest.fixture(scope="class")
    def discriminator(self):
        return DifficultCaseDiscriminator(
            confidence_threshold=0.25, count_threshold=1, area_threshold=0.1
        )

    def quota_spec(self, dataset, small_batch, big_batch, quota) -> FleetSpec:
        return FleetSpec(
            scheme=collaborative_scheme(),
            config=StreamConfig(fps=1.5, poisson=True, duration_s=40.0, max_edge_queue=30),
            cameras=4,
            small_detections=small_batch,
            detections=big_batch,
            offload=quota,
        )

    def test_tracks_target_ratio(self, deployment, helmet_mini, small_batch, big_batch, discriminator):
        quota = AdaptiveQuota(discriminator, small_batch, 0.2)
        serve_fleet(
            deployment,
            helmet_mini,
            self.quota_spec(helmet_mini, small_batch, big_batch, quota),
            seed=11,
        )
        assert quota.decisions > 100
        assert quota.uploads > 0
        assert quota.uploads / quota.decisions == pytest.approx(0.2, abs=0.12)

    def test_reusable_and_deterministic(self, deployment, helmet_mini, small_batch, big_batch, discriminator):
        quota = AdaptiveQuota(discriminator, small_batch, 0.2)
        spec = self.quota_spec(helmet_mini, small_batch, big_batch, quota)
        first = serve_fleet(deployment, helmet_mini, spec, seed=11)
        uploads = quota.uploads
        second = serve_fleet(deployment, helmet_mini, spec, seed=11)
        assert first == second
        assert quota.uploads == uploads

    def test_attaches_no_observer(self, monkeypatch, deployment, helmet_mini, small_batch, big_batch, discriminator):
        """A quota observes nothing, so its cameras build no FrameEvent; the
        run is the one a no-op observer gives."""
        attached = []
        attach = serving._attach_observers

        def recording_attach(camera, controller_observe=None):
            attach(camera, controller_observe)
            attached.append(len(camera.observers))

        monkeypatch.setattr(serving, "_attach_observers", recording_attach)
        quota = AdaptiveQuota(discriminator, small_batch, 0.2)
        report = serve_fleet(
            deployment, helmet_mini, self.quota_spec(helmet_mini, small_batch, big_batch, quota), seed=11
        )
        assert attached == [0] * 4
        attached.clear()
        observed = _NoOpObservedQuota(discriminator, small_batch, 0.2)
        baseline = serve_fleet(
            deployment, helmet_mini, self.quota_spec(helmet_mini, small_batch, big_batch, observed), seed=11
        )
        assert attached == [1] * 4
        assert report == baseline

    def test_mask_and_offload_conflict(self, deployment, helmet_mini, small_batch, big_batch, discriminator):
        quota = AdaptiveQuota(discriminator, small_batch, 0.2)
        # refused when the spec is built, before any run
        with pytest.raises(ConfigurationError):
            FleetSpec(
                scheme=collaborative_scheme(),
                config=SATURATED,
                cameras=2,
                mask=np.zeros(len(helmet_mini), dtype=bool),
                small_detections=small_batch,
                detections=big_batch,
                offload=quota,
            )
        # a camera mask under the fleet's controller is caught when the run resolves it
        spec = FleetSpec(
            scheme=collaborative_scheme(),
            config=SATURATED,
            cameras=(CameraSpec(mask=np.zeros(len(helmet_mini), dtype=bool)), CameraSpec()),
            small_detections=small_batch,
            detections=big_batch,
            offload=quota,
        )
        with pytest.raises(ConfigurationError):
            serve_fleet(deployment, helmet_mini, spec, seed=11)

    @pytest.mark.parametrize("target_ratio", [0.0, 1.0, -0.1, math.nan, math.inf])
    def test_target_ratio_fails_at_construction(self, discriminator, small_batch, target_ratio):
        """A bad target is refused by the quota's constructor, not by the
        first frame inside the event loop."""
        with pytest.raises(ConfigurationError, match="target_ratio"):
            AdaptiveQuota(discriminator, small_batch, target_ratio)


class TestHeterogeneousControllers:
    def test_per_camera_offload_overrides_fleet(self, deployment, helmet_mini, small_batch, big_batch):
        """A per-camera AdaptiveQuota composes with fleet-level masks on the
        other cameras — the camera-unset-inherits-fleet rule."""
        discriminator = DifficultCaseDiscriminator(
            confidence_threshold=0.25, count_threshold=1, area_threshold=0.1
        )
        quota = AdaptiveQuota(discriminator, small_batch, 0.3)
        mask = np.zeros(len(helmet_mini), dtype=bool)
        mask[::4] = True
        spec = FleetSpec(
            scheme=collaborative_scheme(),
            config=StreamConfig(fps=1.5, poisson=True, duration_s=30.0, max_edge_queue=30),
            cameras=(CameraSpec(), CameraSpec(offload=quota)),
            mask=mask,
            small_detections=small_batch,
            detections=big_batch,
        )
        report = serve_fleet(deployment, helmet_mini, spec, seed=11)
        assert len(report.cameras) == 2
        assert quota.decisions > 0
