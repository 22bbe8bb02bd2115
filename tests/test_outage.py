"""Availability under failure: outage schedules, lossy uplinks, escalation.

Covers the failure-injection layer end to end: the
:class:`~repro.runtime.network.OutageSchedule` arithmetic, the
:class:`~repro.runtime.network.UnreliableLink` fault model, the faulty
:class:`~repro.runtime.events.FifoResource`, the per-camera durable
:class:`~repro.runtime.engine.EscalationQueue`, and the rolling-quality
reconciliation of deferred cloud verdicts — including the acceptance pin
that a durable queue beats drop-on-failure on rolling mAP under a
saturated-fleet outage schedule.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import load_dataset
from repro.detection.batch import DetectionBatch, DetectionBatchBuilder
from repro.errors import ConfigurationError
from repro.metrics.latency import summarize_latencies
from repro.metrics.rolling import rolling_quality
from repro.runtime import (
    JETSON_NANO,
    RTX3060_SERVER,
    WLAN,
    Deployment,
    EscalationPolicy,
    EscalationQueue,
    EventLoop,
    FifoResource,
    FleetReport,
    FleetSpec,
    FrameTrace,
    OutageSchedule,
    StreamConfig,
    StreamReport,
    UnreliableLink,
    cloud_only_scheme,
    collaborative_scheme,
    serve_fleet,
)
from repro.simulate import make_detector


# --------------------------------------------------------------------- #
# fixtures
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def helmet_mini():
    return load_dataset("helmet", "test", fraction=0.05)


@pytest.fixture(scope="module")
def small_batch(helmet_mini):
    return DetectionBatch.coerce(make_detector("small1", "helmet").detect_split(helmet_mini))


@pytest.fixture(scope="module")
def big_batch(helmet_mini):
    return DetectionBatch.coerce(make_detector("ssd", "helmet").detect_split(helmet_mini))


def _deployment(link):
    return Deployment(
        edge=JETSON_NANO,
        cloud=RTX3060_SERVER,
        link=link,
        small_model_flops=5.6e9,
        big_model_flops=61.2e9,
    )


OUTAGE = OutageSchedule.periodic(period_s=10.0, downtime_s=3.0, duration_s=30.0, offset_s=2.0)
DURABLE = EscalationPolicy.durable_queue(capacity=64, max_retries=6, max_backoff_s=8.0)


# --------------------------------------------------------------------- #
# OutageSchedule
# --------------------------------------------------------------------- #
class TestOutageSchedule:
    def test_periodic_windows(self):
        schedule = OutageSchedule.periodic(period_s=10.0, downtime_s=3.0, duration_s=25.0, offset_s=2.0)
        assert schedule.windows == ((2.0, 5.0), (12.0, 15.0), (22.0, 25.0))
        assert schedule.downtime_within(25.0) == pytest.approx(9.0)

    def test_is_down_boundaries(self):
        schedule = OutageSchedule(windows=((2.0, 5.0),))
        assert not schedule.is_down(1.999)
        assert schedule.is_down(2.0)  # closed at the start
        assert schedule.is_down(4.999)
        assert not schedule.is_down(5.0)  # open at the end

    def test_failure_instant(self):
        schedule = OutageSchedule(windows=((2.0, 5.0), (10.0, 11.0)))
        assert schedule.failure_instant(3.0, 0.5) == 3.0  # already down
        assert schedule.failure_instant(1.0, 2.5) == 2.0  # outage begins mid-transfer
        assert schedule.failure_instant(5.0, 4.0) is None  # fits between outages
        assert schedule.failure_instant(5.0, 6.0) == 10.0
        assert schedule.failure_instant(20.0, 100.0) is None  # past the last window

    def test_random_schedule_deterministic_and_validated(self):
        a = OutageSchedule.random(seed=3, duration_s=60.0, mean_up_s=7.0, mean_down_s=3.0)
        b = OutageSchedule.random(seed=3, duration_s=60.0, mean_up_s=7.0, mean_down_s=3.0)
        assert a == b
        assert a.windows  # a 30% downtime target over 60 s produces outages
        c = OutageSchedule.random(seed=4, duration_s=60.0, mean_up_s=7.0, mean_down_s=3.0)
        assert a != c

    def test_malformed_windows_rejected(self):
        with pytest.raises(ConfigurationError):
            OutageSchedule(windows=((5.0, 2.0),))
        for window in ((float("nan"), 2.0), (1.0, float("nan")), (float("nan"), float("nan"))):
            with pytest.raises(ConfigurationError):
                OutageSchedule(windows=(window,))
        with pytest.raises(ConfigurationError):
            OutageSchedule(windows=((0.0, 3.0), (2.0, 4.0)))  # overlapping
        with pytest.raises(ConfigurationError):
            OutageSchedule.periodic(period_s=5.0, downtime_s=5.0, duration_s=10.0)

    def test_always_up_never_down(self):
        schedule = OutageSchedule.always_up()
        assert not schedule.is_down(0.0)
        assert schedule.failure_instant(0.0, 1e9) is None


# --------------------------------------------------------------------- #
# UnreliableLink
# --------------------------------------------------------------------- #
class TestUnreliableLink:
    def test_wrap_keeps_timing(self):
        link = UnreliableLink.wrap(WLAN, outages=OUTAGE, loss_probability=0.1)
        assert link.expected_transfer_time(100_000) == WLAN.expected_transfer_time(100_000)
        assert (link.name, link.bandwidth_mbps, link.rtt_s, link.jitter_s) == (
            WLAN.name,
            WLAN.bandwidth_mbps,
            WLAN.rtt_s,
            WLAN.jitter_s,
        )

    def test_transfer_outcome_truncates_at_outage(self):
        link = UnreliableLink.wrap(WLAN, outages=OutageSchedule(windows=((2.0, 5.0),)))
        assert link.transfer_outcome(3.0, 1.0) == (0.0, False)  # already down
        assert link.transfer_outcome(1.0, 2.5) == (1.0, False)  # fails at t=2
        assert link.transfer_outcome(5.0, 1.0) == (1.0, True)

    def test_loss_probability_draws_from_rng(self):
        link = UnreliableLink.wrap(WLAN, loss_probability=0.5)
        rng = np.random.default_rng(0)
        outcomes = [link.transfer_outcome(0.0, 1.0, rng)[1] for _ in range(200)]
        losses = outcomes.count(False)
        assert 60 < losses < 140  # ~50%
        # a lost transfer still occupies the link for its full duration
        assert all(link.transfer_outcome(0.0, 1.0, np.random.default_rng(i))[0] == 1.0 for i in range(5))

    def test_zero_loss_consumes_no_draws(self):
        link = UnreliableLink.wrap(WLAN)
        rng = np.random.default_rng(0)
        link.transfer_outcome(0.0, 1.0, rng)
        assert float(rng.random()) == float(np.random.default_rng(0).random())

    def test_invalid_loss_probability_rejected(self):
        with pytest.raises(ConfigurationError):
            UnreliableLink.wrap(WLAN, loss_probability=1.0)
        with pytest.raises(ConfigurationError):
            UnreliableLink.wrap(WLAN, loss_probability=-0.1)


# --------------------------------------------------------------------- #
# faulty FifoResource
# --------------------------------------------------------------------- #
class TestFaultyResource:
    def test_in_flight_job_fails_at_outage_instant(self):
        link = UnreliableLink.wrap(WLAN, outages=OutageSchedule(windows=((2.0, 5.0),)))
        loop = EventLoop()
        resource = FifoResource(loop, "uplink", faults=link.fault_model(None))
        events: list[tuple[str, float]] = []
        # enters service at t=0 with 3 s of work: the outage at t=2 kills it
        resource.acquire(3.0, lambda t: events.append(("done", t)), lambda t: events.append(("fail", t)))
        # queued behind: would start inside the outage, fails instantly at 2.0
        resource.acquire(1.0, lambda t: events.append(("done", t)), lambda t: events.append(("fail", t)))
        loop.run()
        assert events == [("fail", 2.0), ("fail", 2.0)]
        assert resource.jobs_failed == 2 and resource.jobs_served == 0
        assert resource.busy_time == pytest.approx(2.0)  # truncated occupancy

    def test_faulty_resource_requires_on_fail(self):
        link = UnreliableLink.wrap(WLAN, outages=OUTAGE)
        loop = EventLoop()
        resource = FifoResource(loop, "uplink", faults=link.fault_model(None))
        with pytest.raises(ConfigurationError):
            resource.acquire(1.0, lambda _t: None)

    def test_reliable_resource_never_calls_on_fail(self):
        loop = EventLoop()
        resource = FifoResource(loop, "uplink")
        events: list[str] = []
        resource.acquire(1.0, lambda _t: events.append("done"), lambda _t: events.append("fail"))
        loop.run()
        assert events == ["done"]
        assert resource.jobs_failed == 0
        assert not resource.can_fail


# --------------------------------------------------------------------- #
# EscalationPolicy
# --------------------------------------------------------------------- #
class TestEscalationPolicy:
    def test_stock_policies(self):
        assert not EscalationPolicy.no_retry().fallback
        assert not EscalationPolicy.no_retry().durable
        assert EscalationPolicy.drop_on_failure().fallback
        assert not EscalationPolicy.drop_on_failure().durable
        assert EscalationPolicy.durable_queue().durable

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EscalationPolicy(capacity=-1)
        with pytest.raises(ConfigurationError):
            EscalationPolicy(max_retries=0)
        with pytest.raises(ConfigurationError):
            EscalationPolicy(base_backoff_s=0.0)
        with pytest.raises(ConfigurationError):
            EscalationPolicy(max_backoff_s=0.1, base_backoff_s=0.5)
        with pytest.raises(ConfigurationError):
            EscalationPolicy(jitter=1.0)
        with pytest.raises(ConfigurationError):
            EscalationPolicy.durable_queue(capacity=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("base_backoff_s", float("nan")),
            ("base_backoff_s", float("inf")),
            ("backoff_factor", float("nan")),
            ("backoff_factor", float("inf")),
            ("max_backoff_s", float("nan")),
            ("max_backoff_s", float("inf")),
        ],
    )
    def test_non_finite_backoff_rejected_at_construction(self, field, value):
        # a NaN used to pass construction and fail mid-simulation
        with pytest.raises(ConfigurationError):
            EscalationPolicy.durable_queue(**{field: value})


class TestEscalationBackoff:
    @staticmethod
    def _queue(policy):
        return EscalationQueue(camera=None, policy=policy, rng=np.random.default_rng(0))

    def test_backoff_saturates_past_the_float_range(self):
        # backoff_factor ** (failures - 1) overflows a float at 1025
        # consecutive failures with factor 2; the delay must saturate at
        # max_backoff_s instead of raising OverflowError, and stay the same
        # float below the overflow
        policy = EscalationPolicy.durable_queue(max_backoff_s=8.0, jitter=0.0)
        queue = self._queue(policy)
        for failures in range(1, 1101):
            queue.note_failure()
            expected = min(8.0, 0.5 * 2.0 ** (failures - 1)) if failures < 1025 else 8.0
            assert queue._backoff() == expected

    def test_saturated_backoff_keeps_its_jitter(self):
        policy = EscalationPolicy.durable_queue(max_backoff_s=8.0, jitter=0.1)
        queue = self._queue(policy)
        for _ in range(2000):
            queue.note_failure()
        assert 8.0 * 0.9 <= queue._backoff() <= 8.0 * 1.1


# --------------------------------------------------------------------- #
# stream-level failure behaviour
# --------------------------------------------------------------------- #
class TestStreamUnderOutage:
    CONFIG = StreamConfig(fps=2.0, duration_s=30.0, poisson=True, max_edge_queue=10)

    def _mask(self, dataset):
        mask = np.zeros(len(dataset), dtype=bool)
        mask[::2] = True
        return mask

    @pytest.mark.parametrize(
        "policy",
        [EscalationPolicy.no_retry(), EscalationPolicy.drop_on_failure(), DURABLE],
        ids=lambda p: p.name,
    )
    def test_served_plus_dropped_equals_offered(self, helmet_mini, small_batch, big_batch, policy):
        deployment = _deployment(UnreliableLink.wrap(WLAN, outages=OUTAGE, loss_probability=0.05))
        for scheme, kwargs in (
            (cloud_only_scheme(), dict(detections=big_batch)),
            (
                collaborative_scheme(),
                dict(mask=self._mask(helmet_mini), small_detections=small_batch, detections=big_batch),
            ),
        ):
            report = serve_fleet(
                deployment, helmet_mini, FleetSpec(scheme, self.CONFIG, escalation=policy, **kwargs), seed=7
            ).cameras[0]
            assert report.frames_served + report.frames_dropped == report.frames_offered
            assert report.escalations_failed > 0
            # every initially-failed escalation resolves exactly one way
            if not policy.durable:
                assert report.escalations_recovered == 0

    def test_cloud_only_drop_vs_durable(self, helmet_mini, big_batch):
        deployment = _deployment(UnreliableLink.wrap(WLAN, outages=OUTAGE))
        drop = serve_fleet(
            deployment,
            helmet_mini,
            FleetSpec(
                cloud_only_scheme(), self.CONFIG, detections=big_batch, escalation=EscalationPolicy.drop_on_failure()
            ),
            seed=7,
        ).cameras[0]
        durable = serve_fleet(
            deployment,
            helmet_mini,
            FleetSpec(cloud_only_scheme(), self.CONFIG, detections=big_batch, escalation=DURABLE),
            seed=7,
        ).cameras[0]
        # cloud-only has no edge verdict: failures drop frames unless recovered
        assert drop.frames_dropped > 0
        assert drop.escalations_dropped == drop.frames_dropped
        assert durable.escalations_recovered > 0
        assert durable.frames_served > drop.frames_served
        # a recovered frame is served late: its latency spans the backoff
        assert durable.latency.p99 > drop.latency.p99

    def test_collaborative_fallback_serves_edge_verdict(self, helmet_mini, small_batch, big_batch):
        deployment = _deployment(UnreliableLink.wrap(WLAN, outages=OUTAGE))
        mask = self._mask(helmet_mini)
        report = serve_fleet(
            deployment,
            helmet_mini,
            FleetSpec(
                collaborative_scheme(),
                self.CONFIG,
                mask=mask,
                small_detections=small_batch,
                detections=big_batch,
                escalation=EscalationPolicy.drop_on_failure(),
            ),
            seed=7,
        ).cameras[0]
        # graceful degradation: every failed escalation still served a frame
        assert report.frames_dropped == 0
        assert report.escalations_failed > 0
        assert report.escalations_dropped == report.escalations_failed
        # the log maps every frame to a segment; no deferred verdicts landed
        assert (report.trace.segments >= 0).all()
        assert (report.trace.verdict_segments == -1).all()

    def test_collaborative_durable_records_deferred_verdicts(self, helmet_mini, small_batch, big_batch):
        deployment = _deployment(UnreliableLink.wrap(WLAN, outages=OUTAGE))
        report = serve_fleet(
            deployment,
            helmet_mini,
            FleetSpec(
                collaborative_scheme(),
                self.CONFIG,
                mask=self._mask(helmet_mini),
                small_detections=small_batch,
                detections=big_batch,
                escalation=DURABLE,
            ),
            seed=7,
        ).cameras[0]
        assert report.escalations_recovered > 0
        recovered = report.trace.verdict_segments >= 0
        assert int(recovered.sum()) == report.escalations_recovered
        # the deferred verdict lands strictly after the fallback serve
        assert (report.trace.verdict_times[recovered] > report.trace.times[recovered]).all()
        # the served batch carries the recovered segments on top of the serves
        assert len(report.served) == report.frames_served + report.escalations_recovered

    def test_fallback_requires_small_detections(self, helmet_mini, big_batch):
        deployment = _deployment(_deployment(WLAN).link)  # plain link first: fine
        serve_fleet(
            deployment,
            helmet_mini,
            FleetSpec(collaborative_scheme(), self.CONFIG, mask=self._mask(helmet_mini), detections=big_batch),
            seed=7,
        ).cameras[0]
        faulty = _deployment(UnreliableLink.wrap(WLAN, outages=OUTAGE))
        with pytest.raises(ConfigurationError):
            serve_fleet(
                faulty,
                helmet_mini,
                FleetSpec(collaborative_scheme(), self.CONFIG, mask=self._mask(helmet_mini), detections=big_batch),
                seed=7,
            ).cameras[0]

    def test_retry_cap_abandons_unlucky_cases(self, helmet_mini, big_batch):
        # a very lossy link with a tight retry budget must abandon cases
        deployment = _deployment(UnreliableLink.wrap(WLAN, loss_probability=0.9))
        policy = EscalationPolicy.durable_queue(capacity=8, max_retries=2, base_backoff_s=0.1, max_backoff_s=0.2)
        report = serve_fleet(
            deployment,
            helmet_mini,
            FleetSpec(
                cloud_only_scheme(),
                StreamConfig(fps=1.0, duration_s=20.0, poisson=False, max_edge_queue=10),
                detections=big_batch,
                escalation=policy,
            ),
            seed=11,
        ).cameras[0]
        assert report.escalations_dropped > 0
        assert report.frames_served + report.frames_dropped == report.frames_offered

    def test_outage_runs_deterministic(self, helmet_mini, small_batch, big_batch):
        deployment = _deployment(UnreliableLink.wrap(WLAN, outages=OUTAGE, loss_probability=0.05))
        runs = [
            serve_fleet(
                deployment,
                helmet_mini,
                FleetSpec(
                    collaborative_scheme(),
                    self.CONFIG,
                    mask=self._mask(helmet_mini),
                    small_detections=small_batch,
                    detections=big_batch,
                    escalation=DURABLE,
                ),
                seed=13,
            ).cameras[0]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


# --------------------------------------------------------------------- #
# cloud-side outages: the GPU service itself goes down
# --------------------------------------------------------------------- #
class TestCloudOutages:
    """``Deployment.cloud_outages`` fails frames at the cloud GPU, not the
    link: the upload stands (its bytes crossed), the verdict is lost, and
    the same escalation machinery decides what happens next."""

    CONFIG = StreamConfig(fps=2.0, duration_s=30.0, poisson=True, max_edge_queue=10)

    def _cloudy(self, outages=OUTAGE):
        return Deployment(
            edge=JETSON_NANO,
            cloud=RTX3060_SERVER,
            link=WLAN,
            small_model_flops=5.6e9,
            big_model_flops=61.2e9,
            cloud_outages=outages,
        )

    def test_always_up_cloud_is_bit_for_bit_plain(self, helmet_mini, big_batch):
        """An empty (or None) cloud schedule keeps the pre-outage path."""
        plain = serve_fleet(
            _deployment(WLAN), helmet_mini, FleetSpec(cloud_only_scheme(), self.CONFIG, detections=big_batch), seed=7
        ).cameras[0]
        empty = serve_fleet(
            self._cloudy(OutageSchedule.always_up()),
            helmet_mini,
            FleetSpec(cloud_only_scheme(), self.CONFIG, detections=big_batch),
            seed=7,
        ).cameras[0]
        assert plain == empty

    def test_cloud_failures_escalate_on_reliable_link(self, helmet_mini, big_batch):
        """Escalations fire even though the link itself never fails."""
        report = serve_fleet(
            self._cloudy(),
            helmet_mini,
            FleetSpec(
                cloud_only_scheme(), self.CONFIG, detections=big_batch, escalation=EscalationPolicy.drop_on_failure()
            ),
            seed=7,
        ).cameras[0]
        assert report.escalations_failed > 0
        assert report.frames_served + report.frames_dropped == report.frames_offered
        # The upload completed before the cloud failed: failed frames still
        # count as uploaded, unlike an uplink failure.
        assert report.frames_uploaded > report.frames_served

    def test_durable_queue_recovers_cloud_failures(self, helmet_mini, big_batch):
        drop = serve_fleet(
            self._cloudy(),
            helmet_mini,
            FleetSpec(
                cloud_only_scheme(), self.CONFIG, detections=big_batch, escalation=EscalationPolicy.drop_on_failure()
            ),
            seed=7,
        ).cameras[0]
        durable = serve_fleet(
            self._cloudy(),
            helmet_mini,
            FleetSpec(cloud_only_scheme(), self.CONFIG, detections=big_batch, escalation=DURABLE),
            seed=7,
        ).cameras[0]
        assert durable.escalations_recovered > 0
        assert durable.frames_served > drop.frames_served

    def test_collaborative_cloud_outage_requires_fallback_verdicts(self, helmet_mini, big_batch):
        """A failable cloud, like a failable link, needs small_detections."""
        mask = np.zeros(len(helmet_mini), dtype=bool)
        mask[::2] = True
        with pytest.raises(ConfigurationError):
            serve_fleet(
                self._cloudy(),
                helmet_mini,
                FleetSpec(collaborative_scheme(), self.CONFIG, mask=mask, detections=big_batch),
                seed=7,
            ).cameras[0]

    def test_cloud_and_link_outages_compose(self, helmet_mini, small_batch, big_batch):
        """Staggered cloud and link windows both feed the escalation queue."""
        link_outages = OutageSchedule.periodic(
            period_s=10.0, downtime_s=2.0, duration_s=30.0, offset_s=6.0
        )
        deployment = Deployment(
            edge=JETSON_NANO,
            cloud=RTX3060_SERVER,
            link=UnreliableLink.wrap(WLAN, outages=link_outages),
            small_model_flops=5.6e9,
            big_model_flops=61.2e9,
            cloud_outages=OUTAGE,
        )
        mask = np.zeros(len(helmet_mini), dtype=bool)
        mask[::2] = True
        runs = [
            serve_fleet(
                deployment,
                helmet_mini,
                FleetSpec(
                    collaborative_scheme(),
                    self.CONFIG,
                    mask=mask,
                    small_detections=small_batch,
                    detections=big_batch,
                    escalation=DURABLE,
                ),
                seed=13,
            ).cameras[0]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        report = runs[0]
        assert report.escalations_failed > 0
        assert report.escalations_recovered > 0
        assert report.frames_served + report.frames_dropped == report.frames_offered

    def test_fleet_cloud_outage_durable_beats_drop(self, helmet_mini, big_batch):
        """The Table XX acceptance shape holds for cloud-side outages too."""
        config = StreamConfig(fps=1.5, duration_s=30.0, poisson=True, max_edge_queue=30)

        def run(policy):
            return serve_fleet(
                self._cloudy(),
                helmet_mini,
                FleetSpec(
                    scheme=cloud_only_scheme(),
                    config=config,
                    cameras=8,
                    detections=big_batch,
                    escalation=policy,
                ),
                seed=20230701,
            )

        drop = run(EscalationPolicy.drop_on_failure())
        durable = run(DURABLE)
        assert durable.escalations_recovered > 0
        assert durable.frames_served > drop.frames_served


# --------------------------------------------------------------------- #
# rolling-quality reconciliation of deferred verdicts
# --------------------------------------------------------------------- #
class TestVerdictReconciliation:
    def _report(self, dataset):
        """One frame: empty edge verdict served at t=1, perfect cloud verdict
        recovered at t=9 (verdict segment 1)."""
        truth = dataset.records[0].truth
        builder = DetectionBatchBuilder(detector="test")
        builder.append(
            dataset.image_ids[0], np.zeros((0, 4)), np.zeros(0), np.zeros(0, dtype=np.int64)
        )  # segment 0: the edge fallback (empty -> scores zero)
        builder.append(
            dataset.image_ids[0], truth.boxes, np.ones(len(truth.boxes)), truth.labels
        )  # segment 1: the deferred cloud verdict (perfect)
        camera = StreamReport(
            scheme="collaborative",
            latency=summarize_latencies([1.0]),
            frames_offered=1,
            frames_served=1,
            frames_dropped=0,
            frames_uploaded=0,
            edge_utilization=0.0,
            uplink_utilization=0.0,
            cloud_utilization=0.0,
            escalations_failed=1,
            escalations_recovered=1,
            served=builder.build(),
            trace=FrameTrace(
                arrivals=np.array([0.0]),
                times=np.array([1.0]),
                records=np.array([0], dtype=np.int64),
                served=np.array([True]),
                segments=np.array([0], dtype=np.int64),
                verdict_times=np.array([9.0]),
                verdict_segments=np.array([1], dtype=np.int64),
            ),
        )
        return FleetReport(
            scheme=camera.scheme,
            cameras=(camera,),
            latency=camera.latency,
            frames_offered=1,
            frames_served=1,
            frames_dropped=0,
            frames_uploaded=0,
            edge_utilization=0.0,
            uplink_utilization=0.0,
            cloud_utilization=0.0,
        )

    def test_late_verdict_inside_deadline_upgrades(self, helmet_mini):
        report = self._report(helmet_mini)
        windows = rolling_quality(report, helmet_mini, window_s=10.0, duration_s=10.0, freshness_s=20.0)
        assert windows[0].map_percent == pytest.approx(100.0)

    def test_late_verdict_outside_deadline_scores_edge(self, helmet_mini):
        report = self._report(helmet_mini)
        windows = rolling_quality(report, helmet_mini, window_s=10.0, duration_s=10.0, freshness_s=5.0)
        # the fallback serve (t=1) is fresh, the verdict (t=9) is not:
        # the frame scores as edge-served -> empty detections
        assert windows[0].served == 1
        assert windows[0].map_percent == pytest.approx(0.0)

    def test_no_deadline_accepts_any_verdict(self, helmet_mini):
        report = self._report(helmet_mini)
        windows = rolling_quality(report, helmet_mini, window_s=10.0, duration_s=10.0)
        assert windows[0].map_percent == pytest.approx(100.0)


# --------------------------------------------------------------------- #
# the acceptance pin: durable queue beats drop-on-failure on the fleet
# --------------------------------------------------------------------- #
class TestFleetAvailabilityPin:
    def test_durable_queue_beats_drop_on_failure(self, helmet_mini, big_batch):
        """Saturated 8-camera cloud-only fleet under a 30%-downtime schedule:
        the durable escalation queue recovers frames that drop-on-failure
        loses, so its rolling mAP is strictly higher."""
        duration = 30.0
        outages = OutageSchedule.periodic(period_s=10.0, downtime_s=3.0, duration_s=duration)
        deployment = _deployment(UnreliableLink.wrap(WLAN, outages=outages))
        config = StreamConfig(fps=1.5, duration_s=duration, poisson=True, max_edge_queue=30)

        def run(policy):
            return serve_fleet(
                deployment,
                helmet_mini,
                FleetSpec(
                    scheme=cloud_only_scheme(),
                    config=config,
                    cameras=8,
                    detections=big_batch,
                    escalation=policy,
                ),
                seed=20230701,
            )

        drop = run(EscalationPolicy.drop_on_failure())
        durable = run(DURABLE)
        for fleet in (drop, durable):
            assert fleet.frames_served + fleet.frames_dropped == fleet.frames_offered
        assert durable.escalations_recovered > 0
        assert drop.escalations_dropped > 0

        def mean_map(fleet):
            windows = rolling_quality(fleet, helmet_mini, window_s=8.0, duration_s=duration)
            return float(np.mean([w.map_percent for w in windows]))

        assert mean_map(durable) > mean_map(drop)
