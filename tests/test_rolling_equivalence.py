"""Bit-for-bit equality of the vectorized rolling evaluator vs the original.

``repro.metrics.rolling`` was rewritten from a per-frame / per-window Python
loop into one vectorized pass (block-diagonal greedy matching up front,
pure-arithmetic PR curves per window).  The rewrite claims *exact* output
equality, not approximate: every float in every :class:`RollingWindow` must
match what the original implementation produced.  ``_legacy_rolling.py`` is
the verbatim pre-rewrite module, kept as the oracle; these tests pin the two
against each other across serving schemes, fleet shapes, overlapping window
grids, admission shedding and failure-injection (deferred-verdict) runs.

Window comparison uses ``dataclasses.astuple`` — the legacy module defines
its own ``RollingWindow`` dataclass, and dataclass ``__eq__`` short-circuits
on class identity.  ``astuple`` equality on float fields IS bit-for-bit
(``==`` on floats), which is the claim under test.

The evaluator greedy-matches one representative segment per distinct
source row of the served batch (``FleetReport.served_sources``) and hands
its flags to every frame that served that row; a generated-fleet property
pins that against the oracle over mixed detection sources, per-camera
datasets, fallback serves and deferred-verdict upgrades.

The one intended divergence is also pinned: the legacy ``while i * step_s <
duration_s`` window grid emitted a trailing all-empty window whenever the
float product ``i * step_s`` rounded just below ``duration_s`` (e.g. ``3 *
0.3 < 0.9``); the rewrite's quotient-based count does not.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _legacy_rolling as legacy
from repro.data import load_dataset
from repro.data.degrade import DegradationModel
from repro.detection import DetectionBatch
from repro.metrics import rolling_quality
from repro.runtime import (
    JETSON_NANO,
    RTX3060_SERVER,
    WLAN,
    CameraSpec,
    DeadlineAware,
    Deployment,
    EscalationPolicy,
    FleetSpec,
    OutageSchedule,
    StreamConfig,
    UnreliableLink,
    cloud_only_scheme,
    collaborative_scheme,
    serve_fleet,
)
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
def big_batch(helmet_mini):
    return DetectionBatch.coerce(make_detector("ssd", "helmet").detect_split(helmet_mini))


@pytest.fixture(scope="module")
def small_batch(helmet_mini):
    return DetectionBatch.coerce(make_detector("small1", "helmet").detect_split(helmet_mini))


def assert_identical(new_windows, old_windows):
    assert len(new_windows) == len(old_windows)
    for new, old in zip(new_windows, old_windows):
        assert dataclasses.astuple(new) == dataclasses.astuple(old)


class TestBitForBitEquality:
    CONFIG = StreamConfig(fps=1.5, poisson=True, duration_s=40.0)

    def _compare(self, report, dataset, **kwargs):
        assert_identical(
            rolling_quality(report, dataset, **kwargs),
            legacy.rolling_quality(report, dataset, **kwargs),
        )

    def test_single_stream_adjacent_windows(self, deployment, helmet_mini, big_batch):
        report = serve_fleet(
            deployment, helmet_mini, FleetSpec(cloud_only_scheme(), self.CONFIG, detections=big_batch), seed=5
        )
        self._compare(report, helmet_mini, window_s=8.0, duration_s=40.0, freshness_s=2.0)
        self._compare(report, helmet_mini, window_s=8.0, duration_s=40.0)  # no freshness deadline

    def test_eight_camera_fleet(self, deployment, helmet_mini, big_batch):
        report = serve_fleet(
            deployment,
            helmet_mini,
            FleetSpec(scheme=cloud_only_scheme(), config=self.CONFIG, cameras=8, detections=big_batch),
            seed=5,
        )
        self._compare(report, helmet_mini, window_s=8.0, duration_s=40.0, freshness_s=2.0)

    def test_overlapping_windows(self, deployment, helmet_mini, big_batch):
        # step_s < window_s: every frame lands in several windows, and the
        # 20 s / 3 s grid is float-exact for both implementations
        report = serve_fleet(
            deployment,
            helmet_mini,
            FleetSpec(
                scheme=cloud_only_scheme(),
                config=StreamConfig(fps=2.0, poisson=True, duration_s=20.0),
                cameras=4,
                detections=big_batch,
            ),
            seed=7,
        )
        self._compare(report, helmet_mini, window_s=8.0, step_s=3.0, duration_s=20.0, freshness_s=2.0)

    def test_out_of_order_multi_camera_arrivals(self, deployment, helmet_mini, big_batch):
        # heterogeneous frame rates: the concatenated fleet log interleaves
        # arrival times across cameras, so windowing must not assume a
        # globally sorted log
        cameras = [
            CameraSpec(config=StreamConfig(fps=fps, poisson=True, duration_s=24.0))
            for fps in (0.5, 3.0, 1.0, 2.0)
        ]
        report = serve_fleet(
            deployment,
            helmet_mini,
            FleetSpec(scheme=cloud_only_scheme(), config=self.CONFIG, cameras=cameras, detections=big_batch),
            seed=11,
        )
        arrivals = np.concatenate([camera.trace.arrivals for camera in report.cameras])
        assert (np.diff(arrivals) < 0).any()  # genuinely out of order
        self._compare(report, helmet_mini, window_s=6.0, duration_s=24.0, freshness_s=2.0)

    def test_admission_shedding_fleet(self, deployment, helmet_mini, big_batch):
        # saturate the shared uplink so DeadlineAware sheds frames: shed
        # frames score as drops and both implementations must agree
        report = serve_fleet(
            deployment,
            helmet_mini,
            FleetSpec(
                scheme=cloud_only_scheme(),
                config=StreamConfig(fps=4.0, poisson=True, duration_s=20.0),
                cameras=8,
                detections=big_batch,
                admission=DeadlineAware(freshness_s=1.5),
            ),
            seed=5,
        )
        assert sum(camera.frames_shed for camera in report.cameras) > 0
        self._compare(report, helmet_mini, window_s=5.0, duration_s=20.0, freshness_s=1.5)

    def test_failure_injection_with_deferred_verdicts(self, deployment, helmet_mini, small_batch, big_batch):
        # outages with a durable escalation queue under the collaborative
        # scheme: failed escalations serve the edge verdict immediately and
        # the queue lands the deferred cloud verdict later, filling the
        # verdict columns — both reconciliations must agree, fresh-upgraded
        # or not
        faulty = Deployment(
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
        mask = np.zeros(len(helmet_mini), dtype=bool)
        mask[::2] = True
        report = serve_fleet(
            faulty,
            helmet_mini,
            FleetSpec(
                scheme=collaborative_scheme(),
                config=self.CONFIG,
                cameras=4,
                mask=mask,
                small_detections=small_batch,
                detections=big_batch,
                escalation=EscalationPolicy.durable_queue(capacity=64, max_retries=6, max_backoff_s=8.0),
            ),
            seed=5,
        )
        assert any((camera.trace.verdict_segments >= 0).any() for camera in report.cameras)
        self._compare(report, helmet_mini, window_s=8.0, duration_s=40.0, freshness_s=4.0)
        self._compare(report, helmet_mini, window_s=8.0, duration_s=40.0)


class TestSourceRowMatching:
    """Frames serving the same source row are matched once, exactly.

    Generated fleets mix the fleet's detections, a second detection source
    (sharing the fleet's fallback, or with its own), and a night camera with
    its own degraded dataset and detections, over a failing link: fallback
    serves add rows past each source's detections, and a durable queue
    lands deferred cloud verdicts that a freshness deadline may or may not
    upgrade.  Windows are adjacent or overlapping.
    """

    CONFIG = StreamConfig(fps=2.0, poisson=True, duration_s=16.0)

    @pytest.fixture(scope="class")
    def sources(self, helmet_mini, small_batch, big_batch):
        night = helmet_mini.with_degradation(
            DegradationModel(degraded_fraction=0.9, min_quality=0.45, max_quality=0.7), scope="night"
        )
        night_small = DetectionBatch.coerce(make_detector("small1", "helmet").detect_split(night))
        night_big = DetectionBatch.coerce(make_detector("ssd", "helmet").detect_split(night))
        mask = np.zeros(len(helmet_mini), dtype=bool)
        mask[::2] = True
        cameras = {
            "fleet": CameraSpec(),
            "own": CameraSpec(detections=small_batch),
            "own-fallback": CameraSpec(detections=small_batch, small_detections=big_batch),
            "night": CameraSpec(dataset=night, detections=night_big, small_detections=night_small, mask=mask),
        }
        return cameras, mask

    @pytest.fixture(scope="class")
    def faulty(self, deployment):
        return Deployment(
            edge=deployment.edge,
            cloud=deployment.cloud,
            link=UnreliableLink.wrap(
                WLAN,
                outages=OutageSchedule.periodic(period_s=6.0, downtime_s=2.0, duration_s=16.0, offset_s=1.0),
                loss_probability=0.1,
            ),
            small_model_flops=deployment.small_model_flops,
            big_model_flops=deployment.big_model_flops,
        )

    def _serve(self, faulty, helmet_mini, small_batch, big_batch, sources, kinds, durable, seed):
        cameras, mask = sources
        escalation = (
            EscalationPolicy.durable_queue(capacity=32, max_retries=4, max_backoff_s=4.0)
            if durable
            else EscalationPolicy.drop_on_failure()
        )
        spec = FleetSpec(
            collaborative_scheme(),
            self.CONFIG,
            cameras=[cameras[kind] for kind in kinds],
            mask=mask,
            small_detections=small_batch,
            detections=big_batch,
            escalation=escalation,
        )
        return serve_fleet(faulty, helmet_mini, spec, seed=seed)

    @settings(max_examples=25, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(["fleet", "own", "own-fallback", "night"]), min_size=1, max_size=5),
        durable=st.booleans(),
        seed=st.integers(0, 3),
        freshness_s=st.sampled_from([None, 0.5, 2.0]),
        grid=st.sampled_from([(4.0, None), (8.0, 2.0), (4.0, 1.0), (16.0, None)]),
    )
    @example(kinds=["fleet", "own", "night", "own-fallback"], durable=True, seed=1, freshness_s=2.0, grid=(8.0, 2.0))
    def test_matches_the_per_frame_oracle(
        self, faulty, helmet_mini, small_batch, big_batch, sources, kinds, durable, seed, freshness_s, grid
    ):
        report = self._serve(faulty, helmet_mini, small_batch, big_batch, sources, kinds, durable, seed)
        window_s, step_s = grid
        kwargs = dict(window_s=window_s, step_s=step_s, duration_s=16.0, freshness_s=freshness_s)
        assert_identical(
            rolling_quality(report, helmet_mini, **kwargs), legacy.rolling_quality(report, helmet_mini, **kwargs)
        )

    def test_the_mix_reaches_every_case(self, faulty, helmet_mini, small_batch, big_batch, sources):
        kinds = ["fleet", "own", "night", "own-fallback", "fleet"]
        report = self._serve(faulty, helmet_mini, small_batch, big_batch, sources, kinds, True, 1)
        trace, served = report.trace(), report.served_sources()
        resolved = np.where(trace.verdict_segments >= 0, trace.verdict_segments, trace.segments)
        rows = served[resolved[trace.served]]
        assert np.unique(rows).size < rows.size  # frames share source rows
        # four sources, numbered fleet-wide: fleet, own, night, own-fallback
        size = len(helmet_mini)
        assert int(served.max()) >= 7 * size
        # fallback serves index past a source's detections, deferred verdicts land
        local = served % (2 * size)
        assert (local >= size).any() and (local < size).any()
        assert (trace.verdict_segments >= 0).any()
        # the same record served from different sources differs in what it holds
        assert not np.array_equal(big_batch.count_above(0.5), small_batch.count_above(0.5))

    def test_windows_without_fresh_frames(self, deployment, helmet_mini, small_batch, big_batch):
        # A fixed two-camera run on a lossless link with outages at [1, 3),
        # [7, 9) and [13, 15): a collaborative camera on a durable queue
        # (deferred verdicts) that stops at 12 s, and a cloud-only camera
        # whose failed uploads are lost.  Scored past the stream's end, with
        # and without a freshness deadline below every latency, it yields
        # each kind of window whose fresh-frame lookup is empty or partial.
        link = UnreliableLink.wrap(
            WLAN, outages=OutageSchedule.periodic(period_s=6.0, downtime_s=2.0, duration_s=16.0, offset_s=1.0)
        )
        mask = np.zeros(len(helmet_mini), dtype=bool)
        mask[::2] = True
        spec = FleetSpec(
            collaborative_scheme(),
            self.CONFIG,
            cameras=[
                CameraSpec(config=StreamConfig(fps=2.0, poisson=True, duration_s=12.0)),
                CameraSpec(scheme=cloud_only_scheme(), escalation=EscalationPolicy.no_retry()),
            ],
            mask=mask,
            small_detections=small_batch,
            detections=big_batch,
            escalation=EscalationPolicy.durable_queue(capacity=32, max_retries=4, max_backoff_s=4.0),
        )
        report = serve_fleet(dataclasses.replace(deployment, link=link), helmet_mini, spec, seed=1)
        trace = report.trace()
        latencies = trace.times - trace.arrivals
        stale_deadline = 0.5 * float(latencies[trace.served].min())

        scored = {}
        for freshness_s in (stale_deadline, 2.0):
            kwargs = dict(window_s=1.0, duration_s=18.0, freshness_s=freshness_s)
            scored[freshness_s] = rolling_quality(report, helmet_mini, **kwargs)
            assert_identical(scored[freshness_s], legacy.rolling_quality(report, helmet_mini, **kwargs))

        windows = scored[2.0]
        assert any(window.frames == 0 for window in windows)  # no frame at all
        assert any(0 < window.frames == window.dropped for window in windows)  # all dropped
        assert any(0 < window.frames == window.stale for window in scored[stale_deadline])  # stale only
        # a fresh frame whose deferred cloud verdict landed outside the deadline
        late_verdict = (
            trace.served
            & (latencies <= 2.0)
            & (trace.verdict_segments >= 0)
            & (trace.verdict_times - trace.arrivals > 2.0)
        )
        assert late_verdict.any()


class TestWindowGridRegression:
    def test_product_rounding_no_longer_emits_phantom_window(self, deployment, helmet_mini, big_batch):
        # 3 * 0.3 == 0.8999… < 0.9 in floats, yet 0.9 / 0.3 == 3.0 exactly:
        # the legacy loop emitted a 4th window starting *at* the horizon
        report = serve_fleet(
            deployment,
            helmet_mini,
            FleetSpec(cloud_only_scheme(), StreamConfig(fps=10.0, poisson=True, duration_s=0.9), detections=big_batch),
            seed=5,
        )
        new = rolling_quality(report, helmet_mini, window_s=0.6, step_s=0.3, duration_s=0.9)
        old = legacy.rolling_quality(report, helmet_mini, window_s=0.6, step_s=0.3, duration_s=0.9)
        assert len(new) == 3
        assert len(old) == 4  # the phantom trailing window the fix removes
        assert old[3].frames == 0
        assert old[3].t_start == pytest.approx(0.9)  # 0.8999… — rounded below the horizon
        assert_identical(new, old[:3])

    def test_quotient_rounding_still_trimmed(self):
        # the other failure mode: ceil(quotient) one too high is trimmed
        from repro.metrics.rolling import _window_count

        assert _window_count(0.9, 0.3) == 3
        assert _window_count(1.8, 0.6) == 3
        assert _window_count(40.0, 8.0) == 5
        assert _window_count(20.0, 3.0) == 7
        assert _window_count(0.0, 1.0) == 1
