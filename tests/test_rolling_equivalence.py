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

The one intended divergence is also pinned: the legacy ``while i * step_s <
duration_s`` window grid emitted a trailing all-empty window whenever the
float product ``i * step_s`` rounded just below ``duration_s`` (e.g. ``3 *
0.3 < 0.9``); the rewrite's quotient-based count does not.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import _legacy_rolling as legacy
from repro.data import load_dataset
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
    OutageSchedule,
    StreamConfig,
    StreamSpec,
    UnreliableLink,
    cloud_only_scheme,
    collaborative_scheme,
    serve_stream,
    simulate_fleet,
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
        report = serve_stream(
            deployment, helmet_mini, StreamSpec(cloud_only_scheme(), self.CONFIG, detections=big_batch), seed=5
        )
        self._compare(report, helmet_mini, window_s=8.0, duration_s=40.0, freshness_s=2.0)
        self._compare(report, helmet_mini, window_s=8.0, duration_s=40.0)  # no freshness deadline

    def test_eight_camera_fleet(self, deployment, helmet_mini, big_batch):
        report = simulate_fleet(
            cloud_only_scheme(), deployment, helmet_mini, self.CONFIG, cameras=8, detections=big_batch, seed=5
        )
        self._compare(report, helmet_mini, window_s=8.0, duration_s=40.0, freshness_s=2.0)

    def test_overlapping_windows(self, deployment, helmet_mini, big_batch):
        # step_s < window_s: every frame lands in several windows, and the
        # 20 s / 3 s grid is float-exact for both implementations
        report = simulate_fleet(
            cloud_only_scheme(),
            deployment,
            helmet_mini,
            StreamConfig(fps=2.0, poisson=True, duration_s=20.0),
            cameras=4,
            detections=big_batch,
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
        report = simulate_fleet(
            cloud_only_scheme(), deployment, helmet_mini, self.CONFIG, cameras=cameras, detections=big_batch, seed=11
        )
        arrivals = np.concatenate([camera.trace.arrivals for camera in report.cameras])
        assert (np.diff(arrivals) < 0).any()  # genuinely out of order
        self._compare(report, helmet_mini, window_s=6.0, duration_s=24.0, freshness_s=2.0)

    def test_admission_shedding_fleet(self, deployment, helmet_mini, big_batch):
        # saturate the shared uplink so DeadlineAware sheds frames: shed
        # frames score as drops and both implementations must agree
        report = simulate_fleet(
            cloud_only_scheme(),
            deployment,
            helmet_mini,
            StreamConfig(fps=4.0, poisson=True, duration_s=20.0),
            cameras=8,
            detections=big_batch,
            admission=DeadlineAware(freshness_s=1.5),
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
        report = simulate_fleet(
            collaborative_scheme(),
            faulty,
            helmet_mini,
            self.CONFIG,
            cameras=4,
            mask=mask,
            small_detections=small_batch,
            detections=big_batch,
            escalation=EscalationPolicy.durable_queue(capacity=64, max_retries=6, max_backoff_s=8.0),
            seed=5,
        )
        assert any((camera.trace.verdict_segments >= 0).any() for camera in report.cameras)
        self._compare(report, helmet_mini, window_s=8.0, duration_s=40.0, freshness_s=4.0)
        self._compare(report, helmet_mini, window_s=8.0, duration_s=40.0)


class TestWindowGridRegression:
    def test_product_rounding_no_longer_emits_phantom_window(self, deployment, helmet_mini, big_batch):
        # 3 * 0.3 == 0.8999… < 0.9 in floats, yet 0.9 / 0.3 == 3.0 exactly:
        # the legacy loop emitted a 4th window starting *at* the horizon
        report = serve_stream(
            deployment,
            helmet_mini,
            StreamSpec(cloud_only_scheme(), StreamConfig(fps=10.0, poisson=True, duration_s=0.9), detections=big_batch),
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
