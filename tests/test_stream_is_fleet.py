"""A stream is a fleet of one.

A one-camera :class:`FleetSpec` served by :func:`serve_fleet` is a single
stream; only the seed scopes of the camera's arrivals and escalation
backoff differ from a larger fleet's cameras.  The oracle is the former
stream front door's own engine set-up, vendored in
``tests/_legacy_stream.py``: over generated specs the two must agree on
every report field — counters, latency summary, utilizations, trace
columns and served batch.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _legacy_stream as legacy
from repro._rng import generator_for
from repro.core.discriminator import DifficultCaseDiscriminator
from repro.data import load_dataset
from repro.detection import DetectionBatch
from repro.runtime import (
    JETSON_NANO,
    RTX3060_SERVER,
    WLAN,
    AdaptiveQuota,
    DeadlineAware,
    Deployment,
    DropNewest,
    DropOldest,
    EscalationPolicy,
    EstimatedDeadlineAware,
    FleetSpec,
    OutageSchedule,
    RateSchedule,
    StreamConfig,
    UnreliableLink,
    cloud_only_scheme,
    collaborative_scheme,
    edge_only_scheme,
    serve_fleet,
)
from repro.runtime import serving
from repro.runtime.engine import _arrival_times
from repro.simulate import make_detector

DURATION_S = 8.0


@pytest.fixture(scope="module")
def helmet_mini():
    return load_dataset("helmet", "test", fraction=0.08)


@pytest.fixture(scope="module")
def small_batch(helmet_mini):
    return DetectionBatch.coerce(make_detector("small1", "helmet").detect_split(helmet_mini))


@pytest.fixture(scope="module")
def big_batch(helmet_mini):
    return DetectionBatch.coerce(make_detector("ssd", "helmet").detect_split(helmet_mini))


def _deployment(faults: str, scheduled: bool) -> Deployment:
    link = WLAN
    if scheduled:
        dips = RateSchedule.periodic(
            base_mbps=WLAN.bandwidth_mbps, dip_mbps=4.0, period_s=3.0, dip_s=1.0, duration_s=DURATION_S
        )
        link = link.with_rate_schedule(dips)
    cloud_outages = None
    if faults == "uplink":
        outages = OutageSchedule.periodic(period_s=3.0, downtime_s=1.0, duration_s=DURATION_S, offset_s=1.0)
        link = UnreliableLink.wrap(link, outages=outages, loss_probability=0.05)
    elif faults == "cloud":
        cloud_outages = OutageSchedule(((2.0, 3.0),))
    return Deployment(
        edge=JETSON_NANO,
        cloud=RTX3060_SERVER,
        link=link,
        small_model_flops=5.6e9,
        big_model_flops=61.2e9,
        cloud_outages=cloud_outages,
    )


_SCHEMES = {"cloud": cloud_only_scheme, "edge": edge_only_scheme, "collaborative": collaborative_scheme}
_ADMISSIONS = {
    "default": lambda: None,
    "drop-newest": DropNewest,
    "drop-oldest": DropOldest,
    "deadline": lambda: DeadlineAware(freshness_s=2.0),
    "estimated": lambda: EstimatedDeadlineAware(freshness_s=2.0),
}
_ESCALATIONS = {
    "default": lambda: None,
    "no-retry": EscalationPolicy.no_retry,
    "drop-on-failure": EscalationPolicy.drop_on_failure,
    "durable": lambda: EscalationPolicy.durable_queue(8),
}


def _spec(helmet_mini, small_batch, big_batch, scheme, admission, escalation, quota, fps, poisson, depth, logged):
    offload = None
    mask = None
    if scheme == "collaborative":
        if quota:
            discriminator = DifficultCaseDiscriminator(
                confidence_threshold=0.25, count_threshold=3, area_threshold=0.02
            )
            offload = AdaptiveQuota(discriminator, small_batch, 0.3)
        else:
            mask = np.arange(len(helmet_mini)) % 3 == 0
    return FleetSpec(
        _SCHEMES[scheme](),
        StreamConfig(fps=fps, poisson=poisson, duration_s=DURATION_S, max_edge_queue=depth),
        mask=mask,
        small_detections=small_batch,
        detections=big_batch if logged else None,
        admission=_ADMISSIONS[admission](),
        escalation=_ESCALATIONS[escalation](),
        offload=offload,
    )


@settings(max_examples=200, deadline=None)
@given(
    scheme=st.sampled_from(sorted(_SCHEMES)),
    admission=st.sampled_from(sorted(_ADMISSIONS)),
    escalation=st.sampled_from(sorted(_ESCALATIONS)),
    faults=st.sampled_from(["none", "uplink", "cloud"]),
    scheduled=st.booleans(),
    quota=st.booleans(),
    fps=st.sampled_from([1.0, 4.0, 12.0]),
    poisson=st.booleans(),
    depth=st.integers(1, 6),
    logged=st.booleans(),
    seed=st.integers(0, 3),
)
def test_stream_equals_legacy_set_up(
    helmet_mini,
    small_batch,
    big_batch,
    scheme,
    admission,
    escalation,
    faults,
    scheduled,
    quota,
    fps,
    poisson,
    depth,
    logged,
    seed,
):
    deployment = _deployment(faults, scheduled)
    args = (helmet_mini, small_batch, big_batch, scheme, admission, escalation, quota, fps, poisson, depth, logged)
    fleet_of_one = serve_fleet(deployment, helmet_mini, _spec(*args), seed=seed).cameras[0]
    oracle = legacy.serve_stream(deployment, helmet_mini, _spec(*args), seed=seed)
    assert fleet_of_one == oracle


@pytest.mark.parametrize(
    "cameras, arrival_scope, escalation_scope",
    [
        (1, ("stream-arrivals",), ("stream-escalation",)),
        (2, ("fleet-arrivals", 0), ("fleet-escalation", 0)),
    ],
)
def test_seed_scopes_follow_the_camera_count(
    monkeypatch, helmet_mini, small_batch, cameras, arrival_scope, escalation_scope
):
    """One camera draws the stream scopes; camera 0 of a larger fleet its own.

    The escalation scope is drawn only by a camera that can spool, so the
    fleet runs a durable queue against a cloud that can fail (its outage
    hook draws no generator of its own).
    """
    drawn = _record_generator_scopes(monkeypatch)
    config = StreamConfig(fps=2.0, poisson=True, duration_s=DURATION_S)
    spec = FleetSpec(
        edge_only_scheme(),
        config,
        cameras=cameras,
        detections=small_batch,
        escalation=EscalationPolicy.durable_queue(8),
    )
    report = serve_fleet(_deployment("cloud", False), helmet_mini, spec, seed=3)
    expected = _arrival_times(config, 3, *arrival_scope)
    np.testing.assert_array_equal(np.sort(report.cameras[0].trace.arrivals), expected)
    assert drawn[0] == escalation_scope


@pytest.mark.parametrize(
    "faults, escalation",
    [("none", "durable"), ("uplink", "drop-on-failure"), ("cloud", "default")],
)
def test_a_fleet_that_cannot_spool_draws_no_escalation_generator(
    monkeypatch, helmet_mini, big_batch, faults, escalation
):
    """No camera can build an escalation queue (a reliable path, or a policy
    that is not durable), so no camera's backoff generator is drawn."""
    config = StreamConfig(fps=2.0, poisson=True, duration_s=DURATION_S)
    spec = FleetSpec(
        cloud_only_scheme(),
        config,
        cameras=3,
        detections=big_batch,
        escalation=_ESCALATIONS[escalation](),
    )
    drawn = _record_generator_scopes(monkeypatch)
    report = serve_fleet(_deployment(faults, False), helmet_mini, spec, seed=3)
    assert report.frames_served > 0
    assert not [scope for scope in drawn if scope[0] in ("fleet-escalation", "stream-escalation")]


def _record_generator_scopes(monkeypatch) -> list[tuple]:
    """Record the scope of every generator the fleet front door draws."""
    drawn = []

    def recording(seed, *scope):
        drawn.append(scope)
        return generator_for(seed, *scope)

    monkeypatch.setattr(serving, "generator_for", recording)
    return drawn
