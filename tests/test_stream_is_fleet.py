"""A stream is a fleet of one.

:func:`serve_stream` serves its spec as a one-camera :class:`FleetSpec`
through :func:`serve_fleet`; only the seed scopes of the camera's arrivals
and escalation backoff differ from a fleet camera's.  The oracle is the
stream front door's former engine set-up, vendored in
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
    OutageSchedule,
    RateSchedule,
    StreamConfig,
    StreamSpec,
    UnreliableLink,
    cloud_only_scheme,
    collaborative_scheme,
    edge_only_scheme,
    serve_stream,
)
from repro.runtime import serving
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
    return StreamSpec(
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
    fleet_of_one = serve_stream(deployment, helmet_mini, _spec(*args), seed=seed)
    oracle = legacy.serve_stream(deployment, helmet_mini, _spec(*args), seed=seed)
    assert fleet_of_one == oracle


def test_stream_runs_through_the_fleet_path(monkeypatch, helmet_mini):
    """The stream front door builds no engine of its own."""
    calls = []
    fleet_path = serving.serve_fleet

    def counting(*args, **kwargs):
        calls.append(args[2])
        return fleet_path(*args, **kwargs)

    monkeypatch.setattr(serving, "serve_fleet", counting)
    spec = StreamSpec(edge_only_scheme(), StreamConfig(fps=4.0, duration_s=2.0))
    report = serve_stream(_deployment("none", False), helmet_mini, spec, seed=1)
    assert len(calls) == 1 and calls[0].cameras == 1
    assert report.frames_offered > 0
