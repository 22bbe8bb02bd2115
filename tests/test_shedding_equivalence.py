"""A camera's sheddable frames, read directly, equal the id-set snapshot.

A camera lists its sheddable frames from its own entry-stage entries,
skipping the oldest one when it is the job its stage has in service
(:attr:`~repro.runtime.events.FifoResource.in_service`).  The oracle
(``tests/_legacy_shedding.py``) snapshots the whole stage queue on every
call instead, and its admission policy and coordinator sweep visit every
camera whether or not it holds a waiting frame.  Over generated fleets the
two must agree on every report field and on the coordinator's sweep count.

The generated fleets cross both kinds of entry stage — a collaborative
camera's private edge queue and a cloud-only camera's slice of the shared
uplink, where a durable queue's retry can hold the in-service slot — with
every shedding policy, the coordinator on and off, and outages, loss and a
time-varying link rate.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _legacy_shedding import LegacyEstimatedDeadlineAware, LegacyUplinkCoordinator, legacy_serving
from repro.data import load_dataset
from repro.detection import DetectionBatch
from repro.runtime import (
    JETSON_NANO,
    RTX3060_SERVER,
    WLAN,
    CameraSpec,
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
    UplinkCoordinator,
    cloud_only_scheme,
    collaborative_scheme,
    serve_fleet,
)
from repro.runtime.engine import _CameraStream
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


def _deployment(outage: str, loss: bool) -> Deployment:
    outages = OutageSchedule(((1.5, 2.5), (5.0, 5.5))) if outage == "uplink" else None
    link = WLAN
    if outages is not None or loss:
        link = UnreliableLink.wrap(WLAN, outages=outages, loss_probability=0.2 if loss else 0.0)
    return Deployment(
        edge=JETSON_NANO,
        cloud=RTX3060_SERVER,
        link=link,
        small_model_flops=5.6e9,
        big_model_flops=61.2e9,
        cloud_outages=OutageSchedule(((2.0, 3.0),)) if outage == "cloud" else None,
    )


def _admission(name: str, freshness_s: float, legacy: bool):
    if name == "drop-oldest":
        return DropOldest()
    if name == "deadline":
        return DeadlineAware(freshness_s=freshness_s)
    if name == "estimated":
        policy = LegacyEstimatedDeadlineAware if legacy else EstimatedDeadlineAware
        return policy(freshness_s=freshness_s)
    return DropNewest()


#: A dimensionless rate dip: the link carries 40% of its rate for 1.5 s in 4.
_DIP = RateSchedule.periodic(base_mbps=1.0, dip_mbps=0.4, period_s=4.0, dip_s=1.5, duration_s=DURATION_S)

# Edge service is ~49 ms and an uplink transfer ~196 ms, so every rate
# here queues frames somewhere: the shared uplink saturates past ~5 fps.
_CAMERAS = st.tuples(
    st.sampled_from(["collaborative", "cloud"]),
    st.sampled_from(["drop-oldest", "deadline", "estimated", "drop-newest"]),
    st.sampled_from([3.0, 6.0, 25.0]),  # fps
    st.booleans(),  # Poisson arrivals (else periodic)
    st.integers(1, 6),  # max_edge_queue
    st.booleans(),  # time-varying link rate
)


def _serve(helmet_mini, small_batch, big_batch, cameras, coordinated, freshness_s, outage, loss, durable, seed, legacy):
    mask = np.arange(len(helmet_mini)) % 2 == 0
    specs = tuple(
        CameraSpec(
            scheme=collaborative_scheme() if scheme == "collaborative" else cloud_only_scheme(),
            config=StreamConfig(fps=fps, poisson=poisson, duration_s=DURATION_S, max_edge_queue=depth),
            mask=mask if scheme == "collaborative" else None,
            admission=_admission(admission, freshness_s, legacy),
            link_scale=_DIP if dip else None,
        )
        for scheme, admission, fps, poisson, depth, dip in cameras
    )
    controller = None
    if coordinated:
        controller = (LegacyUplinkCoordinator if legacy else UplinkCoordinator)(freshness_s=freshness_s)
    spec = FleetSpec(
        scheme=cloud_only_scheme(),
        cameras=specs,
        detections=big_batch,
        small_detections=small_batch,
        escalation=EscalationPolicy.durable_queue(8) if durable else None,
        controller=controller,
    )
    if legacy:
        with legacy_serving():
            report = serve_fleet(_deployment(outage, loss), helmet_mini, spec, seed=seed)
    else:
        report = serve_fleet(_deployment(outage, loss), helmet_mini, spec, seed=seed)
    return report, None if controller is None else controller.swept


class TestDirectReadsEqualSnapshot:
    @settings(max_examples=40, deadline=None)
    @given(
        cameras=st.lists(_CAMERAS, min_size=1, max_size=4),
        coordinated=st.booleans(),
        freshness_s=st.sampled_from([0.8, 2.0]),
        outage=st.sampled_from(["none", "uplink", "cloud"]),
        loss=st.booleans(),
        durable=st.booleans(),
        seed=st.integers(0, 3),
    )
    def test_fleet(
        self, helmet_mini, small_batch, big_batch, cameras, coordinated, freshness_s, outage, loss, durable, seed
    ):
        direct, snapshot = (
            _serve(
                helmet_mini,
                small_batch,
                big_batch,
                cameras,
                coordinated,
                freshness_s,
                outage,
                loss,
                durable,
                seed,
                legacy,
            )
            for legacy in (False, True)
        )
        assert direct == snapshot

    @pytest.mark.parametrize("admission", ["drop-oldest", "deadline", "estimated"])
    def test_a_retry_in_service_leaves_the_oldest_frame_sheddable(
        self, helmet_mini, small_batch, big_batch, monkeypatch, admission
    ):
        """On a cloud-only camera's uplink the in-service job may be a
        durable-queue retry, not the camera's oldest frame, which is then
        still waiting and sheddable."""
        seen = []
        shed_methods = {"drop-oldest": "shed_oldest", "deadline": "shed_expired", "estimated": "shed_frames"}
        method = shed_methods[admission]
        inner = getattr(_CameraStream, method)

        def watching(camera, *args):
            in_service = camera.entry.in_service
            seen.append(in_service is not None and bool(camera._waiting) and camera._waiting[0][0] is not in_service)
            return inner(camera, *args)

        monkeypatch.setattr(_CameraStream, method, watching)
        cameras = [("cloud", admission, 25.0, True, 6, False)]
        # a cloud outage fails transfers that already crossed the link, so
        # their retries land on a busy uplink with frames queued behind
        args = (helmet_mini, small_batch, big_batch, cameras, True, 0.8, "cloud", True, True, 2)
        direct = _serve(*args, legacy=False)
        monkeypatch.undo()
        snapshot = _serve(*args, legacy=True)
        assert any(seen)
        assert direct[0].frames_shed > 0
        assert direct == snapshot
