"""Bulk refusal at a full camera buffer is exact, and runs leave no cycles.

A camera whose admission policy declares ``occupancy_only`` refuses a full
buffer's arrivals in one step (see :mod:`repro.runtime.engine`).  The
oracle here is a test-local ``DropNewest`` twin that does not declare the
attribute, so every arrival takes the per-event path; over generated
streams and fleets the two must agree on every report field — every trace
column, the served batches, all counters, the utilizations and the latency
summaries.

The event loop pauses the cyclic collector while it drains, which is only
safe because the engine builds no per-frame reference cycles: the cyclic
garbage a run leaves must not grow with its length.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import load_dataset
from repro.detection import DetectionBatch
from repro.runtime import (
    JETSON_NANO,
    RTX3060_SERVER,
    WLAN,
    CameraSpec,
    Deployment,
    DropNewest,
    DropOldest,
    EscalationPolicy,
    EventLoop,
    FifoResource,
    FleetSpec,
    OutageSchedule,
    StreamConfig,
    UnreliableLink,
    cloud_only_scheme,
    collaborative_scheme,
    edge_only_scheme,
    serve_fleet,
)
from repro.runtime.engine import _camera_reports, _CameraStream, _link_columns
from repro.runtime.serving import _bulk_refusers
from repro.simulate import make_detector


@dataclass(frozen=True)
class PerEventDropNewest:
    """``DropNewest`` without the ``occupancy_only`` declaration."""

    name: str = "drop-newest"

    def admit(self, camera, arrival: float) -> bool:
        return camera.buffer_has_room()


@pytest.fixture(scope="module")
def helmet_mini():
    return load_dataset("helmet", "test", fraction=0.08)


@pytest.fixture(scope="module")
def small_batch(helmet_mini):
    return DetectionBatch.coerce(make_detector("small1", "helmet").detect_split(helmet_mini))


@pytest.fixture(scope="module")
def big_batch(helmet_mini):
    return DetectionBatch.coerce(make_detector("ssd", "helmet").detect_split(helmet_mini))


def _deployment(outage: str) -> Deployment:
    link = WLAN
    cloud_outages = None
    if outage == "uplink":
        link = UnreliableLink.wrap(WLAN, outages=OutageSchedule(((1.5, 2.5), (5.0, 5.5))))
    elif outage == "cloud":
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

# Edge service is ~49 ms and an uplink transfer ~196 ms, so the faster rates
# keep buffers full and the slower ones let them drain.
_CAMERAS = st.tuples(
    st.sampled_from(sorted(_SCHEMES)),
    st.sampled_from([2.0, 6.0, 25.0, 40.0]),  # fps
    st.booleans(),  # Poisson (else periodic: exact ties across cameras)
    st.integers(1, 4),  # max_edge_queue
)


def _fleet_spec(cameras, drop_oldest, admission, mask, small_batch, big_batch, durable):
    specs = []
    for scheme, fps, poisson, depth in cameras:
        specs.append(
            CameraSpec(
                scheme=_SCHEMES[scheme](),
                config=StreamConfig(fps=fps, poisson=poisson, duration_s=8.0, max_edge_queue=depth),
                mask=mask if scheme == "collaborative" else None,
                small_detections=small_batch,
                admission=admission,
            )
        )
    if drop_oldest:
        config = StreamConfig(fps=25.0, poisson=True, duration_s=8.0, max_edge_queue=2)
        specs.append(CameraSpec(scheme=cloud_only_scheme(), config=config, admission=DropOldest()))
    return FleetSpec(
        scheme=cloud_only_scheme(),
        cameras=tuple(specs),
        detections=big_batch,
        small_detections=small_batch,
        escalation=EscalationPolicy.durable_queue(8) if durable else None,
    )


class TestBulkEqualsPerEvent:
    @settings(max_examples=60, deadline=None)
    @given(
        cameras=st.lists(_CAMERAS, min_size=1, max_size=3),
        drop_oldest=st.booleans(),
        outage=st.sampled_from(["none", "uplink", "cloud"]),
        durable=st.booleans(),
        seed=st.integers(0, 3),
    )
    def test_fleet(self, helmet_mini, small_batch, big_batch, cameras, drop_oldest, outage, durable, seed):
        mask = np.arange(len(helmet_mini)) % 3 == 0
        deployment = _deployment(outage)
        bulk, per_event = (
            serve_fleet(
                deployment,
                helmet_mini,
                _fleet_spec(cameras, drop_oldest, admission, mask, small_batch, big_batch, durable),
                seed=seed,
            )
            for admission in (DropNewest(), PerEventDropNewest())
        )
        assert bulk == per_event

    @settings(max_examples=30, deadline=None)
    @given(camera=_CAMERAS, outage=st.sampled_from(["none", "uplink", "cloud"]), seed=st.integers(0, 3))
    def test_stream(self, helmet_mini, small_batch, big_batch, camera, outage, seed):
        scheme, fps, poisson, depth = camera
        mask = np.arange(len(helmet_mini)) % 3 == 0 if scheme == "collaborative" else None
        config = StreamConfig(fps=fps, poisson=poisson, duration_s=8.0, max_edge_queue=depth)
        bulk, per_event = (
            serve_fleet(
                _deployment(outage),
                helmet_mini,
                FleetSpec(
                    _SCHEMES[scheme](),
                    config,
                    mask=mask,
                    small_detections=small_batch,
                    detections=big_batch,
                    admission=admission,
                ),
                seed=seed,
            ).cameras[0]
            for admission in (DropNewest(), PerEventDropNewest())
        )
        assert bulk == per_event


class TestWhenBulkApplies:
    @pytest.fixture
    def skips(self, monkeypatch):
        """Every bulk refusal as ``(scheme, arrivals refused in the step)``."""
        steps: list[tuple[str, int]] = []
        gate = _CameraStream._refuse_while_full

        def counting(camera, index):
            resume = gate(camera, index)
            if resume != index:
                steps.append((camera.scheme.name, resume - index))
            return resume

        monkeypatch.setattr(_CameraStream, "_refuse_while_full", counting)
        return steps

    def _serve(self, helmet_mini, big_batch, cameras, controller=None):
        deployment = _deployment("none")
        spec = FleetSpec(
            scheme=cloud_only_scheme(),
            config=StreamConfig(fps=4.0, duration_s=20.0, max_edge_queue=2),
            cameras=cameras,
            detections=big_batch,
            controller=controller,
        )
        return serve_fleet(deployment, helmet_mini, spec, seed=3)

    def test_saturated_fleet_refuses_runs_in_one_step(self, helmet_mini, big_batch, skips):
        report = self._serve(helmet_mini, big_batch, 4)
        assert report.frames_dropped > 0
        assert sum(count for _, count in skips) == report.frames_dropped
        assert max(count for _, count in skips) > 1

    def test_a_shedding_camera_on_the_shared_uplink_forces_per_event(self, helmet_mini, big_batch, skips):
        edge = CameraSpec(scheme=edge_only_scheme(), config=StreamConfig(fps=40.0, duration_s=20.0, max_edge_queue=2))
        cameras = (CameraSpec(), CameraSpec(), CameraSpec(admission=DropOldest()), edge)
        report = self._serve(helmet_mini, big_batch, cameras)
        assert report.cameras[0].frames_dropped > 0
        # only the edge camera, whose entry stage is its own accelerator, refuses in bulk
        assert {scheme for scheme, _ in skips} == {"edge"}

    def test_held_rows_due_by_now_precede_a_row_logged_now(self, helmet_mini, big_batch):
        """An arrival wins every same-instant tie, so a held refusal at the
        logging instant lands before the row logged then; later ones wait
        for the next row or the report."""
        loop = EventLoop()
        deployment = _deployment("none")
        camera = _CameraStream(
            edge_only_scheme(),
            deployment,
            helmet_mini,
            StreamConfig(),
            np.zeros(len(helmet_mini), dtype=bool),
            big_batch,
            loop=loop,
            edge=FifoResource(loop, "edge"),
            uplink=FifoResource(loop, "uplink"),
            cloud=FifoResource(loop, "cloud"),
            link=deployment.link,
            link_columns=_link_columns(deployment.codec, helmet_mini, deployment.link),
        )
        camera._arrivals = [1.0, 2.0, 2.0, 3.0]
        camera._held.append((0, 4))
        loop.schedule(2.0, lambda: camera._log(0.5, 2.0, 9, True, 0))
        loop.run()
        trace = _camera_reports([camera], loop.now)[0][0].trace
        assert trace.arrivals.tolist() == [1.0, 2.0, 2.0, 0.5, 3.0]
        assert trace.records.tolist() == [0, 1, 2, 9, 3]
        assert trace.served.tolist() == [False, False, False, True, False]

    def test_conditions(self, helmet_mini, big_batch):
        def cameras(*admissions, scheme=cloud_only_scheme()):
            loop = EventLoop()
            uplink, cloud = FifoResource(loop, "uplink"), FifoResource(loop, "cloud")
            deployment = _deployment("none")
            columns = _link_columns(deployment.codec, helmet_mini, deployment.link)
            return [
                _CameraStream(
                    scheme,
                    deployment,
                    helmet_mini,
                    StreamConfig(),
                    np.ones(len(helmet_mini), dtype=bool),
                    None,
                    loop=loop,
                    edge=FifoResource(loop, "edge"),
                    uplink=uplink,
                    cloud=cloud,
                    admission=admission,
                    link=deployment.link,
                    link_columns=columns,
                )
                for admission in admissions
            ]

        assert _bulk_refusers(cameras(DropNewest(), None), None) == [True, True]
        assert _bulk_refusers(cameras(DropNewest(), PerEventDropNewest()), None) == [False, False]
        assert _bulk_refusers(cameras(DropNewest(), DropOldest()), None) == [False, False]
        assert _bulk_refusers(cameras(DropNewest(), DropOldest(), scheme=edge_only_scheme()), None) == [True, False]
        assert _bulk_refusers(cameras(DropNewest()), controller=object()) == [False]


def _cyclic_garbage(deployment, dataset, spec) -> int:
    """Objects the collector finds unreachable once a run's report is gone."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        report = serve_fleet(deployment, dataset, spec, seed=11)
        assert report.frames_offered > 0
        del report
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


class TestNoPerFrameCycles:
    @pytest.mark.parametrize("kind", ["cloud-only drop-newest", "durable escalation under outages"])
    def test_cyclic_garbage_does_not_grow_with_duration(self, helmet_mini, small_batch, big_batch, kind):
        if kind == "cloud-only drop-newest":
            deployment = _deployment("none")
            fields = dict(scheme=cloud_only_scheme())
        else:
            deployment = Deployment(
                edge=JETSON_NANO,
                cloud=RTX3060_SERVER,
                link=UnreliableLink.wrap(
                    WLAN, outages=OutageSchedule.periodic(period_s=10.0, downtime_s=3.0, duration_s=60.0),
                    loss_probability=0.05,
                ),
                small_model_flops=5.6e9,
                big_model_flops=61.2e9,
                cloud_outages=OutageSchedule(((4.0, 6.0), (24.0, 26.0))),
            )
            fields = dict(
                scheme=collaborative_scheme(),
                mask=np.arange(len(helmet_mini)) % 2 == 0,
                small_detections=small_batch,
                escalation=EscalationPolicy.durable_queue(16),
            )
        garbage = [
            _cyclic_garbage(
                deployment,
                helmet_mini,
                FleetSpec(
                    config=StreamConfig(fps=3.0, duration_s=duration, max_edge_queue=4),
                    cameras=6,
                    detections=big_batch,
                    **fields,
                ),
            )
            for duration in (15.0, 60.0)
        ]
        assert garbage[1] == garbage[0]
