"""Golden digests of the completion events a fleet run emits.

A recording observer is appended to every camera's observer chain; it sees
each :class:`~repro.runtime.control.FrameEvent` in emission order.  One
sha256 per spec is taken over that stream: the camera index, ``kind``,
``offloaded``, ``record_index`` and ``float.hex`` of every time field, so
a refactor of the serving engine that moves any event, or any bit of its
timing, fails here.  ``tests/golden/frame_events.json`` holds the digests
and the event counts.

The specs cover every way a frame can end: a local serve and a cloud
serve under a static mask, a cloud-only entry stage on a time-varying
link (the entry time is the duration resolved at grant), per-frame
offload decisions under an :class:`~repro.runtime.control.AdaptiveQuota`,
and uplink outages, loss and cloud faults with a
durable escalation queue (``"failed"`` events, fallback serves and late
recoveries).

Regenerate (only when a change is *meant* to move an event) with::

    PYTHONPATH=src python tests/test_frame_event_digests.py
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from repro.core.discriminator import DifficultCaseDiscriminator
from repro.data import load_dataset
from repro.detection import DetectionBatch
from repro.runtime import (
    JETSON_NANO,
    RTX3060_SERVER,
    WLAN,
    AdaptiveQuota,
    CameraSpec,
    Deployment,
    EscalationPolicy,
    EstimatedDeadlineAware,
    FleetSpec,
    OutageSchedule,
    StreamConfig,
    UnreliableLink,
    cloud_only_scheme,
    collaborative_scheme,
    serve_fleet,
)
from repro.runtime import serving
from repro.runtime.traces import bundled_trace
from repro.simulate import make_detector

GOLDEN = Path(__file__).parent / "golden" / "frame_events.json"

_TIME_FIELDS = ("arrival", "completion", "queue_wait", "entry_time")

SPECS = (
    "collaborative-mask-wlan",
    "cloud-only-lte",
    "collaborative-mask-lte-mobility",
    "adaptive-quota",
    "collaborative-durable-faults",
    "cloud-only-durable-faults",
)


def _deployment(link=WLAN, cloud_outages: OutageSchedule | None = None) -> Deployment:
    return Deployment(
        edge=JETSON_NANO,
        cloud=RTX3060_SERVER,
        link=link,
        small_model_flops=5.6e9,
        big_model_flops=61.2e9,
        cloud_outages=cloud_outages,
    )


def _faulty_deployment() -> Deployment:
    link = UnreliableLink.wrap(
        WLAN,
        outages=OutageSchedule.periodic(period_s=10.0, downtime_s=3.0, duration_s=40.0),
        loss_probability=0.05,
    )
    return _deployment(link, OutageSchedule(((4.0, 6.0), (24.0, 26.0))))


def _run(name: str, dataset, small_batch: DetectionBatch, big_batch: DetectionBatch):
    """Serve the named spec; returns its report."""
    mask = np.arange(len(dataset)) % 3 == 0
    config = StreamConfig(fps=1.5, poisson=True, duration_s=40.0, max_edge_queue=6)
    lte = WLAN.with_rate_schedule(bundled_trace("lte_like"))
    if name == "collaborative-mask-wlan":
        deployment = _deployment()
        spec = FleetSpec(
            scheme=collaborative_scheme(),
            config=config,
            cameras=4,
            mask=mask,
            small_detections=small_batch,
            detections=big_batch,
        )
    elif name == "cloud-only-lte":
        deployment = _deployment(lte)
        spec = FleetSpec(
            scheme=cloud_only_scheme(),
            config=config,
            cameras=4,
            detections=big_batch,
            admission=EstimatedDeadlineAware(freshness_s=2.0),
        )
    elif name == "collaborative-mask-lte-mobility":
        deployment = _deployment(lte)
        spec = FleetSpec(
            scheme=collaborative_scheme(),
            config=config,
            cameras=(CameraSpec(), CameraSpec(link_scale=bundled_trace("mobility_scale"))),
            mask=mask,
            small_detections=small_batch,
            detections=big_batch,
        )
    elif name == "adaptive-quota":
        deployment = _deployment()
        discriminator = DifficultCaseDiscriminator(confidence_threshold=0.25, count_threshold=1, area_threshold=0.1)
        quota = AdaptiveQuota(discriminator, small_batch, 0.3)
        spec = FleetSpec(
            scheme=collaborative_scheme(),
            config=config,
            cameras=4,
            small_detections=small_batch,
            detections=big_batch,
            offload=quota,
        )
    elif name == "collaborative-durable-faults":
        deployment = _faulty_deployment()
        spec = FleetSpec(
            scheme=collaborative_scheme(),
            config=config,
            cameras=4,
            mask=np.arange(len(dataset)) % 2 == 0,
            small_detections=small_batch,
            detections=big_batch,
            escalation=EscalationPolicy.durable_queue(8),
        )
    elif name == "cloud-only-durable-faults":
        deployment = _faulty_deployment()
        spec = FleetSpec(
            scheme=cloud_only_scheme(),
            config=config,
            cameras=3,
            detections=big_batch,
            escalation=EscalationPolicy.durable_queue(8),
        )
    else:  # pragma: no cover - the names are fixed above
        raise KeyError(name)
    return serve_fleet(deployment, dataset, spec, seed=7)


@contextmanager
def _recording(events: list):
    """Append a recorder to every camera's observer chain while serving."""
    attach = serving._attach_observers

    def recording_attach(camera, controller_observe=None):
        attach(camera, controller_observe)
        index = recording_attach.cameras
        recording_attach.cameras += 1
        camera.observers = (*camera.observers, lambda _camera, event: events.append((index, event)))

    recording_attach.cameras = 0
    serving._attach_observers = recording_attach
    try:
        yield
    finally:
        serving._attach_observers = attach


def event_digest(events: list) -> dict[str, object]:
    """sha256 over the ordered ``(camera, FrameEvent)`` stream, plus counts."""
    digest = hashlib.sha256()
    kinds: dict[str, int] = {}
    for camera, event in events:
        times = " ".join(float.hex(getattr(event, field)) for field in _TIME_FIELDS)
        digest.update(f"{camera} {event.kind} {event.offloaded:d} {event.record_index} {times}\n".encode())
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
    return {"sha256": digest.hexdigest(), "events": dict(sorted(kinds.items()))}


def frame_event_digests(name: str, dataset, small_batch, big_batch) -> tuple[dict[str, object], object]:
    """The named spec's event digest and the report its run returned."""
    events: list = []
    with _recording(events):
        report = _run(name, dataset, small_batch, big_batch)
    return event_digest(events), report


def _inputs():
    dataset = load_dataset("helmet", "test", fraction=0.08)
    small = DetectionBatch.coerce(make_detector("small1", "helmet").detect_split(dataset))
    big = DetectionBatch.coerce(make_detector("ssd", "helmet").detect_split(dataset))
    return dataset, small, big


@pytest.fixture(scope="module")
def inputs():
    return _inputs()


@pytest.mark.parametrize("name", SPECS)
def test_frame_events_match_golden_digest(inputs, name):
    expected = json.loads(GOLDEN.read_text())[name]
    digest, report = frame_event_digests(name, *inputs)
    assert digest == expected
    # the recorder is passive: the run is the one an unobserved serve gives
    assert report == _run(name, *inputs)


def test_specs_reach_every_event_kind():
    golden = json.loads(GOLDEN.read_text())
    assert set(golden) == set(SPECS)
    assert golden["collaborative-durable-faults"]["events"].get("failed", 0) > 0
    assert golden["cloud-only-durable-faults"]["events"].get("failed", 0) > 0


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    shared = _inputs()
    digests = {name: frame_event_digests(name, *shared)[0] for name in SPECS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
