"""``serve_stream`` as it was before a stream became a fleet of one.

A verbatim copy of the stream front door's own engine set-up: one event
loop, one edge/uplink/cloud resource triple and one camera, built here
instead of by :func:`repro.runtime.serving.serve_fleet`.  The per-camera
engine it drives and the shared wiring helpers are imported from the
package, so the oracle pins only the set-up the stream path used to
duplicate (``tests/test_stream_is_fleet.py``).
"""

from __future__ import annotations

import numpy as np

from repro._rng import DEFAULT_SEED, generator_for
from repro.data.datasets import Dataset
from repro.detection.batch import DetectionBatch
from repro.detection.types import Detections
from repro.runtime.control import OffloadController
from repro.runtime.engine import _arrival_times, _camera_reports, _CameraStream, _link_columns
from repro.runtime.events import EventLoop, FifoResource
from repro.runtime.schemes import Deployment, ServingScheme, StreamReport
from repro.runtime.serving import (
    FleetSpec,
    _attach_observers,
    _bulk_refusers,
    _check_stream_inputs,
    _cloud_faults,
    _reset_stateful,
    _uplink_faults,
)


def _resolve_mask(
    scheme: ServingScheme,
    dataset: Dataset,
    small_detections: DetectionBatch | list[Detections] | None,
    mask: np.ndarray | None,
    offload: OffloadController | None,
) -> np.ndarray:
    """The run's static offload mask — all-local placeholder under a controller.

    The spec has already refused a mask paired with a controller.
    """
    if offload is None:
        return scheme.offload_mask(dataset, small_detections, mask)
    return np.zeros(len(dataset), dtype=bool)


def serve_stream(
    deployment: Deployment,
    dataset: Dataset,
    spec: FleetSpec,
    *,
    seed: int = DEFAULT_SEED,
) -> StreamReport:
    """Serve one frame stream described by ``spec`` on a fresh event loop."""
    _reset_stateful(spec.admission, spec.offload)
    detections = _check_stream_inputs(dataset, spec.detections)
    mask = _resolve_mask(spec.scheme, dataset, spec.small_detections, spec.mask, spec.offload)
    loop = EventLoop()
    camera = _CameraStream(
        spec.scheme,
        deployment,
        dataset,
        spec.config,
        mask,
        detections,
        loop=loop,
        edge=FifoResource(loop, "edge"),
        uplink=FifoResource(loop, "uplink", faults=_uplink_faults(deployment.link, seed)),
        cloud=FifoResource(loop, "cloud", faults=_cloud_faults(deployment)),
        admission=spec.admission,
        escalation=spec.escalation,
        escalation_rng=generator_for(seed, "stream-escalation"),
        fallback_detections=_check_stream_inputs(dataset, spec.small_detections),
        offload=spec.offload,
        link=deployment.link,
        link_columns=_link_columns(deployment.codec, dataset, deployment.link),
    )
    _attach_observers(camera)
    (bulk_refusal,) = _bulk_refusers([camera], None)
    camera.schedule(_arrival_times(spec.config, seed, "stream-arrivals"), bulk_refusal=bulk_refusal)
    elapsed = loop.run()
    return _camera_reports([camera], elapsed)[0][0]
