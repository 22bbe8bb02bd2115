"""Serving front door: describe a run as a spec, get a report back.

The specs (:class:`FleetSpec`, with per-camera :class:`CameraSpec`
overrides), the :class:`FleetReport`, and the wiring that puts cameras,
shared resources and policies onto one event loop.  The policies, schemes
and per-camera engine they assemble live in :mod:`repro.runtime.policies`,
:mod:`repro.runtime.schemes` and :mod:`repro.runtime.engine`.

:func:`serve_fleet` serves N camera streams, each with its own edge
accelerator, contending for one shared uplink and one shared cloud GPU.
A stream is a fleet of one: a one-camera :class:`FleetSpec`, whose
``report.cameras[0]`` is the stream's :class:`StreamReport`.  Its arrivals
and escalation backoff draw from the stream seed scopes; every camera of a
larger fleet draws from its own fleet scopes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from repro._rng import DEFAULT_SEED, generator_for
from repro.data.datasets import Dataset
from repro.detection.batch import DetectionBatch
from repro.detection.types import Detections
from repro.errors import ConfigurationError, RuntimeModelError
from repro.metrics.latency import LatencySummary, summarize_latencies
from repro.runtime.control import CameraView, FleetController, FrameEvent, OffloadController
from repro.runtime.engine import (
    _arrival_times,
    _camera_link,
    _camera_reports,
    _CameraStream,
    _link_columns,
    _LinkColumns,
    _Served,
)
from repro.runtime.events import EventLoop, FifoResource
from repro.runtime.network import NetworkLink, RateSchedule, UnreliableLink
from repro.runtime.policies import (
    AdmissionPolicy,
    DropNewest,  # noqa: F401 - perfbench/ imports this name from here
    EscalationPolicy,
)
from repro.runtime.schemes import (
    Deployment,
    ServingScheme,
    StreamConfig,
    StreamReport,
    cloud_only_scheme,  # noqa: F401 - perfbench/ imports this name from here
    collaborative_scheme,  # noqa: F401 - perfbench/ imports this name from here
)
from repro.runtime.trace import FrameTrace

__all__ = [
    "CameraSpec",
    "FleetReport",
    "FleetSpec",
    "serve_fleet",
    "simulate_fleet",
]


@dataclass(frozen=True)
class FleetReport:
    """Outcome of one multi-camera fleet run.

    ``cameras`` holds one :class:`StreamReport` per camera (each with its
    own edge accelerator); the uplink/cloud utilizations are those of the
    *shared* resources, identical across cameras.  The fleet-level latency
    summary aggregates every served frame across cameras.
    """

    scheme: str
    cameras: tuple[StreamReport, ...]
    latency: LatencySummary
    frames_offered: int
    frames_served: int
    frames_dropped: int
    frames_uploaded: int
    edge_utilization: float
    uplink_utilization: float
    cloud_utilization: float
    frames_shed: int = 0
    escalations_failed: int = 0
    escalations_dropped: int = 0
    escalations_recovered: int = 0
    # What serve_fleet gathered once the loop drained (the fleet batch and
    # its source rows); outside == and repr, like the cached views below.
    _gathered: _Served | None = field(default=None, compare=False, repr=False)

    @property
    def drop_rate(self) -> float:
        """Fraction of offered frames dropped fleet-wide."""
        if self.frames_offered == 0:
            return 0.0
        return self.frames_dropped / self.frames_offered

    @property
    def upload_ratio(self) -> float:
        """Fraction of served frames that crossed the shared uplink."""
        if self.frames_served == 0:
            return 0.0
        return self.frames_uploaded / self.frames_served

    def _logged_cameras(self) -> tuple[StreamReport, ...]:
        """The camera reports, each checked to carry its trace and served batch."""
        for index, camera in enumerate(self.cameras):
            if camera.trace is None or camera.served is None:
                raise ConfigurationError(
                    f"fleet camera {index} carries no frame trace; serve with detections= to record one"
                )
        return self.cameras

    def trace(self) -> FrameTrace:
        """The fleet-level columnar frame trace (all cameras, concatenated).

        Each camera's served-batch segments are shifted by its offset in
        :meth:`served`, so the fleet trace indexes that batch directly.
        Requires the run to have been served with ``detections=`` (every
        camera keeps a trace then).  Built on first use, then reused.
        """
        return self._trace

    def served(self) -> DetectionBatch:
        """Every camera's served batch, concatenated in camera order.

        The batch :meth:`trace`'s segments index; same requirement, and
        likewise built once.  A fleet whose cameras share one detection
        source serves slices of one gathered batch, which is this batch.
        """
        return self._served

    def served_sources(self) -> np.ndarray:
        """For each segment of :meth:`served`, the source row it was gathered from.

        Segments with equal source rows hold the same detections of the
        same record.  Rows are numbered fleet-wide: each distinct
        ``(detections, small_detections)`` pair the cameras served from
        takes the next block, its detection rows then its edge-fallback
        rows.  A report not built by :func:`serve_fleet` numbers every
        segment as its own source.
        """
        return self._sources

    # Cached outside the dataclass fields, so neither enters == or repr.
    @cached_property
    def _trace(self) -> FrameTrace:
        cameras = self._logged_cameras()
        sizes = [len(camera.served) for camera in cameras]
        offsets = np.cumsum(sizes) - sizes
        return FrameTrace.concat([camera.trace for camera in cameras], segment_offsets=offsets)

    @cached_property
    def _served(self) -> DetectionBatch:
        cameras = self._logged_cameras()
        if self._gathered is not None and self._gathered.fleet is not None:
            return self._gathered.fleet
        return DetectionBatch.concat([camera.served for camera in cameras])

    @cached_property
    def _sources(self) -> np.ndarray:
        served = self._served
        if self._gathered is not None and self._gathered.sources is not None:
            return self._gathered.sources
        return np.arange(len(served), dtype=np.int64)

    def latency_percentiles(self, percentiles: Sequence[float] = (50.0, 95.0, 99.0)) -> dict[float, float]:
        """Fleet-wide per-frame latency percentiles (from the columnar trace)."""
        return self.trace().latency_percentiles(percentiles)


def _check_stream_inputs(
    dataset: Dataset,
    detections: DetectionBatch | list[Detections] | None,
) -> DetectionBatch | None:
    if len(dataset) == 0:
        raise RuntimeModelError("cannot stream an empty dataset")
    if detections is None:
        return None
    if len(detections) != len(dataset):
        raise RuntimeModelError("detections misaligned with dataset")
    return DetectionBatch.coerce(detections)


def _uplink_faults(
    link: NetworkLink, seed: int
) -> Callable[[float, float], tuple[float, bool]] | None:
    """The uplink resource's fault hook — ``None`` for a link that cannot fail.

    An :class:`UnreliableLink` with an all-up schedule and zero loss gets no
    hook either, so it runs the exact reliable-link code path.
    """
    if not isinstance(link, UnreliableLink):
        return None
    if not link.outages.windows and link.loss_probability == 0.0:
        return None
    return link.fault_model(generator_for(seed, "uplink-faults"))


def _cloud_faults(
    deployment: Deployment,
) -> Callable[[float, float], tuple[float, bool]] | None:
    """The cloud GPU resource's fault hook — ``None`` for an always-up cloud.

    Deterministic (scheduled windows only, no loss draw), mirroring the
    zero-overhead rule of :func:`_uplink_faults`: a ``None`` or empty
    schedule gets no hook and runs the exact pre-outage code path.
    """
    outages = deployment.cloud_outages
    if outages is None or not outages.windows:
        return None

    def outcome(start: float, duration: float) -> tuple[float, bool]:
        failure = outages.failure_instant(start, duration)
        if failure is not None:
            return failure - start, False
        return duration, True

    return outcome


def _check_spec_mask(
    owner: str,
    mask: np.ndarray | None,
    offload: OffloadController | None,
    detections: DetectionBatch | list[Detections] | None,
    small_detections: DetectionBatch | list[Detections] | None,
) -> None:
    """Fail fast on a spec's explicit mask, at construction.

    The mask must not come with an offload controller, must be 1-D, and
    must have one entry per record of the spec's own (small) detections.
    Its alignment with the dataset is checked when the run resolves it.
    """
    if mask is None:
        return
    if offload is not None:
        raise ConfigurationError(
            f"{owner}: an explicit mask and an offload controller are mutually exclusive: "
            "the mask decides escalations up front, the controller per frame"
        )
    shape = np.shape(mask)
    if len(shape) != 1:
        raise ConfigurationError(f"{owner}: mask must be 1-D, got shape {shape}")
    for name, batch in (("detections", detections), ("small_detections", small_detections)):
        if batch is not None and len(batch) != shape[0]:
            raise ConfigurationError(f"{owner}: mask has {shape[0]} entries but {name} has {len(batch)}")


def _reset_stateful(*participants: object) -> None:
    """Call ``reset()`` once per distinct stateful run participant.

    Every engine entry point runs this over the admission policies, offload
    controllers and fleet controller it was handed, so re-running a spec
    never silently reuses stale estimator state.  Stateless participants
    (no ``reset`` attribute) cost one ``getattr`` each.
    """
    seen: set[int] = set()
    for participant in participants:
        if participant is None or id(participant) in seen:
            continue
        seen.add(id(participant))
        reset = getattr(participant, "reset", None)
        if reset is not None:
            reset()


def _attach_observers(
    camera: _CameraStream,
    controller_observe: Callable[[CameraView, FrameEvent], None] | None = None,
) -> None:
    """Assemble the camera's completion-event observer chain.

    Order: admission policy, offload controller, fleet controller.  The
    hooks are structural (``observe`` is optional on every protocol, and
    ``None`` when a participant has nothing to observe this run), and a
    camera whose participants define none keeps ``observers == ()`` — the
    flag the hot path checks before constructing any :class:`FrameEvent`.
    """
    observers: list[Callable[[_CameraStream, FrameEvent], None]] = []
    for source in (camera.admission, camera.offload):
        observe = getattr(source, "observe", None) if source is not None else None
        if observe is not None:
            observers.append(observe)
    if controller_observe is not None:
        observers.append(controller_observe)
    camera.observers = tuple(observers)


def _occupancy_only(admission: AdmissionPolicy) -> bool:
    return getattr(admission, "occupancy_only", False) is True


def _bulk_refusers(cameras: Sequence[_CameraStream], controller: FleetController | None) -> list[bool]:
    """Which cameras may refuse a full buffer's arrivals in bulk (exactly).

    A camera qualifies when its admission policy is ``occupancy_only`` and
    nothing can cancel a job in its entry stage once the run starts: no
    fleet controller, no offload controller on the camera (either holds
    the :class:`CameraView` shedding surface), and — when the entry stage
    is the shared uplink — no camera entering there with a policy that may
    shed.  Whether the entry stage's completions are projectable (no fault
    hook, no deferred-cost job ahead) is checked as each full buffer
    occurs, by :meth:`FifoResource.completion_of`; while they are not, the
    camera refuses its arrivals one at a time.
    """
    if controller is not None:
        return [False] * len(cameras)
    uplink_sheds = any(not camera.scheme.edge_compute and not _occupancy_only(camera.admission) for camera in cameras)
    return [
        _occupancy_only(camera.admission)
        and camera.offload is None
        and (camera.scheme.edge_compute or not uplink_sheds)
        for camera in cameras
    ]


@dataclass(frozen=True)
class CameraSpec:
    """Per-camera overrides for one :func:`serve_fleet` camera.

    Every field defaults to "inherit the fleet-level argument", so
    ``CameraSpec()`` describes a camera identical to the homogeneous case.
    A heterogeneous fleet mixes frame rates (per-camera ``config``),
    serving schemes/offload policies (``scheme``), admission control
    (``admission``) and imagery (``dataset`` — e.g. a night camera's
    degraded records via :meth:`repro.data.datasets.Dataset.with_degradation`
    — with the served ``detections``/``small_detections`` that match it).

    A camera that overrides ``dataset`` must bring its own ``detections``
    (and ``small_detections`` / ``mask`` when its scheme needs them): the
    fleet-level ones describe the fleet-level records.

    ``link_scale`` is a *dimensionless* :class:`RateSchedule` modulating
    the shared uplink's rate for this camera only — a moving camera whose
    radio quality co-varies with its position.  The camera's transfers see
    the link schedule (constant when the link is scalar) multiplied
    pointwise by the profile; the link itself, and every other camera,
    is untouched.
    """

    scheme: ServingScheme | None = None
    config: StreamConfig | None = None
    admission: AdmissionPolicy | None = None
    escalation: EscalationPolicy | None = None
    dataset: Dataset | None = None
    mask: np.ndarray | None = None
    small_detections: DetectionBatch | list[Detections] | None = None
    detections: DetectionBatch | None = None
    offload: OffloadController | None = None
    link_scale: RateSchedule | None = None

    def __post_init__(self) -> None:
        _check_spec_mask("CameraSpec", self.mask, self.offload, self.detections, self.small_detections)


@dataclass(frozen=True, eq=False)
class FleetSpec:
    """Everything one fleet run serves, minus deployment/dataset/seed.

    ``cameras`` is a count (homogeneous fleet) or a sequence of
    :class:`CameraSpec` whose unset fields inherit the fleet-level fields;
    one camera describes a single stream.  ``controller`` attaches an optional
    :class:`~repro.runtime.control.FleetController` that sees every camera
    on the shared event loop (coordinated shedding across the shared
    uplink).  :func:`serve_fleet` is the front door; :func:`simulate_fleet`
    survives as a thin wrapper that builds a spec, so both paths are the
    same code and stay bit-for-bit identical.
    """

    scheme: ServingScheme
    config: StreamConfig = field(default_factory=StreamConfig)
    cameras: int | Sequence[CameraSpec] = 1
    mask: np.ndarray | None = None
    small_detections: DetectionBatch | list[Detections] | None = None
    detections: DetectionBatch | None = None
    admission: AdmissionPolicy | None = None
    escalation: EscalationPolicy | None = None
    offload: OffloadController | None = None
    controller: FleetController | None = None

    def __post_init__(self) -> None:
        cameras = self.cameras
        count = isinstance(cameras, int) and not isinstance(cameras, bool)
        if not count and not (isinstance(cameras, Sequence) and all(isinstance(c, CameraSpec) for c in cameras)):
            raise ConfigurationError(f"cameras must be a count or a sequence of CameraSpec, got {cameras!r}")
        if (cameras if count else len(cameras)) < 1:
            raise ConfigurationError(f"a fleet needs at least one camera, got {cameras!r}")
        _check_spec_mask("FleetSpec", self.mask, self.offload, self.detections, self.small_detections)


def serve_fleet(
    deployment: Deployment,
    dataset: Dataset,
    spec: FleetSpec,
    *,
    seed: int = DEFAULT_SEED,
) -> FleetReport:
    """Serve a camera fleet described by ``spec`` contending for one deployment.

    Each camera owns an edge accelerator (cameras are independent devices)
    but every upload serialises through the *single* shared uplink and the
    *single* shared cloud GPU — the contention that decides whether a scheme
    scales to a fleet.  Camera ``c`` starts its cycle through the records at
    offset ``c * len(records) // cameras`` so the fleet covers the split
    rather than synchronising on the same frames; arrivals are seeded per
    camera, so runs are deterministic for any camera count.

    ``spec.cameras`` is either a count (a homogeneous fleet of identical
    cameras) or a sequence of :class:`CameraSpec`, one per camera, whose
    unset fields inherit the fleet-level spec fields — mixed frame rates,
    per-camera schemes/offload policies, admission policies and per-camera
    (e.g. quality-drifted) records all run over the same shared uplink and
    cloud GPU.  ``spec.controller`` attaches a fleet controller that
    observes every camera's completions and can shed across cameras;
    stateful participants are ``reset()`` at entry so specs are reusable.

    A one-camera fleet is a single stream: its arrivals and escalation
    backoff draw from the stream scopes (``"stream-arrivals"``,
    ``"stream-escalation"``), where camera ``c`` of a larger fleet draws
    from ``("fleet-arrivals", c)`` and ``("fleet-escalation", c)``.  The
    backoff generator is drawn only for a camera that can spool: its
    escalation policy is durable and the uplink or cloud can fail.
    """
    scheme = spec.scheme
    config = spec.config
    mask = spec.mask
    small_detections = spec.small_detections
    admission = spec.admission
    escalation = spec.escalation
    controller = spec.controller
    if isinstance(spec.cameras, int):
        specs: Sequence[CameraSpec] = (CameraSpec(),) * spec.cameras
    else:
        specs = tuple(spec.cameras)
    _reset_stateful(
        admission,
        spec.offload,
        controller,
        *(cam.admission for cam in specs),
        *(cam.offload for cam in specs),
    )
    detections = _check_stream_inputs(dataset, spec.detections)
    # The fleet-level mask is resolved once and shared by every camera that
    # inherits it, so expensive policies run select() exactly once.
    shared_mask: np.ndarray | None = None

    def fleet_mask() -> np.ndarray:
        nonlocal shared_mask
        if shared_mask is None:
            shared_mask = scheme.offload_mask(dataset, small_detections, mask)
        return shared_mask

    # Likewise the fleet-level small detections (the edge-fallback verdicts
    # under failure injection) are coerced once and shared.
    shared_fallback: DetectionBatch | None = None
    shared_fallback_resolved = False

    def fleet_fallback() -> DetectionBatch | None:
        nonlocal shared_fallback, shared_fallback_resolved
        if not shared_fallback_resolved:
            shared_fallback = _check_stream_inputs(dataset, small_detections)
            shared_fallback_resolved = True
        return shared_fallback

    loop = EventLoop()
    uplink = FifoResource(loop, "uplink", faults=_uplink_faults(deployment.link, seed))
    cloud = FifoResource(loop, "cloud", faults=_cloud_faults(deployment))
    controller_observe = getattr(controller, "observe", None) if controller is not None else None
    can_fail = uplink.can_fail or cloud.can_fail
    # Each record's upload figures depend only on its dataset and the
    # camera's link view, so they are built once per distinct pair.
    link_columns: dict[tuple[int, float, float], _LinkColumns] = {}
    horizon_s = 0.0
    runs: list[_CameraStream] = []
    arrivals: list[np.ndarray] = []
    for camera, cam in enumerate(specs):
        if len(specs) == 1:
            arrival_scope, escalation_scope = ("stream-arrivals",), ("stream-escalation",)
        else:
            arrival_scope, escalation_scope = ("fleet-arrivals", camera), ("fleet-escalation", camera)
        cam_scheme = scheme if cam.scheme is None else cam.scheme
        cam_config = config if cam.config is None else cam.config
        cam_admission = admission if cam.admission is None else cam.admission
        cam_escalation = escalation if cam.escalation is None else cam.escalation
        cam_offload = spec.offload if cam.offload is None else cam.offload
        if cam.dataset is None:
            cam_dataset = dataset
            cam_detections = detections if cam.detections is None else _check_stream_inputs(dataset, cam.detections)
        else:
            cam_dataset = cam.dataset
            if cam.detections is None and detections is not None:
                raise RuntimeModelError(
                    f"camera {camera} overrides the dataset; supply its own detections "
                    "(the fleet-level ones describe the fleet-level records)"
                )
            cam_detections = _check_stream_inputs(cam_dataset, cam.detections)
        if cam_offload is not None:
            # A controller replaces the static mask: the camera's mask is an
            # all-local placeholder and the controller decides per frame.
            # (The specs refused a mask next to a controller at their own
            # level; only a camera mask under the fleet's controller is left.)
            if cam.mask is not None:
                raise ConfigurationError(
                    f"camera {camera} has both a mask and an offload controller; "
                    "the mask decides escalations up front, the controller per frame"
                )
            cam_mask = np.zeros(len(cam_dataset), dtype=bool)
        elif cam.scheme is None and cam.dataset is None and cam.mask is None and cam.small_detections is None:
            cam_mask = fleet_mask()
        else:
            # The fleet-level mask/small-detections describe the fleet-level
            # scheme over the fleet-level records; a camera that overrides
            # either resolves its own (its scheme's policy decides unless
            # the spec pins a mask).
            cam_small = cam.small_detections
            if cam_small is None and cam.dataset is None:
                cam_small = small_detections
            cam_mask_input = cam.mask
            if cam_mask_input is None and cam.scheme is None and cam.dataset is None:
                cam_mask_input = mask
            cam_mask = cam_scheme.offload_mask(cam_dataset, cam_small, cam_mask_input)
        if cam.small_detections is None and cam.dataset is None:
            cam_fallback = fleet_fallback()
        else:
            cam_fallback = _check_stream_inputs(cam_dataset, cam.small_detections)
        cam_link = _camera_link(deployment.link, cam.link_scale)
        view = (id(cam_dataset), cam_link.rtt_s, cam_link.bandwidth_mbps)
        columns = link_columns.get(view)
        if columns is None:
            columns = link_columns[view] = _link_columns(deployment.codec, cam_dataset, cam_link)
        # Only a camera that may spool failed escalations draws backoff jitter;
        # each scope is seeded on its own, so skipping one moves no other draw.
        spools = can_fail and cam_escalation is not None and cam_escalation.durable
        stream = _CameraStream(
            cam_scheme,
            deployment,
            cam_dataset,
            cam_config,
            cam_mask,
            cam_detections,
            loop=loop,
            edge=FifoResource(loop, f"edge-{camera}"),
            uplink=uplink,
            cloud=cloud,
            record_offset=(camera * len(cam_dataset)) // len(specs),
            admission=cam_admission,
            escalation=cam_escalation,
            escalation_rng=generator_for(seed, *escalation_scope) if spools else None,
            fallback_detections=cam_fallback,
            offload=cam_offload,
            link=cam_link,
            link_columns=columns,
        )
        _attach_observers(stream, controller_observe)
        arrivals.append(_arrival_times(cam_config, seed, *arrival_scope))
        horizon_s = max(horizon_s, cam_config.duration_s)
        runs.append(stream)
    # nothing touches the loop while the cameras are built, so scheduling
    # the series afterwards, in camera order, reserves the same keys
    for stream, times, bulk_refusal in zip(runs, arrivals, _bulk_refusers(runs, controller)):
        stream.schedule(times, bulk_refusal=bulk_refusal)
    if controller is not None:
        controller.attach(loop, runs, horizon_s=horizon_s)
    elapsed = loop.run()
    reports, served = _camera_reports(runs, elapsed)
    all_latencies = [latency for stream in runs for latency in stream.latencies]
    names = {report.scheme for report in reports}
    return FleetReport(
        scheme=names.pop() if len(names) == 1 else "mixed",
        cameras=reports,
        latency=summarize_latencies(all_latencies),
        frames_offered=sum(report.frames_offered for report in reports),
        frames_served=sum(report.frames_served for report in reports),
        frames_dropped=sum(report.frames_dropped for report in reports),
        frames_uploaded=sum(report.frames_uploaded for report in reports),
        frames_shed=sum(report.frames_shed for report in reports),
        escalations_failed=sum(report.escalations_failed for report in reports),
        escalations_dropped=sum(report.escalations_dropped for report in reports),
        escalations_recovered=sum(report.escalations_recovered for report in reports),
        edge_utilization=float(np.mean([report.edge_utilization for report in reports])),
        uplink_utilization=uplink.utilization(elapsed),
        cloud_utilization=cloud.utilization(elapsed),
        _gathered=served,
    )


def simulate_fleet(
    scheme: ServingScheme,
    deployment: Deployment,
    dataset: Dataset,
    config: StreamConfig,
    *,
    cameras: int | Sequence[CameraSpec],
    mask: np.ndarray | None = None,
    small_detections: DetectionBatch | list[Detections] | None = None,
    detections: DetectionBatch | None = None,
    admission: AdmissionPolicy | None = None,
    escalation: EscalationPolicy | None = None,
    offload: OffloadController | None = None,
    controller: FleetController | None = None,
    seed: int = DEFAULT_SEED,
) -> FleetReport:
    """Legacy keyword front door — builds a :class:`FleetSpec` and defers.

    Identical to :func:`serve_fleet` (same code path, bit for bit); see
    there for semantics.  New code should build specs directly.
    """
    return serve_fleet(
        deployment,
        dataset,
        FleetSpec(
            scheme=scheme,
            config=config,
            cameras=cameras,
            mask=mask,
            small_detections=small_detections,
            detections=detections,
            admission=admission,
            escalation=escalation,
            offload=offload,
            controller=controller,
        ),
        seed=seed,
    )
