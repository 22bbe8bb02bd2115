"""The unified serving-scheme pipeline.

Every way this repository serves detections over an edge-cloud deployment is
one composition of the same four pipeline stages — edge compute, uplink
transfer, cloud compute, downlink transfer — differing only in *which frames
escalate to the cloud*.  This module makes that structure explicit:

* :class:`OffloadPolicy` — the per-frame escalation decision as a structural
  protocol.  The difficult-case discriminator (the paper's contribution),
  the Sec. VI.E baselines (random / blur / top-1 confidence) and the
  degenerate always/never decisions (cloud-only / edge-only) are all
  interchangeable instances.
* :class:`ServingScheme` — a named pipeline shape (does the frame pass the
  edge accelerator? does the discriminator run there?) plus a policy.  The
  paper's three schemes are :func:`edge_only_scheme`,
  :func:`cloud_only_scheme` and :func:`collaborative_scheme`.
* Two engines over the same schemes: :func:`run_cost` reproduces the static
  Table XI accounting (one latency per frame, no contention) and
  :func:`serve_stream` the discrete-event queueing simulation
  (:mod:`repro.runtime.events`) of one stream described by a
  :class:`StreamSpec`.  Both are bit-for-bit identical to the per-scheme
  code they replaced (``tests/test_serving_equivalence.py``).
* :func:`serve_fleet` — the workload the per-scheme code could not
  express: N camera streams (a :class:`FleetSpec`), each with its own edge
  accelerator, contending for one shared uplink and one shared cloud GPU on
  a single event loop.

One modelling note, inherited from the pre-refactor implementations: in the
*static* accounting the edge-only scheme pays the bare small-model latency
(Table XI's definition), while the *streaming* engine always fuses the
discriminator into the edge service time whenever the edge stage runs — an
online deployment ships one edge binary and the discriminator's cost does
not depend on whether its verdict is used.  :meth:`ServingScheme.edge_latency`
takes ``online`` to select between the two readings.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence, runtime_checkable

import numpy as np

from repro._rng import DEFAULT_SEED, generator_for
from repro.data.datasets import Dataset, ImageRecord
from repro.detection.batch import DetectionBatch
from repro.detection.types import Detections
from repro.errors import ConfigurationError, RuntimeModelError
from repro.metrics.latency import LatencySummary, summarize_latencies
from repro.runtime.codec import JpegCodec, detections_payload_bytes
from repro.runtime.control import CameraView, FleetController, FrameEvent, OffloadController
from repro.runtime.devices import ComputeDevice
from repro.runtime.events import EventLoop, FifoResource
from repro.runtime.network import NetworkLink, OutageSchedule, RateSchedule, UnreliableLink
from repro.runtime.trace import FrameTrace, FrameTraceBuilder

__all__ = [
    "DISCRIMINATOR_FLOPS",
    "RESULT_BOXES",
    "AdmissionPolicy",
    "AlwaysOffload",
    "CameraSpec",
    "DeadlineAware",
    "Deployment",
    "DropNewest",
    "DropOldest",
    "EscalationPolicy",
    "EscalationQueue",
    "FleetReport",
    "FleetSpec",
    "NeverOffload",
    "OffloadPolicy",
    "RunCost",
    "ServingScheme",
    "StreamConfig",
    "StreamReport",
    "StreamSpec",
    "cloud_only_scheme",
    "cloud_round_trip_time",
    "collaborative_scheme",
    "edge_compute_time",
    "edge_only_scheme",
    "paper_schemes",
    "run_cost",
    "serve_fleet",
    "serve_stream",
    "simulate_fleet",
]

#: FLOPs of the threshold-based difficult-case discriminator.  It compares a
#: few dozen scores against thresholds — negligible next to any CNN, but
#: accounted for honesty.
DISCRIMINATOR_FLOPS = 2.0e4

#: Detection boxes assumed per returned result payload.
RESULT_BOXES = 8


# --------------------------------------------------------------------- #
# deployment description + per-run cost container
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Deployment:
    """Hardware/network description of one deployment.

    ``cloud_outages`` schedules *cloud-side* down windows — the GPU service
    itself (maintenance, preemption), distinct from link outages, which live
    on an :class:`UnreliableLink`.  A frame whose cloud inference hits a
    down window fails through the same :class:`EscalationPolicy` machinery
    as an uplink failure; ``None`` (the default) is the always-up cloud and
    keeps the exact pre-outage code path.
    """

    edge: ComputeDevice
    cloud: ComputeDevice
    link: NetworkLink
    codec: JpegCodec = field(default_factory=JpegCodec)
    small_model_flops: float = 6.3e9
    big_model_flops: float = 62.7e9
    cloud_outages: OutageSchedule | None = None

    def __post_init__(self) -> None:
        if self.small_model_flops <= 0 or self.big_model_flops <= 0:
            raise RuntimeModelError("model FLOPs must be positive")


@dataclass(frozen=True)
class RunCost:
    """Aggregate cost of serving one split under one scheme."""

    latency: LatencySummary
    uploaded_images: int
    total_images: int
    uplink_bytes: int
    downlink_bytes: int

    @property
    def upload_ratio(self) -> float:
        """Fraction of images sent to the cloud."""
        if self.total_images == 0:
            return 0.0
        return self.uploaded_images / self.total_images

    def bandwidth_saving_over(self, other: "RunCost") -> float:
        """Fractional uplink bytes saved relative to ``other``.

        Undefined when ``other`` uploaded zero bytes — there is no saving
        "over" a free baseline (and claiming ``0.0`` would paint a run that
        uploaded plenty as break-even) — so the degenerate case returns
        ``nan``, which propagates instead of masquerading as a result.
        """
        if other.uplink_bytes == 0:
            return float("nan")
        return 1.0 - self.uplink_bytes / other.uplink_bytes


# --------------------------------------------------------------------- #
# per-frame stage arithmetic (the once-triplicated core)
# --------------------------------------------------------------------- #
def edge_compute_time(deployment: Deployment, *, discriminate: bool) -> float:
    """Edge-stage service time: the small model, plus the discriminator."""
    latency = deployment.edge.inference_latency(deployment.small_model_flops)
    if discriminate:
        latency += deployment.edge.inference_latency(DISCRIMINATOR_FLOPS)
    return latency


def cloud_round_trip_time(
    deployment: Deployment,
    record: ImageRecord,
    rng: np.random.Generator | None = None,
    *,
    result_boxes: int = RESULT_BOXES,
) -> float:
    """Upload one frame, run the big model, return the results.

    ``rng`` (when given) jitters both transfers — the upload first, then the
    download, so the draw order is stable across engines.  Without an RNG
    the round trip is the deterministic jitter-free figure
    (:meth:`NetworkLink.expected_transfer_time`) — what the streaming engine
    charges per stage.
    """
    dep = deployment
    compute = dep.cloud.inference_latency(dep.big_model_flops)
    if rng is None:
        return (
            dep.link.expected_transfer_time(dep.codec.encoded_bytes(record))
            + compute
            + dep.link.expected_transfer_time(detections_payload_bytes(result_boxes))
        )
    return (
        dep.link.transfer_time(dep.codec.encoded_bytes(record), rng)
        + compute
        + dep.link.transfer_time(detections_payload_bytes(result_boxes), rng)
    )


# --------------------------------------------------------------------- #
# the offload decision
# --------------------------------------------------------------------- #
@runtime_checkable
class OffloadPolicy(Protocol):
    """Decides which frames of a split escalate from the edge to the cloud.

    Structural: anything exposing ``name`` and ``select`` qualifies — the
    baseline :class:`~repro.baselines.policy.UploadPolicy` subclasses, the
    :class:`~repro.core.discriminator.DiscriminatorPolicy` adapter, and the
    degenerate :class:`NeverOffload`/:class:`AlwaysOffload` below.
    ``select`` returns a boolean mask aligned with ``dataset.records``;
    policies that need the small model's preliminary detections receive them
    via ``small_detections`` (``None`` when the caller has none to offer).
    """

    @property
    def name(self) -> str:  # pragma: no cover - protocol signature
        ...

    def select(
        self, dataset: Dataset, small_detections: DetectionBatch | list[Detections] | None
    ) -> np.ndarray:  # pragma: no cover - protocol signature
        ...


@dataclass(frozen=True)
class NeverOffload:
    """Edge-only decision: no frame ever crosses the network."""

    name: str = "never"

    def select(self, dataset: Dataset, small_detections: DetectionBatch | list[Detections] | None = None) -> np.ndarray:
        return np.zeros(len(dataset), dtype=bool)


@dataclass(frozen=True)
class AlwaysOffload:
    """Cloud-only decision: every frame crosses the network."""

    name: str = "always"

    def select(self, dataset: Dataset, small_detections: DetectionBatch | list[Detections] | None = None) -> np.ndarray:
        return np.ones(len(dataset), dtype=bool)


# --------------------------------------------------------------------- #
# camera-buffer admission control
# --------------------------------------------------------------------- #
@runtime_checkable
class AdmissionPolicy(Protocol):
    """Decides what a full (or stale) camera buffer sheds.

    Called once per arriving frame *before* the frame enters the pipeline.
    ``admit`` may first shed already-queued frames through the camera's
    :class:`~repro.runtime.control.CameraView` surface —
    :meth:`~repro.runtime.control.CameraView.shed_oldest`,
    :meth:`~repro.runtime.control.CameraView.shed_expired` and
    :meth:`~repro.runtime.control.CameraView.shed_frames` — then returns
    whether the arriving frame is admitted.  Shed frames are logged as
    drops at the *shed* time (they sat in the buffer until then), while a
    refused arrival is logged at its arrival time.

    Structural: anything exposing ``name`` and ``admit`` qualifies.  A
    policy may additionally define ``observe(camera, event)`` — discovered
    structurally, no protocol change needed — and the engines will feed it
    one :class:`~repro.runtime.control.FrameEvent` per finished frame
    (:class:`~repro.runtime.control.EstimatedDeadlineAware` learns its
    stage-time estimates this way).  Policies without the hook pay nothing:
    events are only built when some observer wants them.  Stateful policies
    should also define ``reset()``; the engines call it at the start of
    every run so an instance can be reused without leaking state.
    """

    @property
    def name(self) -> str:  # pragma: no cover - protocol signature
        ...

    def admit(self, camera: CameraView, arrival: float) -> bool:  # pragma: no cover - protocol signature
        ...


@dataclass(frozen=True)
class DropNewest:
    """Refuse the arriving frame when the buffer is full (the default).

    Exactly the historical camera-buffer behaviour: queued frames are never
    touched, so under saturation the buffer holds ever-staler frames and
    every served result trails the stream — the pathology the alternatives
    below exist to measure against.
    """

    name: str = "drop-newest"

    def admit(self, camera: CameraView, arrival: float) -> bool:
        return camera.buffer_has_room()


@dataclass(frozen=True)
class DropOldest:
    """Shed the oldest queued frame to make room for the arriving one.

    Trades completeness for freshness: the camera always buffers its most
    recent frames, so served results track the live stream even when the
    pipeline cannot keep up.
    """

    name: str = "drop-oldest"

    def admit(self, camera: CameraView, arrival: float) -> bool:
        if camera.buffer_has_room():
            return True
        camera.shed_oldest()
        return camera.buffer_has_room()


@dataclass(frozen=True)
class DeadlineAware:
    """Shed queued frames that can no longer meet a freshness deadline.

    A queued frame whose *earliest possible* completion — immediate service,
    no queueing ahead of it — already lands past ``arrival + freshness_s``
    will be served stale whatever happens next; spending pipeline time on it
    only delays frames that could still be fresh.  Every arrival sheds all
    such provably-doomed frames from this camera's buffer, then admits the
    newcomer if the buffer has room (a full buffer of still-viable frames
    refuses the arrival, as :class:`DropNewest` would).
    """

    freshness_s: float = 2.0
    name: str = "deadline-aware"

    def __post_init__(self) -> None:
        if self.freshness_s <= 0.0:
            raise RuntimeModelError(f"freshness_s must be positive, got {self.freshness_s}")

    def admit(self, camera: CameraView, arrival: float) -> bool:
        camera.shed_expired(self.freshness_s)
        return camera.buffer_has_room()


# --------------------------------------------------------------------- #
# escalation under failure (durable queue + retry/backoff)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class EscalationPolicy:
    """What a camera does when a difficult case fails to reach the cloud.

    Three stock behaviours, ordered by resilience:

    * :meth:`no_retry` — the naive implementation: a failed escalation loses
      the frame outright, edge verdict and all.
    * :meth:`drop_on_failure` — graceful degradation (AppealNet's reading of
      an unavailable "appeal" path): the edge verdict serves immediately,
      the escalation itself is abandoned.
    * :meth:`durable_queue` — the edge verdict serves immediately *and* the
      case is spooled into a bounded :class:`EscalationQueue`, drained FIFO
      with exponential backoff + jitter when connectivity returns; the late
      cloud verdict is reconciled by the rolling-quality evaluation.

    On a scheme with no edge stage (cloud-only) there is no edge verdict to
    fall back on, so ``fallback`` is moot: a failed frame is dropped, and
    only a durable queue can still recover it.
    """

    name: str = "drop-on-failure"
    #: Serve the frame's edge verdict at the failure instant (edge-compute
    #: schemes only); otherwise the frame is dropped.
    fallback: bool = True
    #: Spool capacity; 0 disables the durable queue entirely.
    capacity: int = 0
    #: Retry attempts per spooled case before it is abandoned.
    max_retries: int = 4
    base_backoff_s: float = 0.5
    backoff_factor: float = 2.0
    max_backoff_s: float = 30.0
    #: Relative backoff jitter: each delay is scaled by ``1 ± jitter``.
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ConfigurationError(f"capacity must be >= 0, got {self.capacity}")
        if self.max_retries < 1:
            raise ConfigurationError(f"max_retries must be >= 1, got {self.max_retries}")
        # written as `not <valid range>` so NaN, which fails every comparison, is refused too
        if not 0.0 < self.base_backoff_s < math.inf or not 1.0 <= self.backoff_factor < math.inf:
            raise ConfigurationError(
                "base_backoff_s must be finite and > 0 and backoff_factor finite and >= 1, "
                f"got {self.base_backoff_s} and {self.backoff_factor}"
            )
        if not self.base_backoff_s <= self.max_backoff_s < math.inf:
            raise ConfigurationError(f"max_backoff_s must be finite and >= base_backoff_s, got {self.max_backoff_s}")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError(f"jitter must be in [0, 1), got {self.jitter}")

    @property
    def durable(self) -> bool:
        """Whether failed escalations are spooled for retry."""
        return self.capacity > 0

    @classmethod
    def no_retry(cls) -> "EscalationPolicy":
        """A failed escalation loses the frame (no fallback, no spool)."""
        return cls(name="no-retry", fallback=False)

    @classmethod
    def drop_on_failure(cls) -> "EscalationPolicy":
        """Edge verdict stands in; the escalation is abandoned (the default)."""
        return cls(name="drop-on-failure")

    @classmethod
    def durable_queue(
        cls,
        capacity: int = 64,
        *,
        max_retries: int = 4,
        base_backoff_s: float = 0.5,
        backoff_factor: float = 2.0,
        max_backoff_s: float = 30.0,
        jitter: float = 0.1,
    ) -> "EscalationPolicy":
        """Edge verdict stands in *and* the case retries from a bounded spool."""
        if capacity < 1:
            raise ConfigurationError(f"a durable queue needs capacity >= 1, got {capacity}")
        return cls(
            name="durable-queue",
            capacity=capacity,
            max_retries=max_retries,
            base_backoff_s=base_backoff_s,
            backoff_factor=backoff_factor,
            max_backoff_s=max_backoff_s,
            jitter=jitter,
        )


@dataclass
class _Escalation:
    """One spooled difficult case awaiting its deferred cloud verdict."""

    record_index: int
    arrival: float
    #: Position in the camera's frame log (``None`` when no log is kept).
    log_position: int | None
    #: The frame already served its edge verdict at the failure instant; the
    #: recovered cloud verdict is an upgrade, not a first serve.
    served_by_fallback: bool
    attempts: int = 0


class EscalationQueue:
    """Bounded FIFO spool of escalations that failed to reach the cloud.

    One per camera (created only when its uplink can actually fail and the
    policy is durable).  Entries drain head-first: one retry in flight at a
    time, re-acquiring the *shared* uplink so retries contend with live
    traffic.  Consecutive uplink failures — live or retry — grow the delay
    before the next retry exponentially (with jitter, so a fleet's cameras
    do not retry in lockstep); any retry success resets the backoff and
    drains the next entry immediately.  A case that exhausts its retry cap,
    or arrives at a full spool, is abandoned and counted in
    ``escalations_dropped``.
    """

    def __init__(self, camera: "_CameraStream", policy: EscalationPolicy, rng: np.random.Generator) -> None:
        self.camera = camera
        self.policy = policy
        self.rng = rng
        self._entries: deque[_Escalation] = deque()
        self._draining = False
        self._failures = 0  # consecutive uplink failures since the last success

    @property
    def depth(self) -> int:
        """Cases currently spooled."""
        return len(self._entries)

    def note_failure(self) -> None:
        """Record a live-traffic uplink failure (feeds the backoff)."""
        self._failures += 1

    def reset(self) -> None:
        """Abandon every spooled case and clear the backoff state.

        The engines build a fresh queue per run, so they never need this;
        it exists for the reset()/reuse contract every stateful serving
        participant (admission policies, offload/fleet controllers, this
        queue) shares: after ``reset()`` the instance behaves as freshly
        constructed.  A retry already scheduled on the loop finds an empty
        spool and stops.
        """
        self._entries.clear()
        self._draining = False
        self._failures = 0

    def offer(
        self, record_index: int, arrival: float, log_position: int | None, *, served_by_fallback: bool
    ) -> bool:
        """Spool one failed escalation; ``False`` when the spool is full."""
        if len(self._entries) >= self.policy.capacity:
            return False
        self._entries.append(_Escalation(record_index, arrival, log_position, served_by_fallback))
        if not self._draining:
            self._draining = True
            self.camera.loop.schedule(self._backoff(), self._retry)
        return True

    def _backoff(self) -> float:
        policy = self.policy
        exponent = max(0, self._failures - 1)
        try:
            growth = policy.backoff_factor**exponent
        except OverflowError:  # past the float range the cap binds anyway
            growth = math.inf
        delay = min(policy.max_backoff_s, policy.base_backoff_s * growth)
        if policy.jitter > 0.0:
            delay *= 1.0 + policy.jitter * float(self.rng.uniform(-1.0, 1.0))
        return delay

    def _retry(self) -> None:
        if not self._entries:
            self._draining = False
            return
        camera = self.camera
        entry = self._entries[0]
        estimate, service_fn = camera.uplink_job(entry.record_index)
        camera.uplink.acquire(estimate, self._on_success, self._on_failure, service_fn=service_fn)

    def _on_success(self, _now: float) -> None:
        entry = self._entries.popleft()
        self._failures = 0
        camera = self.camera
        camera.uploads += 1
        on_cloud_fail = None
        if camera.cloud.can_fail:

            def on_cloud_fail(_t: float, entry: _Escalation = entry) -> None:
                self._on_cloud_retry_failure(entry)

        camera.cloud.acquire(camera.cloud_service, lambda _t: camera._recover(entry), on_cloud_fail)
        self._retry()  # link evidently up: drain the next case immediately

    def _on_cloud_retry_failure(self, entry: _Escalation) -> None:
        """A retried case crossed the uplink but hit a cloud-side outage.

        The case re-spools at the tail (its upload is spent; the next
        attempt pays a fresh one), feeding the same backoff and retry-cap
        accounting as an uplink retry failure.
        """
        camera = self.camera
        camera.escalations_failed += 1
        self._failures += 1
        entry.attempts += 1
        if entry.attempts >= self.policy.max_retries or len(self._entries) >= self.policy.capacity:
            camera.escalations_dropped += 1
        else:
            self._entries.append(entry)
        if self._entries and not self._draining:
            self._draining = True
            camera.loop.schedule(self._backoff(), self._retry)

    def _on_failure(self, _now: float) -> None:
        camera = self.camera
        camera.escalations_failed += 1
        self._failures += 1
        entry = self._entries[0]
        entry.attempts += 1
        if entry.attempts >= self.policy.max_retries:
            self._entries.popleft()
            camera.escalations_dropped += 1
        if self._entries:
            camera.loop.schedule(self._backoff(), self._retry)
        else:
            self._draining = False


# --------------------------------------------------------------------- #
# serving schemes
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ServingScheme:
    """One pipeline shape plus its per-frame escalation decision.

    Attributes
    ----------
    name:
        Identifier used in reports (``"edge"``/``"cloud"``/``"collaborative"``
        for the paper's schemes; policy labels for fleet comparisons).
    edge_compute:
        Frames pass the edge accelerator (false only for cloud-only).
    edge_discriminates:
        The discriminator's cost is charged at the edge in the *static*
        accounting.  The streaming engine always fuses it into the edge
        stage when ``edge_compute`` (see the module docstring).
    policy:
        The escalation decision.  ``None`` means the caller must supply an
        explicit mask per run (the pre-refactor collaborative contract).
    """

    name: str
    edge_compute: bool
    edge_discriminates: bool
    policy: OffloadPolicy | None = None

    def edge_latency(self, deployment: Deployment, *, online: bool = False) -> float:
        """Per-frame edge service time under this scheme (0 without edge)."""
        if not self.edge_compute:
            return 0.0
        discriminate = self.edge_discriminates or online
        return edge_compute_time(deployment, discriminate=discriminate)

    def offload_mask(
        self,
        dataset: Dataset,
        small_detections: DetectionBatch | list[Detections] | None = None,
        mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Resolve the per-frame escalation mask for one split.

        An explicit ``mask`` wins (and is validated); otherwise the scheme's
        policy decides.  A policy-less scheme with no mask is an error.
        """
        if mask is None:
            if self.policy is None:
                raise RuntimeModelError(f"{self.name} scheme needs an upload mask")
            mask = self.policy.select(dataset, small_detections)
        mask = np.asarray(mask, dtype=bool).reshape(-1)
        if mask.shape[0] != len(dataset):
            raise RuntimeModelError(f"upload mask has {mask.shape[0]} entries for {len(dataset)} images")
        return mask


def edge_only_scheme() -> ServingScheme:
    """Every frame served by the small model at the edge."""
    return ServingScheme("edge", edge_compute=True, edge_discriminates=False, policy=NeverOffload())


def cloud_only_scheme() -> ServingScheme:
    """Every frame uploaded and served by the big model."""
    return ServingScheme("cloud", edge_compute=False, edge_discriminates=False, policy=AlwaysOffload())


def collaborative_scheme(policy: OffloadPolicy | None = None, *, name: str = "collaborative") -> ServingScheme:
    """Small model plus discriminator at the edge; ``policy`` escalates.

    With ``policy=None`` the caller supplies an explicit upload mask per run
    (e.g. a :class:`~repro.core.system.SystemRun`'s ``uploaded``).
    """
    return ServingScheme(name, edge_compute=True, edge_discriminates=True, policy=policy)


def paper_schemes(policy: OffloadPolicy | None = None) -> dict[str, ServingScheme]:
    """The paper's three serving schemes, keyed by report name."""
    return {
        "edge": edge_only_scheme(),
        "cloud": cloud_only_scheme(),
        "collaborative": collaborative_scheme(policy),
    }


# --------------------------------------------------------------------- #
# static engine (Table XI accounting)
# --------------------------------------------------------------------- #
def run_cost(
    scheme: ServingScheme,
    deployment: Deployment,
    dataset: Dataset,
    *,
    mask: np.ndarray | None = None,
    small_detections: DetectionBatch | list[Detections] | None = None,
    seed: int = DEFAULT_SEED,
) -> RunCost:
    """Serve one split under ``scheme`` with per-frame latency accounting.

    No contention is modelled: each frame pays its stage times in isolation
    (the Table XI protocol).  Jitter draws are scoped per image, so totals
    are reproducible and independent of the serving order.
    """
    dep = deployment
    mask = scheme.offload_mask(dataset, small_detections, mask)
    edge_s = scheme.edge_latency(dep)
    latencies: list[float] = []
    uplink = 0
    uploads = 0
    for record, send in zip(dataset.records, mask):
        latency = edge_s
        if send:
            rng = generator_for(seed, "net", record.image_id)
            trip = cloud_round_trip_time(dep, record, rng)
            latency = latency + trip if scheme.edge_compute else trip
            uplink += dep.codec.encoded_bytes(record)
            uploads += 1
        latencies.append(latency)
    return RunCost(
        latency=summarize_latencies(latencies),
        uploaded_images=uploads,
        total_images=len(dataset),
        uplink_bytes=uplink,
        downlink_bytes=uploads * detections_payload_bytes(RESULT_BOXES),
    )


# --------------------------------------------------------------------- #
# streaming engine (event-driven queueing)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class StreamConfig:
    """Workload description for one stream (or one fleet camera).

    Attributes
    ----------
    fps:
        Mean frame arrival rate (per camera).
    poisson:
        Poisson arrivals when true; exactly periodic otherwise.
    duration_s:
        Stream length in simulated seconds.
    max_edge_queue:
        Camera buffer bound; an arriving frame is dropped when the camera's
        own edge queue is this deep.  For schemes with no edge stage the
        bound applies to the camera's frames in flight toward the uplink
        (waiting or transmitting, at most ``max_edge_queue + 1``) — per
        camera, even when the uplink is fleet-shared.
    """

    fps: float = 10.0
    poisson: bool = True
    duration_s: float = 60.0
    max_edge_queue: int = 30

    def __post_init__(self) -> None:
        # written as `not <valid range>` so NaN, which fails every comparison, is refused too
        if not 0.0 < self.fps < math.inf or not 0.0 < self.duration_s < math.inf:
            raise RuntimeModelError(
                f"fps and duration_s must be finite and positive, got {self.fps} and {self.duration_s}"
            )
        if self.max_edge_queue < 1:
            raise RuntimeModelError("max_edge_queue must be >= 1")


def _values_equal(a: object, b: object) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and bool(np.array_equal(a, b))
    return a == b


def _batches_equal(a: DetectionBatch | None, b: DetectionBatch | None) -> bool:
    if a is None or b is None:
        return a is b
    return (
        a.image_ids == b.image_ids
        and a.detector == b.detector
        and np.array_equal(a.boxes, b.boxes)
        and np.array_equal(a.scores, b.scores)
        and np.array_equal(a.labels, b.labels)
        and np.array_equal(a.offsets, b.offsets)
    )


@dataclass(frozen=True, eq=False)
class StreamReport:
    """Outcome of one streaming run.

    ``served`` (present when the run was given per-record detections) is the
    stream's served output in completion order, gathered once from the
    source batches when the run has drained — no per-frame copy.  ``trace``
    (same condition) is the columnar
    :class:`~repro.runtime.trace.FrameTrace` logging every *offered* frame
    in event order — arrival time, result-ready time (arrival again for
    drops), dataset record index, served flag, served-batch segment, and the
    deferred cloud verdict a durable escalation queue recovered (``-1`` /
    ``-inf`` when there is none) — which is exactly what
    :func:`repro.metrics.rolling.rolling_quality` needs to score the stream
    online, drops, staleness and late verdicts included.
    """

    scheme: str
    latency: LatencySummary
    frames_offered: int
    frames_served: int
    frames_dropped: int
    frames_uploaded: int
    edge_utilization: float
    uplink_utilization: float
    cloud_utilization: float
    #: Frames dropped *from the queue* by the admission policy (a subset of
    #: ``frames_dropped``, which also counts frames refused at arrival).
    frames_shed: int = 0
    #: Uplink transfers that failed (initial attempts and retries).
    escalations_failed: int = 0
    #: Escalations permanently abandoned: non-durable policy, full spool,
    #: or retry cap exhausted.
    escalations_dropped: int = 0
    #: Spooled escalations whose cloud verdict eventually landed.
    escalations_recovered: int = 0
    served: DetectionBatch | None = field(default=None, repr=False)
    trace: FrameTrace | None = field(default=None, repr=False)

    @property
    def drop_rate(self) -> float:
        """Fraction of offered frames dropped at the buffer."""
        if self.frames_offered == 0:
            return 0.0
        return self.frames_dropped / self.frames_offered

    @property
    def upload_ratio(self) -> float:
        """Fraction of served frames that crossed the uplink."""
        if self.frames_served == 0:
            return 0.0
        return self.frames_uploaded / self.frames_served

    def latency_percentiles(self, percentiles: Sequence[float] = (50.0, 95.0, 99.0)) -> dict[float, float]:
        """Per-frame latency percentiles over this stream's served frames.

        Read from the columnar trace, so the run must have been simulated
        with ``detections=`` (the condition under which a trace is kept).
        """
        if self.trace is None:
            raise ConfigurationError(
                "stream report carries no frame trace; simulate with detections= to record one"
            )
        return self.trace.latency_percentiles(percentiles)

    def __eq__(self, other: object) -> bool:
        """Field-wise value equality, array-aware.

        The dataclass-generated ``__eq__`` would compare the trace's array
        columns elementwise and raise on multi-element logs; reports compare
        as equal iff every field (trace columns included) matches.
        """
        if not isinstance(other, StreamReport):
            return NotImplemented
        for name in (
            "scheme",
            "latency",
            "frames_offered",
            "frames_served",
            "frames_dropped",
            "frames_uploaded",
            "frames_shed",
            "escalations_failed",
            "escalations_dropped",
            "escalations_recovered",
            "edge_utilization",
            "uplink_utilization",
            "cloud_utilization",
            "trace",
        ):
            if not _values_equal(getattr(self, name), getattr(other, name)):
                return False
        return _batches_equal(self.served, other.served)

    # defining __eq__ sets __hash__ to None; keep reports hashable (by
    # identity — the array fields make a value hash impractical)
    __hash__ = object.__hash__


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

    def trace(self) -> FrameTrace:
        """The fleet-level columnar frame trace (all cameras, concatenated).

        Each camera's served-batch segments are shifted by its offset in the
        fleet-wide concatenation of served batches, so the fleet trace can
        index a fleet-level :meth:`DetectionBatch.concat` of the per-camera
        ``served`` batches directly.  Requires the run to have been
        simulated with ``detections=`` (every camera keeps a trace then).
        """
        parts: list[FrameTrace] = []
        offsets: list[int] = []
        total = 0
        for index, camera in enumerate(self.cameras):
            if camera.trace is None:
                raise ConfigurationError(
                    f"fleet camera {index} carries no frame trace; simulate with detections= to record one"
                )
            parts.append(camera.trace)
            offsets.append(total)
            total += 0 if camera.served is None else len(camera.served)
        return FrameTrace.concat(parts, segment_offsets=offsets)

    def latency_percentiles(self, percentiles: Sequence[float] = (50.0, 95.0, 99.0)) -> dict[float, float]:
        """Fleet-wide per-frame latency percentiles (from the columnar trace)."""
        return self.trace().latency_percentiles(percentiles)


def _arrival_times(config: StreamConfig, seed: int, *scope: object) -> np.ndarray:
    """Arrival instants of one stream (Poisson or periodic), seed-scoped.

    Poisson gap draws are extended until they cover the whole duration, so
    the process is never silently truncated at low ``fps * duration_s``
    (periodic gaps always cover it: the initial batch spans twice the
    duration).  The first batch matches the historical single draw, so runs
    the old sizing already covered are reproduced gap-for-gap.
    """
    rng = generator_for(seed, *scope, config.fps, config.poisson)
    size = int(config.fps * config.duration_s * 2)
    if not config.poisson:
        times = np.cumsum(np.full(size, 1.0 / config.fps))
        return times[times < config.duration_s]
    chunks = [rng.exponential(1.0 / config.fps, size=size)]
    total = float(chunks[0].sum())
    while total < config.duration_s:
        gaps = rng.exponential(1.0 / config.fps, size=max(size, 16))
        chunks.append(gaps)
        total += float(gaps.sum())
    times = np.cumsum(np.concatenate(chunks) if len(chunks) > 1 else chunks[0])
    return times[times < config.duration_s]


class _CameraStream:
    """One camera's frames flowing through a scheme's pipeline stages.

    Owns its edge accelerator; the uplink and cloud resources may be shared
    with other cameras (the fleet case).  All stage service times except the
    per-record uplink serialisation are precomputed once per run.

    Frames waiting in the camera's *entry* stage — the edge queue for
    edge-compute schemes, this camera's slice of the (possibly shared)
    uplink queue otherwise — are the admission policy's domain: the policy
    runs at every arrival and may shed them through :meth:`shed_oldest` /
    :meth:`shed_expired` before deciding on the newcomer.

    A fleet allocates one of these per camera, so the per-instance state is
    slotted and per-frame bookkeeping is kept to the events themselves: the
    arrivals enter the loop as one lazy :meth:`EventLoop.schedule_series`,
    the frame log lands in a columnar :class:`FrameTraceBuilder`, and each
    served frame records only its source row (``served_rows``; fallback
    rows offset by ``len(detections)``), which :meth:`report` gathers into
    the served batch in one :meth:`DetectionBatch.select`.
    """

    __slots__ = (
        "scheme",
        "deployment",
        "records",
        "config",
        "mask",
        "detections",
        "loop",
        "edge",
        "uplink",
        "cloud",
        "record_for",
        "admission",
        "escalation",
        "offload",
        "observers",
        "fallback_detections",
        "edge_service",
        "cloud_service",
        "downlink_latency",
        "link_schedule",
        "link_half_rtt",
        "uplink_mean_rate",
        "result_payload",
        "_min_payload",
        "latencies",
        "served",
        "dropped",
        "shed",
        "uploads",
        "escalations_failed",
        "escalations_dropped",
        "escalations_recovered",
        "in_uplink",
        "_waiting",
        "_min_remaining_cache",
        "served_rows",
        "trace",
        "escalation_queue",
        "frames_offered",
    )

    def __init__(
        self,
        scheme: ServingScheme,
        deployment: Deployment,
        dataset: Dataset,
        config: StreamConfig,
        mask: np.ndarray,
        detections: DetectionBatch | None,
        *,
        loop: EventLoop,
        edge: FifoResource,
        uplink: FifoResource,
        cloud: FifoResource,
        record_for: Callable[[int], int],
        admission: AdmissionPolicy | None = None,
        escalation: EscalationPolicy | None = None,
        escalation_rng: np.random.Generator | None = None,
        fallback_detections: DetectionBatch | None = None,
        offload: OffloadController | None = None,
        link_scale: RateSchedule | None = None,
    ) -> None:
        self.scheme = scheme
        self.deployment = deployment
        self.records = dataset.records
        self.config = config
        self.mask = mask
        self.detections = detections
        self.loop = loop
        self.edge = edge
        self.uplink = uplink
        self.cloud = cloud
        self.record_for = record_for
        self.admission: AdmissionPolicy = DropNewest() if admission is None else admission
        self.escalation = EscalationPolicy.drop_on_failure() if escalation is None else escalation
        self.offload = offload
        # Completion-event observers ((camera, FrameEvent) callables); the
        # engine assembles the chain after construction.  Empty means no
        # event is ever built — the stock policies' zero-overhead path.
        self.observers: tuple[Callable[["_CameraStream", FrameEvent], None], ...] = ()
        self.fallback_detections = fallback_detections
        self.edge_service = scheme.edge_latency(deployment, online=True)
        self.cloud_service = deployment.cloud.inference_latency(deployment.big_model_flops)
        # Effective rate model for *this camera's* transfers: the shared
        # link's schedule, modulated by the camera's mobility profile.
        # ``link_schedule is None`` + ``uplink_mean_rate is None`` is the
        # plain scalar link and keeps the pre-schedule arithmetic bit for
        # bit; a constant effective rate (scaled but not time-varying) keeps
        # the fixed-cost path at the scaled rate; only a genuinely
        # time-varying rate resolves transfer durations at grant time.
        link = deployment.link
        if link_scale is None:
            effective = link.schedule if link.time_varying else None
        else:
            base = link.schedule if link.schedule is not None else RateSchedule.always(link.bandwidth_mbps)
            effective = base.scaled(link_scale)
            if effective.is_constant:
                effective = None if effective.rates_mbps[0] == link.bandwidth_mbps else effective
        self.link_half_rtt = link.rtt_s / 2.0
        self.result_payload = detections_payload_bytes(RESULT_BOXES)
        if effective is None:
            self.link_schedule = None
            self.uplink_mean_rate = None
            self.downlink_latency = link.expected_transfer_time(self.result_payload)
        elif effective.is_constant:
            self.link_schedule = None
            self.uplink_mean_rate = effective.rates_mbps[0]
            self.downlink_latency = (
                self.link_half_rtt + self.result_payload * 8 / (self.uplink_mean_rate * 1e6)
            )
        else:
            self.link_schedule = effective
            self.uplink_mean_rate = effective.mean_rate_mbps
            self.downlink_latency = (
                self.link_half_rtt + self.result_payload * 8 / (self.uplink_mean_rate * 1e6)
            )
        self._min_payload: int | None = None
        self.latencies: list[float] = []
        self.served = self.dropped = self.shed = self.uploads = 0
        self.escalations_failed = self.escalations_dropped = self.escalations_recovered = 0
        # This camera's frames inside the uplink stage (waiting or being
        # transmitted) — the admission bound for schemes with no edge stage,
        # so each camera gets its own buffer even on the shared fleet link.
        self.in_uplink = 0
        # (job handle, arrival, record index) of this camera's frames in its
        # entry stage, oldest first; entries leave on completion or shed.
        self._waiting: deque[tuple[object, float, int]] = deque()
        self._min_remaining_cache: dict[int, float] = {}
        self.served_rows: list[int] | None = None
        self.trace: FrameTraceBuilder | None = None
        if detections is not None:
            self.served_rows = []
            self.trace = FrameTraceBuilder()
        if (
            (uplink.can_fail or cloud.can_fail)
            and self.escalation.fallback
            and scheme.edge_compute
            and self.served_rows is not None
            and self.fallback_detections is None
            and bool(mask.any())
        ):
            raise ConfigurationError(
                "an unreliable uplink or cloud with an edge-fallback escalation policy needs "
                "small_detections: the edge verdict serves when the cloud path fails"
            )
        if offload is not None:
            if not scheme.edge_compute:
                raise ConfigurationError(
                    "an offload controller decides as each edge stage finishes; "
                    f"the {scheme.name!r} scheme has no edge stage"
                )
            if self.served_rows is not None and self.fallback_detections is None:
                raise ConfigurationError(
                    "an offload controller serving detections needs small_detections: "
                    "frames it keeps local serve the edge verdict"
                )
        self.escalation_queue: EscalationQueue | None = None
        if (uplink.can_fail or cloud.can_fail) and self.escalation.durable:
            if escalation_rng is None:
                raise ConfigurationError("a durable escalation queue needs an RNG for backoff jitter")
            self.escalation_queue = EscalationQueue(self, self.escalation, escalation_rng)

    def schedule(self, arrivals: np.ndarray) -> None:
        """Feed every arrival of this camera to the shared loop as one series."""
        self.loop.schedule_series(arrivals.tolist(), self._on_frame)
        self.frames_offered = int(arrivals.shape[0])

    # ------------------------------------------------------------------ #
    def _log(
        self, arrival: float, time: float, record_index: int, served: bool, segment: int | None = None
    ) -> int | None:
        """Append one frame-log entry; returns its position (``None`` without logs)."""
        if self.trace is None:
            return None
        return self.trace.append(arrival, time, record_index, served, -1 if segment is None else segment)

    def _collect(self, row: int) -> int | None:
        """Record one served frame's source row; returns its served segment.

        ``row`` indexes ``detections``; a fallback serve passes its record
        index offset by ``len(detections)`` (see :meth:`_collect_fallback`).
        """
        rows = self.served_rows
        if rows is None:
            return None
        rows.append(row)
        return len(rows) - 1

    def _collect_local(self, record_index: int) -> int | None:
        # Under an offload controller the static `detections` batch is the
        # *cloud* verdict; frames kept local serve the edge verdict instead.
        if self.offload is None:
            return self._collect(record_index)
        return self._collect_fallback(record_index)

    def _collect_fallback(self, record_index: int) -> int | None:
        if self.served_rows is None:
            return None
        return self._collect(len(self.detections) + record_index)

    def _served_batch(self) -> DetectionBatch:
        """Gather the served frames' segments, in serve order, in one pass."""
        detections = self.detections
        rows = np.array(self.served_rows, dtype=np.int64)
        if rows.size and int(rows.max()) >= len(detections):
            detections = DetectionBatch.concat([detections, self.fallback_detections], detector=detections.detector)
        return detections.select(rows)

    def _emit(self, event: FrameEvent) -> None:
        for observe in self.observers:
            observe(self, event)

    def _downlink_time(self) -> float:
        """Result-download seconds for a cloud verdict landing *now*.

        The constant figure on a fixed-rate path; integrated from the
        current instant on a time-varying one, so a verdict completing
        inside a congestion dip pays the dip.
        """
        if self.link_schedule is None:
            return self.downlink_latency
        return self.link_half_rtt + self.link_schedule.transfer_duration(
            self.loop.now, self.result_payload
        )

    def _finish(self, start: float, record_index: int, timing: tuple[float, float] | None = None) -> None:
        self.served += 1
        latency = self.loop.now - start + self._downlink_time()
        self.latencies.append(latency)
        segment = self._collect(record_index)
        self._log(start, start + latency, record_index, True, segment)
        if timing is not None:  # only built when observers are attached
            queue_wait, entry_time = timing
            self._emit(
                FrameEvent("served", start, start + latency, record_index, True, queue_wait, entry_time)
            )

    def _finish_local(self, start: float, record_index: int) -> None:
        self.served += 1
        latency = self.loop.now - start
        self.latencies.append(latency)
        segment = self._collect_local(record_index)
        self._log(start, start + latency, record_index, True, segment)
        if self.observers:
            self._emit(
                FrameEvent(
                    "served",
                    start,
                    start + latency,
                    record_index,
                    False,
                    latency - self.edge_service,
                    self.edge_service,
                )
            )

    def uplink_service(self, record_index: int) -> float:
        """Deterministic uplink serialisation time of one record's frame.

        On a plain link this is the exact service time; on a scheduled (or
        mobility-scaled) link it is the *mean-rate estimate* — the figure
        queue-wait bounds and admission arithmetic use, while the true
        duration is resolved at grant time by :meth:`uplink_job`'s
        ``service_fn``.
        """
        dep = self.deployment
        payload = dep.codec.encoded_bytes(self.records[record_index])
        if self.uplink_mean_rate is None:
            return dep.link.expected_transfer_time(payload)
        return self.link_half_rtt + payload * 8 / (self.uplink_mean_rate * 1e6)

    def uplink_job(self, record_index: int) -> tuple[float, Callable[[float], float] | None]:
        """``(estimate, service_fn)`` for one record's uplink transfer.

        ``service_fn`` is ``None`` on a fixed-rate path (the estimate *is*
        the duration); on a time-varying one it integrates the camera's
        effective schedule from the grant instant.
        """
        estimate = self.uplink_service(record_index)
        schedule = self.link_schedule
        if schedule is None:
            return estimate, None
        payload = self.deployment.codec.encoded_bytes(self.records[record_index])
        half_rtt = self.link_half_rtt

        def service_fn(grant: float) -> float:
            return half_rtt + schedule.transfer_duration(grant, payload)

        return estimate, service_fn

    def _cloud_path(self, record: ImageRecord, start: float, record_index: int) -> None:
        self.uploads += 1
        self.in_uplink += 1
        entry_stage = not self.scheme.edge_compute
        uplink_time, uplink_fn = self.uplink_job(record_index)
        observing = bool(self.observers)
        # Entry-stage timing for the completion event: for edge schemes the
        # edge stage just finished, so it is known here; for no-edge schemes
        # the uplink *is* the entry stage and after_uplink measures it.
        entry_timing = (
            (self.loop.now - start - self.edge_service, self.edge_service)
            if observing and not entry_stage
            else None
        )
        # On a time-varying entry stage the observed entry time is the
        # *resolved* duration, not the estimate: capture it at grant.
        measured: list[float] | None = None
        if uplink_fn is not None and observing and entry_stage:
            inner_fn = uplink_fn
            measured = [uplink_time]

            def uplink_fn(grant: float, _inner=inner_fn, _cell=measured) -> float:
                _cell[0] = _inner(grant)
                return _cell[0]

        def after_uplink(_t: float) -> None:
            timing = entry_timing
            if entry_stage:
                self._leave_waiting()
                if observing:
                    served_uplink = uplink_time if measured is None else measured[0]
                    timing = (_t - start - served_uplink, served_uplink)
            self.in_uplink -= 1
            on_cloud_fail = None
            if self.cloud.can_fail:

                def on_cloud_fail(_t2: float) -> None:
                    self._on_cloud_failure(start, record_index)

            self.cloud.acquire(
                self.cloud_service,
                lambda _t2: self._finish(start, record_index, timing),
                on_cloud_fail,
            )

        def on_fail(_t: float) -> None:
            if entry_stage:
                self._leave_waiting()
            self.in_uplink -= 1
            self._on_uplink_failure(start, record_index)

        handle = self.uplink.acquire(uplink_time, after_uplink, on_fail, service_fn=uplink_fn)
        if entry_stage:
            self._waiting.append((handle, start, record_index))

    # ------------------------------------------------------------------ #
    # failure handling: fallback serve, spool, recovery
    # ------------------------------------------------------------------ #
    def _on_uplink_failure(self, start: float, record_index: int) -> None:
        """The frame's uplink transfer failed (outage or loss)."""
        self.uploads -= 1  # the frame never crossed the link
        self._on_remote_failure(start, record_index)

    def _on_cloud_failure(self, start: float, record_index: int) -> None:
        """The frame's cloud inference hit a cloud-side outage.

        The upload itself completed — ``uploads`` (and its bytes) stand —
        but the verdict is lost exactly like an uplink failure: fallback
        serve, spool, or drop per the :class:`EscalationPolicy`; a spooled
        retry re-enters at the uplink and contends like live traffic.
        """
        self._on_remote_failure(start, record_index)

    def _on_remote_failure(self, start: float, record_index: int) -> None:
        self.escalations_failed += 1
        if self.escalation_queue is not None:
            self.escalation_queue.note_failure()
        now = self.loop.now
        if self.escalation.fallback and self.scheme.edge_compute:
            # Graceful degradation: the edge verdict (already computed by the
            # edge stage) serves at the failure instant.
            self.served += 1
            self.latencies.append(now - start)
            segment = self._collect_fallback(record_index)
            position = self._log(start, now, record_index, True, segment)
            spooled = self.escalation_queue is not None and self.escalation_queue.offer(
                record_index, start, position, served_by_fallback=True
            )
        else:
            # No edge verdict to stand in (cloud-only, or a no-retry policy):
            # the frame is lost unless a durable queue later recovers it.
            self.dropped += 1
            position = self._log(start, now, record_index, False)
            spooled = self.escalation_queue is not None and self.escalation_queue.offer(
                record_index, start, position, served_by_fallback=False
            )
        if not spooled:
            self.escalations_dropped += 1
        if self.observers:
            self._emit(FrameEvent("failed", start, now, record_index, True))

    def _recover(self, entry: _Escalation) -> None:
        """A spooled escalation's cloud verdict finally landed."""
        verdict_time = self.loop.now + self._downlink_time()
        self.escalations_recovered += 1
        segment = self._collect(entry.record_index)
        if entry.served_by_fallback:
            # The frame already served its edge verdict; record the late
            # cloud verdict for the quality evaluation to reconcile.
            if entry.log_position is not None:
                self.trace.set_verdict(entry.log_position, verdict_time, segment)
        else:
            # The frame was logged as dropped; the late verdict un-drops it.
            self.dropped -= 1
            self.served += 1
            self.latencies.append(verdict_time - entry.arrival)
            if entry.log_position is not None:
                self.trace.mark_served(entry.log_position, verdict_time, segment)

    # ------------------------------------------------------------------ #
    # admission-policy surface (the public CameraView protocol)
    # ------------------------------------------------------------------ #
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.loop.now

    def buffer_depth(self) -> int:
        """This camera's frames admitted but not yet through the entry stage."""
        return len(self._waiting)

    def uplink_depth(self) -> int:
        """Jobs waiting in the (possibly shared) uplink queue."""
        return self.uplink.queue_depth

    def queued_arrivals(self) -> tuple[float, ...]:
        """Arrival times of this camera's still-waiting frames, oldest first.

        Only frames still *waiting* in the entry stage appear — a frame
        mid-service is beyond shedding, so policies judging the queue
        should not count it.
        """
        stage = self.edge if self.scheme.edge_compute else self.uplink
        waiting = {id(handle) for handle, _ in stage.queued_waits()}
        return tuple(arrival for handle, arrival, _ in self._waiting if id(handle) in waiting)

    def shed_frames(self, doomed: Callable[[int, float], bool]) -> int:
        """Shed the waiting frames judged ``doomed(position, arrival)``.

        The predicate sees each still-waiting frame's *entry-stage queue
        position* — the number of jobs queued ahead of it in the stage it
        waits in, which on a shared uplink counts the whole fleet's queued
        transfers, credited for earlier sheds of this pass — and its arrival
        time.  Both are observable at a deployed camera (its own buffer,
        the access point's queue), so this is exactly the state an
        estimated-time policy may reason over: position x estimated service
        time bounds the frame's wait without reading any simulator
        ground-truth times.  Frames already in service are skipped.  Shed
        frames are logged as drops at the current time; returns the number
        shed.
        """
        stage = self.edge if self.scheme.edge_compute else self.uplink
        positions = {id(handle): index for index, (handle, _) in enumerate(stage.queued_waits())}
        count = 0
        index = 0
        while index < len(self._waiting):
            handle, arrival, record_index = self._waiting[index]
            position = positions.get(id(handle))
            if position is None:  # in service: beyond shedding
                index += 1
                continue
            # Earlier sheds of this pass all sat ahead (the stage is FIFO
            # and _waiting is in arrival order), so they no longer queue
            # ahead of this frame.
            if doomed(position - count, arrival):
                stage.cancel(handle)
                del self._waiting[index]
                self._drop_shed(arrival, record_index)
                count += 1
            else:
                index += 1
        return count

    def buffer_has_room(self) -> bool:
        """Whether the camera buffer can take one more frame right now.

        Edge schemes bound the camera's own edge queue.  No-edge schemes
        bound this camera's frames inside the (possibly shared) uplink
        stage; for a single camera the rule is exactly the pre-refactor
        ``uplink.queue_depth >= max_edge_queue`` (waiting = in-stage minus
        the one in transmission), and on a fleet it keeps one buffer *per
        camera* instead of one fleet-wide bound on the shared link.
        """
        if self.scheme.edge_compute:
            return self.edge.queue_depth < self.config.max_edge_queue
        return self.in_uplink < self.config.max_edge_queue + 1

    def shed_oldest(self) -> bool:
        """Shed this camera's oldest frame still *waiting* in its entry stage.

        The frame is logged as dropped at the current (shed) time — it sat
        in the buffer until now, not until its arrival.  Returns whether a
        frame was shed (the only frame in the stage may be mid-service,
        which cancellation cannot claw back).
        """
        stage = self.edge if self.scheme.edge_compute else self.uplink
        for position, (handle, arrival, record_index) in enumerate(self._waiting):
            if stage.cancel(handle) is not None:
                del self._waiting[position]
                self._drop_shed(arrival, record_index)
                return True
        return False

    def shed_expired(self, freshness_s: float) -> int:
        """Shed every waiting frame that can no longer meet the deadline.

        A frame is doomed once ``now + wait bound + minimal remaining
        pipeline time`` exceeds ``arrival + freshness_s``.  The wait bound
        sums the service times of the jobs already queued ahead in the
        entry stage (every one of which will be served first — future
        arrivals only queue behind, cancellations only shorten the wait)
        and the pipeline time uses exact stage service times with zero
        downstream queueing, so only provably-stale frames go: a shed
        shortens the wait of everything queued behind it, so the bound is
        re-credited with each cancelled job's service time before the next
        entry is judged.  Returns the number shed.
        """
        stage = self.edge if self.scheme.edge_compute else self.uplink
        wait_bounds = {id(handle): wait for handle, wait in stage.queued_waits()}
        now = self.loop.now
        count = 0
        freed = 0.0  # service time this pass removed ahead of later entries
        position = 0
        while position < len(self._waiting):
            handle, arrival, record_index = self._waiting[position]
            wait = wait_bounds.get(id(handle))
            if wait is None:  # already in service: beyond shedding
                position += 1
                continue
            wait -= freed
            if now + wait + self._min_remaining(record_index) > arrival + freshness_s:
                # the snapshot listed this job as waiting and only this pass
                # cancels, so the cancellation cannot miss; its returned
                # service time is exactly the wait freed behind it
                freed += stage.cancel(handle) or 0.0
                del self._waiting[position]
                self._drop_shed(arrival, record_index)
                count += 1
            else:
                position += 1
        return count

    def _min_remaining(self, record_index: int) -> float:
        """Bound on one queued frame's remaining pipeline time.

        Exact stage service times (the stream engine's transfers are
        jitter-free), zero queueing: the earliest this frame could possibly
        finish if it entered service right now.  On a fixed-rate path the
        figure is per-record constant and memoised; on a time-varying one
        it is re-integrated from the current instant — a congestion dip
        *raises* it — so it cannot be cached.
        """
        if self.link_schedule is None:
            cached = self._min_remaining_cache.get(record_index)
            if cached is not None:
                return cached
        remaining = 0.0
        if self.scheme.edge_compute:
            remaining += self.edge_service
        # An offload controller decides per frame at edge-finish time, so a
        # queued frame *may* cross the network; the bound stays a lower
        # bound only by charging the local-serve path (no remote leg).
        if not self.scheme.edge_compute or (self.offload is None and bool(self.mask[record_index])):
            if self.link_schedule is None:
                remaining += self.uplink_service(record_index) + self.cloud_service + self.downlink_latency
            else:
                now = self.loop.now
                schedule = self.link_schedule
                payload = self.deployment.codec.encoded_bytes(self.records[record_index])
                remaining += (
                    self.link_half_rtt
                    + schedule.transfer_duration(now, payload)
                    + self.cloud_service
                    + self.link_half_rtt
                    + schedule.transfer_duration(now, self.result_payload)
                )
                return remaining
        if self.link_schedule is None:
            self._min_remaining_cache[record_index] = remaining
        return remaining

    def min_remaining_s(self) -> float:
        """Schedule-aware floor under any admitted frame's completion time.

        ``0.0`` on a fixed-rate path — there the EWMA estimators' memory is
        already unbiased, and a zero floor keeps the pre-schedule admission
        arithmetic bit for bit.  On a time-varying link the floor charges
        the *cheapest* frame's unavoidable pipeline (integrating the
        schedule from now), so a congestion dip raises doom estimates
        before any slowed completion feeds back through the estimators.
        Edge-compute schemes floor at the local path — their frames may
        never cross the network.
        """
        schedule = self.link_schedule
        if schedule is None:
            return 0.0
        if self.scheme.edge_compute:
            return self.edge_service
        payload = self._min_payload
        if payload is None:
            codec = self.deployment.codec
            payload = min(codec.encoded_bytes(record) for record in self.records)
            self._min_payload = payload
        now = self.loop.now
        return (
            self.link_half_rtt
            + schedule.transfer_duration(now, payload)
            + self.cloud_service
            + self.link_half_rtt
            + schedule.transfer_duration(now, self.result_payload)
        )

    def _drop_shed(self, arrival: float, record_index: int) -> None:
        self.dropped += 1
        self.shed += 1
        if not self.scheme.edge_compute:
            # the frame was queued for the uplink but never transmitted
            self.in_uplink -= 1
            self.uploads -= 1
        self._log(arrival, self.loop.now, record_index, False)

    def _leave_waiting(self) -> None:
        """Forget the entry-stage job that just completed (always the
        oldest surviving entry: the stage serves this camera FIFO)."""
        if self._waiting:
            self._waiting.popleft()

    # ------------------------------------------------------------------ #
    def _on_frame(self, index: int, arrival: float) -> None:
        record_index = self.record_for(index)
        if not self.admission.admit(self, arrival):
            self.dropped += 1
            self._log(arrival, arrival, record_index, False)
            return
        start = arrival
        if not self.scheme.edge_compute:
            self._cloud_path(self.records[record_index], start, record_index)
            return
        record = self.records[record_index]
        offload = self.offload
        send = offload is None and bool(self.mask[record_index])

        def after_edge(_t: float) -> None:
            self._leave_waiting()
            # A static mask is decided up front; an offload controller is
            # consulted as the edge stage finishes — when the small model's
            # output (the discriminator's features) actually exists.
            if send or (offload is not None and offload.decide(self, record_index)):
                self._cloud_path(record, start, record_index)
            else:
                self._finish_local(start, record_index)

        handle = self.edge.acquire(self.edge_service, after_edge)
        self._waiting.append((handle, arrival, record_index))

    # ------------------------------------------------------------------ #
    def report(self, elapsed: float) -> StreamReport:
        """Summarise this camera once the loop has drained."""
        has_frames = self.served_rows is not None
        return StreamReport(
            scheme=self.scheme.name,
            latency=summarize_latencies(self.latencies),
            frames_offered=self.frames_offered,
            frames_served=self.served,
            frames_dropped=self.dropped,
            frames_uploaded=self.uploads,
            frames_shed=self.shed,
            escalations_failed=self.escalations_failed,
            escalations_dropped=self.escalations_dropped,
            escalations_recovered=self.escalations_recovered,
            edge_utilization=self.edge.utilization(elapsed),
            uplink_utilization=self.uplink.utilization(elapsed),
            cloud_utilization=self.cloud.utilization(elapsed),
            served=self._served_batch() if has_frames else None,
            trace=self.trace.build() if has_frames else None,
        )


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


@dataclass(frozen=True, eq=False)
class StreamSpec:
    """Everything one streaming run serves, minus deployment/dataset/seed.

    One frozen value a caller builds once and reuses across deployments
    and seeds; :func:`serve_stream` serves it.

    ``mask`` and ``offload`` are mutually exclusive: a static mask decides
    the cloud escalations up front, a controller decides per frame as each
    edge stage finishes.
    """

    scheme: ServingScheme
    config: StreamConfig = field(default_factory=StreamConfig)
    mask: np.ndarray | None = None
    small_detections: DetectionBatch | list[Detections] | None = None
    detections: DetectionBatch | None = None
    admission: AdmissionPolicy | None = None
    escalation: EscalationPolicy | None = None
    offload: OffloadController | None = None


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
    hooks are structural (``observe`` is optional on every protocol), and a
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


def _resolve_mask(
    scheme: ServingScheme,
    dataset: Dataset,
    small_detections: DetectionBatch | list[Detections] | None,
    mask: np.ndarray | None,
    offload: OffloadController | None,
) -> np.ndarray:
    """The run's static offload mask — all-local placeholder under a controller."""
    if offload is None:
        return scheme.offload_mask(dataset, small_detections, mask)
    if mask is not None:
        raise ConfigurationError(
            "an explicit mask and an offload controller are mutually exclusive: "
            "the mask decides escalations up front, the controller per frame"
        )
    return np.zeros(len(dataset), dtype=bool)


def serve_stream(
    deployment: Deployment,
    dataset: Dataset,
    spec: StreamSpec,
    *,
    seed: int = DEFAULT_SEED,
) -> StreamReport:
    """Serve one frame stream described by ``spec`` on a fresh event loop.

    Frames cycle through ``dataset.records``.  The escalation mask comes
    from ``spec.mask`` when given, else from the scheme's policy (fed
    ``spec.small_detections``); a ``spec.offload`` controller replaces both
    and decides per frame at edge-finish time.  When ``spec.detections``
    holds the per-record served outputs, the report carries the served
    stream and the per-frame log the online quality evaluation consumes.
    ``spec.admission`` selects the camera buffer's shedding behaviour
    (:class:`DropNewest` when omitted — the historical drop-at-arrival
    rule, bit for bit).

    When ``deployment.link`` is an :class:`UnreliableLink` with outages or
    loss, uplink transfers can fail; ``spec.escalation`` selects what
    happens then (:meth:`EscalationPolicy.drop_on_failure` when omitted).
    An edge-fallback policy serves the frame's *small-model* verdict at the
    failure instant, so runs that keep frame logs must supply
    ``spec.small_detections``.

    Stateful participants (an :class:`~repro.runtime.control.EstimatedDeadlineAware`
    policy, an offload controller) are ``reset()`` at entry, so reusing a
    spec across runs never leaks estimator state between them.
    """
    _reset_stateful(spec.admission, spec.offload)
    detections = _check_stream_inputs(dataset, spec.detections)
    mask = _resolve_mask(spec.scheme, dataset, spec.small_detections, spec.mask, spec.offload)
    loop = EventLoop()
    num_records = len(dataset)
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
        record_for=lambda index: index % num_records,
        admission=spec.admission,
        escalation=spec.escalation,
        escalation_rng=generator_for(seed, "stream-escalation"),
        fallback_detections=_check_stream_inputs(dataset, spec.small_detections),
        offload=spec.offload,
    )
    _attach_observers(camera)
    camera.schedule(_arrival_times(spec.config, seed, "stream-arrivals"))
    elapsed = loop.run()
    return camera.report(elapsed)


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


@dataclass(frozen=True, eq=False)
class FleetSpec:
    """Everything one fleet run serves, minus deployment/dataset/seed.

    The fleet-level fields mirror :class:`StreamSpec`; ``cameras`` is a
    count (homogeneous fleet) or a tuple of :class:`CameraSpec` whose unset
    fields inherit the fleet defaults.  ``controller`` attaches an optional
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
    """
    scheme = spec.scheme
    config = spec.config
    mask = spec.mask
    small_detections = spec.small_detections
    admission = spec.admission
    escalation = spec.escalation
    controller = spec.controller
    if isinstance(spec.cameras, int):
        if spec.cameras < 1:
            raise RuntimeModelError(f"a fleet needs at least one camera, got {spec.cameras}")
        specs: Sequence[CameraSpec] = (CameraSpec(),) * spec.cameras
    else:
        specs = tuple(spec.cameras)
        if not specs:
            raise RuntimeModelError("a fleet needs at least one camera, got an empty spec list")
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
    horizon_s = 0.0
    runs: list[_CameraStream] = []
    for camera, cam in enumerate(specs):
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
            if cam.mask is not None or (cam.offload is None and mask is not None):
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
        num_records = len(cam_dataset)
        start = (camera * num_records) // len(specs)
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
            record_for=lambda index, start=start, count=num_records: (start + index) % count,
            admission=cam_admission,
            escalation=cam_escalation,
            escalation_rng=generator_for(seed, "fleet-escalation", camera),
            fallback_detections=cam_fallback,
            offload=cam_offload,
            link_scale=cam.link_scale,
        )
        _attach_observers(stream, controller_observe)
        stream.schedule(_arrival_times(cam_config, seed, "fleet-arrivals", camera))
        horizon_s = max(horizon_s, cam_config.duration_s)
        runs.append(stream)
    if controller is not None:
        controller.attach(loop, runs, horizon_s=horizon_s)
    elapsed = loop.run()
    reports = tuple(stream.report(elapsed) for stream in runs)
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
