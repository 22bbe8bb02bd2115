"""Serving schemes, the deployment they run on, and what a run costs.

Every way this repository serves detections over an edge-cloud deployment is
one composition of the same four pipeline stages — edge compute, uplink
transfer, cloud compute, downlink transfer — differing only in *which frames
escalate to the cloud*.  A :class:`ServingScheme` is a named pipeline shape
(does the frame pass the edge accelerator? does the discriminator run
there?) plus an :class:`~repro.runtime.policies.OffloadPolicy`.  The
paper's three schemes are :func:`edge_only_scheme`, :func:`cloud_only_scheme`
and :func:`collaborative_scheme`.

:func:`run_cost` is the static Table XI accounting (one latency per frame,
no contention) and returns a :class:`RunCost`.  The event-driven engine
(:mod:`repro.runtime.engine`, served through :mod:`repro.runtime.serving`)
runs a stream under a :class:`StreamConfig` and reports a
:class:`StreamReport` per camera.

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
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from repro._rng import DEFAULT_SEED, generators_for
from repro.data.datasets import Dataset, ImageRecord
from repro.detection.batch import DetectionBatch
from repro.detection.types import Detections
from repro.errors import ConfigurationError, RuntimeModelError
from repro.metrics.latency import LatencySummary, summarize_latencies
from repro.runtime.codec import JpegCodec, detections_payload_bytes
from repro.runtime.devices import ComputeDevice
from repro.runtime.network import NetworkLink, OutageSchedule
from repro.runtime.policies import AlwaysOffload, NeverOffload, OffloadPolicy
from repro.runtime.trace import FrameTrace

__all__ = [
    "DISCRIMINATOR_FLOPS",
    "RESULT_BOXES",
    "Deployment",
    "RunCost",
    "ServingScheme",
    "StreamConfig",
    "StreamReport",
    "cloud_only_scheme",
    "cloud_round_trip_time",
    "collaborative_scheme",
    "edge_compute_time",
    "edge_only_scheme",
    "paper_schemes",
    "run_cost",
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
        if not 0.0 < self.small_model_flops < math.inf or not 0.0 < self.big_model_flops < math.inf:
            raise ConfigurationError(
                f"model FLOPs must be positive and finite, got {self.small_model_flops}, {self.big_model_flops}"
            )


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
            + dep.link.expected_transfer_time(detections_payload_bytes(RESULT_BOXES))
        )
    return (
        dep.link.transfer_time(dep.codec.encoded_bytes(record), rng)
        + compute
        + dep.link.transfer_time(detections_payload_bytes(RESULT_BOXES), rng)
    )


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


def paper_schemes() -> dict[str, ServingScheme]:
    """The paper's three serving schemes, keyed by report name; the
    collaborative one takes an explicit upload mask per run."""
    return {
        "edge": edge_only_scheme(),
        "cloud": cloud_only_scheme(),
        "collaborative": collaborative_scheme(),
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
    sent_ids = (record.image_id for record, send in zip(dataset.records, mask) if send)
    rngs = generators_for(seed, "net", ids=sent_ids)
    for record, send in zip(dataset.records, mask):
        latency = edge_s
        if send:
            trip = cloud_round_trip_time(dep, record, next(rngs))
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
# a stream's workload and its per-camera outcome
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
            raise ConfigurationError(
                f"fps and duration_s must be finite and positive, got {self.fps} and {self.duration_s}"
            )
        if not isinstance(self.max_edge_queue, int) or isinstance(self.max_edge_queue, bool):
            raise ConfigurationError(f"max_edge_queue must be an int, got {self.max_edge_queue!r}")
        if self.max_edge_queue < 1:
            raise ConfigurationError("max_edge_queue must be >= 1")


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
    ``-inf`` when there is none) — which, joined across cameras by
    :meth:`~repro.runtime.serving.FleetReport.trace`, is exactly what
    :func:`repro.metrics.rolling.rolling_quality` needs to score the run
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
        for item in fields(self):
            if item.name != "served" and not _values_equal(getattr(self, item.name), getattr(other, item.name)):
                return False
        return _batches_equal(self.served, other.served)

    # defining __eq__ sets __hash__ to None; keep reports hashable (by
    # identity — the array fields make a value hash impractical)
    __hash__ = object.__hash__
