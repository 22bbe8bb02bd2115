"""The discrete-event serving engine: one camera's frames through a scheme.

A :class:`_CameraStream` carries one camera's frames through its scheme's
pipeline stages on an :class:`~repro.runtime.events.EventLoop`.  It owns its
edge accelerator; the uplink and cloud resources may be shared with other
cameras on the same loop.  :mod:`repro.runtime.serving` wires cameras,
resources and policies together from a spec; this module holds only the
per-camera mechanics.

One frame lifecycle.  An admitted frame is one slotted :class:`_Frame`
record: its arrival and record index, plus the instant it left its entry
stage (the edge, or the uplink for a scheme without one) and that stage's
service time, stamped once as it leaves.  The record walks the stages in
order — edge (if any), uplink, cloud, and the downlink charged as the
verdict lands — and its bound methods are every hop's FIFO callbacks
(``on_done``, ``on_fail`` and, on a time-varying link, the ``service_fn``
that resolves and stamps the transfer's duration), so no hop builds a
closure.  Every frame ends in one :meth:`_CameraStream._settle`, which
counts it, writes its latency and trace row and, only when the camera has
observers, builds its :class:`~repro.runtime.control.FrameEvent`.  A frame
whose upload or cloud inference fails takes
:meth:`_CameraStream._on_remote_failure`: its edge verdict serves or it is
dropped, settled the same way, and an :class:`EscalationQueue` may spool
the same record and retry it until its cloud verdict lands.  A record never
holds its own job handle, so a settled frame is freed by reference counting
alone: the engine builds no per-frame reference cycle.

Per-record columns.  What an upload carries and how long it takes at the
link's nominal rate depend only on the record and the camera's link view,
so the fleet builds them once per distinct (dataset, link view) as plain
lists (:class:`_LinkColumns`) and a frame's upload reads one list entry.
Likewise, once the loop has drained, :func:`_camera_reports` gathers every
camera's report inputs at once: one grouped latency summary over all
cameras, and one served-batch select per shared detection source.  The
gather (:class:`_Served`) also keeps, for every served segment, the source
row it copies, numbered fleet-wide, so rolling evaluation matches each
source row once however many frames served it; a fleet with one detection
source reports the gathered batch itself as its served batch.

Scaling to large fleets.  Under load most frames are refused at a full
camera buffer, so a refusal is made nearly free.  When a camera's admission
policy declares itself ``occupancy_only`` (:class:`~repro.runtime.policies.DropNewest`
does) and nothing can cancel a job in its entry stage (no shedding policy
there, no fleet or offload controller), a full buffer frees exactly when the
camera's oldest entry-stage job completes — an instant the FIFO resource
projects at enqueue (:meth:`~repro.runtime.events.FifoResource.completion_of`).
The camera's arrival series (:meth:`~repro.runtime.events.EventLoop.schedule_series`)
then refuses every arrival before that instant in one step, through its
``skip`` gate, and logs the refused rows in bulk, held back so the trace
keeps event order.  Every other case keeps the per-event path; both are
bit-for-bit identical (``tests/test_bulk_refusal.py``).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import deque
from itertools import chain, islice
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro._rng import generator_for
from repro.data.datasets import Dataset
from repro.detection.batch import DetectionBatch
from repro.errors import ConfigurationError
from repro.metrics.latency import LatencySummary, summarize_latency_series
from repro.runtime.codec import JpegCodec, detections_payload_bytes
from repro.runtime.control import FrameEvent, OffloadController
from repro.runtime.events import EventLoop, FifoResource
from repro.runtime.network import NetworkLink, RateSchedule
from repro.runtime.policies import AdmissionPolicy, DropNewest, EscalationPolicy
from repro.runtime.schemes import RESULT_BOXES, Deployment, ServingScheme, StreamConfig, StreamReport
from repro.runtime.trace import FrameTraceBuilder

__all__ = ["EscalationQueue"]


class _Frame:
    """One admitted frame's passage through its camera's stages.

    Built as the frame enters its entry stage.  Its bound methods are the
    FIFO callbacks of every hop; the entry-stage exit instant and service
    time (``entry_done``, ``entry_time``) are stamped once, as the frame
    leaves that stage.  A spooled escalation carries the same record through
    its retries (``log_position``, ``served_by_fallback``, ``attempts``).
    The record must never hold its own job handle: the job holds the
    record's callbacks, so that would be a per-frame reference cycle.
    """

    __slots__ = (
        "camera",
        "arrival",
        "record_index",
        "entry_done",
        "entry_time",
        "uplink_time",  # the upload's estimated duration, replaced by the one resolved at grant
        "log_position",  # position of the frame's trace row (None without a trace)
        "served_by_fallback",  # the edge verdict served at the failure; a recovery only upgrades it
        "attempts",
    )

    def __init__(self, camera: "_CameraStream", arrival: float, record_index: int) -> None:
        self.camera = camera
        self.arrival = arrival
        self.record_index = record_index

    def edge_done(self, now: float) -> None:
        """The edge stage finished: escalate the frame or serve its edge verdict.

        A static mask decided up front; an offload controller is consulted
        now, when the small model's output (the discriminator's features)
        actually exists.
        """
        camera = self.camera
        camera._leave_entry(self, now, camera.edge_service)
        offload = camera.offload
        record_index = self.record_index
        if offload.decide(camera, record_index) if offload is not None else camera.mask[record_index]:
            camera._send(self)
        else:
            # Under an offload controller the static `detections` batch is
            # the *cloud* verdict; a frame kept local serves the edge verdict.
            segment = camera._collect(record_index) if offload is None else camera._collect_fallback(record_index)
            camera._settle(self, now - self.arrival, segment, offloaded=False)

    def uplink_duration(self, grant: float) -> float:
        """``service_fn`` on a time-varying link: the upload's duration from
        ``grant``, integrated over the camera's effective schedule."""
        camera = self.camera
        payload = camera.payloads[self.record_index]
        self.uplink_time = camera.link_half_rtt + camera.link_schedule.transfer_duration(grant, payload)
        return self.uplink_time

    def _leave_uplink(self, now: float) -> "_CameraStream":
        camera = self.camera
        if not camera.scheme.edge_compute:  # the uplink is the entry stage
            camera._leave_entry(self, now, self.uplink_time)
        camera.in_uplink -= 1
        return camera

    def uplink_done(self, now: float) -> None:
        camera = self._leave_uplink(now)
        camera.cloud.acquire(camera.cloud_service, self.cloud_done, self.cloud_failed)

    def uplink_failed(self, now: float) -> None:
        camera = self._leave_uplink(now)
        camera.uploads -= 1  # the frame never crossed the link
        camera._on_remote_failure(self)

    def cloud_done(self, now: float) -> None:
        camera = self.camera
        latency = now - self.arrival + camera._downlink_time()
        camera._settle(self, latency, camera._collect(self.record_index), offloaded=True)

    def cloud_failed(self, _now: float) -> None:
        # The upload completed, so `uploads` (and its bytes) stand.
        self.camera._on_remote_failure(self)

    def recovered(self, _now: float) -> None:
        self.camera._recover(self)

    def retry_failed(self, _now: float) -> None:
        self.camera.escalation_queue._retry_failed(self, spooled=False)


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
        self._entries: deque[_Frame] = deque()
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

    def offer(self, frame: _Frame) -> bool:
        """Spool one failed escalation; ``False`` when the spool is full.

        The frame arrives settled: its ``log_position`` and
        ``served_by_fallback`` are stamped.
        """
        if len(self._entries) >= self.policy.capacity:
            return False
        frame.attempts = 0
        self._entries.append(frame)
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
        self.camera._upload(self._entries[0], self._on_success, self._on_failure)

    def _on_success(self, _now: float) -> None:
        frame = self._entries.popleft()
        self._failures = 0
        camera = self.camera
        camera.uploads += 1
        camera.cloud.acquire(camera.cloud_service, frame.recovered, frame.retry_failed)
        self._retry()  # link evidently up: drain the next case immediately

    def _on_failure(self, _now: float) -> None:
        self._draining = False  # the retry in flight is over
        self._retry_failed(self._entries[0], spooled=True)

    def _retry_failed(self, frame: _Frame, *, spooled: bool) -> None:
        """A retried case failed, feeding the backoff and its retry cap.

        On the uplink the case is still the spool's head (``spooled``).  Past
        the uplink, at a cloud-side outage, it has left the spool: it
        re-spools at the tail, its upload spent, so the next attempt pays a
        fresh one.  A case out of retries, or with no room to re-spool, is
        abandoned.
        """
        camera = self.camera
        camera.escalations_failed += 1
        self._failures += 1
        frame.attempts += 1
        entries = self._entries
        if frame.attempts >= self.policy.max_retries or (not spooled and len(entries) >= self.policy.capacity):
            camera.escalations_dropped += 1
            if spooled:
                entries.popleft()
        elif not spooled:
            entries.append(frame)
        if entries and not self._draining:
            self._draining = True
            camera.loop.schedule(self._backoff(), self._retry)


class _LinkColumns(NamedTuple):
    """Per-record upload figures of one dataset over one camera link view.

    ``payloads[i]`` is record ``i``'s encoded bytes and ``uplink_times[i]``
    its upload seconds at the view's nominal rate — the exact duration on a
    fixed-rate link; on a scheduled (or mobility-scaled) one the mean-rate
    estimate that queue-wait bounds and admission arithmetic use, the true
    duration being resolved at grant by :meth:`_Frame.uplink_duration`.
    Plain lists, so a per-frame read is one list index.
    """

    payloads: list[int]
    uplink_times: list[float]
    min_payload: int


def _camera_link(link: NetworkLink, link_scale: RateSchedule | None) -> NetworkLink:
    """A camera's view of the shared link: the link itself, or its rate
    retimed by the camera's mobility profile ``link_scale``."""
    if link_scale is None:
        return link
    base = link.schedule if link.schedule is not None else RateSchedule.always(link.bandwidth_mbps)
    return link.with_rate_schedule(base.scaled(link_scale))


def _link_columns(codec: JpegCodec, dataset: Dataset, link: NetworkLink) -> _LinkColumns:
    """The :class:`_LinkColumns` of ``dataset``'s records over ``link``."""
    half_rtt = link.rtt_s / 2.0
    rate_mbps = link.bandwidth_mbps
    payloads = [codec.encoded_bytes(record) for record in dataset.records]
    uplink_times = [half_rtt + payload * 8 / (rate_mbps * 1e6) for payload in payloads]
    return _LinkColumns(payloads, uplink_times, min(payloads))


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
    with other cameras (the fleet case).  Every stage service time is
    precomputed: the edge and cloud ones per run, and each record's upload
    bytes and nominal uplink seconds as the :class:`_LinkColumns` the fleet
    builds once per distinct (dataset, link view).

    Frames waiting in the camera's *entry* stage — the edge queue for
    edge-compute schemes, this camera's slice of the (possibly shared)
    uplink queue otherwise — are the admission policy's domain: the policy
    runs at every arrival and may shed them through :meth:`shed_oldest` /
    :meth:`shed_expired` before deciding on the newcomer.

    A fleet allocates one of these per camera, so the per-instance state is
    slotted and per-frame bookkeeping is kept to one slotted :class:`_Frame`
    per admitted frame: the arrivals enter the loop as one lazy
    :meth:`EventLoop.schedule_series`, the frame log lands in a columnar
    :class:`FrameTraceBuilder`, and each served frame records only its
    source row (``served_rows``; fallback rows offset by
    ``len(detections)``).  The fleet gathers the report inputs once the
    loop has drained (:func:`_camera_reports`): every camera's latency
    summary in one grouped call, and its served batch as a slice of one
    :meth:`DetectionBatch.select` per shared source.  A bulk-refusing
    camera (see :meth:`schedule`) skips a full buffer's doomed arrivals
    unfired and holds their log rows as index ranges (``_held``) until the
    next row it logs, so the trace keeps event order.
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
        "record_offset",
        "entry",
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
        "payloads",
        "uplink_times",
        "min_payload",
        "result_payload",
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
        "_arrivals",
        "_held",
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
        record_offset: int = 0,
        admission: AdmissionPolicy | None = None,
        escalation: EscalationPolicy | None = None,
        escalation_rng: np.random.Generator | None = None,
        fallback_detections: DetectionBatch | None = None,
        offload: OffloadController | None = None,
        link: NetworkLink,
        link_columns: _LinkColumns,
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
        # arrival i shows record (record_offset + i) % len(records): the
        # camera cycles through the split from its own starting record
        self.record_offset = record_offset
        # The stage an admitted frame waits in: the admission policy's domain.
        self.entry = edge if scheme.edge_compute else uplink
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
        # ``link`` is this camera's view of the shared link (see
        # :func:`_camera_link`) and ``link_columns`` its records' upload
        # figures over that view, built once per distinct view by the fleet.
        # ``link_schedule`` is set only for a genuinely time-varying rate,
        # which resolves transfer durations at grant time; a constant rate
        # keeps the scalar arithmetic of
        # :meth:`NetworkLink.expected_transfer_time` bit for bit.
        self.link_half_rtt = link.rtt_s / 2.0
        self.link_schedule = link.schedule if link.time_varying else None
        self.payloads, self.uplink_times, self.min_payload = link_columns
        self.result_payload = detections_payload_bytes(RESULT_BOXES)
        self.downlink_latency = link.expected_transfer_time(self.result_payload)
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
        self.frames_offered = 0
        self._arrivals: list[float] = []
        # [lo, hi) arrival-index ranges refused in bulk, not yet logged
        self._held: deque[tuple[int, int]] = deque()
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

    def schedule(self, arrivals: np.ndarray, *, bulk_refusal: bool = False) -> None:
        """Feed every arrival of this camera to the shared loop as one series.

        ``bulk_refusal`` (decided by :func:`_bulk_refusers`) gates the
        series with :meth:`_refuse_while_full`, which then makes every
        admission decision: the arrivals it lets through enter directly.
        """
        self._arrivals = arrivals.tolist()
        self.frames_offered = len(self._arrivals)
        if bulk_refusal:
            self.loop.schedule_series(self._arrivals, self._enter, skip=self._refuse_while_full)
        else:
            self.loop.schedule_series(self._arrivals, self._on_frame)

    def _refuse_while_full(self, index: int) -> int:
        """Arrival-series gate: refuse a full buffer's arrivals in one step.

        The admission policy is ``occupancy_only``, so an arrival is
        admitted exactly when the buffer has room.  With the buffer full
        and no one able to cancel an entry-stage job, room appears exactly
        when this camera's oldest entry-stage job completes; when its stage
        is projectable that instant is known, and every arrival strictly
        before it — this one included — is refused.  The refusals are
        counted now and their rows held for the log.  Returns the index of
        the next arrival to enter.
        """
        if self.buffer_has_room():
            return index
        free_at = self.entry.completion_of(self._waiting[0][0])
        if free_at is None:
            resume = index + 1
        else:
            resume = bisect_left(self._arrivals, free_at, index + 1)
        self.dropped += resume - index
        if self.trace is not None:
            held = self._held
            if held and held[-1][1] == index:
                held[-1] = (held[-1][0], resume)
            else:
                held.append((index, resume))
        return resume

    def _flush_held(self, until: float) -> None:
        """Log the held refused arrivals due by ``until``, in arrival order.

        Exact event order: every series is scheduled before the loop runs,
        so an arrival fires before any run-time event at its instant.
        """
        held = self._held
        arrivals = self._arrivals
        offset = self.record_offset
        count = len(self.records)
        while held:
            lo, hi = held[0]
            cut = hi if arrivals[hi - 1] <= until else bisect_right(arrivals, until, lo, hi)
            if cut > lo:
                records = [(offset + index) % count for index in range(lo, cut)]
                self.trace.extend_dropped(arrivals[lo:cut], records)
            if cut < hi:
                held[0] = (cut, hi)
                return
            held.popleft()

    # ------------------------------------------------------------------ #
    def _log(
        self, arrival: float, time: float, record_index: int, served: bool, segment: int | None = None
    ) -> int | None:
        """Append one frame-log entry; returns its position (``None`` without logs)."""
        if self.trace is None:
            return None
        if self._held:
            self._flush_held(self.loop.now)
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

    def _collect_fallback(self, record_index: int) -> int | None:
        if self.served_rows is None:
            return None
        return self._collect(len(self.detections) + record_index)

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

    def _send(self, frame: _Frame) -> object:
        """Queue the frame's upload on the (possibly shared) uplink; returns its job."""
        self.uploads += 1
        self.in_uplink += 1
        return self._upload(frame, frame.uplink_done, frame.uplink_failed)

    def _upload(self, frame: _Frame, on_done: Callable[[float], None], on_fail: Callable[[float], None]) -> object:
        """Acquire the uplink for the frame's payload: a live upload or a spooled retry."""
        estimate = frame.uplink_time = self.uplink_times[frame.record_index]
        service_fn = None if self.link_schedule is None else frame.uplink_duration
        return self.uplink.acquire(estimate, on_done, on_fail, service_fn=service_fn)

    def _settle(
        self, frame: _Frame, latency: float | None, segment: int | None, *, offloaded: bool, failed: bool = False
    ) -> int | None:
        """End one frame: count it, log its trace row and, when observed, emit its event.

        A served frame completes ``latency`` after its arrival.  A ``failed``
        one completes now: served by its edge verdict when ``latency`` is
        set, dropped when it is ``None``.  The event's queue wait is the
        entry stage's sojourn less its service time.  Returns the row's log
        position (``None`` without a log).
        """
        arrival = frame.arrival
        completion = self.loop.now if failed else arrival + latency
        if latency is None:
            self.dropped += 1
        else:
            self.served += 1
            self.latencies.append(latency)
        position = self._log(arrival, completion, frame.record_index, latency is not None, segment)
        if self.observers:
            entry_time = 0.0 if failed else frame.entry_time
            queue_wait = 0.0 if failed else (frame.entry_done - arrival) - entry_time
            kind = "failed" if failed else "served"
            event = FrameEvent(kind, arrival, completion, frame.record_index, offloaded, queue_wait, entry_time)
            for observe in self.observers:
                observe(self, event)
        return position

    # ------------------------------------------------------------------ #
    # failure handling: fallback serve, spool, recovery
    # ------------------------------------------------------------------ #
    def _on_remote_failure(self, frame: _Frame) -> None:
        """The frame's upload (outage or loss) or its cloud inference failed.

        The edge verdict serves now where the scheme computed one and the
        policy falls back (graceful degradation); otherwise the frame is
        lost unless a durable queue spools it and a retry, re-entering at
        the uplink and contending like live traffic, later recovers it.
        """
        self.escalations_failed += 1
        queue = self.escalation_queue
        if queue is not None:
            queue.note_failure()
        if self.escalation.fallback and self.scheme.edge_compute:
            latency, segment = self.loop.now - frame.arrival, self._collect_fallback(frame.record_index)
        else:
            latency = segment = None
        frame.log_position = self._settle(frame, latency, segment, offloaded=True, failed=True)
        frame.served_by_fallback = latency is not None
        if queue is None or not queue.offer(frame):
            self.escalations_dropped += 1

    def _recover(self, frame: _Frame) -> None:
        """A spooled escalation's cloud verdict finally landed."""
        verdict_time = self.loop.now + self._downlink_time()
        self.escalations_recovered += 1
        segment = self._collect(frame.record_index)
        if frame.served_by_fallback:
            # The frame already served its edge verdict; record the late
            # cloud verdict for the quality evaluation to reconcile.
            if frame.log_position is not None:
                self.trace.set_verdict(frame.log_position, verdict_time, segment)
        else:
            # The frame was logged as dropped; the late verdict un-drops it.
            self.dropped -= 1
            self.served += 1
            self.latencies.append(verdict_time - frame.arrival)
            if frame.log_position is not None:
                self.trace.mark_served(frame.log_position, verdict_time, segment)

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

    def _first_sheddable(self) -> int:
        """Index in ``_waiting`` of this camera's oldest still-waiting frame.

        The stage serves FIFO and ``_waiting`` is in enqueue order, so only
        the oldest entry can be in service; every later one is waiting.
        ``len(_waiting)`` when nothing is sheddable.
        """
        waiting = self._waiting
        return 1 if waiting and waiting[0][0] is self.entry.in_service else 0

    def queued_arrivals(self) -> tuple[float, ...]:
        """Arrival times of this camera's still-waiting frames, oldest first.

        Only frames still *waiting* in the entry stage appear — a frame
        mid-service is beyond shedding, so policies judging the queue
        should not count it.  Costs O(sheddable frames): an empty tuple
        comes back at once.
        """
        first = self._first_sheddable()
        waiting = self._waiting
        if first >= len(waiting):
            return ()
        return tuple(arrival for _, arrival, _ in islice(waiting, first, None))

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
        shed.  With nothing waiting it returns 0 at once; otherwise it
        reads the stage's queue positions once.
        """
        index = self._first_sheddable()
        waiting = self._waiting
        if index >= len(waiting):
            return 0
        stage = self.entry
        positions = {id(handle): position for position, (handle, _) in enumerate(stage.queued_waits())}
        count = 0
        while index < len(waiting):
            handle, arrival, record_index = waiting[index]
            # Earlier sheds of this pass all sat ahead (the stage is FIFO
            # and _waiting is in arrival order), so they no longer queue
            # ahead of this frame.
            if doomed(positions[id(handle)] - count, arrival):
                stage.cancel(handle)
                del waiting[index]
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
        position = self._first_sheddable()
        waiting = self._waiting
        if position >= len(waiting):
            return False
        handle, arrival, record_index = waiting[position]
        self.entry.cancel(handle)
        del waiting[position]
        self._drop_shed(arrival, record_index)
        return True

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
        position = self._first_sheddable()
        waiting = self._waiting
        if position >= len(waiting):
            return 0
        stage = self.entry
        wait_bounds = {id(handle): wait for handle, wait in stage.queued_waits()}
        now = self.loop.now
        count = 0
        freed = 0.0  # service time this pass removed ahead of later entries
        while position < len(waiting):
            handle, arrival, record_index = waiting[position]
            wait = wait_bounds[id(handle)] - freed
            if now + wait + self._min_remaining(record_index) > arrival + freshness_s:
                # every entry from the first sheddable one on is waiting and
                # only this pass cancels, so the cancellation cannot miss;
                # its returned service time is exactly the wait freed behind it
                freed += stage.cancel(handle)
                del waiting[position]
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
            if self.link_schedule is not None:
                return remaining + self._remote_floor(self.payloads[record_index])
            remaining += self.uplink_times[record_index] + self.cloud_service + self.downlink_latency
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
        if self.link_schedule is None:
            return 0.0
        if self.scheme.edge_compute:
            return self.edge_service
        return self._remote_floor(self.min_payload)

    def _remote_floor(self, payload: int) -> float:
        """Uplink, cloud and downlink time of ``payload`` bytes sent now,
        unqueued, integrating the time-varying link schedule from now."""
        now = self.loop.now
        schedule = self.link_schedule
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

    def _leave_entry(self, frame: _Frame, now: float, service: float) -> None:
        """The frame's entry-stage job just completed: forget its job (always
        the oldest surviving entry, the stage serves this camera FIFO) and
        stamp the frame's exit instant and service time."""
        if self._waiting:
            self._waiting.popleft()
        frame.entry_done, frame.entry_time = now, service

    # ------------------------------------------------------------------ #
    def _on_frame(self, index: int, arrival: float) -> None:
        if not self.admission.admit(self, arrival):
            self.dropped += 1
            self._log(arrival, arrival, (self.record_offset + index) % len(self.records), False)
            return
        self._enter(index, arrival)

    def _enter(self, index: int, arrival: float) -> None:
        """Send an admitted arrival into its entry stage."""
        frame = _Frame(self, arrival, (self.record_offset + index) % len(self.records))
        if self.scheme.edge_compute:
            handle = self.edge.acquire(self.edge_service, frame.edge_done)
        else:
            handle = self._send(frame)
        self._waiting.append((handle, arrival, frame.record_index))

    # ------------------------------------------------------------------ #
    def report(self, elapsed: float, latency: LatencySummary, served: DetectionBatch | None) -> StreamReport:
        """Summarise this camera once the loop has drained.

        Its latency summary and served batch come from
        :func:`_camera_reports`, which computes them for every camera at once.
        """
        if self._held:
            self._flush_held(math.inf)
        return StreamReport(
            scheme=self.scheme.name,
            latency=latency,
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
            served=served,
            trace=None if self.trace is None else self.trace.build(),
        )


class _Served(NamedTuple):
    """What the cameras served, gathered once the loop has drained.

    ``cameras`` holds each camera's served batch (``None`` for a camera
    without detections).  When every camera has one, ``sources`` gives, for
    each segment of those batches in camera order, the row it was gathered
    from: a row of a ``(detections, fallback_detections)`` source, fallback
    rows after the detection rows and every source's rows after those of
    the sources before it.  Equal source rows hold the same detections of
    the same record.  ``fleet`` is the batches in camera order when the
    cameras share one source (the gathered batch itself), else ``None``.
    """

    cameras: list[DetectionBatch | None]
    fleet: DetectionBatch | None
    sources: np.ndarray | None


def _served_batches(cameras: Sequence[_CameraStream]) -> _Served:
    """Every camera's served batch, the fleet batch and its source rows.

    Cameras serving from the same ``(detections, fallback_detections)``
    pair share one :meth:`DetectionBatch.select` over their source rows laid
    end to end; each camera takes its contiguous slice, which holds exactly
    what selecting its own rows would.  A fleet with one source is that one
    gathered batch, uncopied; a fleet with several is left to be
    concatenated when it is asked for.
    """
    batches: list[DetectionBatch | None] = [None] * len(cameras)
    sources: list[np.ndarray | None] = [None] * len(cameras)
    groups: dict[tuple[int, int], list[int]] = {}
    for index, camera in enumerate(cameras):
        if camera.served_rows is not None:
            groups.setdefault((id(camera.detections), id(camera.fallback_detections)), []).append(index)
    base = 0
    for indices in groups.values():
        source = cameras[indices[0]]
        detections, fallback = source.detections, source.fallback_detections
        rows = np.fromiter(chain.from_iterable(cameras[index].served_rows for index in indices), dtype=np.int64)
        if rows.size and int(rows.max()) >= len(detections):
            detections = DetectionBatch.concat([detections, fallback], detector=detections.detector)
        gathered = detections.select(rows)
        shifted = rows + base
        start = 0
        for index in indices:
            stop = start + len(cameras[index].served_rows)
            batches[index] = gathered[start:stop]
            sources[index] = shifted[start:stop]
            start = stop
        base += len(source.detections) + (0 if fallback is None else len(fallback))
    if not groups or any(batch is None for batch in batches):
        return _Served(batches, None, None)
    if len(groups) == 1:
        return _Served(batches, gathered, shifted)
    return _Served(batches, None, np.concatenate(sources))


def _camera_reports(cameras: Sequence[_CameraStream], elapsed: float) -> tuple[tuple[StreamReport, ...], _Served]:
    """Every camera's :class:`StreamReport` once the shared loop has drained,
    and the :class:`_Served` batches they were given.

    The latency summaries and served batches are computed fleet-wide, in a
    few NumPy calls rather than one set per camera.
    """
    summaries = summarize_latency_series([camera.latencies for camera in cameras])
    served = _served_batches(cameras)
    reports = tuple(
        camera.report(elapsed, summary, batch) for camera, summary, batch in zip(cameras, summaries, served.cameras)
    )
    return reports, served
