"""The discrete-event serving engine: one camera's frames through a scheme.

A :class:`_CameraStream` carries one camera's frames through its scheme's
pipeline stages on an :class:`~repro.runtime.events.EventLoop`.  It owns its
edge accelerator; the uplink and cloud resources may be shared with other
cameras on the same loop.  An :class:`EscalationQueue` spools the difficult
cases whose cloud path failed and retries them.  :mod:`repro.runtime.serving`
wires cameras, resources and policies together from a spec; this module
holds only the per-camera mechanics.

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
from dataclasses import dataclass
from itertools import islice
from typing import Callable

import numpy as np

from repro._rng import generator_for
from repro.data.datasets import Dataset, ImageRecord
from repro.detection.batch import DetectionBatch
from repro.errors import ConfigurationError
from repro.metrics.latency import summarize_latencies
from repro.runtime.codec import detections_payload_bytes
from repro.runtime.control import FrameEvent, OffloadController
from repro.runtime.events import EventLoop, FifoResource
from repro.runtime.network import RateSchedule
from repro.runtime.policies import AdmissionPolicy, DropNewest, EscalationPolicy
from repro.runtime.schemes import RESULT_BOXES, Deployment, ServingScheme, StreamConfig, StreamReport
from repro.runtime.trace import FrameTraceBuilder

__all__ = ["EscalationQueue"]


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
    the served batch in one :meth:`DetectionBatch.select`.  A bulk-refusing
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
        "link_rate_mbps",
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
        # This camera's view of the shared link: the link itself, or retimed
        # by the camera's mobility profile.  ``link_schedule`` is set only
        # for a genuinely time-varying rate, which resolves transfer
        # durations at grant time; a constant rate keeps the scalar
        # arithmetic of :meth:`NetworkLink.expected_transfer_time` bit for bit.
        link = deployment.link
        if link_scale is not None:
            base = link.schedule if link.schedule is not None else RateSchedule.always(link.bandwidth_mbps)
            link = link.with_rate_schedule(base.scaled(link_scale))
        self.link_half_rtt = link.rtt_s / 2.0
        self.link_rate_mbps = link.bandwidth_mbps
        self.link_schedule = link.schedule if link.time_varying else None
        self.result_payload = detections_payload_bytes(RESULT_BOXES)
        self.downlink_latency = link.expected_transfer_time(self.result_payload)
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
        payload = self.deployment.codec.encoded_bytes(self.records[record_index])
        return self.link_half_rtt + payload * 8 / (self.link_rate_mbps * 1e6)

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
            if self.link_schedule is None:
                remaining += self.uplink_service(record_index) + self.cloud_service + self.downlink_latency
            else:
                payload = self.deployment.codec.encoded_bytes(self.records[record_index])
                return remaining + self._remote_floor(payload)
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
        payload = self._min_payload
        if payload is None:
            codec = self.deployment.codec
            payload = min(codec.encoded_bytes(record) for record in self.records)
            self._min_payload = payload
        return self._remote_floor(payload)

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

    def _leave_waiting(self) -> None:
        """Forget the entry-stage job that just completed (always the
        oldest surviving entry: the stage serves this camera FIFO)."""
        if self._waiting:
            self._waiting.popleft()

    # ------------------------------------------------------------------ #
    def _on_frame(self, index: int, arrival: float) -> None:
        if not self.admission.admit(self, arrival):
            self.dropped += 1
            self._log(arrival, arrival, (self.record_offset + index) % len(self.records), False)
            return
        self._enter(index, arrival)

    def _enter(self, index: int, arrival: float) -> None:
        """Send an admitted arrival into its entry stage."""
        record_index = (self.record_offset + index) % len(self.records)
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
        if self._held:
            self._flush_held(math.inf)
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
