"""Closed-loop fleet control: estimated-time admission, uplink coordination,
adaptive offload quotas.

Every policy in :mod:`repro.runtime.policies` is static and
omniscient: :class:`~repro.runtime.policies.DeadlineAware` reads the
simulator's exact queued service times, each camera sheds alone, and the
discriminator threshold is fit once offline.  This module closes the loop
with policies that *learn from what a deployed camera can actually see* —
its own frames' completion events:

* :class:`FrameEvent` + the ``observe(camera, event)`` hook — the feedback
  channel.  An engine emits one event per finished frame to every observer
  a run registers (admission policy, offload controller, fleet controller).
  Policies without the hook never pay for it: the engine builds events only
  when at least one observer is attached.
* :class:`EstimatedDeadlineAware` — deadline admission from EWMA estimates
  of observed queue-drain and remaining-pipeline times, fed solely by the
  camera's own completion events.  No simulator ground truth: it recovers
  most of the omniscient policy's advantage honestly (Table XXI).
* :class:`UplinkCoordinator` — a :class:`FleetController` on the shared
  event loop: it pools downstream-time estimates fleet-wide and sweeps the
  cameras between arrivals, shedding doomed frames at the stalest camera
  first, so a doomed frame frees the shared uplink *before* the camera's
  next arrival would have shed it.
* :class:`AdaptiveQuota` — per-camera integral control of the discriminator
  threshold (the previously-unwired
  :class:`~repro.core.adaptive.BudgetController`).

The :class:`CameraView` protocol is the narrow public surface these
policies (and user-defined ones) program against — observable camera state
plus the shedding verbs — so nothing here touches the engine's private
camera class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Protocol, Sequence, runtime_checkable

from repro.core.adaptive import BudgetController
from repro.core.features import extract_feature_arrays
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.core.discriminator import DifficultCaseDiscriminator
    from repro.detection.batch import DetectionBatch
    from repro.detection.types import Detections
    from repro.runtime.events import EventLoop
    from repro.runtime.schemes import StreamConfig

__all__ = [
    "AdaptiveQuota",
    "CameraView",
    "EstimatedDeadlineAware",
    "FleetController",
    "FrameEvent",
    "OffloadController",
    "UplinkCoordinator",
]


@dataclass(frozen=True, slots=True)
class FrameEvent:
    """One frame's observable outcome, emitted at its completion instant.

    ``kind`` is ``"served"`` for a frame that produced a result (locally or
    from the cloud) and ``"failed"`` for a frame whose escalation failed:
    its upload hit an uplink outage or loss, or its cloud inference hit a
    cloud-side outage.  A failed frame may still have served its edge
    verdict at the failure instant (the fallback), so ``"failed"`` counts
    failed escalations, not lost frames.  The timing decomposition is only
    meaningful for served frames — a failed escalation never finished its
    stages, so its timing fields are zero:

    * ``queue_wait`` — time spent waiting in the camera's *entry* stage
      (edge queue, or the shared uplink queue for no-edge schemes).
    * ``entry_time`` — the entry stage's service time.
    * everything between ``entry_done`` and ``completion`` is downstream:
      uplink/cloud/downlink service *and* downstream queueing.

    All quantities are things a deployed camera can measure with wall
    clocks on its own traffic — no simulator internals leak through.
    """

    kind: str
    arrival: float
    completion: float
    record_index: int
    offloaded: bool
    queue_wait: float = 0.0
    entry_time: float = 0.0

    @property
    def entry_done(self) -> float:
        """Instant the frame left the camera's entry stage."""
        return self.arrival + self.queue_wait + self.entry_time

    @property
    def downstream_time(self) -> float:
        """Time from entry-stage exit to completion (0 for local serves)."""
        return self.completion - self.entry_done


@runtime_checkable
class CameraView(Protocol):
    """The observable-state-plus-shedding surface a policy programs against.

    This is the *public* face of the engine's per-camera stream object:
    enough to implement admission and control policies (what is queued, how
    stale is it, shed it) without reaching into engine internals.  All
    built-in policies — and the protocols below — are typed against it.
    """

    @property
    def now(self) -> float:  # pragma: no cover - protocol signature
        """Current simulation time."""
        ...

    @property
    def config(self) -> "StreamConfig":  # pragma: no cover - protocol signature
        """The camera's workload description (fps, buffer bound...)."""
        ...

    def buffer_has_room(self) -> bool:  # pragma: no cover - protocol signature
        ...

    def buffer_depth(self) -> int:  # pragma: no cover - protocol signature
        """Frames admitted but not yet through the entry stage."""
        ...

    def queued_arrivals(self) -> tuple[float, ...]:  # pragma: no cover - protocol signature
        """Arrival times of the still-waiting (sheddable) frames, oldest first.

        Costs O(sheddable frames), so policies may call it on every
        arrival or sweep to skip cameras with nothing waiting.
        """
        ...

    def shed_oldest(self) -> bool:  # pragma: no cover - protocol signature
        ...

    def shed_expired(self, freshness_s: float) -> int:  # pragma: no cover - protocol signature
        ...

    def shed_frames(
        self, doomed: Callable[[int, float], bool]
    ) -> int:  # pragma: no cover - protocol signature
        """Shed waiting frames judged ``doomed(position, arrival)``.

        Returns 0 at once when nothing is sheddable; otherwise the cost is
        one read of the entry stage's queue positions plus O(sheddable
        frames) predicate calls.
        """
        ...

    def min_remaining_s(self) -> float:  # pragma: no cover - protocol signature
        """Schedule-aware floor under any admitted frame's pipeline time.

        ``0.0`` on a constant-rate link; on a time-varying one, the
        cheapest frame's unavoidable remaining pipeline integrated from
        now — the congestion signal estimated policies fold into their
        doom tests ahead of any observed slowdown.
        """
        ...


@runtime_checkable
class OffloadController(Protocol):
    """Per-frame *online* offload decision, replacing a static mask.

    Where :class:`~repro.runtime.policies.OffloadPolicy` decides a whole
    split offline, an offload controller is consulted frame by frame as
    each edge stage finishes — the point where the discriminator's features
    exist — and may carry state between decisions (quota tracking, drift
    adaptation).  Optional hooks, both discovered structurally:

    * ``observe(camera, event)`` — per-frame completion feedback.
    * ``reset()`` — called by the engines at the start of every run, so a
      stateful controller can be reused across runs without leaking state.
    """

    @property
    def name(self) -> str:  # pragma: no cover - protocol signature
        ...

    def decide(
        self, camera: CameraView, record_index: int
    ) -> bool:  # pragma: no cover - protocol signature
        ...


@runtime_checkable
class FleetController(Protocol):
    """A fleet-wide participant on the shared event loop.

    ``attach`` is called once per run, after every camera is built and
    scheduled but before the loop starts; the controller may keep the
    camera views and schedule its own (self-limiting) events on the loop.
    ``horizon_s`` is the last arrival instant — a periodic controller keeps
    ticking past it only while cameras still hold queued frames, so the
    loop can drain.  Optional structural hooks: ``observe(camera, event)``
    and ``reset()`` (same contract as :class:`OffloadController`).
    """

    @property
    def name(self) -> str:  # pragma: no cover - protocol signature
        ...

    def attach(
        self, loop: "EventLoop", cameras: Sequence[CameraView], *, horizon_s: float
    ) -> None:  # pragma: no cover - protocol signature
        ...


# --------------------------------------------------------------------- #
# observed-time estimation (shared by admission and coordination)
# --------------------------------------------------------------------- #
#: Weight of a new sample in every EWMA estimate: a halflife of 8 samples.
_ALPHA = 1.0 - 0.5 ** (1.0 / 8)

#: Period of the :class:`UplinkCoordinator` sweep, in simulated seconds.
_SWEEP_INTERVAL_S = 0.25


def _ewma(current: float | None, sample: float) -> float:
    """One EWMA step at :data:`_ALPHA`; the first sample seeds the average."""
    if current is None:
        return sample
    return (1.0 - _ALPHA) * current + _ALPHA * sample


class _CameraEstimate:
    """EWMA timing estimates built from one camera's own completion events.

    Three quantities, all observable on the camera's wall clock:

    * ``entry`` — the entry stage's service time (``event.entry_time``):
      how long one job holds the stage a queued frame is waiting for.
    * ``downstream`` — ``completion - entry_done``: everything after the
      entry stage (uplink/cloud service *and* downstream queueing; 0 for
      local serves).
    * ``remaining`` — ``completion - (arrival + queue_wait)``: service-
      inclusive time from entering the entry stage to the result landing
      (a floor on any frame's time-to-result, queueing aside).
    """

    __slots__ = ("entry", "downstream", "remaining")

    def __init__(self) -> None:
        self.entry: float | None = None
        self.downstream: float | None = None
        self.remaining: float | None = None

    def observe(self, event: FrameEvent) -> None:
        if event.kind != "served":
            return
        self.entry = _ewma(self.entry, event.entry_time)
        self.downstream = _ewma(self.downstream, event.downstream_time)
        self.remaining = _ewma(self.remaining, event.completion - event.arrival - event.queue_wait)

    def completion_estimate(
        self,
        now: float,
        position: int,
        downstream: float | None = None,
        entry: float | None = None,
    ) -> float:
        """Estimated completion time of the waiting frame at ``position``.

        ``position`` is the frame's entry-stage queue position — the jobs
        queued ahead of it, fleet-wide on a shared stage — so the wait
        estimate is ``position`` service times, mirroring the omniscient
        policy's wait bound with the estimated mean service time standing
        in for the simulator's exact per-job times.  Then the frame's own
        entry service and the downstream leg.  ``now + remaining`` floors
        the estimate (a frame cannot beat zero queueing).  ``downstream``
        and ``entry`` may be overridden — the coordinator substitutes its
        fleet-pooled estimates, which converge a fleet-factor faster on
        shared stages.
        """
        assert self.remaining is not None
        service = self.entry if entry is None else entry
        tail = self.downstream if downstream is None else downstream
        estimate = now + (position + 1) * (service or 0.0) + (tail or 0.0)
        floor = now + self.remaining
        return estimate if estimate > floor else floor


class EstimatedDeadlineAware:
    """Deadline admission from *observed* times — no simulator internals.

    The omniscient :class:`~repro.runtime.policies.DeadlineAware` reads the
    exact service times queued ahead of each frame.  This policy instead
    maintains per-camera EWMA estimates (:class:`_CameraEstimate`) fed by
    the ``observe`` hook, and shed a queued frame once its *estimated*
    completion blows the freshness deadline.  Until a camera's first frame
    is served it behaves exactly like
    :class:`~repro.runtime.policies.DropNewest` — cold start is part of the
    measured cost of honesty.

    One instance may serve a whole fleet: state is keyed per camera, and
    ``reset()`` (called by the engines at the start of every run) clears it,
    so reusing the instance across runs is safe.

    On a time-varying link the EWMA memory is systematically stale the
    moment the rate changes — completions observed at the old rate
    under-estimate a dip.  ``schedule_aware`` (the default) floors every
    doom estimate at the camera's :meth:`CameraView.min_remaining_s`, which
    integrates the link schedule from *now*, so a congestion dip raises the
    estimate immediately.  The floor is exactly ``0`` on constant-rate
    links, keeping the pre-schedule behaviour bit for bit;
    ``schedule_aware=False`` keeps the constant-estimate behaviour on
    scheduled links too (the ablation the Table XXII ordering pins
    against).
    """

    name = "estimated-deadline"

    def __init__(self, freshness_s: float = 2.0, *, schedule_aware: bool = True) -> None:
        if not 0.0 < freshness_s < math.inf:  # also catches NaN
            raise ConfigurationError(f"freshness_s must be positive and finite, got {freshness_s}")
        self.freshness_s = freshness_s
        self.schedule_aware = schedule_aware
        self._estimates: dict[int, _CameraEstimate] = {}

    def reset(self) -> None:
        """Forget every camera's estimates (called per run by the engines)."""
        self._estimates.clear()

    def observe(self, camera: CameraView, event: FrameEvent) -> None:
        estimate = self._estimates.get(id(camera))
        if estimate is None:
            estimate = self._estimates[id(camera)] = _CameraEstimate()
        estimate.observe(event)

    def admit(self, camera: CameraView, arrival: float) -> bool:
        estimate = self._estimates.get(id(camera))
        if estimate is not None and estimate.remaining is not None and camera.queued_arrivals():
            now = camera.now
            deadline = self.freshness_s
            # Zero on constant-rate links (max() is then a no-op — the
            # pre-schedule arithmetic bit for bit); on a time-varying link
            # the floor carries the schedule's view of *now*.
            floor = now + camera.min_remaining_s() if self.schedule_aware else now
            camera.shed_frames(
                lambda position, queued_arrival: max(
                    estimate.completion_estimate(now, position), floor
                )
                > queued_arrival + deadline
            )
        return camera.buffer_has_room()


class UplinkCoordinator:
    """Fleet-wide deadline rebalancing on the shared event loop.

    Per-camera estimated admission only acts when *that camera's* next
    frame arrives, and each camera learns the stage-time estimates from
    its own sparse completions.  Sitting on the loop, the coordinator
    fixes both: it pools the entry-service and downstream estimates across
    every camera's events (the stages are shared resources, so the pool
    converges a fleet-factor faster), and every 0.25 simulated seconds it
    sweeps the fleet — stalest camera first — shedding frames whose estimated
    completion blows the deadline, so a doomed frame releases its shared
    uplink slot between arrivals instead of at the next one.

    Pure fleet logic over :class:`CameraView`; composes with any admission
    policy (Table XXI runs it on top of :class:`EstimatedDeadlineAware`).
    """

    name = "uplink-coordinator"

    def __init__(self, freshness_s: float = 2.0, *, schedule_aware: bool = True) -> None:
        if not 0.0 < freshness_s < math.inf:  # also catches NaN
            raise ConfigurationError(f"freshness_s must be positive and finite, got {freshness_s}")
        self.freshness_s = freshness_s
        self.schedule_aware = schedule_aware
        self._estimates: dict[int, _CameraEstimate] = {}
        self._fleet_entry: float | None = None
        self._fleet_downstream: float | None = None
        self._cameras: tuple[CameraView, ...] = ()
        self._loop: "EventLoop | None" = None
        #: Frames shed by coordinator sweeps in the current/last run.
        self.swept = 0

    def reset(self) -> None:
        """Forget all fleet state (called per run by the engines)."""
        self._estimates.clear()
        self._fleet_entry = None
        self._fleet_downstream = None
        self._cameras = ()
        self._loop = None
        self.swept = 0

    def observe(self, camera: CameraView, event: FrameEvent) -> None:
        if event.kind == "served":
            # Entry-stage service and the downstream legs traverse shared
            # resources, so both pool fleet-wide and converge a
            # fleet-factor faster than any camera's own estimate.
            self._fleet_entry = _ewma(self._fleet_entry, event.entry_time)
            self._fleet_downstream = _ewma(self._fleet_downstream, event.downstream_time)
        estimate = self._estimates.get(id(camera))
        if estimate is None:
            estimate = self._estimates[id(camera)] = _CameraEstimate()
        estimate.observe(event)

    def attach(self, loop: "EventLoop", cameras: Sequence[CameraView], *, horizon_s: float) -> None:
        self._loop = loop
        self._cameras = tuple(cameras)

        def still_needed() -> bool:
            if loop.now < horizon_s:
                return True
            return any(camera.buffer_depth() > 0 for camera in self._cameras)

        loop.schedule_repeating(_SWEEP_INTERVAL_S, self._sweep, keep_going=still_needed)

    def _sweep(self) -> None:
        assert self._loop is not None
        now = self._loop.now
        # Stalest camera first: its doomed frames sit deepest in the shared
        # uplink queue, so shedding them frees the most wait for everyone.
        # A camera with nothing waiting has nothing to shed; sorting only
        # the others keeps their stable stalest-first order.
        queued = [(camera, arrivals) for camera in self._cameras if (arrivals := camera.queued_arrivals())]
        queued.sort(key=lambda item: now - item[1][0], reverse=True)
        for camera, _ in queued:
            estimate = self._estimates.get(id(camera))
            if estimate is None or estimate.remaining is None:
                continue
            deadline = self.freshness_s
            downstream = self._fleet_downstream
            entry = self._fleet_entry
            # Same schedule-aware floor as EstimatedDeadlineAware.admit:
            # exactly `now` (a no-op under max) on constant-rate links.
            floor = now + camera.min_remaining_s() if self.schedule_aware else now
            self.swept += camera.shed_frames(
                lambda position, queued_arrival: max(
                    estimate.completion_estimate(now, position, downstream, entry), floor
                )
                > queued_arrival + deadline
            )


# --------------------------------------------------------------------- #
# adaptive offload quotas (the BudgetController, finally wired)
# --------------------------------------------------------------------- #
#: Halflife, in decisions, of each quota controller's realised-ratio EMA.
_QUOTA_EMA_HALFLIFE = 20

class AdaptiveQuota:
    """Per-camera adaptive offload quota around :class:`BudgetController`.

    Each camera gets its own integral controller tracking ``target_ratio``
    by nudging the discriminator's area threshold after every decision —
    the drift robustness :mod:`repro.core.adaptive` promises, now actually
    reachable from the serving engines (it was dead public API before).
    The controllers run at :class:`BudgetController`'s default gain and
    area bounds, with a 20-decision EMA halflife.

    ``small_detections`` must describe the records the camera serves (a
    degraded camera brings its own); ``reset()`` clears all per-camera
    state, so one instance is reusable across runs and across same-dataset
    cameras.
    """

    name = "adaptive-quota"

    def __init__(
        self,
        discriminator: "DifficultCaseDiscriminator",
        small_detections: "DetectionBatch | list[Detections]",
        target_ratio: float,
    ) -> None:
        if not 0.0 < target_ratio < 1.0:  # also catches NaN
            raise ConfigurationError(f"target_ratio must be in (0, 1), got {target_ratio}")
        self._discriminator = discriminator
        # Only the area threshold adapts, so each record's features are
        # constants of the instance: extract them once, as plain scalars.
        n_predict, n_estimated, min_area = extract_feature_arrays(small_detections, discriminator.confidence_threshold)
        self._n_predict: list[int] = n_predict.tolist()
        self._n_estimated: list[int] = n_estimated.tolist()
        self._min_area: list[float] = min_area.tolist()
        self.target_ratio = target_ratio
        self._controllers: dict[int, BudgetController] = {}

    def reset(self) -> None:
        """Forget every camera's controller state (called per run)."""
        self._controllers.clear()

    @property
    def decisions(self) -> int:
        """Total offload decisions across every camera this run."""
        return sum(controller.decisions for controller in self._controllers.values())

    @property
    def uploads(self) -> int:
        """Total frames offloaded across every camera this run."""
        return sum(controller.uploads for controller in self._controllers.values())

    def controller_for(self, camera: CameraView) -> BudgetController:
        """This camera's live integral controller (created on first use)."""
        controller = self._controllers.get(id(camera))
        if controller is None:
            controller = BudgetController(self._discriminator, self.target_ratio, ema_halflife=_QUOTA_EMA_HALFLIFE)
            self._controllers[id(camera)] = controller
        return controller

    def decide(self, camera: CameraView, record_index: int) -> bool:
        return self.controller_for(camera).decide_features(
            self._n_predict[record_index],
            self._n_estimated[record_index],
            self._min_area[record_index],
        )
