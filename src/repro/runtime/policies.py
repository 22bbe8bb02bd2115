"""The serving policies: which frames escalate, what a full camera sheds,
and what happens when an escalation fails.

Three families, each a structural protocol plus its stock instances:

* *Offload* policies (:class:`OffloadPolicy`) decide offline which records
  of a split escalate from the edge to the cloud.  The difficult-case
  discriminator (the paper's contribution), the Sec. VI.E baselines
  (random / blur / top-1 confidence) and the degenerate
  :class:`NeverOffload` / :class:`AlwaysOffload` (edge-only / cloud-only)
  are interchangeable instances.
* *Admission* policies (:class:`AdmissionPolicy`) decide at each arrival
  which queued frames a saturated camera sheds: :class:`DropNewest`,
  :class:`DropOldest`, :class:`DeadlineAware`.
* *Escalation* policies (:class:`EscalationPolicy`) decide what a camera
  does when a difficult case fails to reach the cloud.

The closed-loop controllers (estimated-time admission, fleet-wide
coordination, adaptive offload quotas) live in :mod:`repro.runtime.control`,
next to the :class:`~repro.runtime.control.CameraView` protocol a policy
programs against.  A minimal custom admission policy is just::

    from repro.runtime import policies

    class SlackAware:
        name = "slack-aware"

        def admit(self, camera: policies.CameraView, arrival: float) -> bool:
            camera.shed_expired(freshness_s=1.0)
            return camera.buffer_has_room()

``observe(camera, event)`` and ``reset()`` are optional on every protocol:
engines look them up structurally and skip the machinery (at zero per-frame
cost) when absent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Protocol, runtime_checkable

import numpy as np

from repro.data.datasets import Dataset
from repro.detection.batch import DetectionBatch
from repro.detection.types import Detections
from repro.errors import ConfigurationError
from repro.runtime.control import CameraView

__all__ = [
    "AdmissionPolicy",
    "AlwaysOffload",
    "DeadlineAware",
    "DropNewest",
    "DropOldest",
    "EscalationPolicy",
    "NeverOffload",
    "OffloadPolicy",
]


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

    A policy may also declare ``occupancy_only = True``: ``admit`` is then
    promised to be stateless, to shed nothing and to admit exactly when
    :meth:`~repro.runtime.control.CameraView.buffer_has_room` holds.  The
    engines may then decide from ``buffer_has_room`` directly, without
    calling ``admit``, and refuse a full buffer's arrivals in bulk (see
    the module docstring).  Undeclared policies are consulted frame by
    frame.
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
    occupancy_only: ClassVar[bool] = True

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
        if not 0.0 < self.freshness_s < math.inf:
            raise ConfigurationError(f"freshness_s must be positive and finite, got {self.freshness_s}")

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
