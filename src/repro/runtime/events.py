"""Discrete-event simulation core for the streaming runtime.

A tiny, dependency-free event-driven simulator: a priority queue of timed
events plus FIFO resources that serialise work (an edge accelerator, the
WLAN uplink, a cloud GPU).  The streaming module builds the paper's
motivating scenario — continuous video frames — on top of it, so queueing
delay under load is modelled rather than assumed.

The loop is the innermost loop of every fleet simulation (cameras x frames
x pipeline stages events), so its bookkeeping is deliberately lean: events
are plain ``(time, sequence, action)`` tuples on the heap (no per-event
object), zero-delay events ride a FIFO fast path that skips the heap
entirely when no queued event could fire first, and the resource queue is a
``deque`` so a saturated uplink with tens of thousands of waiting jobs
dequeues in O(1) instead of ``list.pop(0)``'s O(n).

A stream's frame arrivals are known before the run starts, so
:meth:`EventLoop.schedule_series` keeps them lazy: one heap entry per series
instead of one per arrival.  The series reserves, when it is scheduled, the
block of sequence numbers its per-element :meth:`EventLoop.schedule` calls
would have taken, and pushes element ``i + 1`` (with its reserved key) just
before element ``i`` fires.  Heap keys, zero-delay fast-path decisions and
firing order are therefore exactly those of scheduling every element up
front, while the heap stays as small as the number of live streams.
A series may carry a ``skip`` gate, consulted as each element comes due:
it may drop that element and a run after it unfired and resume the series
at a later element under that element's reserved key.  The serving engine
refuses a full camera buffer's arrivals this way, in bulk (see
:mod:`repro.runtime.engine`).

:meth:`EventLoop.run` pauses the cyclic garbage collector while it drains,
re-enabling it on exit only if it was on.  The engine builds no per-frame
reference cycles, so reference counting alone frees every finished frame;
left on, the collector's full passes would re-scan every in-flight frame's
record and job tuple for nothing.

Resources optionally carry a *fault hook* (``faults``): a callable the
server consults when a job enters service, mapping ``(start_time,
service_time)`` to ``(actual_occupancy, success)``.  An unreliable uplink
plugs its outage schedule in here, so a transfer in flight when an outage
begins fails at the outage instant instead of silently completing.

A resource puts each job's completion on the loop itself, as
:meth:`EventLoop.schedule` would: onto the zero-delay FIFO for a zero
occupancy when nothing on the heap is due now, onto the heap otherwise.
It skips ``schedule()``'s delay check, which it needs no more: every
occupancy is already known finite and >= 0 (a service time is checked at
:meth:`FifoResource.acquire`, a ``service_fn`` duration and a fault hook's
occupancy as the job enters service).  A fleet's completions, one per
served job on each of its resources, are the loop's most common event.

A resource whose jobs all have service times fixed at enqueue (no fault
hook, no ``service_fn``, no cancellation) knows each job's completion
instant the moment it is enqueued — ``max(now, free_at) + service``, the
very float operations the loop performs — and reports it through
:meth:`FifoResource.completion_of`.
"""

from __future__ import annotations

import gc
import heapq
import math
from collections import deque
from collections.abc import Callable, Sequence
from functools import partial

from repro.errors import ConfigurationError, RuntimeModelError

__all__ = ["EventLoop", "FifoResource"]

_INF = math.inf


class EventLoop:
    """A minimal deterministic discrete-event loop.

    Events scheduled for the same instant fire in scheduling order, which
    keeps runs reproducible.  Zero-delay events keep that contract on the
    fast path: they bypass the heap only when the heap holds nothing due at
    the current instant (every heap event would fire later), so pending
    events always precede any same-instant event scheduled after them.
    """

    __slots__ = ("_heap", "_pending", "_sequence", "_now")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._pending: deque[Callable[[], None]] = deque()
        self._sequence = 0
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def schedule(self, delay: float, action: Callable[[], None]) -> None:
        """Run ``action`` ``delay`` seconds from the current time.

        ``delay`` must be a finite number >= 0: scheduling into the past
        would corrupt the event order, NaN would silently sort anywhere in
        the heap, and infinity would drive the clock to ``inf``.  All three
        are caller configuration errors.
        """
        if not 0.0 <= delay < _INF:  # also catches NaN
            raise ConfigurationError(f"delay must be finite and >= 0, got {delay}")
        heap = self._heap
        if delay == 0.0 and (not heap or heap[0][0] > self._now):
            # No queued event can fire at the current instant, so FIFO order
            # among the pending actions is the full ordering contract.
            self._pending.append(action)
            return
        self._sequence += 1
        heapq.heappush(heap, (self._now + delay, self._sequence, action))

    def schedule_series(
        self,
        times: Sequence[float],
        action: Callable[[int, float], None],
        *,
        skip: Callable[[int], int] | None = None,
    ) -> None:
        """Run ``action(i, times[i])`` at absolute time ``times[i]``, for each ``i``.

        ``times`` must be finite, non-decreasing and no earlier than
        :attr:`now`.  The result is exactly that of calling
        ``schedule(times[i] - now, ...)`` for every element now, in order
        (the heap keys are the absolute times themselves, so the two agree
        whenever ``times[i] - now + now == times[i]``, e.g. at time zero),
        but the series holds a single heap entry: before element ``i``
        fires, element ``i + 1`` is pushed under the sequence number its
        own ``schedule()`` call would have taken.

        ``skip(i)``, when given, is consulted as element ``i`` comes due
        through the heap (the clock already at ``times[i]``) and returns
        the index of the next element to fire.  Returning ``i`` fires the
        element as usual; returning ``j > i`` drops elements ``i .. j-1``
        unfired and resumes the series at element ``j`` (``len(times)``
        ends it) under ``j``'s reserved sequence number.  Elements due at
        the launch instant itself ride the zero-delay fast path, as
        ``schedule()`` would send them, and always fire.
        """
        now = self._now
        previous = now
        for index, time in enumerate(times):
            if not previous <= time < _INF:  # also catches NaN
                raise ConfigurationError(
                    f"series times must be finite, non-decreasing and >= now ({now}); "
                    f"element {index} is {time} after {previous}"
                )
            previous = time
        count = len(times)
        heap = self._heap
        first = 0
        if not heap or heap[0][0] > now:
            # the zero-delay elements ride the FIFO fast path, as schedule() would send them
            while first < count and times[first] == now:
                self._pending.append(partial(action, first, times[first]))
                first += 1
        if first == count:
            return
        # element i's reserved sequence number is base + i
        base = self._sequence + 1 - first
        self._sequence += count - first
        cursor = first

        def fire() -> None:
            # A finished series drops its own name, so reference counting
            # alone frees it (and the camera its action is bound to).
            nonlocal cursor, fire
            index = cursor
            if skip is not None:
                resume = skip(index)
                if resume != index:
                    if not index < resume <= count:
                        raise ConfigurationError(
                            f"series skip gate must resume after element {index} and no later than {count}, "
                            f"got {resume}"
                        )
                    cursor = resume
                    if resume < count:
                        heapq.heappush(heap, (times[resume], base + resume, fire))
                    else:
                        fire = None
                    return
            cursor = index + 1
            if cursor < count:
                heapq.heappush(heap, (times[cursor], base + cursor, fire))
            else:
                fire = None
            action(index, times[index])

        heapq.heappush(heap, (times[first], base + first, fire))

    def schedule_repeating(
        self,
        interval: float,
        action: Callable[[], None],
        *,
        keep_going: Callable[[], bool],
    ) -> None:
        """Run ``action`` every ``interval`` seconds while ``keep_going()``.

        The predicate is consulted *after* each firing to decide whether to
        schedule the next one, so a repeating event cannot keep the loop
        alive forever — it dies as soon as its reason to exist does.  This
        is the contract fleet controllers need: tick while arrivals are
        still coming or queues still hold frames, then let the loop drain.
        The first firing happens one interval from now.
        """
        if not 0.0 < interval < _INF:  # also catches NaN
            raise ConfigurationError(f"repeating interval must be finite and positive, got {interval}")

        def tick() -> None:
            action()
            if keep_going():
                self.schedule(interval, tick)

        self.schedule(interval, tick)

    def run(self) -> float:
        """Drain the event queue.

        Returns the final simulation time.  The cyclic garbage collector is
        paused for the drain; however the drain ends, it is re-enabled only
        if it was on when the run began.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            return self._drain()
        finally:
            if collecting:
                gc.enable()

    def _drain(self) -> float:
        heap = self._heap
        pending = self._pending
        while True:
            while pending:
                pending.popleft()()
            if not heap:
                return self._now
            time, _, action = heapq.heappop(heap)
            self._now = time
            action()


class FifoResource:
    """A single-server FIFO resource (accelerator, link, GPU).

    ``acquire`` enqueues a job with a known service time and a completion
    callback; jobs are served one at a time in arrival order.  Utilisation
    and queueing statistics are tracked for the stream report.

    ``acquire`` returns an opaque job handle; :meth:`cancel` removes a job
    that is *still waiting* (admission policies shed queued frames this
    way).  A job already in service — or already served — can no longer be
    cancelled.

    A ``faults`` hook makes the server unreliable: when a job enters
    service the hook maps ``(start_time, service_time)`` to ``(actual
    occupancy, success)``.  Failed jobs occupy the server for the truncated
    time, then fire their ``on_fail`` callback (required at ``acquire``
    time for any job that can fail) instead of ``on_done``.

    While every job so far has had a fixed service time (no fault hook, no
    ``service_fn``, no cancellation), the server is *projectable*: each
    job's completion instant is known at enqueue, and
    :meth:`completion_of` reports it.
    """

    __slots__ = (
        "_loop",
        "name",
        "_faults",
        "_queue",
        "_in_service",
        "busy_time",
        "jobs_served",
        "jobs_failed",
        "jobs_cancelled",
        "max_queue_depth",
        "_free_at",
    )

    def __init__(
        self,
        loop: EventLoop,
        name: str,
        *,
        faults: Callable[[float, float], tuple[float, bool]] | None = None,
    ) -> None:
        self._loop = loop
        self.name = name
        self._faults = faults
        self._queue: deque[
            tuple[
                float,
                Callable[[float], None],
                Callable[[float], None] | None,
                Callable[[float], float] | None,
                float | None,
            ]
        ] = deque()
        self._in_service: object | None = None
        self.busy_time = 0.0
        self.jobs_served = 0
        self.jobs_failed = 0
        self.jobs_cancelled = 0
        self.max_queue_depth = 0
        # Completion instant of the last enqueued job; None once the server
        # stops being projectable (see the class docstring).
        self._free_at: float | None = None if faults is not None else 0.0

    @property
    def queue_depth(self) -> int:
        """Jobs currently waiting (not including the one in service)."""
        return len(self._queue)

    @property
    def in_service(self) -> object | None:
        """Handle of the job in service, ``None`` while the server is idle.

        The handle stays in service until its completion (or failure)
        callback has returned; :meth:`cancel` cannot remove it.
        """
        return self._in_service

    @property
    def can_fail(self) -> bool:
        """Whether this resource was built with a fault hook."""
        return self._faults is not None

    def acquire(
        self,
        service_time: float,
        on_done: Callable[[float], None],
        on_fail: Callable[[float], None] | None = None,
        *,
        service_fn: Callable[[float], float] | None = None,
    ) -> object:
        """Enqueue a job; ``on_done(completion_time)`` fires when served.

        On an unreliable resource (one built with ``faults``) the job may
        instead fail, firing ``on_fail(failure_time)``; a faulty resource
        therefore requires ``on_fail`` for every job.

        A job whose true cost depends on *when* it enters service (a
        transfer on a time-varying link) passes ``service_fn(grant_time) ->
        duration``: the duration is resolved at the grant instant, and
        ``service_time`` stays as the caller's estimate for
        :meth:`queued_waits` and :meth:`cancel` accounting.  The fault hook
        then sees the resolved duration, so outages and loss compose with
        variable-rate links unchanged.

        Returns a handle accepted by :meth:`cancel`.
        """
        if not 0.0 <= service_time < _INF:  # also catches NaN
            kind = "negative" if service_time < 0.0 else "non-finite"
            raise RuntimeModelError(f"{kind} service time: {service_time}")
        if self._faults is not None and on_fail is None:
            raise ConfigurationError(
                f"resource {self.name!r} can fail jobs; acquire() needs an on_fail callback"
            )
        free_at = self._free_at
        if free_at is not None:
            if service_fn is not None:
                free_at = self._free_at = None
            else:
                # the loop's own float ops: the job starts when the server
                # frees (now, if idle) and completes service_time later
                now = self._loop._now
                free_at = self._free_at = (now if now > free_at else free_at) + service_time
        job = (service_time, on_done, on_fail, service_fn, free_at)
        self._queue.append(job)
        if len(self._queue) > self.max_queue_depth:
            self.max_queue_depth = len(self._queue)
        if self._in_service is None:
            self._start_next()
        return job

    def queued_waits(self) -> list[tuple[object, float]]:
        """``(handle, wait bound)`` for each waiting job, in queue order.

        The bound sums the known service times of the waiting jobs ahead
        (for deferred-cost jobs, the caller's ``service_time`` estimate);
        the in-service job's *remaining* time is unknown and excluded, so
        each value is a lower bound on that job's actual wait on a
        fixed-cost queue and an estimate on a deferred-cost one.
        """
        waits: list[tuple[object, float]] = []
        ahead = 0.0
        for job in self._queue:
            waits.append((job, ahead))
            ahead += job[0]
        return waits

    def completion_of(self, handle: object) -> float | None:
        """Projected completion instant of the job ``handle`` names.

        Exact — the very float the job's completion event will carry —
        while the server is projectable; ``None`` once it is not (a fault
        hook, a deferred-cost job or a cancellation makes service times
        unknowable at enqueue).
        """
        if self._free_at is None:
            return None
        return handle[4]

    def cancel(self, handle: object) -> float | None:
        """Remove a still-waiting job from the queue.

        Returns the cancelled job's service time (the wait it frees for
        everything queued behind it) when the job was waiting and has been
        removed; its ``on_done`` will never fire.  Returns ``None`` when
        the job already entered service (or finished) — cancellation cannot
        claw back work the server has started.
        """
        for index, job in enumerate(self._queue):
            if job is handle:
                del self._queue[index]
                self.jobs_cancelled += 1
                self._free_at = None  # the jobs behind it now start earlier
                return job[0]
        return None

    def _start_next(self) -> None:
        if not self._queue:
            self._in_service = None
            return
        job = self._in_service = self._queue.popleft()
        service_time, on_done, on_fail, service_fn, _ = job
        loop = self._loop
        now = loop._now
        if service_fn is not None:
            service_time = service_fn(now)
            if not 0.0 <= service_time < _INF:  # also catches NaN
                kind = "negative" if service_time < 0.0 else "non-finite"
                raise RuntimeModelError(f"service_fn returned {kind} duration: {service_time}")
        if self._faults is None:
            occupancy, ok = service_time, True
        else:
            occupancy, ok = self._faults(now, service_time)
            if not 0.0 <= occupancy <= service_time:  # also catches NaN
                raise RuntimeModelError(
                    f"fault hook returned occupancy {occupancy} outside [0, {service_time}]"
                )
        self.busy_time += occupancy
        if ok:
            self.jobs_served += 1
            callback = on_done
        else:
            self.jobs_failed += 1
            callback = on_fail  # never None: acquire() requires it on a faulty resource

        def _complete() -> None:
            callback(loop._now)
            self._start_next()

        # schedule(occupancy, _complete) less its delay check, which the
        # occupancy has passed already (see the module docstring)
        heap = loop._heap
        if occupancy == 0.0 and (not heap or heap[0][0] > now):
            loop._pending.append(_complete)
        else:
            loop._sequence += 1
            heapq.heappush(heap, (now + occupancy, loop._sequence, _complete))

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` spent serving jobs."""
        if elapsed <= 0.0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)
