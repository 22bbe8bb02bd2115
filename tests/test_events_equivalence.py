"""FIFO completions pushed by the resource itself == scheduled through the loop.

``FifoResource._start_next`` puts each job's completion on the loop's heap
(or, for a zero occupancy with nothing due now, on its zero-delay FIFO)
itself, instead of calling the public :meth:`EventLoop.schedule`.
``_legacy_events.py`` is the module before that change, kept verbatim as the
oracle: on generated job streams both must fire every callback in the same
order, at the same instants, with the same completion floats and resource
counters.  The streams mix zero service times (the zero-delay fast path), a
fault hook that fails jobs with zero or partial occupancy, deferred-cost
``service_fn`` jobs, cancellations of waiting jobs, chained zero-cost jobs
and same-instant external :meth:`EventLoop.schedule` calls.

The checks the inlined push relies on stay where they were: ``schedule()``
still refuses NaN, infinite and negative delays, and a service time, a
``service_fn`` duration or a fault hook occupancy outside its range is
still refused before anything is queued.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _legacy_events as legacy
from repro.errors import ConfigurationError, RuntimeModelError
from repro.runtime import events as current

# repeated instants, so arrivals, completions and external events collide
_TIMES = (0.0, 0.25, 0.5, 0.5, 1.0, 1.5)
_SERVICES = (0.0, 0.0, 0.1, 0.25, 0.3, 1.0)


def _faults(start: float, duration: float) -> tuple[float, bool]:
    """A deterministic unreliable server: by start instant, fail at once
    (zero occupancy), fail halfway, or serve."""
    phase = int(start * 8) % 3
    if phase == 0:
        return 0.0, False
    if phase == 1:
        return duration / 2, False
    return duration, True


_jobs = st.lists(
    st.fixed_dictionaries(
        {
            "at": st.sampled_from(_TIMES),
            "resource": st.integers(0, 2),
            "service": st.sampled_from(_SERVICES),
            # a service_fn scales the estimate at grant time (None: fixed cost)
            "deferred": st.sampled_from((None, 0.0, 0.5, 2.0)),
            "cancel": st.booleans(),
            "chain": st.booleans(),
            "external": st.booleans(),
        }
    ),
    max_size=24,
)


def _run(module, jobs: list[dict]) -> tuple[list, list, str]:
    """Drive ``module``'s loop and resources through ``jobs``; returns the
    event log, each resource's counters and the final clock."""
    loop = module.EventLoop()
    resources = [
        module.FifoResource(loop, "edge"),
        module.FifoResource(loop, "uplink"),
        module.FifoResource(loop, "cloud", faults=_faults),
    ]
    handles: list[list[object]] = [[] for _ in resources]
    log: list[tuple] = []

    def finish(kind: str, index: int, spec: dict):
        def callback(when: float) -> None:
            log.append((kind, index, when.hex(), loop.now.hex()))
            if spec["external"]:
                loop.schedule(0.0, lambda: log.append(("external", index, loop.now.hex())))
            if spec["chain"] and kind != "chained":
                resource = resources[spec["resource"]]
                resource.acquire(0.0, finish("chained", index, spec), finish("chained", index, spec))

        return callback

    def arrive(index: int, spec: dict) -> None:
        number = spec["resource"]
        resource = resources[number]
        log.append(("arrive", index, loop.now.hex()))
        if spec["cancel"] and handles[number]:
            freed = resource.cancel(handles[number][-1])
            log.append(("cancel", index, None if freed is None else freed.hex()))
        service_fn = None
        if spec["deferred"] is not None:

            def service_fn(grant: float, factor: float = spec["deferred"]) -> float:
                log.append(("grant", index, grant.hex()))
                return spec["service"] * factor

        handle = resource.acquire(
            spec["service"], finish("done", index, spec), finish("fail", index, spec), service_fn=service_fn
        )
        handles[number].append(handle)
        projected = resource.completion_of(handle)
        log.append(("projected", index, None if projected is None else projected.hex()))
        if spec["external"]:
            # scheduled after a zero-occupancy completion the acquire may have queued
            loop.schedule(0.0, lambda: log.append(("after-acquire", index, loop.now.hex())))

    for index, spec in enumerate(jobs):
        loop.schedule(spec["at"], lambda index=index, spec=spec: arrive(index, spec))
    end = loop.run()
    counters = [
        (
            resource.busy_time.hex(),
            resource.jobs_served,
            resource.jobs_failed,
            resource.jobs_cancelled,
            resource.max_queue_depth,
            resource.queue_depth,
            resource.in_service is None,
        )
        for resource in resources
    ]
    return log, counters, end.hex()


def _job(at=0.0, resource=0, service=0.0, deferred=None, cancel=False, chain=False, external=False) -> dict:
    return {
        "at": at,
        "resource": resource,
        "service": service,
        "deferred": deferred,
        "cancel": cancel,
        "chain": chain,
        "external": external,
    }


@settings(max_examples=200, deadline=None)
@given(jobs=_jobs)
# zero-cost jobs at time zero ride the zero-delay FIFO, chained and external
@example(jobs=[_job(chain=True, external=True), _job(external=True), _job(resource=1, chain=True)])
# a faulty server failing at once (zero occupancy) and halfway
@example(jobs=[_job(resource=2, service=1.0, external=True), _job(at=0.25, resource=2, service=1.0, chain=True)])
# deferred-cost jobs, one resolving to zero, and a cancellation of a waiting job
@example(
    jobs=[
        _job(service=0.3, deferred=0.0),
        _job(service=0.3, deferred=2.0),
        _job(service=0.3),
        _job(service=0.1, cancel=True),
    ]
)
def test_fifo_completions_fire_as_scheduled_through_the_loop(jobs):
    assert _run(current, jobs) == _run(legacy, jobs)


@pytest.mark.parametrize("module", [current, legacy], ids=["current", "legacy"])
@pytest.mark.parametrize("delay", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
def test_schedule_still_refuses_bad_delays(module, delay):
    loop = module.EventLoop()
    with pytest.raises(ConfigurationError, match="delay must be finite and >= 0"):
        loop.schedule(delay, lambda: None)


@pytest.mark.parametrize("service", [math.nan, math.inf, -0.5])
def test_acquire_still_refuses_bad_service_times(service):
    resource = current.FifoResource(current.EventLoop(), "edge")
    with pytest.raises(RuntimeModelError, match="service time"):
        resource.acquire(service, lambda _t: None)


@pytest.mark.parametrize("duration", [math.nan, math.inf, -0.5])
def test_start_still_refuses_bad_service_fn_durations(duration):
    resource = current.FifoResource(current.EventLoop(), "uplink")
    with pytest.raises(RuntimeModelError, match="service_fn returned"):
        resource.acquire(1.0, lambda _t: None, service_fn=lambda _grant: duration)


@pytest.mark.parametrize("occupancy", [math.nan, math.inf, -0.5, 1.5])
def test_start_still_refuses_bad_fault_occupancies(occupancy):
    resource = current.FifoResource(current.EventLoop(), "uplink", faults=lambda _s, _d: (occupancy, False))
    with pytest.raises(RuntimeModelError, match="fault hook returned occupancy"):
        resource.acquire(1.0, lambda _t: None, lambda _t: None)
