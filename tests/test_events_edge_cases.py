"""Edge-case tests for the discrete-event core under the serving pipeline.

The fleet simulator multiplies the event volume through :class:`EventLoop`
and :class:`FifoResource`; these tests pin the semantics the engines lean
on — zero-delay self-scheduling, deterministic same-instant ordering, the
bounded-buffer backpressure that drops frames arriving at a full queue,
fail-fast rejection of non-finite times, the lazy arrival series that
must fire exactly like scheduling every element up front (skip gate
included), and the cyclic collector the loop pauses while it drains.
"""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import load_dataset
from repro.errors import ConfigurationError, RuntimeModelError
from repro.runtime import (
    JETSON_NANO,
    RTX3060_SERVER,
    WLAN,
    Deployment,
    EventLoop,
    FifoResource,
    FleetSpec,
    StreamConfig,
    edge_only_scheme,
    serve_fleet,
)


class TestZeroDelayScheduling:
    def test_zero_delay_self_scheduling_chain_terminates(self):
        """An action may re-schedule itself at delay 0; the chain drains in
        FIFO order without advancing simulated time."""
        loop = EventLoop()
        fired: list[int] = []

        def chain(remaining: int) -> None:
            fired.append(remaining)
            if remaining > 0:
                loop.schedule(0.0, lambda: chain(remaining - 1))

        loop.schedule(0.0, lambda: chain(5))
        final = loop.run()
        assert fired == [5, 4, 3, 2, 1, 0]
        assert final == 0.0

    def test_zero_delay_interleaves_after_already_queued_same_instant(self):
        """A zero-delay event scheduled from a callback runs after events
        already queued for the same instant (insertion order wins)."""
        loop = EventLoop()
        fired: list[str] = []

        def first() -> None:
            fired.append("a")
            loop.schedule(0.0, lambda: fired.append("a-child"))

        loop.schedule(1.0, first)
        loop.schedule(1.0, lambda: fired.append("b"))
        loop.run()
        assert fired == ["a", "b", "a-child"]

    def test_zero_service_time_jobs_complete_in_order(self):
        loop = EventLoop()
        resource = FifoResource(loop, "dev")
        completions: list[int] = []
        for index in range(4):
            resource.acquire(0.0, lambda _t, i=index: completions.append(i))
        elapsed = loop.run()
        assert completions == [0, 1, 2, 3]
        assert elapsed == 0.0
        assert resource.jobs_served == 4


class TestSameInstantDeterminism:
    def test_interleaved_schedule_orders_by_insertion(self):
        loop = EventLoop()
        fired: list[int] = []
        # Schedule at mixed times; ties broken by scheduling sequence.
        loop.schedule(2.0, lambda: fired.append(20))
        loop.schedule(1.0, lambda: fired.append(10))
        loop.schedule(2.0, lambda: fired.append(21))
        loop.schedule(1.0, lambda: fired.append(11))
        loop.run()
        assert fired == [10, 11, 20, 21]

    def test_two_identical_runs_fire_identically(self):
        def run_once() -> list[float]:
            loop = EventLoop()
            resource = FifoResource(loop, "dev")
            times: list[float] = []
            for _ in range(8):
                loop.schedule(0.5, lambda: resource.acquire(0.25, times.append))
            loop.run()
            return times

        assert run_once() == run_once()

    def test_resource_handoff_at_shared_instant(self):
        """A job completing at t and a job arriving at t serialise: the
        arrival queues behind whatever acquire order the instant produced."""
        loop = EventLoop()
        resource = FifoResource(loop, "dev")
        completions: list[tuple[str, float]] = []
        resource.acquire(1.0, lambda t: completions.append(("first", t)))
        loop.schedule(1.0, lambda: resource.acquire(1.0, lambda t: completions.append(("second", t))))
        loop.run()
        assert completions == [("first", 1.0), ("second", 2.0)]


class TestBoundedBufferBackpressure:
    @pytest.fixture(scope="class")
    def helmet_mini(self):
        return load_dataset("helmet", "test", fraction=0.05)

    @pytest.fixture(scope="class")
    def deployment(self):
        return Deployment(
            edge=JETSON_NANO,
            cloud=RTX3060_SERVER,
            link=WLAN,
            small_model_flops=5.6e9,
            big_model_flops=61.2e9,
        )

    def test_simultaneous_arrivals_drop_beyond_queue_bound(self, deployment, helmet_mini):
        """A burst arriving into a full buffer: one frame in service plus
        ``max_edge_queue`` waiting are accepted, the rest are dropped."""
        loop_probe = EventLoop()
        resource = FifoResource(loop_probe, "edge")
        accepted = 0
        bound = 3
        for _ in range(10):
            if resource.queue_depth >= bound:
                continue
            resource.acquire(1.0, lambda _t: None)
            accepted += 1
        assert accepted == bound + 1  # one in service + bound queued
        assert resource.max_queue_depth == bound

    def test_stream_counts_drops_under_burst(self, deployment, helmet_mini):
        """Periodic arrivals far above the edge service rate with a tiny
        buffer: the report's drop accounting stays exact."""
        config = StreamConfig(fps=200.0, duration_s=1.0, poisson=False, max_edge_queue=2)
        report = serve_fleet(deployment, helmet_mini, FleetSpec(edge_only_scheme(), config), seed=1).cameras[0]
        assert report.frames_dropped > 0
        assert report.frames_served + report.frames_dropped == report.frames_offered
        # The buffer bound caps the backlog: served latency never exceeds
        # (bound + 1) service times plus the service itself.
        edge_service = deployment.edge.inference_latency(5.6e9) + deployment.edge.inference_latency(2.0e4)
        assert report.latency.p99 <= (config.max_edge_queue + 2) * edge_service + 1e-9

    def test_drop_accounting_deterministic(self, deployment, helmet_mini):
        config = StreamConfig(fps=150.0, duration_s=2.0, max_edge_queue=1)
        a = serve_fleet(deployment, helmet_mini, FleetSpec(edge_only_scheme(), config), seed=2).cameras[0]
        b = serve_fleet(deployment, helmet_mini, FleetSpec(edge_only_scheme(), config), seed=2).cameras[0]
        assert a == b
        assert a.frames_dropped > 0

    def test_negative_delay_and_service_still_rejected(self):
        loop = EventLoop()
        # Scheduling into the past is a caller configuration error, not a
        # runtime-model failure; NaN delays are rejected the same way.
        with pytest.raises(ConfigurationError):
            loop.schedule(-0.5, lambda: None)
        with pytest.raises(ConfigurationError):
            loop.schedule(float("nan"), lambda: None)
        resource = FifoResource(loop, "dev")
        with pytest.raises(RuntimeModelError):
            resource.acquire(-1.0, lambda _t: None)

    def test_cancel_running_job_returns_none_and_keeps_queue_intact(self):
        """Cancelling the in-service (non-waiting) job is a no-op: it
        returns ``None``, the queue keeps its order, and every waiting job
        still completes."""
        loop = EventLoop()
        resource = FifoResource(loop, "dev")
        completions: list[str] = []
        running = resource.acquire(1.0, lambda _t: completions.append("running"))
        a = resource.acquire(2.0, lambda _t: completions.append("a"))
        b = resource.acquire(3.0, lambda _t: completions.append("b"))
        before = [handle for handle, _ in resource.queued_waits()]
        assert resource.cancel(running) is None
        assert resource.jobs_cancelled == 0
        assert [handle for handle, _ in resource.queued_waits()] == before == [a, b]
        loop.run()
        assert completions == ["running", "a", "b"]

    def test_queued_waits_consistent_after_interleaved_cancels(self):
        """Interleaving cancels with new arrivals keeps the wait bounds
        equal to the sum of service times still ahead of each waiting job."""
        loop = EventLoop()
        resource = FifoResource(loop, "dev")
        resource.acquire(10.0, lambda _t: None)  # holds the server
        a = resource.acquire(1.0, lambda _t: None)
        b = resource.acquire(2.0, lambda _t: None)
        assert resource.cancel(a) == 1.0
        c = resource.acquire(4.0, lambda _t: None)
        assert [wait for _, wait in resource.queued_waits()] == [0.0, 2.0]
        assert resource.cancel(c) == 4.0
        d = resource.acquire(0.5, lambda _t: None)
        waits = resource.queued_waits()
        assert [handle for handle, _ in waits] == [b, d]
        assert [wait for _, wait in waits] == [0.0, 2.0]
        assert resource.jobs_cancelled == 2
        loop.run()

    def test_cancel_removes_waiting_job_only(self):
        """A waiting job cancels (its callback never fires, its service
        time is returned); the in-service job refuses — cancellation cannot
        claw back started work."""
        loop = EventLoop()
        resource = FifoResource(loop, "dev")
        completions: list[str] = []
        serving = resource.acquire(1.0, lambda _t: completions.append("serving"))
        waiting = resource.acquire(1.5, lambda _t: completions.append("waiting"))
        last = resource.acquire(1.0, lambda _t: completions.append("last"))
        assert resource.cancel(waiting) == 1.5  # the wait it frees behind it
        assert resource.cancel(waiting) is None  # idempotent: already gone
        assert resource.cancel(serving) is None  # in service
        assert resource.jobs_cancelled == 1
        elapsed = loop.run()
        assert completions == ["serving", "last"]
        assert elapsed == 2.0  # the cancelled second job never served
        assert resource.cancel(last) is None  # completed long ago

    def test_queued_waits_bound_queue_order(self):
        """queued_waits sums the service times ahead of each waiting job and
        excludes the in-service job entirely."""
        loop = EventLoop()
        resource = FifoResource(loop, "dev")
        resource.acquire(5.0, lambda _t: None)  # enters service immediately
        a = resource.acquire(1.0, lambda _t: None)
        b = resource.acquire(2.0, lambda _t: None)
        c = resource.acquire(4.0, lambda _t: None)
        waits = resource.queued_waits()
        assert [handle for handle, _ in waits] == [a, b, c]
        assert [wait for _, wait in waits] == [0.0, 1.0, 3.0]
        resource.cancel(b)
        assert [wait for _, wait in resource.queued_waits()] == [0.0, 1.0]
        loop.run()

    def test_burst_into_shared_uplink_cloud_scheme(self, deployment, helmet_mini):
        """Cloud-only admission control guards the uplink queue, not the
        edge: a burst beyond the bound drops there too."""
        from repro.runtime import cloud_only_scheme

        config = StreamConfig(fps=50.0, duration_s=2.0, poisson=False, max_edge_queue=4)
        report = serve_fleet(deployment, helmet_mini, FleetSpec(cloud_only_scheme(), config), seed=3).cameras[0]
        assert report.frames_dropped > 0
        assert report.frames_uploaded == report.frames_served
        assert report.edge_utilization == 0.0  # nothing touched the edge


class TestInServiceHandle:
    """``in_service`` names the job the server holds: set as a job enters
    service, kept through its completion or failure callback, ``None``
    once the server idles.  Cancelling waiting jobs never moves it."""

    def test_idle_server_has_none(self):
        loop = EventLoop()
        resource = FifoResource(loop, "dev")
        assert resource.in_service is None
        job = resource.acquire(1.0, lambda _t: None)
        assert resource.in_service is job
        loop.run()
        assert resource.in_service is None

    def test_advances_on_complete(self):
        loop = EventLoop()
        resource = FifoResource(loop, "dev")
        held: list[object] = []
        first = resource.acquire(1.0, lambda _t: held.append(resource.in_service))
        second = resource.acquire(2.0, lambda _t: held.append(resource.in_service))
        assert resource.in_service is first
        loop.schedule(1.5, lambda: held.append(resource.in_service))
        loop.run()
        # each completion callback still sees its own job; between them the second serves
        assert held == [first, second, second]
        assert resource.in_service is None

    def test_advances_on_fail(self):
        loop = EventLoop()
        # every job fails halfway through its service
        resource = FifoResource(loop, "link", faults=lambda _start, service: (service / 2.0, False))
        held: list[object] = []
        first = resource.acquire(1.0, lambda _t: None, lambda _t: held.append(resource.in_service))
        second = resource.acquire(1.0, lambda _t: None, lambda _t: held.append(resource.in_service))
        loop.schedule(0.75, lambda: held.append(resource.in_service))
        loop.run()
        assert held == [first, second, second]
        assert resource.jobs_failed == 2
        assert resource.in_service is None

    def test_cancel_leaves_it_alone(self):
        loop = EventLoop()
        resource = FifoResource(loop, "dev")
        running = resource.acquire(1.0, lambda _t: None)
        waiting = resource.acquire(1.0, lambda _t: None)
        last = resource.acquire(1.0, lambda _t: None)
        assert resource.cancel(waiting) == 1.0
        assert resource.cancel(running) is None
        assert resource.in_service is running
        held: list[tuple[float | None, object]] = []
        # the cancelled job is skipped: the last one is in service by then
        loop.schedule(1.5, lambda: held.append((resource.cancel(last), resource.in_service)))
        loop.run()
        assert held == [(None, last)]
        assert resource.in_service is None
        assert resource.jobs_served == 2 and resource.jobs_cancelled == 1

    def test_idles_between_bursts(self):
        loop = EventLoop()
        resource = FifoResource(loop, "dev")
        held: list[object] = []
        resource.acquire(1.0, lambda _t: None)
        loop.schedule(2.0, lambda: held.append(resource.in_service))
        loop.run()
        job = resource.acquire(1.0, lambda _t: None)
        assert held == [None]
        assert resource.in_service is job


class TestScheduleRepeating:
    """The repeating-timer contract fleet controllers are built on."""

    def test_fires_on_interval_until_predicate_dies(self):
        loop = EventLoop()
        fired: list[float] = []
        loop.schedule(10.0, lambda: None)  # keeps the loop alive to t=10
        loop.schedule_repeating(
            2.5, lambda: fired.append(loop.now), keep_going=lambda: loop.now < 7.0
        )
        final = loop.run()
        # First firing one interval in; the predicate is consulted *after*
        # each firing, so the 7.5 tick runs and then stops the chain.
        assert fired == [2.5, 5.0, 7.5]
        assert final == 10.0

    def test_dead_predicate_still_fires_once(self):
        """The first firing is unconditional; the predicate only gates the
        re-arm, so a controller always gets at least one tick."""
        loop = EventLoop()
        fired: list[float] = []
        loop.schedule_repeating(1.0, lambda: fired.append(loop.now), keep_going=lambda: False)
        final = loop.run()
        assert fired == [1.0]
        assert final == 1.0

    def test_timer_cannot_outlive_its_reason(self):
        """A repeating event never keeps an otherwise-drained loop alive:
        once keep_going() is false the heap empties and run() returns."""
        loop = EventLoop()
        ticks: list[int] = []
        loop.schedule_repeating(
            0.5, lambda: ticks.append(len(ticks)), keep_going=lambda: len(ticks) < 100
        )
        final = loop.run()
        assert len(ticks) == 100
        assert final == pytest.approx(50.0)

    @pytest.mark.parametrize("interval", [0.0, -1.0, float("nan")])
    def test_rejects_non_positive_interval(self, interval):
        loop = EventLoop()
        with pytest.raises(ConfigurationError):
            loop.schedule_repeating(interval, lambda: None, keep_going=lambda: True)


class TestNonFiniteTimesRejected:
    """Infinite and NaN times fail at the call, not deep inside ``run()``."""

    @pytest.mark.parametrize("delay", [float("inf"), float("nan")])
    def test_schedule_rejects_non_finite_delay(self, delay):
        loop = EventLoop()
        with pytest.raises(ConfigurationError):
            loop.schedule(delay, lambda: None)
        assert loop.run() == 0.0

    def test_repeating_rejects_infinite_interval(self):
        with pytest.raises(ConfigurationError):
            EventLoop().schedule_repeating(float("inf"), lambda: None, keep_going=lambda: True)

    @pytest.mark.parametrize("service_time", [float("inf"), float("nan")])
    def test_acquire_rejects_non_finite_service_time(self, service_time):
        loop = EventLoop()
        resource = FifoResource(loop, "dev")
        with pytest.raises(RuntimeModelError):
            resource.acquire(service_time, lambda _t: None)
        assert resource.queue_depth == 0

    @pytest.mark.parametrize("duration", [float("inf"), float("nan"), -1.0])
    def test_acquire_rejects_bad_service_fn_duration(self, duration):
        loop = EventLoop()
        resource = FifoResource(loop, "link")
        with pytest.raises(RuntimeModelError):
            resource.acquire(1.0, lambda _t: None, service_fn=lambda _grant: duration)

    @pytest.mark.parametrize(
        "times",
        [[1.0, float("nan")], [float("inf")], [2.0, 1.0], [-1.0]],
        ids=["nan", "inf", "decreasing", "past"],
    )
    def test_schedule_series_rejects_bad_times(self, times):
        loop = EventLoop()
        with pytest.raises(ConfigurationError):
            loop.schedule_series(times, lambda _i, _t: None)
        assert loop.run() == 0.0

    def test_schedule_series_rejects_times_before_now(self):
        loop = EventLoop()
        loop.schedule(2.0, lambda: None)
        loop.run()
        with pytest.raises(ConfigurationError):
            loop.schedule_series([1.5, 3.0], lambda _i, _t: None)


# A tiny event program: series (launched up front or from an event), single
# events and per-element follow-ups.  Times sit on a
# quarter-second grid so `t - now + now == t` exactly and the per-element
# reference schedules the very same heap keys.
_TICKS = st.lists(st.integers(0, 6), max_size=6).map(sorted)
_FOLLOW_UPS = ("none", "zero-delay", "same-instant-series", "later")


@st.composite
def _event_programs(draw):
    series = draw(
        st.lists(
            st.tuples(
                st.none() | st.integers(0, 6),  # launch tick (None: before run)
                _TICKS,
                st.lists(st.sampled_from(_FOLLOW_UPS), min_size=6, max_size=6),
            ),
            min_size=1,
            max_size=4,
        )
    )
    singles = draw(st.lists(st.integers(0, 8), max_size=4))
    order = draw(st.permutations(range(len(series) + len(singles))))
    return series, singles, order


def _resume_at(jumps, count):
    """The static skip gate a jump list describes: element ``i`` fires when
    ``jumps[i] == 0``, else the series resumes ``jumps[i]`` elements on."""
    return lambda index: index if not jumps[index] else min(index + jumps[index], count)


def _per_element(loop, times, action, jumps=None):
    """The reference: one ``schedule()`` per element that comes due.

    Under a skip gate an element is *due* when the series reaches it; a due
    element the gate skips is a no-op event, and elements it jumps over
    never enter the heap, keeping only their reserved sequence numbers.
    """
    now = loop.now
    due = fired = set(range(len(times)))
    if jumps is not None:
        resume_at = _resume_at(jumps, len(times))
        due, fired, index = set(), set(), 0
        while index < len(times):
            due.add(index)
            resume = resume_at(index)
            if resume == index:
                fired.add(index)
                resume += 1
            index = resume
    for index, time in enumerate(times):
        if index not in due:
            loop._sequence += 1
        elif index in fired:
            loop.schedule(time - now, lambda i=index, t=time: action(i, t))
        else:
            loop.schedule(time - now, lambda: None)


def _lazy(loop, times, action, jumps=None):
    skip = None
    if jumps is not None:
        resume_at = _resume_at(jumps, len(times))

        def skip(index):
            assert loop.now == times[index]
            return resume_at(index)

    loop.schedule_series(times, action, skip=skip)


def _play(program, launch, gates=None):
    """Run ``program`` launching every series through ``launch``; returns
    the firing log, the clock after the run and the sequence counter.

    ``gates`` (one jump list per top-level series) adds a skip gate."""
    series, singles, order = program
    loop = EventLoop()
    log: list[tuple] = []

    def launch_gated(slot, times, action):
        if gates is None:
            launch(loop, times, action)
        else:
            # an element due at the launch instant may ride the fast path,
            # where no gate applies: keep the reference unambiguous
            jumps = [0 if time == loop.now else jump for time, jump in zip(times, gates[slot])]
            launch(loop, times, action, jumps)

    def make_action(name, follow_ups):
        def action(index, time):
            assert time == loop.now
            log.append((name, index, time))
            follow_up = follow_ups[index] if follow_ups else "none"
            if follow_up == "zero-delay":
                loop.schedule(0.0, lambda: log.append((name, index, "zero", loop.now)))
            elif follow_up == "same-instant-series":
                now = loop.now
                launch(loop, [now, now, now + 0.25], make_action(f"{name}/{index}", None))
            elif follow_up == "later":
                loop.schedule(0.5, lambda: log.append((name, index, "later", loop.now)))

        return action

    for slot in order:
        if slot < len(series):
            launch_tick, ticks, follow_ups = series[slot]
            action = make_action(f"s{slot}", follow_ups)
            if launch_tick is None:
                launch_gated(slot, [tick / 4 for tick in ticks], action)
            else:

                def start(slot=slot, ticks=ticks, action=action):
                    launch_gated(slot, [loop.now + tick / 4 for tick in ticks], action)

                loop.schedule(launch_tick / 4, start)
        else:
            tick = singles[slot - len(series)]
            loop.schedule(tick / 4, lambda tick=tick, slot=slot: log.append(("single", slot, loop.now)))
    return log, loop.run(), loop._sequence


class TestScheduleSeries:
    """``schedule_series`` is one lazily advanced heap entry, yet fires
    exactly like scheduling every element up front."""

    @settings(max_examples=300, deadline=None)
    @given(program=_event_programs())
    def test_matches_per_element_schedule(self, program):
        lazy = _play(program, lambda loop, times, action: loop.schedule_series(times, action))
        eager = _play(program, _per_element)
        assert lazy == eager

    @settings(max_examples=300, deadline=None)
    @given(
        program=_event_programs(),
        gates=st.lists(st.lists(st.integers(0, 7), min_size=6, max_size=6), min_size=4, max_size=4),
    )
    def test_skip_gate_matches_per_element_schedule_of_kept_elements(self, program, gates):
        """A gated series fires its kept elements exactly as per-element
        ``schedule`` calls would: same firing log, clocks and sequence
        counter.  Jumps reach past the end (skip-to-end) and the quarter
        grid makes equal-time ties common."""
        assert _play(program, _lazy, gates) == _play(program, _per_element, gates)

    def test_skip_to_end_and_across_equal_time_ties(self):
        loop = EventLoop()
        fired: list[tuple] = []
        times = [1.0, 2.0, 2.0, 2.0, 3.0, 4.0]
        # element 1 skips its two equal-time successors; element 4 skips to the end
        resume_at = {1: 3, 4: len(times)}
        loop.schedule_series(times, lambda i, t: fired.append((i, t)), skip=lambda index: resume_at.get(index, index))
        loop.schedule(2.0, lambda: fired.append(("single", loop.now)))
        # element 4 comes due (the clock reaches 3.0); element 5 never enters the heap
        assert loop.run() == 3.0
        assert fired == [(0, 1.0), (3, 2.0), ("single", 2.0)]
        assert loop._sequence == len(times) + 1

    @pytest.mark.parametrize(
        "skip", [None, lambda index: index, lambda index: 3], ids=["plain", "gated", "skip-to-end"]
    )
    def test_finished_series_is_freed_without_the_collector(self, skip):
        """A finished series holds no reference cycle, so the object its
        action is bound to goes as soon as the last reference does."""

        class Owner:
            def on_element(self, index, time):
                pass

        enabled = gc.isenabled()
        gc.disable()
        try:
            loop = EventLoop()
            owner = Owner()
            loop.schedule_series([1.0, 2.0, 3.0], owner.on_element, skip=skip)
            loop.run()
            alive = weakref.ref(owner)
            del owner
            assert alive() is None
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("resume", [0, 9])
    def test_skip_gate_must_move_forward_within_the_series(self, resume):
        loop = EventLoop()
        loop.schedule_series([1.0, 2.0], lambda _i, _t: None, skip=lambda index: resume if index else index)
        with pytest.raises(ConfigurationError):
            loop.run()

    def test_holds_one_heap_entry_per_series(self):
        loop = EventLoop()
        fired: list[tuple[int, float]] = []
        loop.schedule_series([1.0, 2.0, 2.0, 3.0], lambda i, t: fired.append((i, t)))
        loop.schedule_series([0.5, 2.0], lambda i, t: fired.append((10 + i, t)))
        assert len(loop._heap) == 2
        assert loop.run() == 3.0
        assert fired == [(10, 0.5), (0, 1.0), (1, 2.0), (2, 2.0), (11, 2.0), (3, 3.0)]

    def test_empty_series_is_a_no_op(self):
        loop = EventLoop()
        loop.schedule_series([], lambda _i, _t: None)
        assert loop.run() == 0.0


class TestCollectorPause:
    """``run()`` pauses the cyclic collector and leaves it as it found it."""

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    @staticmethod
    def _loop(seen: list[bool]) -> EventLoop:
        loop = EventLoop()
        for delay in (1.0, 2.0, 3.0):
            loop.schedule(delay, lambda: seen.append(gc.isenabled()))
        return loop

    @pytest.mark.parametrize("enabled", [True, False])
    def test_normal_drain(self, enabled):
        gc.enable() if enabled else gc.disable()
        seen: list[bool] = []
        assert self._loop(seen).run() == 3.0
        assert seen == [False, False, False]
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_action_that_raises(self, enabled):
        gc.enable() if enabled else gc.disable()
        loop = EventLoop()

        def boom():
            raise RuntimeError("action failed")

        loop.schedule(1.0, boom)
        with pytest.raises(RuntimeError, match="action failed"):
            loop.run()
        assert gc.isenabled() is enabled
