"""Edge cases of the time-varying link model.

:class:`RateSchedule` construction and integration (many-breakpoint spans,
exact-breakpoint starts, constant-schedule scalar identity), the
:class:`NetworkLink` mean-rate invariant, deferred-cost jobs on
:class:`FifoResource`, and the bundled trace loader.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError, RuntimeModelError
from repro.runtime import (
    WLAN,
    EventLoop,
    FifoResource,
    NetworkLink,
    OutageSchedule,
    RateSchedule,
    UnreliableLink,
    bundled_trace,
    load_rate_trace,
)


class TestRateScheduleConstruction:
    def test_empty_schedule_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one breakpoint"):
            RateSchedule(times=(), rates_mbps=())

    def test_empty_trace_rejected(self):
        with pytest.raises(ConfigurationError, match="rate trace is empty"):
            RateSchedule.from_trace([], [])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="lengths differ"):
            RateSchedule(times=(0.0, 1.0), rates_mbps=(5.0,))

    def test_must_start_at_zero(self):
        with pytest.raises(ConfigurationError, match="start at t=0"):
            RateSchedule(times=(1.0, 2.0), rates_mbps=(5.0, 3.0))

    def test_times_strictly_increasing(self):
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            RateSchedule(times=(0.0, 2.0, 2.0), rates_mbps=(5.0, 3.0, 4.0))
        # NaN fails every comparison, so it used to pass the ordering check
        for times in ((0.0, float("nan")), (0.0, float("inf")), (0.0, 1.0, float("nan"))):
            with pytest.raises(ConfigurationError, match="finite and strictly increasing"):
                RateSchedule(times=times, rates_mbps=(5.0,) * len(times))

    def test_zero_rate_directed_to_outage_schedule(self):
        with pytest.raises(ConfigurationError, match="OutageSchedule"):
            RateSchedule(times=(0.0, 1.0), rates_mbps=(5.0, 0.0))
        for rates in ((float("nan"), 3.0), (5.0, float("inf"))):
            with pytest.raises(ConfigurationError, match="finite and > 0"):
                RateSchedule(times=(0.0, 1.0), rates_mbps=rates)

    def test_trace_starting_late_extends_backwards(self):
        schedule = RateSchedule.from_trace([3.0, 5.0], [2.0, 4.0])
        assert schedule.times == (0.0, 3.0, 5.0)
        assert schedule.rates_mbps == (2.0, 2.0, 4.0)

    def test_periodic_places_dips(self):
        schedule = RateSchedule.periodic(
            base_mbps=5.0, dip_mbps=1.0, period_s=10.0, dip_s=2.0, duration_s=30.0, offset_s=4.0
        )
        assert schedule.rate_at(0.0) == 5.0
        assert schedule.rate_at(4.0) == 1.0
        assert schedule.rate_at(6.0) == 5.0
        assert schedule.rate_at(15.0) == 1.0
        assert schedule.rate_at(100.0) == 5.0

    @pytest.mark.parametrize("field", ["base_mbps", "dip_mbps", "period_s", "dip_s", "duration_s", "offset_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_periodic_parameters_rejected(self, field, value):
        # a NaN duration or offset used to build a constant schedule, and an
        # infinite duration never stopped adding dips
        valid = {"base_mbps": 5.0, "dip_mbps": 1.0, "period_s": 10.0, "dip_s": 2.0, "duration_s": 30.0, "offset_s": 0.0}
        with pytest.raises(ConfigurationError):
            RateSchedule.periodic(**{**valid, field: value})

    def test_always_is_constant(self):
        schedule = RateSchedule.always(5.5)
        assert schedule.is_constant
        assert schedule.mean_rate_mbps == 5.5
        assert schedule.span_s == 0.0


class TestTransferDuration:
    def test_constant_schedule_matches_scalar_arithmetic_exactly(self):
        """The final-segment fast path is the scalar formula, bit for bit."""
        schedule = RateSchedule.always(5.5)
        for payload in (1, 997, 138840, 10**7):
            assert schedule.transfer_duration(0.0, payload) == payload * 8 / (5.5 * 1e6)
            assert schedule.transfer_duration(123.456, payload) == payload * 8 / (5.5 * 1e6)

    def test_zero_payload_is_free(self):
        schedule = RateSchedule.from_trace([0.0, 1.0], [5.0, 1.0])
        assert schedule.transfer_duration(0.5, 0) == 0.0

    def test_many_breakpoint_span_matches_manual_integration(self):
        """A transfer crossing many segments delivers exactly its payload."""
        times = [float(t) for t in range(50)]
        rates = [1.0 + (t % 7) * 0.5 for t in range(50)]
        schedule = RateSchedule.from_trace(times, rates)
        payload = 4_000_000  # 32 Mb: spans tens of 1-s segments
        start = 2.25
        duration = schedule.transfer_duration(start, payload)
        # Manually integrate capacity over [start, start + duration).
        delivered_mb = 0.0
        t = start
        end = start + duration
        while t < end:
            index = max(0, len([x for x in schedule.times if x <= t]) - 1)
            seg_end = schedule.times[index + 1] if index + 1 < len(schedule.times) else end
            step = min(seg_end, end) - t
            delivered_mb += step * schedule.rates_mbps[index]
            t += step
        assert delivered_mb == pytest.approx(payload * 8 / 1e6, rel=1e-12)

    def test_start_exactly_at_breakpoint_uses_new_rate(self):
        schedule = RateSchedule.from_trace([0.0, 10.0], [1.0, 4.0])
        # At t=10.0 the 4 Mbps segment (final, infinite) is in effect.
        assert schedule.transfer_duration(10.0, 500_000) == 500_000 * 8 / (4.0 * 1e6)
        # Just before, the transfer straddles the breakpoint and is slower.
        assert schedule.transfer_duration(9.999, 500_000) > schedule.transfer_duration(
            10.0, 500_000
        )

    def test_start_beyond_span_holds_final_rate(self):
        schedule = RateSchedule.from_trace([0.0, 10.0], [1.0, 4.0])
        assert schedule.transfer_duration(1000.0, 500_000) == 500_000 * 8 / (4.0 * 1e6)

    def test_transfer_spanning_dip_slower_than_around_it(self):
        schedule = RateSchedule.periodic(
            base_mbps=5.0, dip_mbps=0.5, period_s=20.0, dip_s=4.0, duration_s=20.0, offset_s=8.0
        )
        payload = 1_000_000
        in_dip = schedule.transfer_duration(8.0, payload)
        before = schedule.transfer_duration(0.0, payload)
        assert in_dip > before

    def test_scaled_by_float(self):
        schedule = RateSchedule.from_trace([0.0, 5.0], [2.0, 4.0])
        doubled = schedule.scaled(2.0)
        assert doubled.rates_mbps == (4.0, 8.0)
        assert doubled.times == schedule.times

    def test_scaled_by_schedule_merges_breakpoints(self):
        base = RateSchedule.from_trace([0.0, 10.0], [4.0, 2.0])
        scale = RateSchedule.from_trace([0.0, 5.0], [1.0, 0.5])
        product = base.scaled(scale)
        assert product.times == (0.0, 5.0, 10.0)
        assert product.rates_mbps == (4.0, 2.0, 1.0)


class TestNetworkLinkSchedule:
    def test_with_rate_schedule_keeps_mean_invariant(self):
        schedule = RateSchedule.from_trace([0.0, 10.0, 20.0], [8.0, 2.0, 5.0])
        link = WLAN.with_rate_schedule(schedule)
        assert link.bandwidth_mbps == schedule.mean_rate_mbps
        assert link.time_varying
        assert link.rtt_s == WLAN.rtt_s and link.jitter_s == WLAN.jitter_s

    def test_direct_mismatch_rejected(self):
        schedule = RateSchedule.from_trace([0.0, 10.0], [8.0, 2.0])
        with pytest.raises(ConfigurationError, match="with_rate_schedule"):
            NetworkLink(name="bad", bandwidth_mbps=5.5, schedule=schedule)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("bandwidth_mbps", float("nan")),
            ("bandwidth_mbps", float("inf")),
            ("rtt_s", float("nan")),
            ("rtt_s", float("inf")),
            ("jitter_s", float("nan")),
            ("jitter_s", float("inf")),
        ],
    )
    def test_non_finite_link_parameters_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            NetworkLink(name="bad", **{"bandwidth_mbps": 10.0, field: value})
        with pytest.raises(ConfigurationError):
            UnreliableLink(name="bad", **{"bandwidth_mbps": 10.0, field: value})

    def test_constant_schedule_is_not_time_varying(self):
        link = WLAN.with_rate_schedule(RateSchedule.always(WLAN.bandwidth_mbps))
        assert not link.time_varying
        assert link.transfer_duration(17.0, 10_000) == WLAN.expected_transfer_time(10_000)

    def test_time_varying_transfer_integrates_from_start(self):
        schedule = RateSchedule.from_trace([0.0, 10.0], [8.0, 2.0])
        link = WLAN.with_rate_schedule(schedule)
        fast = link.transfer_duration(0.0, 100_000)
        slow = link.transfer_duration(10.0, 100_000)
        assert fast == link.rtt_s / 2.0 + schedule.transfer_duration(0.0, 100_000)
        assert slow > fast

    def test_unreliable_wrap_carries_schedule(self):
        """`wrap` enumerates NetworkLink fields, so `schedule` survives."""
        scheduled = WLAN.with_rate_schedule(RateSchedule.from_trace([0.0, 10.0], [8.0, 2.0]))
        wrapped = UnreliableLink.wrap(scheduled, outages=OutageSchedule())
        assert wrapped.schedule == scheduled.schedule
        assert wrapped.bandwidth_mbps == scheduled.bandwidth_mbps
        assert wrapped.time_varying

    def test_wrap_then_reschedule(self):
        """`with_rate_schedule` works on the wrapper too (dataclasses.replace)."""
        wrapped = UnreliableLink.wrap(WLAN, loss_probability=0.1)
        scheduled = wrapped.with_rate_schedule(RateSchedule.from_trace([0.0, 10.0], [8.0, 2.0]))
        assert isinstance(scheduled, UnreliableLink)
        assert scheduled.loss_probability == 0.1
        assert scheduled.time_varying


class TestDeferredServiceCost:
    def test_service_fn_resolves_at_grant_time(self):
        loop = EventLoop()
        resource = FifoResource(loop, "uplink")
        grants: list[float] = []
        done: list[float] = []

        def cost(grant_time: float) -> float:
            grants.append(grant_time)
            return 2.0 if grant_time >= 3.0 else 1.0

        resource.acquire(3.0, done.append, service_fn=lambda t: 3.0)
        resource.acquire(1.0, done.append, service_fn=cost)
        loop.run()
        # Second job granted when the first completes at t=3 -> costs 2.0.
        assert grants == [3.0]
        assert done == [3.0, 5.0]

    def test_estimate_drives_queued_waits(self):
        loop = EventLoop()
        resource = FifoResource(loop, "uplink")
        resource.acquire(5.0, lambda _t: None, service_fn=lambda t: 5.0)  # in service
        handle = resource.acquire(1.0, lambda _t: None, service_fn=lambda t: 99.0)
        resource.acquire(1.0, lambda _t: None)
        waits = resource.queued_waits()
        # The waiting deferred job contributes its *estimate* (1.0), not the
        # resolved 99.0, to the job behind it.
        assert waits[0][0] is handle and waits[0][1] == 0.0
        assert waits[1][1] == 1.0

    def test_negative_resolved_duration_rejected(self):
        loop = EventLoop()
        resource = FifoResource(loop, "uplink")
        # The resource is idle, so the job enters service inside acquire()
        # and the bad resolved duration is rejected right there.
        with pytest.raises(RuntimeModelError, match="negative duration"):
            resource.acquire(1.0, lambda _t: None, service_fn=lambda t: -0.5)

    def test_fault_hook_sees_resolved_duration(self):
        outages = OutageSchedule(windows=((4.0, 6.0),))
        seen: list[tuple[float, float]] = []

        def faults(start: float, duration: float) -> tuple[float, bool]:
            seen.append((start, duration))
            failure = outages.failure_instant(start, duration)
            if failure is None:
                return duration, True
            return failure - start, False

        loop = EventLoop()
        resource = FifoResource(loop, "uplink", faults=faults)
        failed: list[float] = []
        resource.acquire(
            1.0, lambda _t: None, failed.append, service_fn=lambda t: 5.0
        )
        loop.run()
        # The hook saw the resolved 5.0 s duration, so the job hit the outage
        # at t=4 even though the caller's estimate (1.0 s) would have missed.
        assert seen == [(0.0, 5.0)]
        assert failed == [4.0]


class TestTraceLoader:
    def test_bundled_traces_load(self):
        lte = bundled_trace("lte_like")
        dip = bundled_trace("periodic_dip")
        scale = bundled_trace("mobility_scale")
        assert not lte.is_constant and not dip.is_constant and not scale.is_constant
        assert 0.3 <= min(lte.rates_mbps) <= 0.5  # the congestion trough
        assert min(dip.rates_mbps) < max(dip.rates_mbps)
        # The mobility profile is a dimensionless modulation around 1.0.
        assert 0.2 < min(scale.rates_mbps) < 1.0 < max(scale.rates_mbps) < 2.0

    def test_bundled_trace_cached(self):
        assert bundled_trace("lte_like") is bundled_trace("lte_like")

    def test_unknown_trace_lists_available(self):
        with pytest.raises(ConfigurationError, match="lte_like"):
            bundled_trace("no-such-trace")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            load_rate_trace(tmp_path / "absent.json")

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_rate_trace(path)

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"times_s": [0.0, 1.0]}))
        with pytest.raises(ConfigurationError, match="'times_s' and 'mbps'"):
            load_rate_trace(path)

    def test_roundtrip_matches_from_trace(self, tmp_path):
        payload = {"times_s": [0.0, 2.0, 4.0], "mbps": [5.0, 1.0, 3.0]}
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(payload))
        assert load_rate_trace(path) == RateSchedule.from_trace(
            payload["times_s"], payload["mbps"]
        )
