"""Network-link model for the edge-to-cloud WLAN.

Three layers live here: :class:`RateSchedule`, a piecewise-constant
bandwidth profile (constant, periodic dips, or a measured trace);
:class:`NetworkLink`, the bandwidth/RTT/jitter model the paper's Table XI
accounting uses — optionally carrying a schedule so transfer time depends on
*when* the transfer starts; and the availability wrapper
:class:`UnreliableLink` — the same link with an :class:`OutageSchedule`
(scheduled and/or seeded random down windows) and a per-transfer loss
probability.  The streaming engine consults the wrapper's
:meth:`UnreliableLink.transfer_outcome` at the instant a transfer enters
service, so an uplink transfer in flight when an outage begins fails *at the
outage instant* instead of silently succeeding; on a scheduled link the
transfer's duration is likewise resolved at that instant by integrating the
schedule.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Sequence

import numpy as np

from repro._rng import generator_for
from repro.errors import ConfigurationError

__all__ = [
    "NetworkLink",
    "OutageSchedule",
    "RateSchedule",
    "UnreliableLink",
    "WLAN",
    "ETHERNET_1G",
    "LTE",
]


@dataclass(frozen=True)
class RateSchedule:
    """A piecewise-constant bandwidth profile over simulated time.

    ``rates_mbps[i]`` holds on ``[times[i], times[i + 1])``; the last rate
    extends forever, so every schedule is total.  ``times`` starts at 0 and
    is strictly increasing; all rates are positive (a rate *dip* is a
    schedule concern, a rate of *zero* is an outage and belongs to
    :class:`OutageSchedule` so failure semantics stay in one place).

    Cumulative megabit capacity at each breakpoint is precomputed once, so
    :meth:`transfer_duration` is a closed-form bisect into the prefix sums,
    not a loop over segments — a transfer spanning fifty breakpoints costs
    the same as one spanning none.
    """

    times: tuple[float, ...]
    rates_mbps: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.times:
            raise ConfigurationError("rate schedule needs at least one breakpoint")
        if len(self.times) != len(self.rates_mbps):
            raise ConfigurationError(
                f"times and rates_mbps lengths differ ({len(self.times)} vs {len(self.rates_mbps)})"
            )
        if self.times[0] != 0.0:
            raise ConfigurationError("rate schedule must start at t=0")
        # written as `not <valid range>` so NaN, which fails every comparison, is refused too
        previous = self.times[0]
        for t in self.times[1:]:
            if not previous < t < math.inf:
                raise ConfigurationError("rate schedule times must be finite and strictly increasing")
            previous = t
        for rate in self.rates_mbps:
            if not 0.0 < rate < math.inf:
                raise ConfigurationError(
                    "rates_mbps must be finite and > 0 (model zero-rate windows as an OutageSchedule)"
                )
        # Prefix sums: megabits deliverable over [0, times[i]].  Frozen
        # dataclass, so the cache is installed via object.__setattr__ (same
        # trick as OutageSchedule._starts).
        capacity = [0.0]
        for i in range(1, len(self.times)):
            capacity.append(
                capacity[-1] + (self.times[i] - self.times[i - 1]) * self.rates_mbps[i - 1]
            )
        object.__setattr__(self, "_capacity_mb", tuple(capacity))

    @classmethod
    def always(cls, rate_mbps: float) -> "RateSchedule":
        """A constant schedule — bit-for-bit the scalar-bandwidth model."""
        return cls(times=(0.0,), rates_mbps=(float(rate_mbps),))

    @classmethod
    def periodic(
        cls,
        *,
        base_mbps: float,
        dip_mbps: float,
        period_s: float,
        dip_s: float,
        duration_s: float,
        offset_s: float = 0.0,
    ) -> "RateSchedule":
        """Deterministic congestion cycle: dip to ``dip_mbps`` every period.

        The first dip begins at ``offset_s`` and lasts ``dip_s``; dips repeat
        every ``period_s`` until ``duration_s``, after which the base rate
        holds forever.
        """
        if base_mbps <= 0.0 or dip_mbps <= 0.0:
            raise ConfigurationError("base_mbps and dip_mbps must be > 0")
        if period_s <= 0.0 or duration_s <= 0.0:
            raise ConfigurationError("period_s and duration_s must be positive")
        if not 0.0 < dip_s < period_s:
            raise ConfigurationError("dip_s must lie strictly inside the period")
        if offset_s < 0.0:
            raise ConfigurationError("offset_s must be >= 0")
        points: list[tuple[float, float]] = [(0.0, base_mbps)]
        start = offset_s
        while start < duration_s:
            points.append((start, dip_mbps))
            points.append((start + dip_s, base_mbps))
            start += period_s
        times: list[float] = []
        rates: list[float] = []
        for t, rate in points:
            if times and t == times[-1]:
                rates[-1] = rate
                continue
            if times and rate == rates[-1]:
                continue
            times.append(t)
            rates.append(rate)
        return cls(times=tuple(times), rates_mbps=tuple(rates))

    @classmethod
    def from_trace(
        cls, times: Sequence[float], mbps: Sequence[float]
    ) -> "RateSchedule":
        """Build a schedule from a measured trace (e.g. an LTE bandwidth log).

        ``times`` are sample instants in seconds, ``mbps`` the rate holding
        from each instant to the next.  A trace starting after t=0 is
        extended backwards at its first rate; an empty trace is a
        configuration error, not an always-up default — a missing trace file
        should fail loudly.
        """
        if len(times) == 0 or len(mbps) == 0:
            raise ConfigurationError("rate trace is empty")
        if len(times) != len(mbps):
            raise ConfigurationError(
                f"trace times and mbps lengths differ ({len(times)} vs {len(mbps)})"
            )
        time_points = [float(t) for t in times]
        rate_points = [float(r) for r in mbps]
        if time_points[0] < 0.0:
            raise ConfigurationError("trace times must be >= 0")
        if time_points[0] > 0.0:
            time_points.insert(0, 0.0)
            rate_points.insert(0, rate_points[0])
        return cls(times=tuple(time_points), rates_mbps=tuple(rate_points))

    @property
    def is_constant(self) -> bool:
        """Single-segment schedules reduce to the scalar-bandwidth model."""
        return len(self.times) == 1

    @property
    def span_s(self) -> float:
        """Last breakpoint instant; the final rate holds beyond it forever."""
        return self.times[-1]

    @property
    def mean_rate_mbps(self) -> float:
        """Capacity-weighted mean rate over ``[0, span_s]``.

        The static engine serialises at this figure so Table XI stays
        well-defined on a scheduled link; for a constant schedule it is the
        rate itself, exactly.
        """
        if len(self.times) == 1:
            return self.rates_mbps[0]
        return self._capacity_mb[-1] / self.times[-1]

    def rate_at(self, t: float) -> float:
        """Rate in effect at instant ``t``."""
        if t < 0.0:
            raise ConfigurationError("t must be >= 0")
        return self.rates_mbps[bisect_right(self.times, t) - 1]

    def transfer_duration(self, start: float, payload_bytes: int) -> float:
        """Seconds to serialise ``payload_bytes`` starting at ``start``.

        Closed form: locate the start segment, add the payload's megabits to
        the capacity already consumed by ``start``, and bisect the prefix
        sums for the instant that cumulative capacity is reached.  A start
        inside the final (infinite) segment short-circuits to the scalar
        arithmetic — bit-for-bit what ``payload * 8 / (rate * 1e6)`` gives,
        which is what pins constant schedules to the pre-schedule model.
        """
        if start < 0.0:
            raise ConfigurationError("start must be >= 0")
        if payload_bytes < 0:
            raise ConfigurationError("payload_bytes must be >= 0")
        if payload_bytes == 0:
            return 0.0
        index = bisect_right(self.times, start) - 1
        if index == len(self.times) - 1:
            return payload_bytes * 8 / (self.rates_mbps[index] * 1e6)
        capacity: tuple[float, ...] = self._capacity_mb  # type: ignore[attr-defined]
        consumed = capacity[index] + (start - self.times[index]) * self.rates_mbps[index]
        target = consumed + payload_bytes * 8 / 1e6
        segment = bisect_right(capacity, target) - 1
        end = self.times[segment] + (target - capacity[segment]) / self.rates_mbps[segment]
        return max(0.0, end - start)

    def scaled(self, scale: "RateSchedule | float") -> "RateSchedule":
        """Pointwise product with a scalar or a (dimensionless) schedule.

        Scaling by a schedule merges the breakpoint sets and multiplies the
        rates — how a per-camera mobility profile (``CameraSpec.link_scale``)
        modulates the shared uplink's own schedule.
        """
        if isinstance(scale, RateSchedule):
            merged = sorted(set(self.times) | set(scale.times))
            return RateSchedule(
                times=tuple(merged),
                rates_mbps=tuple(self.rate_at(t) * scale.rate_at(t) for t in merged),
            )
        if scale <= 0.0:
            raise ConfigurationError("scale must be > 0")
        return RateSchedule(
            times=self.times, rates_mbps=tuple(rate * scale for rate in self.rates_mbps)
        )


@dataclass(frozen=True)
class NetworkLink:
    """A point-to-point link with bandwidth, propagation delay and jitter.

    Attributes
    ----------
    bandwidth_mbps:
        Sustained goodput in megabits per second.  When a ``schedule`` is
        attached this is its capacity-weighted mean — the figure every
        time-free consumer (the static engine, wait-bound estimates) uses.
    rtt_s:
        Round-trip propagation + protocol latency in seconds.
    jitter_s:
        Standard deviation of a log-normal multiplicative jitter applied to
        each transfer when an RNG is supplied; 0 disables jitter.
    schedule:
        Optional time-varying rate profile.  ``None`` means constant at
        ``bandwidth_mbps`` — the pre-schedule scalar model, bit for bit.
        Attach one with :meth:`with_rate_schedule`, which keeps the
        mean-rate invariant; the event engines then resolve each transfer's
        duration at grant time via :meth:`transfer_duration`.
    """

    name: str
    bandwidth_mbps: float
    rtt_s: float = 0.01
    jitter_s: float = 0.0
    schedule: RateSchedule | None = None

    def __post_init__(self) -> None:
        # written as `not <valid range>` so NaN, which fails every comparison, is refused too
        if not 0.0 < self.bandwidth_mbps < math.inf:
            raise ConfigurationError(f"bandwidth_mbps must be finite and > 0, got {self.bandwidth_mbps}")
        if not (0.0 <= self.rtt_s < math.inf and 0.0 <= self.jitter_s < math.inf):
            raise ConfigurationError(
                f"rtt_s and jitter_s must be finite and >= 0, got {self.rtt_s} and {self.jitter_s}"
            )
        if self.schedule is not None and self.bandwidth_mbps != self.schedule.mean_rate_mbps:
            raise ConfigurationError(
                f"link {self.name!r}: bandwidth_mbps ({self.bandwidth_mbps}) must equal the "
                f"schedule's mean rate ({self.schedule.mean_rate_mbps}); build scheduled links "
                "with NetworkLink.with_rate_schedule()"
            )

    def with_rate_schedule(self, schedule: RateSchedule) -> "NetworkLink":
        """This link, timed by ``schedule`` instead of a constant rate.

        ``bandwidth_mbps`` becomes the schedule's mean so every mean-rate
        consumer is automatically consistent.  Works on subclasses too —
        an :class:`UnreliableLink` keeps its outages and loss.
        """
        return replace(self, bandwidth_mbps=schedule.mean_rate_mbps, schedule=schedule)

    @property
    def time_varying(self) -> bool:
        """Whether transfer time depends on the start instant.

        Constant schedules report ``False`` so the engines keep the exact
        pre-schedule code path — that, not luck, is what makes the
        constant-schedule equivalence bit-for-bit and overhead-free.
        """
        return self.schedule is not None and not self.schedule.is_constant

    def transfer_duration(self, start: float, payload_bytes: int) -> float:
        """Jitter-free seconds for a transfer *starting at* ``start``.

        On an unscheduled (or constant-schedule) link this is exactly
        :meth:`expected_transfer_time`; on a time-varying link the
        serialisation integrates the schedule from ``start``.
        """
        if self.schedule is None or self.schedule.is_constant:
            return self.expected_transfer_time(payload_bytes)
        return self.rtt_s / 2.0 + self.schedule.transfer_duration(start, payload_bytes)

    def expected_transfer_time(self, payload_bytes: int) -> float:
        """Jitter-free seconds to move ``payload_bytes`` across the link.

        The deterministic figure — half the RTT as the one-way protocol cost
        plus serialisation at the sustained goodput, i.e. the median of the
        log-normal jitter distribution.  This is what the *streaming* engines
        use for every stage service time: queueing there is modelled by the
        event loop, and deterministic service times keep fleet runs
        reproducible event for event.
        """
        if payload_bytes < 0:
            raise ConfigurationError("payload_bytes must be >= 0")
        serialisation = payload_bytes * 8 / (self.bandwidth_mbps * 1e6)
        return self.rtt_s / 2.0 + serialisation

    def transfer_time(self, payload_bytes: int, rng: np.random.Generator | None = None) -> float:
        """Seconds to move ``payload_bytes`` across the link (one way).

        Includes half the RTT as the one-way protocol cost; a full
        request/response exchange therefore costs one RTT plus both
        serialisation times.

        A jittered link (``jitter_s > 0``) *requires* an RNG: silently
        returning the jitter-free figure painted deterministic numbers as
        sampled ones.  Callers that deliberately want the jitter-free figure
        (the static engine's no-upload frames, every streaming stage time)
        use :meth:`expected_transfer_time` instead.
        """
        if self.jitter_s > 0.0 and rng is None:
            raise ConfigurationError(
                f"link {self.name!r} has jitter_s={self.jitter_s} and needs an RNG; "
                "use expected_transfer_time() for the deliberate jitter-free figure"
            )
        base = self.expected_transfer_time(payload_bytes)
        if rng is not None and self.jitter_s > 0.0:
            base *= float(np.exp(rng.normal(0.0, self.jitter_s)))
        return base


@dataclass(frozen=True)
class OutageSchedule:
    """When the edge-to-cloud path is down.

    ``windows`` is a sorted tuple of non-overlapping ``(start, end)`` down
    intervals in simulated seconds; the link is up everywhere else (an empty
    tuple — the default — is an always-up schedule).  Build deterministic
    up/down cycles with :meth:`periodic` and seeded random outages with
    :meth:`random`.
    """

    windows: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        previous_end = 0.0
        for start, end in self.windows:
            if not 0.0 <= start < end:  # NaN bounds fail the comparison too
                raise ConfigurationError(f"malformed outage window ({start}, {end})")
            if start < previous_end:
                raise ConfigurationError("outage windows must be sorted and non-overlapping")
            previous_end = end
        # bisect keys, precomputed once (frozen dataclass: set via object.__setattr__)
        object.__setattr__(self, "_starts", tuple(start for start, _ in self.windows))

    @classmethod
    def always_up(cls) -> "OutageSchedule":
        """A schedule with no outages (the implicit pre-failure-injection world)."""
        return cls()

    @classmethod
    def periodic(
        cls,
        *,
        period_s: float,
        downtime_s: float,
        duration_s: float,
        offset_s: float = 0.0,
    ) -> "OutageSchedule":
        """Deterministic cycle: down for ``downtime_s`` at the top of every period.

        The first outage begins at ``offset_s``; windows are generated until
        ``duration_s``.  ``downtime_s / period_s`` is the downtime fraction.
        """
        if period_s <= 0.0 or duration_s <= 0.0:
            raise ConfigurationError("period_s and duration_s must be positive")
        if not 0.0 < downtime_s < period_s:
            raise ConfigurationError("downtime_s must lie strictly inside the period")
        if offset_s < 0.0:
            raise ConfigurationError("offset_s must be >= 0")
        windows = []
        start = offset_s
        while start < duration_s:
            windows.append((start, start + downtime_s))
            start += period_s
        return cls(windows=tuple(windows))

    @classmethod
    def random(
        cls,
        *,
        seed: int,
        duration_s: float,
        mean_up_s: float,
        mean_down_s: float,
    ) -> "OutageSchedule":
        """Seeded alternating up/down intervals with exponential lengths.

        Starts up; expected downtime fraction is
        ``mean_down_s / (mean_up_s + mean_down_s)``.  The same seed always
        yields the same schedule.
        """
        if duration_s <= 0.0 or mean_up_s <= 0.0 or mean_down_s <= 0.0:
            raise ConfigurationError("duration_s, mean_up_s and mean_down_s must be positive")
        rng = generator_for(seed, "outage-schedule", mean_up_s, mean_down_s)
        windows = []
        t = float(rng.exponential(mean_up_s))
        while t < duration_s:
            down = float(rng.exponential(mean_down_s))
            windows.append((t, t + down))
            t += down + float(rng.exponential(mean_up_s))
        return cls(windows=tuple(windows))

    def is_down(self, t: float) -> bool:
        """Whether the link is inside an outage window at instant ``t``."""
        index = bisect_right(self._starts, t) - 1
        return index >= 0 and t < self.windows[index][1]

    def failure_instant(self, start: float, duration: float) -> float | None:
        """First instant in ``[start, start + duration)`` the link is down.

        ``None`` when the whole interval is up.  A transfer in service over
        that interval fails exactly there — at ``start`` when the link is
        already down, mid-flight when an outage begins during the transfer.
        """
        if self.is_down(start):
            return start
        index = bisect_right(self._starts, start)
        if index < len(self.windows) and self.windows[index][0] < start + duration:
            return self.windows[index][0]
        return None

    def downtime_within(self, duration_s: float) -> float:
        """Total seconds of scheduled downtime inside ``[0, duration_s)``."""
        total = 0.0
        for start, end in self.windows:
            if start >= duration_s:
                break
            total += min(end, duration_s) - start
        return total


@dataclass(frozen=True)
class UnreliableLink(NetworkLink):
    """A :class:`NetworkLink` with scheduled outages and per-transfer loss.

    Timing (bandwidth, RTT, jitter) is the wrapped link's; availability is
    new.  The *static* engine (:func:`repro.runtime.schemes.run_cost`) has no
    time axis, so there the wrapper times transfers exactly like its base
    link; only the event-driven engines consult :meth:`transfer_outcome`
    (via the uplink resource's fault hook) and fail transfers.

    Attributes
    ----------
    outages:
        Down windows; a transfer in service when one begins fails at the
        outage instant, and a transfer starting inside one fails immediately.
    loss_probability:
        Chance an otherwise-successful transfer is lost after paying its
        full serialisation time (congestion loss / timeout, not an outage).
    """

    outages: OutageSchedule = field(default_factory=OutageSchedule)
    loss_probability: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= self.loss_probability < 1.0:
            raise ConfigurationError(
                f"loss_probability must be in [0, 1), got {self.loss_probability}"
            )

    @classmethod
    def wrap(
        cls,
        base: NetworkLink,
        *,
        outages: OutageSchedule | None = None,
        loss_probability: float = 0.0,
    ) -> "UnreliableLink":
        """Wrap an existing link, keeping its timing parameters.

        The timing fields are enumerated from :class:`NetworkLink` itself
        rather than copied by hand, so a new timing field (``schedule`` was
        the motivating case) can never silently drop when wrapping.
        """
        timing = {f.name: getattr(base, f.name) for f in fields(NetworkLink)}
        return cls(
            **timing,
            outages=OutageSchedule() if outages is None else outages,
            loss_probability=loss_probability,
        )

    def transfer_outcome(
        self, start: float, duration: float, rng: np.random.Generator | None = None
    ) -> tuple[float, bool]:
        """``(occupancy seconds, success)`` of a transfer entering service.

        An outage truncates the transfer at the outage instant (zero
        occupancy when the link is already down — a fast connection
        failure); a surviving transfer is then lost with
        ``loss_probability`` after occupying the link for its full duration.
        The loss draw is only consumed when a loss is possible, so a
        zero-loss wrapper reproduces the reliable link draw for draw.
        """
        failure = self.outages.failure_instant(start, duration)
        if failure is not None:
            return failure - start, False
        if self.loss_probability > 0.0 and rng is not None:
            if float(rng.random()) < self.loss_probability:
                return duration, False
        return duration, True

    def fault_model(self, rng: np.random.Generator | None) -> Callable[[float, float], tuple[float, bool]]:
        """Bind :meth:`transfer_outcome` to one RNG for a resource's fault hook."""

        def outcome(start: float, duration: float) -> tuple[float, bool]:
            return self.transfer_outcome(start, duration, rng)

        return outcome


#: The paper's testbed link: edge and server on the same WLAN.
WLAN = NetworkLink(name="wlan", bandwidth_mbps=5.5, rtt_s=0.012, jitter_s=0.15)

#: Wired lab link (ablations).
ETHERNET_1G = NetworkLink(name="ethernet-1g", bandwidth_mbps=940.0, rtt_s=0.001)

#: Cellular uplink (ablations — the wide-area deployment the intro motivates).
LTE = NetworkLink(name="lte", bandwidth_mbps=5.0, rtt_s=0.05, jitter_s=0.3)
