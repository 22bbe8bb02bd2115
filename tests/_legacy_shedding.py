"""Shedding as it was before a camera read its sheddable frames directly.

A copy of the id-set formulation: every ``queued_arrivals`` /
``shed_frames`` / ``shed_expired`` call snapshots the whole entry-stage
queue (:meth:`~repro.runtime.events.FifoResource.queued_waits`) and keeps
the camera's entries found in it; ``shed_oldest`` tries to cancel each
entry in turn until one is still waiting.  The estimated admission policy
and the coordinator sweep are copied from the same revision: admission
calls ``shed_frames`` whenever its estimate is warm, and the sweep sorts
every camera by a staleness read through ``queued_arrivals``, whether or
not it holds a waiting frame.

:func:`legacy_serving` swaps these in for one ``serve_fleet`` call, so
``tests/test_shedding_equivalence.py`` can pin the direct reads against
them report for report.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator

from repro.runtime import serving
from repro.runtime.control import CameraView, EstimatedDeadlineAware, UplinkCoordinator
from repro.runtime.engine import _CameraStream


class LegacyCameraStream(_CameraStream):
    """A camera whose shedding verbs snapshot the whole entry stage."""

    def queued_arrivals(self) -> tuple[float, ...]:
        waiting = {id(handle) for handle, _ in self.entry.queued_waits()}
        return tuple(arrival for handle, arrival, _ in self._waiting if id(handle) in waiting)

    def shed_frames(self, doomed: Callable[[int, float], bool]) -> int:
        stage = self.entry
        positions = {id(handle): index for index, (handle, _) in enumerate(stage.queued_waits())}
        count = 0
        index = 0
        while index < len(self._waiting):
            handle, arrival, record_index = self._waiting[index]
            position = positions.get(id(handle))
            if position is None:  # in service: beyond shedding
                index += 1
                continue
            if doomed(position - count, arrival):
                stage.cancel(handle)
                del self._waiting[index]
                self._drop_shed(arrival, record_index)
                count += 1
            else:
                index += 1
        return count

    def shed_oldest(self) -> bool:
        stage = self.entry
        for position, (handle, arrival, record_index) in enumerate(self._waiting):
            if stage.cancel(handle) is not None:
                del self._waiting[position]
                self._drop_shed(arrival, record_index)
                return True
        return False

    def shed_expired(self, freshness_s: float) -> int:
        stage = self.entry
        wait_bounds = {id(handle): wait for handle, wait in stage.queued_waits()}
        now = self.loop.now
        count = 0
        freed = 0.0
        position = 0
        while position < len(self._waiting):
            handle, arrival, record_index = self._waiting[position]
            wait = wait_bounds.get(id(handle))
            if wait is None:  # already in service: beyond shedding
                position += 1
                continue
            wait -= freed
            if now + wait + self._min_remaining(record_index) > arrival + freshness_s:
                freed += stage.cancel(handle) or 0.0
                del self._waiting[position]
                self._drop_shed(arrival, record_index)
                count += 1
            else:
                position += 1
        return count


class LegacyEstimatedDeadlineAware(EstimatedDeadlineAware):
    """Estimated admission that sheds without first checking for a waiting frame."""

    def admit(self, camera: CameraView, arrival: float) -> bool:
        estimate = self._estimates.get(id(camera))
        if (
            estimate is not None
            and estimate.remaining is not None
            and estimate.observations >= self.min_observations
        ):
            now = camera.now
            deadline = self.freshness_s
            floor = now + camera.min_remaining_s() if self.schedule_aware else now
            camera.shed_frames(
                lambda position, queued_arrival: max(
                    estimate.completion_estimate(now, position), floor
                )
                > queued_arrival + deadline
            )
        return camera.buffer_has_room()


class LegacyUplinkCoordinator(UplinkCoordinator):
    """The coordinator sweep that visits every camera, stalest first."""

    def _staleness(self, camera: CameraView, now: float) -> float:
        queued = camera.queued_arrivals()
        return now - queued[0] if queued else 0.0

    def _sweep(self) -> None:
        assert self._loop is not None
        now = self._loop.now
        order = sorted(
            range(len(self._cameras)),
            key=lambda index: self._staleness(self._cameras[index], now),
            reverse=True,
        )
        for index in order:
            camera = self._cameras[index]
            estimate = self._estimates.get(id(camera))
            if (
                estimate is None
                or estimate.remaining is None
                or estimate.observations < self.min_observations
            ):
                continue
            deadline = self.freshness_s
            downstream = self._fleet_downstream
            entry = self._fleet_entry
            floor = now + camera.min_remaining_s() if self.schedule_aware else now
            self.swept += camera.shed_frames(
                lambda position, queued_arrival: max(
                    estimate.completion_estimate(now, position, downstream, entry), floor
                )
                > queued_arrival + deadline
            )


@contextmanager
def legacy_serving() -> Iterator[None]:
    """Build every ``serve_fleet`` camera as a :class:`LegacyCameraStream`."""
    current = serving._CameraStream
    serving._CameraStream = LegacyCameraStream
    try:
        yield
    finally:
        serving._CameraStream = current
