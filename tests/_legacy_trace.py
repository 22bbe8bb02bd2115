"""The dense :class:`FrameTraceBuilder`, as it was before verdicts went sparse.

A verbatim copy of the builder that kept all seven columns as typed
``array.array`` columns, the two deferred-verdict columns filled with
``-inf`` / ``-1`` on every appended row.  ``tests/test_trace.py`` drives it
and the package's builder through the same random operation sequences and
requires identical traces.
"""

from __future__ import annotations

import math
from array import array
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.runtime.trace import FrameTrace

_NO_SEGMENT = array("q", [-1])
_NO_VERDICT_TIME = array("d", [-math.inf])


class FrameTraceBuilder:
    """Appendable accumulator producing :class:`FrameTrace` layouts.

    Rows land in seven typed :class:`array.array` columns (``d``/``q``/``b``),
    so logging a frame is seven native appends with no per-row NumPy scalar
    store and no capacity bookkeeping.  Deferred-verdict reconciliation
    mutates rows in place by position — exactly the contract the durable
    escalation queue needs — so :meth:`build` should be called once the run
    has drained; it converts each column to NumPy once.
    """

    __slots__ = (
        "_arrivals",
        "_times",
        "_records",
        "_served",
        "_segments",
        "_verdict_times",
        "_verdict_segments",
    )

    def __init__(self) -> None:
        self._arrivals = array("d")
        self._times = array("d")
        self._records = array("q")
        self._served = array("b")
        self._segments = array("q")
        self._verdict_times = array("d")
        self._verdict_segments = array("q")

    def __len__(self) -> int:
        return len(self._arrivals)

    def append(self, arrival: float, time: float, record: int, served: bool, segment: int = -1) -> int:
        """Log one offered frame; returns its row position.

        ``segment`` is the frame's index in the run's served batch (``-1``
        for drops); the deferred-verdict columns start empty and are filled
        later through :meth:`set_verdict` / :meth:`mark_served`.
        """
        position = len(self._arrivals)
        self._arrivals.append(arrival)
        self._times.append(time)
        self._records.append(record)
        self._served.append(served)
        self._segments.append(segment)
        self._verdict_times.append(-math.inf)
        self._verdict_segments.append(-1)
        return position

    def extend_dropped(self, arrivals: Sequence[float], records: Sequence[int]) -> None:
        """Log a run of dropped frames in one step.

        Row for row the same as ``append(arrival, arrival, record, False)``
        over ``zip(arrivals, records)``: each frame's result time is its
        arrival, it is unserved, and it has no segment or verdict.
        """
        count = len(arrivals)
        if len(records) != count:
            raise ConfigurationError(f"extend_dropped: {len(records)} records for {count} arrivals")
        self._arrivals.extend(arrivals)
        self._times.extend(arrivals)
        self._records.extend(records)
        self._served.frombytes(bytes(count))
        self._segments.extend(_NO_SEGMENT * count)
        self._verdict_times.extend(_NO_VERDICT_TIME * count)
        self._verdict_segments.extend(_NO_SEGMENT * count)

    def set_verdict(self, position: int, time: float, segment: int) -> None:
        """Attach a deferred cloud verdict to an already-served frame."""
        self._verdict_times[position] = time
        self._verdict_segments[position] = segment

    def mark_served(self, position: int, time: float, segment: int) -> None:
        """Un-drop a frame: a recovered escalation produced its first result."""
        self._times[position] = time
        self._served[position] = True
        self._segments[position] = segment

    def build(self) -> "FrameTrace":
        """Snapshot the logged rows as a validated :class:`FrameTrace`."""
        return FrameTrace(
            arrivals=np.array(self._arrivals, dtype=np.float64),
            times=np.array(self._times, dtype=np.float64),
            records=np.array(self._records, dtype=np.int64),
            served=np.array(self._served, dtype=bool),
            segments=np.array(self._segments, dtype=np.int64),
            verdict_times=np.array(self._verdict_times, dtype=np.float64),
            verdict_segments=np.array(self._verdict_segments, dtype=np.int64),
        )
