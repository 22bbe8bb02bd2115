"""In-memory span tracer for the traced benchmark run.

Spans are recorded from the benchmark's own files only: around the
runner's calls into each layer, around public functions rebound where their
caller imported them, and through forwarding proxies around policy objects.
Nothing under ``src/`` changes.

A span has a name (its layer), a start, an end and the span that was open
when it started.  A layer's *self time* is its spans' durations minus the
part covered by their child spans, so nested layers are never counted twice.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Columnar span log plus named counters, kept in memory for one run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, float] = {}
        self._distinct: dict[str, set] = {}
        self._stack: list[int] = [-1]

    def __len__(self) -> int:
        return len(self.names)

    def count(self, key: str, value: float = 1) -> None:
        """Add ``value`` to the counter ``key``."""
        self.counters[key] = self.counters.get(key, 0) + value

    def count_distinct(self, key: str, item) -> None:
        """Count ``item`` under ``key`` the first time it is seen."""
        seen = self._distinct.setdefault(key, set())
        if item not in seen:
            seen.add(item)
            self.count(key)

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span of layer ``name``."""
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        try:
            yield
        finally:
            self.ends[index] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` with every call recorded as a span of layer ``name``.

        ``on_result(result, args, kwargs)`` runs after the span closes, so
        counting work done never adds to the layer's measured time.
        """
        names, starts, ends, parents, stack = self.names, self.starts, self.ends, self.parents, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return traced

    def self_times(self) -> dict[str, tuple[float, int]]:
        """``layer -> (self seconds, span count)`` over every closed span."""
        child_time = [0.0] * len(self.names)
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                child_time[parent] += self.ends[index] - self.starts[index]
        totals: dict[str, tuple[float, int]] = {}
        for index, name in enumerate(self.names):
            own = self.ends[index] - self.starts[index] - child_time[index]
            seconds, calls = totals.get(name, (0.0, 0))
            totals[name] = (seconds + own, calls + 1)
        return totals

    def inclusive_time(self, name: str) -> float:
        """Wall seconds inside outermost spans of layer ``name``."""
        total = 0.0
        for index, span_name in enumerate(self.names):
            if span_name != name:
                continue
            parent = self.parents[index]
            while parent >= 0 and self.names[parent] != name:
                parent = self.parents[parent]
            if parent < 0:
                total += self.ends[index] - self.starts[index]
        return total

    def coverage(self, start: float, end: float) -> float:
        """Share of ``[start, end]`` covered by root spans inside it."""
        covered = 0.0
        for index, parent in enumerate(self.parents):
            if parent < 0 and self.starts[index] >= start and self.ends[index] <= end:
                covered += self.ends[index] - self.starts[index]
        return covered / (end - start) if end > start else 0.0


@contextmanager
def rebound(tracer: Tracer, targets):
    """Temporarily replace attributes with traced wrappers.

    ``targets`` holds ``(owner, attribute, layer, on_result)`` tuples; an
    owner is a module (a function as its caller imported it) or a class (a
    method or classmethod).  Every original is restored on exit.
    """
    saved = []
    try:
        for owner, attribute, layer, on_result in targets:
            original = owner.__dict__[attribute]
            if isinstance(original, classmethod):
                replacement = classmethod(tracer.wrap(layer, original.__func__, on_result))
            else:
                replacement = tracer.wrap(layer, original, on_result)
            setattr(owner, attribute, replacement)
            saved.append((owner, attribute, original))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


class TimedProxy:
    """Forwarding proxy that records spans around chosen methods.

    It has exactly the wrapped object's attributes: a method named in
    ``timed`` but absent from the target stays absent on the proxy, so the
    engine's optional-hook checks (``getattr(policy, "observe", None)``)
    take the same path as with the bare object.
    """

    def __init__(self, target, tracer: Tracer, timed: dict[str, str], overrides: dict | None = None) -> None:
        object.__setattr__(self, "_target", target)
        for method, layer in timed.items():
            bound = getattr(target, method, None)
            if bound is not None:
                object.__setattr__(self, method, tracer.wrap(layer, bound))
        for method, replacement in (overrides or {}).items():
            if getattr(target, method, None) is not None:
                object.__setattr__(self, method, replacement)

    def __getattr__(self, name: str):
        return getattr(object.__getattribute__(self, "_target"), name)


class LoopProxy:
    """Event-loop proxy whose repeating actions are recorded as spans.

    Handed to a fleet controller's ``attach`` so its periodic sweep, which
    the controller schedules on itself, shows up as its own layer.
    """

    def __init__(self, loop, tracer: Tracer, layer: str) -> None:
        object.__setattr__(self, "_loop", loop)
        object.__setattr__(self, "_tracer", tracer)
        object.__setattr__(self, "_layer", layer)

    def schedule_repeating(self, interval, action, *, keep_going):
        tracer = object.__getattribute__(self, "_tracer")
        layer = object.__getattribute__(self, "_layer")
        object.__getattribute__(self, "_loop").schedule_repeating(
            interval, tracer.wrap(layer, action), keep_going=keep_going
        )

    def __getattr__(self, name: str):
        return getattr(object.__getattribute__(self, "_loop"), name)
