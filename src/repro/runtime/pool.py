"""Harness-lifetime persistent process pool.

A table suite produces dozens of detection artifacts; starting a process
pool per artifact would pay process startup dozens of times.
:class:`WorkerPool` amortises that cost across an entire harness lifetime:

* **Lazy start** — constructing a pool is free; the underlying executor is
  created on the first parallel :meth:`~WorkerPool.submit` and reused by every
  later call.
* **Serial fallback** — a pool with ``workers <= 1`` never starts a process;
  :meth:`~WorkerPool.submit` runs the task inline and returns an
  already-completed future, so callers write one code path.
* **Clean shutdown** — pools are context managers; ``__exit__`` (also on
  exception) shuts the executor down and marks the pool closed, and further
  submissions raise :class:`~repro.errors.ConfigurationError`.

Tasks carry their inputs as arguments; the pool holds no reference to
them once they are done.  Results may return through the pool's
**shared-memory arena**: :attr:`WorkerPool.arena` scopes every segment the
workers publish (see :mod:`repro.runtime.shm`), and
:meth:`~WorkerPool.shutdown` sweeps whatever was never adopted, so pool
teardown — normal or exceptional — leaves ``/dev/shm`` clean.

Worker count resolution is shared with the experiment harness: an explicit
``workers`` argument wins, otherwise the ``REPRO_WORKERS`` environment
variable, otherwise 1 (serial).  The ``REPRO_SHM`` environment variable
(``0`` to disable) gates the shared-memory return path.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.runtime.shm import SharedArena, ShmTransport, shm_supported

__all__ = ["WorkerPool", "resolve_workers"]


def resolve_workers(workers: int | None = None) -> int:
    """Resolve a worker count: explicit value > ``REPRO_WORKERS`` env > 1."""
    if workers is None:
        env = os.environ.get("REPRO_WORKERS", "").strip()
        if not env:
            return 1
        try:
            workers = int(env)
        except ValueError:
            raise ConfigurationError(f"REPRO_WORKERS must be an integer, got {env!r}") from None
    workers = int(workers)
    if workers < 1:
        raise ConfigurationError(f"worker count must be >= 1, got {workers}")
    return workers


class WorkerPool:
    """A lazily-started, reusable process pool with a serial fallback.

    The pool is cheap to construct and safe to share: the executor starts at
    most once per pool lifetime (see :attr:`start_count`), every submitter
    sees the same worker processes, and detections stay bit-for-bit identical
    to the serial path because tasks are pure functions of their arguments —
    whether their results return pickled or through the shared-memory arena.
    """

    def __init__(self, workers: int | None = None) -> None:
        self._workers = resolve_workers(workers)
        self._executor: ProcessPoolExecutor | None = None
        self._start_count = 0
        self._closed = False
        self._arena: SharedArena | None = None
        # Workers are pure compute over small inputs: fork is the cheapest
        # start method where it is reliable (Linux), and pinning it keeps
        # behaviour stable across Python versions that change the default.
        # The /dev/shm arena keys off the same flag.
        self._fork = sys.platform.startswith("linux")

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def workers(self) -> int:
        """Configured worker count (1 means serial inline execution)."""
        return self._workers

    @property
    def parallel(self) -> bool:
        """Whether submissions may run on worker processes."""
        return self._workers > 1

    @property
    def started(self) -> bool:
        """Whether the underlying executor currently exists."""
        return self._executor is not None

    @property
    def start_count(self) -> int:
        """How many times an executor has been started (at most 1 per use)."""
        return self._start_count

    @property
    def closed(self) -> bool:
        """Whether the pool has been shut down."""
        return self._closed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else ("started" if self.started else "idle")
        return f"WorkerPool(workers={self._workers}, {state})"

    # ------------------------------------------------------------------ #
    # zero-copy data plane
    # ------------------------------------------------------------------ #
    @property
    def shm_enabled(self) -> bool:
        """Whether shard results may return through shared memory.

        True for parallel pools on Linux (where :mod:`repro.runtime.shm`
        can map segments) unless ``REPRO_SHM=0`` disables the path.  Serial
        pools run inline — there is nothing to transport.
        """
        if not self.parallel or self._closed or not self._fork:
            return False
        env = os.environ.get("REPRO_SHM", "").strip().lower()
        if env in {"0", "off", "false", "no"}:
            return False
        return shm_supported()

    @property
    def arena(self) -> SharedArena | None:
        """The pool's shared-memory arena (``None`` when shm is disabled).

        Created lazily; swept by :meth:`shutdown`, so segment lifetime can
        never exceed pool lifetime.
        """
        if not self.shm_enabled:
            return None
        if self._arena is None:
            self._arena = SharedArena()
        return self._arena

    @property
    def shm_transport(self) -> ShmTransport | None:
        """Worker-side publish instructions, or ``None`` for the pickle path."""
        arena = self.arena
        return arena.transport if arena is not None else None

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Future:
        """Schedule ``fn(*args, **kwargs)``, returning a future.

        Serial pools run the task inline (eagerly, in submission order) and
        return a completed future, so callers need no separate serial branch.
        """
        if self._closed:
            raise ConfigurationError("cannot submit to a closed WorkerPool")
        if not self.parallel:
            future: Future = Future()
            try:
                future.set_result(fn(*args, **kwargs))
            except Exception as exc:
                # Only ordinary errors belong on the future;
                # KeyboardInterrupt/SystemExit must propagate to the caller
                # exactly as they would from any inline call.
                future.set_exception(exc)
            return future
        return self._ensure_executor().submit(fn, *args, **kwargs)

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            context = multiprocessing.get_context("fork") if self._fork else None
            self._executor = ProcessPoolExecutor(max_workers=self._workers, mp_context=context)
            self._start_count += 1
        return self._executor

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers (if any), sweep the arena, refuse further work."""
        if self._executor is not None:
            self._executor.shutdown(wait=wait)
            self._executor = None
        if self._arena is not None:
            # Deterministic unlink of anything the workers published but the
            # parent never adopted (exception paths, abandoned futures).
            self._arena.sweep()
        self._closed = True

    def __enter__(self) -> "WorkerPool":
        if self._closed:
            raise ConfigurationError("cannot re-enter a closed WorkerPool")
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        self.shutdown()
        return False
