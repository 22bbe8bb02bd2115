"""Suite-level fan-out: overlap whole detection artifacts on the shared pool.

The table/figure suite consumes dozens of distinct ``(model, setting,
split)`` detection artifacts.  Produced one after another, they would leave
the pool idle between artifacts.  :func:`prefetch_detections` instead hands
the whole list to :meth:`~repro.experiments.harness.Harness.prefetch`, which
plans every artifact's cache shards up front and submits *all* missing
shards of *all* artifacts to the harness's single persistent
:class:`~repro.runtime.pool.WorkerPool`, overlapping models and settings
rather than only image ranges.

Guarantees (enforced bit-for-bit by ``tests/test_suite_scheduler.py`` and
the ``suite-parallel`` CI job):

* **Exactness** — every shard is the same pure function of
  ``(seed, profile, image id)`` the serial path computes, and shards are
  assembled in the same range order, so the artifacts are byte-identical to
  ``Harness.detections`` run serially.
* **Cache reuse** — warm disk shards are loaded in the parent and never
  resubmitted; cold shards are persisted as they complete, so an
  interrupted run keeps every finished shard.
* **Deterministic ordering** — results are returned keyed in first-request
  order regardless of worker completion order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.detection.batch import DetectionBatch
from repro.experiments import figures as _figures
from repro.experiments import tables as _tables
from repro.experiments.figures import all_figures
from repro.experiments.harness import Harness
from repro.experiments.results import FigureResult, TableResult
from repro.experiments.tables import all_tables

__all__ = [
    "Artifact",
    "SuiteResult",
    "suite_artifacts",
    "prefetch_detections",
    "run_suite",
]

#: A detection artifact key: ``(model, setting, split)``.
Artifact = tuple[str, str, str]


@dataclass
class SuiteResult:
    """Everything the experiment suite produced, in paper order."""

    tables: list[TableResult] = field(default_factory=list)
    figures: list[FigureResult] = field(default_factory=list)


def suite_artifacts() -> tuple[Artifact, ...]:
    """The distinct detection artifacts of the table/figure suite.

    Concatenates the declarative listings of
    :func:`repro.experiments.tables.detection_artifacts` and
    :func:`repro.experiments.figures.detection_artifacts`, deduplicated in
    first-use order (the figure artifacts are a subset of the table ones, so
    the suite is exactly the table listing).
    """
    return _unique((*_tables.detection_artifacts(), *_figures.detection_artifacts()))


def _unique(artifacts: Iterable[Artifact]) -> tuple[Artifact, ...]:
    ordered: list[Artifact] = []
    seen: set[Artifact] = set()
    for key in artifacts:
        model, setting, split = key
        key = (model, setting, split)
        if key not in seen:
            seen.add(key)
            ordered.append(key)
    return tuple(ordered)


def prefetch_detections(
    harness: Harness,
    artifacts: Sequence[Artifact] | None = None,
) -> dict[Artifact, DetectionBatch]:
    """Produce many detection artifacts at once on the shared worker pool.

    Deduplicates the requested artifacts (default: the whole suite's) in
    first-request order and hands them to :meth:`Harness.prefetch`.
    Afterwards ``harness.detections(...)`` hits the memo cache for every
    prefetched key.  With a serial pool (``workers`` resolving to 1) the
    result is identical; only wall time changes.
    """
    return harness.prefetch(_unique(artifacts if artifacts is not None else suite_artifacts()))


def run_suite(harness: Harness) -> SuiteResult:
    """Run the table/figure suite with detection production fanned out.

    Prefetches every detection artifact the suite consumes (overlapping
    models, settings and splits on the harness pool), then runs the table
    and figure builders — which now hit the memo cache for all expensive
    artifacts — in paper order.
    """
    prefetch_detections(harness)
    return SuiteResult(tables=all_tables(harness), figures=all_figures(harness))
