"""Latency aggregation helpers for the runtime experiments (Table XI)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["LatencySummary", "summarize_latencies", "summarize_latency_series"]


@dataclass(frozen=True)
class LatencySummary:
    """Summary statistics of per-image end-to-end latencies (seconds)."""

    total: float
    mean: float
    p50: float
    p90: float
    p99: float
    count: int

    def saving_over(self, other: "LatencySummary") -> float:
        """Fractional time saved vs ``other`` (paper: ours saves 32 % vs
        cloud-only)."""
        if other.total <= 0.0:
            return 0.0
        return 1.0 - self.total / other.total


_EMPTY = LatencySummary(total=0.0, mean=0.0, p50=0.0, p90=0.0, p99=0.0, count=0)


def summarize_latencies(latencies: list[float] | np.ndarray) -> LatencySummary:
    """Aggregate a list of per-image latencies."""
    return summarize_latency_series([latencies])[0]


def summarize_latency_series(series: Sequence[list[float] | np.ndarray]) -> list[LatencySummary]:
    """One :class:`LatencySummary` per latency series, in order.

    Series of equal length are stacked and reduced together — one
    ``np.percentile``, ``sum`` and ``mean`` along the rows per distinct
    length — which gives each row the same floats as reducing it alone, so
    a fleet's cameras are summarised in a few NumPy calls rather than one
    set per camera.
    """
    summaries: list[LatencySummary] = [_EMPTY] * len(series)
    by_length: dict[int, list[int]] = {}
    for index, values in enumerate(series):
        by_length.setdefault(values.size if isinstance(values, np.ndarray) else len(values), []).append(index)
    for length, indices in by_length.items():
        if length == 0:
            continue
        rows = np.array([series[index] for index in indices], dtype=np.float64).reshape(len(indices), length)
        p50s, p90s, p99s = np.percentile(rows, (50, 90, 99), axis=1).tolist()
        totals = rows.sum(axis=1).tolist()
        means = rows.mean(axis=1).tolist()
        for row, index in enumerate(indices):
            summaries[index] = LatencySummary(
                total=totals[row], mean=means[row], p50=p50s[row], p90=p90s[row], p99=p99s[row], count=length
            )
    return summaries
