"""Latency aggregation helpers for the runtime experiments (Table XI)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LatencySummary", "summarize_latencies"]


@dataclass(frozen=True)
class LatencySummary:
    """Summary statistics of per-image end-to-end latencies (seconds)."""

    total: float
    mean: float
    p50: float
    p90: float
    p99: float
    count: int

    def speedup_over(self, other: "LatencySummary") -> float:
        """How many times faster this run's total is than ``other``'s."""
        if self.total <= 0.0:
            return float("inf")
        return other.total / self.total

    def saving_over(self, other: "LatencySummary") -> float:
        """Fractional time saved vs ``other`` (paper: ours saves 32 % vs
        cloud-only)."""
        if other.total <= 0.0:
            return 0.0
        return 1.0 - self.total / other.total


def summarize_latencies(latencies: list[float] | np.ndarray) -> LatencySummary:
    """Aggregate a list of per-image latencies."""
    values = np.asarray(latencies, dtype=np.float64).reshape(-1)
    if values.size == 0:
        return LatencySummary(total=0.0, mean=0.0, p50=0.0, p90=0.0, p99=0.0, count=0)
    p50, p90, p99 = np.percentile(values, (50, 90, 99)).tolist()
    return LatencySummary(
        total=float(values.sum()),
        mean=float(values.mean()),
        p50=p50,
        p90=p90,
        p99=p99,
        count=int(values.size),
    )
