"""Evaluation substrate: VOC AP/mAP, counting, classification, latency,
rolling online stream quality."""

from repro.metrics.classify import BinaryMetrics, binary_metrics, confusion_counts
from repro.metrics.counting import CountSummary, count_detected_objects, count_summary
from repro.metrics.latency import LatencySummary, summarize_latencies
from repro.metrics.rolling import RollingWindow, rolling_quality
from repro.metrics.voc_ap import (
    EvalResult,
    PRCurve,
    evaluate_detections,
    mean_average_precision,
    voc_ap_from_pr,
)

__all__ = [
    "BinaryMetrics",
    "binary_metrics",
    "confusion_counts",
    "CountSummary",
    "count_detected_objects",
    "count_summary",
    "LatencySummary",
    "summarize_latencies",
    "RollingWindow",
    "rolling_quality",
    "EvalResult",
    "PRCurve",
    "evaluate_detections",
    "mean_average_precision",
    "voc_ap_from_pr",
]
