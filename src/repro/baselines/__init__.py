"""Comparison upload strategies (Sec. VI.E)."""

from repro.baselines.blur_upload import BlurUploadPolicy
from repro.baselines.confidence_upload import ConfidenceUploadPolicy, mean_top1_confidence
from repro.baselines.policy import UploadPolicy, quota_mask
from repro.baselines.random_upload import RandomUploadPolicy

__all__ = [
    "BlurUploadPolicy",
    "ConfidenceUploadPolicy",
    "mean_top1_confidence",
    "UploadPolicy",
    "quota_mask",
    "RandomUploadPolicy",
]
