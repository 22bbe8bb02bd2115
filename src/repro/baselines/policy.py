"""Upload-policy interface shared by the Sec. VI.E baselines.

An :class:`UploadPolicy` replaces the difficult-case discriminator inside
the small-big system: given a split and the small model's preliminary
detections, it decides which images go to the cloud.  The paper's Sec. VI.E
baselines (random / blurred / top-1 confidence) are ratio-quota policies —
they upload exactly a fixed fraction (:func:`quota_mask`), which makes the
mAP comparison at equal bandwidth fair.

Every :class:`UploadPolicy` structurally satisfies the serving pipeline's
:class:`~repro.runtime.policies.OffloadPolicy` protocol, so a baseline wrapped
in :func:`~repro.runtime.schemes.collaborative_scheme` serves through every
engine: the static :func:`~repro.runtime.schemes.run_cost` and the event
engine :func:`~repro.runtime.serving.serve_fleet` (the scheme goes in a
:class:`~repro.runtime.serving.FleetSpec`).  The edge-only and cloud-only
decisions are :class:`~repro.runtime.policies.NeverOffload` and
:class:`~repro.runtime.policies.AlwaysOffload`.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.data.datasets import Dataset
from repro.detection.types import Detections
from repro.errors import ConfigurationError

__all__ = ["UploadPolicy", "quota_mask"]


class UploadPolicy(abc.ABC):
    """Decides which images of a split are uploaded to the cloud."""

    @abc.abstractmethod
    def select(self, dataset: Dataset, small_detections: list[Detections]) -> np.ndarray:
        """Boolean upload mask aligned with ``dataset.records``."""

    @property
    def name(self) -> str:
        """Policy identifier used in reports."""
        return type(self).__name__

    def _check_alignment(self, dataset: Dataset, small_detections: list[Detections] | None) -> None:
        if small_detections is None:
            raise ConfigurationError(
                f"the {self.name} policy needs the small model's detections "
                "(pass small_detections= to the serving engine)"
            )
        if len(dataset) != len(small_detections):
            raise ConfigurationError(f"{len(small_detections)} detection sets for " f"{len(dataset)} images")


def quota_mask(priorities: np.ndarray, ratio: float) -> np.ndarray:
    """Upload mask selecting the ``ratio`` highest-priority images.

    Ties are broken by index for determinism; exactly
    ``round(ratio * N)`` images are selected.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ConfigurationError(f"ratio must be in [0, 1], got {ratio}")
    priorities = np.asarray(priorities, dtype=np.float64).reshape(-1)
    count = int(round(ratio * priorities.shape[0]))
    mask = np.zeros(priorities.shape[0], dtype=bool)
    if count == 0:
        return mask
    order = np.lexsort((np.arange(priorities.shape[0]), -priorities))
    mask[order[:count]] = True
    return mask
