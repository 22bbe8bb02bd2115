"""Verbatim per-frame ``BudgetController`` and ``AdaptiveQuota.decide`` (reference oracle).

This is the controller as it was before the adaptive offload decision moved
to per-record features extracted once: every decision re-extracted the
image's features from a :class:`Detections` view and rebuilt the frozen
discriminator with ``dataclasses.replace`` after an ``np.clip``.  It is kept
as the equality oracle for ``test_adaptive.py`` (controller level) and
``test_serving_equivalence.py`` (fleet level) — the scalar controller is
pinned *bit for bit* against it.  Do not modernise this file; its value is
that it does not change.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.discriminator import DifficultCaseDiscriminator
from repro.detection.batch import DetectionBatch
from repro.errors import ConfigurationError
from repro.runtime.control import AdaptiveQuota

__all__ = ["BudgetController", "LegacyAdaptiveQuota"]


class BudgetController:
    """Online integral controller tracking a target upload ratio.

    Wraps a fitted :class:`DifficultCaseDiscriminator` and adjusts its area
    threshold after every decision:

    ``area += gain * (target - realised_ratio)``

    A higher area threshold uploads more (more images fail the "too small"
    test), so the sign is positive.  The realised ratio is tracked with an
    exponential moving average, making the controller robust to drift in
    the scene distribution.
    """

    def __init__(
        self,
        discriminator: DifficultCaseDiscriminator,
        target_ratio: float,
        *,
        gain: float = 0.05,
        ema_halflife: int = 50,
        area_bounds: tuple[float, float] = (0.0, 0.8),
    ) -> None:
        if not 0.0 < target_ratio < 1.0:
            raise ConfigurationError("target_ratio must be in (0, 1)")
        if gain <= 0.0:
            raise ConfigurationError("gain must be positive")
        if ema_halflife < 1:
            raise ConfigurationError("ema_halflife must be >= 1")
        lo, hi = area_bounds
        if not 0.0 <= lo < hi:
            raise ConfigurationError("invalid area bounds")
        self._initial = discriminator
        self._initial_target = target_ratio
        self._discriminator = discriminator
        self.target_ratio = target_ratio
        self.gain = gain
        self._alpha = 1.0 - 0.5 ** (1.0 / ema_halflife)
        self._bounds = area_bounds
        self._ema = target_ratio
        self.decisions = 0
        self.uploads = 0

    def reset(self) -> None:
        """Forget all adaptation: behave as freshly constructed.

        Restores the discriminator, target ratio and EMA to their
        construction-time values and zeroes the decision counters, so the
        same controller can be reused across independent runs without
        leaking threshold state between them.
        """
        self._discriminator = self._initial
        self.target_ratio = self._initial_target
        self._ema = self._initial_target
        self.decisions = 0
        self.uploads = 0

    @property
    def discriminator(self) -> DifficultCaseDiscriminator:
        """The currently adapted discriminator."""
        return self._discriminator

    @property
    def realised_ratio(self) -> float:
        """Total uploads / total decisions so far."""
        if self.decisions == 0:
            return 0.0
        return self.uploads / self.decisions

    def decide(self, detections) -> bool:
        """Decide one image and adapt the area threshold."""
        verdict = self._discriminator.decide(detections)
        self.decisions += 1
        self.uploads += int(verdict)
        self._ema = (1.0 - self._alpha) * self._ema + self._alpha * float(verdict)
        error = self.target_ratio - self._ema
        new_area = float(
            np.clip(
                self._discriminator.area_threshold + self.gain * error,
                self._bounds[0],
                self._bounds[1],
            )
        )
        self._discriminator = replace(self._discriminator, area_threshold=new_area)
        return verdict


class LegacyAdaptiveQuota(AdaptiveQuota):
    """:class:`AdaptiveQuota` deciding through the legacy controller.

    ``controller_for`` and ``decide`` are the historical bodies: one legacy
    :class:`BudgetController` per camera, fed a fresh ``Detections`` view of
    the record on every frame.  Everything else (feedback, reset,
    counters) is inherited unchanged.
    """

    def __init__(self, discriminator, small_detections, target_ratio, **kwargs) -> None:
        super().__init__(discriminator, small_detections, target_ratio, **kwargs)
        self._small = DetectionBatch.coerce(small_detections)

    def controller_for(self, camera) -> BudgetController:
        controller = self._controllers.get(id(camera))
        if controller is None:
            controller = BudgetController(
                self._discriminator,
                self.target_ratio,
                gain=self._gain,
                ema_halflife=self._ema_halflife,
                area_bounds=self._area_bounds,
            )
            self._controllers[id(camera)] = controller
        return controller

    def decide(self, camera, record_index: int) -> bool:
        return self.controller_for(camera).decide(self._small[record_index])
