"""Image-quality degradation model.

The Helmet dataset "comes from a real scene, so there are various classes:
blur, occlusion, water stains, smoke, insufficient light" (Sec. VI.A).  We
model degradation as a per-image *quality* scalar in ``(0, 1]`` plus the
concrete effect used by the renderer (Gaussian blur sigma, brightness
scale).  Detector profiles translate quality into a recall penalty via their
``quality_sensitivity`` exponent, so robustness differences between the big
and small models are exercised end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["Degradation", "DegradationModel", "PRISTINE"]


@dataclass(frozen=True)
class Degradation:
    """Concrete degradation applied to one image."""

    quality: float = 1.0
    blur_sigma: float = 0.0
    brightness: float = 1.0
    kind: str = "none"

    def __post_init__(self) -> None:
        if not 0.0 < self.quality <= 1.0:
            raise ConfigurationError(f"quality must be in (0, 1], got {self.quality}")
        if self.blur_sigma < 0.0:
            raise ConfigurationError("blur_sigma must be >= 0")
        if not 0.0 < self.brightness <= 1.5:
            raise ConfigurationError("brightness out of range (0, 1.5]")


#: The identity degradation.
PRISTINE = Degradation()

#: The degradation kinds a degraded image draws from, by index.
_KINDS = ("blur", "low-light", "smoke")


@dataclass(frozen=True)
class DegradationModel:
    """Dataset-level degradation mix.

    ``degraded_fraction`` of images receive a random degradation whose
    quality is uniform in ``[min_quality, max_quality]``; the rest are
    pristine.  Blur sigma and brightness are derived from the drawn quality
    so that lower quality means blurrier and darker imagery — which is what
    both the Brenner-gradient baseline and the detector penalty consume.
    """

    degraded_fraction: float = 0.0
    min_quality: float = 0.45
    max_quality: float = 0.9
    max_blur_sigma: float = 3.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.degraded_fraction <= 1.0:
            raise ConfigurationError("degraded_fraction must be in [0, 1]")
        if not 0.0 < self.min_quality <= self.max_quality <= 1.0:
            raise ConfigurationError("quality bounds must satisfy 0 < min <= max <= 1")
        if not 0.0 <= self.max_blur_sigma < math.inf:
            raise ConfigurationError(f"max_blur_sigma must be finite and >= 0, got {self.max_blur_sigma}")

    def sample(self, rng: np.random.Generator) -> Degradation:
        """Draw one image's degradation."""
        if rng.uniform() >= self.degraded_fraction:
            return PRISTINE
        quality = float(rng.uniform(self.min_quality, self.max_quality))
        severity = 1.0 - quality
        # Same draw as ``rng.choice`` over the kinds, without building an array.
        kind = _KINDS[int(rng.integers(3))]
        blur_sigma = 0.0
        brightness = 1.0
        if kind == "blur":
            # severity spans [0, 1 - min_quality]; with min_quality == 1 it
            # is always 0, and so is the blur
            if severity > 0.0:
                blur_sigma = self.max_blur_sigma * severity / (1.0 - self.min_quality)
        elif kind == "low-light":
            brightness = max(0.25, 1.0 - 0.9 * severity)
            blur_sigma = 0.3 * severity
        else:  # smoke / haze: mild blur and washed-out contrast
            blur_sigma = 1.5 * severity
            brightness = max(0.5, 1.0 - 0.4 * severity)
        return Degradation(quality=quality, blur_sigma=blur_sigma, brightness=brightness, kind=kind)
