"""Confidence-score models for the simulated detectors.

Three score populations leave a detector, mirroring the structure visible in
the paper's Fig. 6 dump of raw SSD output:

* **served detections** — scores in ``[0.5, 1)``, concentrated around the
  object's difficulty, so that per-class rankings produce realistic PR
  curves;
* **sub-threshold misses** — objects the detector noticed but could not
  commit to (the dog at 0.2507): scores in ``(0.1, 0.45)``, far above the
  noise floor.  These carry the signal the difficult-case discriminator's
  estimated-count feature exploits;
* **noise boxes** — an exponential tail hugging zero, occasionally crossing
  into the sub-threshold band, very rarely past 0.5.

Each model is split into its draw and its arithmetic (``served_beta`` /
``served_from_beta``, ``noise_from_exponential``) so the split-level
detector can draw per image and run the arithmetic once over the split.
"""

from __future__ import annotations

import numpy as np

from repro.simulate.profile import DetectorProfile

__all__ = [
    "served_beta",
    "served_from_beta",
    "noise_from_exponential",
    "served_scores",
    "miss_scores",
    "noise_scores",
]


def served_beta(profile: DetectorProfile, difficulty: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Beta-distribution shape ``(alpha, beta)`` of served scores.

    ``difficulty`` is the per-object detection probability; easier objects
    (higher probability) get a distribution leaning towards 1.
    """
    q = np.clip(np.asarray(difficulty, dtype=np.float64).reshape(-1), 0.05, 0.995)
    kappa = profile.score_sharpness
    return 1.0 + kappa * q, 1.0 + kappa * (1.0 - q)


def served_from_beta(draws: np.ndarray) -> np.ndarray:
    """Map ``Beta(alpha, beta)`` draws into the serving band ``[0.5, 1)``."""
    return 0.5 + 0.4999 * draws


def noise_from_exponential(draws: np.ndarray) -> np.ndarray:
    """Map ``Exponential(fp_score_scale)`` draws to noise scores in ``[0.01, 0.98]``."""
    return np.clip(0.01 + draws, 0.01, 0.98)


def served_scores(
    profile: DetectorProfile,
    difficulty: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Scores of served (>= 0.5) detections.

    ``difficulty`` is the per-object detection probability; easier objects
    (higher probability) receive higher scores on average, which is what
    makes the simulated PR curves decrease plausibly.
    """
    return served_from_beta(rng.beta(*served_beta(profile, difficulty)))


def miss_scores(profile: DetectorProfile, count: int, rng: np.random.Generator) -> np.ndarray:
    """Scores of sub-threshold boxes for missed-but-visible objects."""
    return rng.uniform(profile.miss_score_lo, profile.miss_score_hi, size=count)


def noise_scores(profile: DetectorProfile, count: int, rng: np.random.Generator) -> np.ndarray:
    """Scores of spurious noise boxes: exponential, clipped to [0.01, 0.98]."""
    return noise_from_exponential(rng.exponential(profile.fp_score_scale, size=count))
