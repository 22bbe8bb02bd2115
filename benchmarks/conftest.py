"""Shared benchmark fixtures.

Every file here times a kernel, a serving run or the suite scheduler; the
paper's shape claims are checked by ``repro.experiments.claims`` instead.
Benches that need experiment artifacts share one session-scoped harness at
the *full* paper scale (all 4 952 / 4 914 / 1 000 test images, 5 000-image
training subsets for the threshold fits); it memoises detections and fits,
and a persistent disk cache under ``.repro_cache/`` makes re-runs fast.
"""

from __future__ import annotations

import pytest

from repro.experiments import Harness, HarnessConfig


@pytest.fixture(scope="session")
def harness() -> Harness:
    """Full-scale experiment harness shared by every benchmark.

    Worker count comes from ``REPRO_WORKERS`` (serial when unset); the
    harness-lifetime pool — shared by every ``detections()`` call and the
    suite scheduler — is shut down when the benchmark session ends.
    """
    with Harness(HarnessConfig()) as shared:
        yield shared
