"""Shared fixtures.

Heavy artifacts (calibrated detectors, quick-size splits and their
detections) are session-scoped: the simulator presets module memoises
calibrated detectors process-wide, so every test file reuses the same ones.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import load_dataset
from repro.experiments import Harness, HarnessConfig
from repro.experiments.suite import SuiteResult, run_suite
from repro.simulate import make_detector


@pytest.fixture(scope="session")
def quick_config(tmp_path_factory) -> HarnessConfig:
    """Small splits + an isolated disk cache directory."""
    cache = tmp_path_factory.mktemp("repro-cache")
    base = HarnessConfig.quick()
    return HarnessConfig(
        seed=base.seed,
        train_images=base.train_images,
        test_fraction=base.test_fraction,
        cache_dir=str(cache),
    )


@pytest.fixture(scope="session")
def harness(quick_config) -> Harness:
    """Session-wide quick harness (worker pool shut down at session end)."""
    with Harness(quick_config) as shared:
        yield shared


@pytest.fixture(scope="session")
def suite(harness) -> SuiteResult:
    """Every table and figure rendered once on the session harness."""
    return run_suite(harness)


@pytest.fixture(scope="session")
def voc_test_small():
    """A 250-image slice of the VOC07 test split."""
    return load_dataset("voc07", "test", fraction=250 / 4952)


@pytest.fixture(scope="session")
def voc_train_small():
    """A 400-image slice of the VOC07 train split."""
    return load_dataset("voc07", "train", fraction=400 / 5011)


@pytest.fixture(scope="session")
def ssd_voc07():
    """Calibrated big model on voc07 (cached process-wide)."""
    return make_detector("ssd", "voc07")


@pytest.fixture(scope="session")
def small1_voc07():
    """Calibrated small model 1 on voc07 (cached process-wide)."""
    return make_detector("small1", "voc07")


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    """A deterministic generator for ad-hoc sampling in tests."""
    return np.random.default_rng(1234)
