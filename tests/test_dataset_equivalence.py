"""Columnar dataset generation against the per-image reference oracle.

``load_dataset`` draws every image's scene from its own generator but runs
the scene arithmetic once per split, and ``sample_scene`` is the one-image
case of the same pass.  Both are pinned *bit for bit* against the verbatim
per-image implementation in ``_legacy_dataset.py``: boxes, labels, image
ids, degradations and render seeds must be equal byte for byte, not close.
The columnar form re-derives ``rng.choice(p=)`` and array
``rng.uniform(lo, hi)`` from raw ``rng.random`` draws the way NumPy computes
them; these tests are what catches a NumPy release that changes either.
"""

from __future__ import annotations

import hashlib
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _legacy_dataset as legacy
from repro._rng import generator_for
from repro.data.datasets import DATASET_SETTINGS, Dataset, DatasetSetting, list_settings, load_dataset
from repro.data.degrade import DegradationModel
from repro.data.scene import SceneProfile, sample_scene
from repro.detection.batch import GroundTruthBatch
from repro.errors import ConfigurationError


def records_digest(records) -> str:
    digest = hashlib.sha256()
    for record in records:
        truth = record.truth
        digest.update(record.image_id.encode())
        digest.update(truth.boxes.tobytes())
        digest.update(truth.labels.tobytes())
        digest.update(
            repr(
                (
                    truth.boxes.dtype,
                    truth.boxes.shape,
                    truth.labels.dtype,
                    truth.width,
                    truth.height,
                    record.degradation,
                    record.render_seed,
                )
            ).encode()
        )
    return digest.hexdigest()


def assert_records_equal(new, old) -> None:
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert a.image_id == b.image_id
        assert a.degradation == b.degradation and a.render_seed == b.render_seed
        assert (a.truth.width, a.truth.height) == (b.truth.width, b.truth.height)
        for name in ("boxes", "labels"):
            assert getattr(a.truth, name).dtype == getattr(b.truth, name).dtype
            assert getattr(a.truth, name).tobytes() == getattr(b.truth, name).tobytes()
    assert records_digest(new) == records_digest(old)


def assert_batch_aligned(dataset: Dataset) -> None:
    """The cached batch holds exactly the records' annotations, in order."""
    batch = dataset.truth_batch
    flat = GroundTruthBatch.from_truths(dataset.truths)
    assert batch.image_ids == flat.image_ids == dataset.image_ids
    for name in ("boxes", "labels", "offsets"):
        assert getattr(batch, name).tobytes() == getattr(flat, name).tobytes()
    assert dataset.total_objects == sum(len(truth) for truth in dataset.truths)


# --------------------------------------------------------------------- #
# the registry's settings
# --------------------------------------------------------------------- #
#: A prefix of each split: image i depends only on (seed, scope, i) and the
#: flat arithmetic is element-wise, so a prefix pins the whole stream.
PREFIX_IMAGES = 240


@pytest.mark.parametrize("seed", [20230701, 1])
@pytest.mark.parametrize("split", ["train", "test"])
@pytest.mark.parametrize("setting", list_settings())
def test_registry_splits_match_per_image_oracle(setting, split, seed):
    fraction = PREFIX_IMAGES / DATASET_SETTINGS[setting].size_for(split)
    dataset = load_dataset(setting, split, seed=seed, fraction=fraction)
    assert_records_equal(dataset.records, legacy.load_records(setting, split, seed=seed, fraction=fraction))
    assert_batch_aligned(dataset)


def test_generated_split_is_one_batch_viewed_per_record():
    dataset = load_dataset("helmet", "test", fraction=0.05)
    assert "truth_batch" in dataset.__dict__  # seeded, never re-flattened
    batch = dataset.truth_batch
    for record in dataset.records[:5]:
        assert np.shares_memory(record.truth.boxes, batch.boxes)
        assert np.shares_memory(record.truth.labels, batch.labels)


def test_subset_and_with_degradation_keep_the_batch_aligned():
    dataset = load_dataset("voc07", "test", fraction=0.05)
    for count in (0, 1, 17, len(dataset), len(dataset) + 5):
        subset = dataset.subset(count)
        assert len(subset) == min(count, len(dataset))
        assert_batch_aligned(subset)
        assert np.shares_memory(subset.truth_batch.boxes, dataset.truth_batch.boxes) or count == 0
    drifted = dataset.with_degradation(DegradationModel(degraded_fraction=1.0), seed=3)
    assert drifted.truth_batch is dataset.truth_batch
    assert_batch_aligned(drifted)
    assert_batch_aligned(drifted.subset(9))


def test_hand_built_dataset_flattens_its_records():
    records = legacy.load_records("helmet", "test", fraction=0.02)
    dataset = Dataset(name="helmet", split="test", classes=DATASET_SETTINGS["helmet"].classes, records=records)
    assert_batch_aligned(dataset)
    assert_batch_aligned(dataset.subset(3))


# --------------------------------------------------------------------- #
# generated profiles
# --------------------------------------------------------------------- #
#: Profiles that force width overflow (area * aspect > 1) and height
#: overflow (area / aspect > 1) on a good share of their boxes.
OVERFLOWING = SceneProfile(
    mean_extra_objects=3.0,
    count_dispersion=1.0,
    area_median=0.6,
    area_sigma=0.3,
    area_min=0.2,
    area_max=1.0,
    aspect_sigma=3.0,
)


@st.composite
def scene_profiles(draw):
    area_min = draw(st.sampled_from([1e-5, 3e-4, 0.05, 0.2]))
    area_max = draw(st.sampled_from([0.3, 0.9, 1.0]))
    median = draw(st.floats(area_min, area_max))
    return SceneProfile(
        mean_extra_objects=draw(st.sampled_from([0.0, 0.0, 0.25, 1.45, 6.0, 40.0])),
        count_dispersion=draw(st.sampled_from([0.05, 0.55, 3.0])),
        max_objects=draw(st.sampled_from([1, 2, 5, 40])),
        area_median=median,
        area_sigma=draw(st.sampled_from([0.0, 0.3, 1.35, 4.0])),
        area_min=area_min,
        area_max=area_max,
        class_zipf=draw(st.sampled_from([-0.5, 0.0, 0.8, 3.0])),
        aspect_sigma=draw(st.sampled_from([0.0, 0.45, 2.0, 5.0])),
    )


@st.composite
def degradation_models(draw):
    low = draw(st.floats(0.05, 1.0))
    return DegradationModel(
        degraded_fraction=draw(st.sampled_from([0.0, 0.4, 1.0])),
        min_quality=low,
        max_quality=draw(st.floats(low, 1.0)),
        max_blur_sigma=draw(st.sampled_from([0.0, 3.0])),
    )


@st.composite
def settings_entries(draw):
    classes = tuple(f"c{index}" for index in range(draw(st.sampled_from([1, 2, 20]))))
    return DatasetSetting(
        name="generated",
        classes=classes,
        scene_profile=draw(st.one_of(scene_profiles(), st.just(OVERFLOWING))),
        degradation=draw(degradation_models()),
        train_size=draw(st.integers(0, 40)),
        test_size=draw(st.integers(0, 3)),
        image_width=draw(st.sampled_from([500, 1280])),
        image_height=draw(st.sampled_from([375, 720])),
    )


@settings(max_examples=120, deadline=None)
@given(entry=settings_entries(), split=st.sampled_from(["train", "test"]), seed=st.integers(0, 2**31 - 1))
def test_generated_settings_match_per_image_oracle(entry, split, seed):
    with patch.dict(DATASET_SETTINGS, {"generated": entry}):
        dataset = load_dataset("generated", split, seed=seed)
    expected = legacy.legacy_records(entry, entry.scope_for(split), entry.size_for(split), seed)
    assert_records_equal(dataset.records, expected)
    assert_batch_aligned(dataset)


@settings(max_examples=150, deadline=None)
@given(
    profile=st.one_of(scene_profiles(), st.just(OVERFLOWING)), classes=st.sampled_from([1, 3, 20]), seed=st.integers(0, 2**63)
)
def test_sample_scene_matches_per_image_oracle(profile, classes, seed):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    new = sample_scene(profile, classes, rng)
    old = legacy.sample_scene(profile, classes, oracle_rng)
    for name in ("boxes", "labels", "areas"):
        assert getattr(new, name).dtype == getattr(old, name).dtype
        assert getattr(new, name).tobytes() == getattr(old, name).tobytes()
    # both consumed exactly the same draws
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_overflowing_profile_overflows_both_sides_and_still_matches():
    entry = DatasetSetting(
        name="generated",
        classes=("only",),
        scene_profile=OVERFLOWING,
        degradation=DegradationModel(),
        train_size=300,
        test_size=0,
    )
    with patch.dict(DATASET_SETTINGS, {"generated": entry}):
        dataset = load_dataset("generated", "train", seed=11)
        empty = load_dataset("generated", "test", seed=11)
    assert_records_equal(dataset.records, legacy.legacy_records(entry, entry.scope_for("train"), 300, 11))
    boxes = dataset.truth_batch.boxes
    assert ((boxes[:, 2] - boxes[:, 0]) == 1.0).any()  # width overflowed
    assert ((boxes[:, 3] - boxes[:, 1]) == 1.0).any()  # height overflowed
    assert (dataset.truth_batch.labels == 0).all()
    assert len(empty) == 0 and empty.total_objects == 0
    assert empty.truth_batch.boxes.shape == (0, 4)


def test_scene_draw_order_is_the_documented_one():
    """One image's draws, spelled out: count, normal(count), random(count),
    normal(count), random(2 * count), then the degradation and render seed."""
    entry = DATASET_SETTINGS["voc07"]
    dataset = load_dataset("voc07", "test", fraction=20 / 4952)
    for index, record in enumerate(dataset.records):
        rng = generator_for(20230701, "scene", entry.scope_for("test"), index)
        profile = entry.scene_profile
        count = min(1 + int(rng.negative_binomial(profile.count_dispersion, profile.count_p)), profile.max_objects)
        assert len(record.truth) == count
        for draw in (rng.standard_normal, rng.random, rng.standard_normal):
            draw(count)
        rng.random(2 * count)
        assert record.degradation == entry.degradation.sample(rng)
        assert record.render_seed == int(rng.integers(0, 2**31 - 1))


# --------------------------------------------------------------------- #
# fail-fast specs
# --------------------------------------------------------------------- #
BAD = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize(
    "field, value",
    [("mean_extra_objects", bad) for bad in BAD]
    + [("count_dispersion", bad) for bad in BAD]
    + [("class_zipf", bad) for bad in BAD]
    + [("area_sigma", bad) for bad in BAD + [-0.1]]
    + [("aspect_sigma", bad) for bad in BAD + [-0.1]],
)
def test_scene_profile_refuses_non_finite_or_negative(field, value):
    kwargs = {"mean_extra_objects": 1.0, "count_dispersion": 1.0, field: value}
    with pytest.raises(ConfigurationError, match=field):
        SceneProfile(**kwargs)


@pytest.mark.parametrize("value", BAD + [-0.5])
def test_degradation_model_refuses_bad_blur(value):
    with pytest.raises(ConfigurationError, match="max_blur_sigma"):
        DegradationModel(max_blur_sigma=value)


def test_quality_one_degradation_samples_without_blur():
    model = DegradationModel(degraded_fraction=1.0, min_quality=1.0, max_quality=1.0)
    rng = np.random.default_rng(0)
    samples = [model.sample(rng) for _ in range(30)]
    assert {sample.kind for sample in samples} == {"blur", "low-light", "smoke"}
    assert all(sample.quality == 1.0 and sample.blur_sigma == 0.0 for sample in samples)


def test_zero_spreads_stay_valid():
    profile = SceneProfile(mean_extra_objects=0.0, count_dispersion=1.0, area_sigma=0.0, aspect_sigma=0.0)
    scene = sample_scene(profile, 1, np.random.default_rng(0))
    assert scene.num_objects == 1
    assert DegradationModel(max_blur_sigma=0.0).max_blur_sigma == 0.0
