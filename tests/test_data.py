"""Tests for the synthetic dataset substrate."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.classes import COCO18_CLASSES, HELMET_CLASSES, VOC_CLASSES
from repro.data.datasets import DATASET_SETTINGS, list_settings, load_dataset
from repro.data.degrade import Degradation, DegradationModel, PRISTINE
from repro.data.scene import SceneProfile, sample_scene
from repro.data.stats import per_image_features
from repro.errors import ConfigurationError, DatasetError


class TestClasses:
    def test_voc_has_20(self):
        assert len(VOC_CLASSES) == 20

    def test_coco18_is_voc_subset_of_18(self):
        assert len(COCO18_CLASSES) == 18
        assert set(COCO18_CLASSES) < set(VOC_CLASSES)

    def test_helmet_has_2(self):
        assert len(HELMET_CLASSES) == 2


class TestSceneProfile:
    def test_invalid_area_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            SceneProfile(mean_extra_objects=1.0, count_dispersion=1.0, area_min=0.5, area_max=0.1)

    def test_negative_mean_rejected(self):
        with pytest.raises(ConfigurationError):
            SceneProfile(mean_extra_objects=-1.0, count_dispersion=1.0)

    def test_count_p_from_mean(self):
        profile = SceneProfile(mean_extra_objects=2.0, count_dispersion=1.0)
        assert profile.count_p == pytest.approx(1.0 / 3.0)

    @settings(max_examples=40)
    @given(seed=st.integers(0, 100_000))
    def test_sampled_scene_invariants(self, seed):
        profile = SceneProfile(mean_extra_objects=1.5, count_dispersion=0.6)
        rng = np.random.default_rng(seed)
        scene = sample_scene(profile, num_classes=20, rng=rng)
        assert 1 <= scene.num_objects <= profile.max_objects
        assert scene.boxes.shape == (scene.num_objects, 4)
        assert (scene.boxes >= -1e-9).all() and (scene.boxes <= 1.0 + 1e-9).all()
        assert (scene.boxes[:, 2] >= scene.boxes[:, 0]).all()
        assert (scene.boxes[:, 3] >= scene.boxes[:, 1]).all()
        assert (scene.labels >= 0).all() and (scene.labels < 20).all()
        assert scene.min_area_ratio > 0.0

    def test_single_object_when_mean_zero(self):
        profile = SceneProfile(mean_extra_objects=0.0, count_dispersion=1.0)
        rng = np.random.default_rng(0)
        for _ in range(10):
            assert sample_scene(profile, 5, rng).num_objects == 1


class TestDegradation:
    def test_pristine_defaults(self):
        assert PRISTINE.quality == 1.0 and PRISTINE.blur_sigma == 0.0

    def test_invalid_quality_rejected(self):
        with pytest.raises(ConfigurationError):
            Degradation(quality=0.0)

    def test_zero_fraction_always_pristine(self):
        model = DegradationModel(degraded_fraction=0.0)
        rng = np.random.default_rng(1)
        assert all(model.sample(rng) is PRISTINE for _ in range(20))

    def test_full_fraction_always_degraded(self):
        model = DegradationModel(degraded_fraction=1.0)
        rng = np.random.default_rng(1)
        samples = [model.sample(rng) for _ in range(20)]
        assert all(s.quality < 1.0 for s in samples)
        assert {s.kind for s in samples} <= {"blur", "low-light", "smoke"}

    def test_degraded_quality_within_bounds(self):
        model = DegradationModel(degraded_fraction=1.0, min_quality=0.5, max_quality=0.8)
        rng = np.random.default_rng(2)
        for _ in range(50):
            sample = model.sample(rng)
            assert 0.5 <= sample.quality <= 0.8

    def test_kind_draw_matches_rng_choice(self):
        """The kind is the draw ``rng.choice`` over the kinds list makes, and
        it leaves the stream where ``rng.choice`` does."""
        model = DegradationModel(degraded_fraction=0.5)
        for seed in range(2000):
            ours, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
            sample = model.sample(ours)
            if oracle.uniform() < model.degraded_fraction:
                quality = float(oracle.uniform(model.min_quality, model.max_quality))
                assert sample.quality == quality
                assert sample.kind == str(oracle.choice(["blur", "low-light", "smoke"]))
            else:
                assert sample is PRISTINE
            assert ours.integers(0, 2**31 - 1) == oracle.integers(0, 2**31 - 1)


class TestDatasets:
    def test_all_settings_registered(self):
        assert set(list_settings()) == {
            "voc07",
            "voc07+12",
            "voc07++12",
            "coco18",
            "helmet",
        }

    def test_split_sizes_match_paper(self):
        assert DATASET_SETTINGS["voc07"].train_size == 5011
        assert DATASET_SETTINGS["voc07"].test_size == 4952
        assert DATASET_SETTINGS["voc07+12"].train_size == 5011 + 11540
        assert DATASET_SETTINGS["coco18"].train_size == 93353
        assert DATASET_SETTINGS["coco18"].test_size == 4914

    def test_fraction_truncates_stream(self):
        small = load_dataset("voc07", "test", fraction=0.01)
        larger = load_dataset("voc07", "test", fraction=0.02)
        assert len(small) < len(larger)
        for a, b in zip(small.records, larger.records):
            assert a.image_id == b.image_id
            np.testing.assert_array_equal(a.truth.boxes, b.truth.boxes)

    def test_determinism_same_seed(self):
        a = load_dataset("helmet", "test", fraction=0.1, seed=7)
        b = load_dataset("helmet", "test", fraction=0.1, seed=7)
        for ra, rb in zip(a.records, b.records):
            np.testing.assert_array_equal(ra.truth.boxes, rb.truth.boxes)
            assert ra.degradation == rb.degradation

    def test_different_seed_changes_data(self):
        a = load_dataset("helmet", "test", fraction=0.1, seed=7)
        b = load_dataset("helmet", "test", fraction=0.1, seed=8)
        same = all(
            ra.truth.boxes.shape == rb.truth.boxes.shape
            and np.allclose(ra.truth.boxes, rb.truth.boxes)
            for ra, rb in zip(a.records, b.records)
        )
        assert not same

    def test_voc07_and_voc0712_share_test_images(self):
        a = load_dataset("voc07", "test", fraction=0.02)
        b = load_dataset("voc07+12", "test", fraction=0.02)
        for ra, rb in zip(a.records, b.records):
            assert ra.image_id == rb.image_id
            np.testing.assert_array_equal(ra.truth.boxes, rb.truth.boxes)

    def test_voc07pp12_test_differs(self):
        a = load_dataset("voc07", "test", fraction=0.02)
        b = load_dataset("voc07++12", "test", fraction=0.02)
        assert a.records[0].image_id != b.records[0].image_id

    def test_unknown_setting_rejected(self):
        with pytest.raises(DatasetError):
            load_dataset("imagenet", "test")

    def test_unknown_split_rejected(self):
        with pytest.raises(DatasetError):
            load_dataset("voc07", "validation")

    def test_bad_fraction_rejected(self):
        with pytest.raises(DatasetError):
            load_dataset("voc07", "test", fraction=0.0)

    def test_record_lookup(self):
        ds = load_dataset("voc07", "test", fraction=0.005)
        record = ds.records[3]
        assert ds.record(record.image_id) is record
        with pytest.raises(DatasetError):
            ds.record("nope")

    def test_subset(self):
        ds = load_dataset("voc07", "test", fraction=0.01)
        sub = ds.subset(10)
        assert len(sub) == 10 and sub.classes == ds.classes

    def test_helmet_has_degraded_images(self):
        ds = load_dataset("helmet", "test", fraction=0.3)
        qualities = [r.quality for r in ds.records]
        assert min(qualities) < 1.0
        assert sum(q < 1.0 for q in qualities) / len(qualities) == pytest.approx(0.4, abs=0.12)

    def test_with_degradation_keeps_annotations_aligned(self):
        """Quality drift re-samples degradations but never touches truth —
        per-camera (day/night) variants stay record-aligned with the base."""
        ds = load_dataset("helmet", "test", fraction=0.1)
        night = ds.with_degradation(
            DegradationModel(degraded_fraction=1.0, min_quality=0.45, max_quality=0.7),
            scope="night",
        )
        assert len(night) == len(ds)
        assert night.image_ids == ds.image_ids
        for base, drifted in zip(ds.records, night.records):
            assert drifted.truth is base.truth
            assert drifted.quality <= 0.7
        # deterministic in (seed, scope); a different scope drifts differently
        again = ds.with_degradation(
            DegradationModel(degraded_fraction=1.0, min_quality=0.45, max_quality=0.7),
            scope="night",
        )
        assert [r.degradation for r in again.records] == [r.degradation for r in night.records]
        other = ds.with_degradation(
            DegradationModel(degraded_fraction=1.0, min_quality=0.45, max_quality=0.7),
            scope="dawn",
        )
        assert [r.degradation for r in other.records] != [r.degradation for r in night.records]


class TestStats:
    def test_per_image_features_alignment(self):
        ds = load_dataset("voc07", "test", fraction=0.01)
        counts, min_areas = per_image_features(ds)
        assert counts.shape == min_areas.shape == (len(ds),)
        assert counts.min() >= 1
        assert (min_areas > 0).all()

    def test_voc_density_near_devkit(self):
        ds = load_dataset("voc07", "test")
        # VOC2007 test: 12 032 objects over 4 952 images (2.43 per image).
        assert ds.total_objects / len(ds) == pytest.approx(2.43, abs=0.15)

    def test_coco_denser_than_voc(self):
        voc_counts, voc_areas = per_image_features(load_dataset("voc07", "test", fraction=0.2))
        coco_counts, coco_areas = per_image_features(load_dataset("coco18", "test", fraction=0.2))
        assert coco_counts.mean() > voc_counts.mean()
        assert np.median(coco_areas) < np.median(voc_areas)
