"""Tests for the zoo extensions: autocompression and Faster R-CNN."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.simulate.presets import SHAPE_PRESETS
from repro.zoo import build_model
from repro.zoo.autocompress import (
    SmallModelConfig,
    build_candidate,
    predict_profile,
    search_configuration,
)
from repro.zoo.faster_rcnn import build_faster_rcnn_vgg16, faster_rcnn_feature_maps
from repro.zoo.ssd import build_small_model_1


class TestSmallModelConfig:
    def test_defaults_valid(self):
        assert SmallModelConfig().base == "vgg-lite"

    def test_unknown_base_rejected(self):
        with pytest.raises(ConfigurationError):
            SmallModelConfig(base="resnet")

    def test_extreme_width_rejected(self):
        with pytest.raises(ConfigurationError):
            SmallModelConfig(width_multiplier=3.0)

    def test_bad_divisor_rejected(self):
        with pytest.raises(ConfigurationError):
            SmallModelConfig(extras_divisor=3)


class TestBuildCandidate:
    def test_default_config_matches_small1(self):
        candidate = build_candidate(SmallModelConfig())
        reference = build_small_model_1()
        assert candidate.params == reference.params
        assert candidate.macs == reference.macs

    def test_all_bases_build(self):
        for base in ("vgg-lite", "mobilenet-v1", "mobilenet-v2"):
            spec = build_candidate(SmallModelConfig(base=base))
            assert spec.params > 0 and spec.num_anchors == 2956

    def test_width_monotone_in_size(self):
        narrow = build_candidate(SmallModelConfig(width_multiplier=0.375))
        wide = build_candidate(SmallModelConfig(width_multiplier=1.0))
        assert narrow.params < wide.params
        assert narrow.macs < wide.macs

    def test_extras_divisor_monotone(self):
        thick = build_candidate(SmallModelConfig(extras_divisor=1))
        thin = build_candidate(SmallModelConfig(extras_divisor=4))
        assert thin.params < thick.params

    def test_conv7_width_effect(self):
        small7 = build_candidate(SmallModelConfig(conv7_channels=256))
        large7 = build_candidate(SmallModelConfig(conv7_channels=1024))
        assert small7.params < large7.params


class TestPredictProfile:
    def test_smaller_model_predicts_worse_response(self):
        reference_spec = build_small_model_1()
        reference_profile = SHAPE_PRESETS["small1"]
        tiny = build_candidate(SmallModelConfig(width_multiplier=0.25))
        predicted = predict_profile(tiny, reference_profile, reference_spec=reference_spec)
        assert predicted.area_half > reference_profile.area_half
        assert predicted.crowd_half < reference_profile.crowd_half

    def test_reference_predicts_itself(self):
        reference_spec = build_small_model_1()
        reference_profile = SHAPE_PRESETS["small1"]
        predicted = predict_profile(reference_spec, reference_profile, reference_spec=reference_spec)
        assert predicted.area_half == pytest.approx(reference_profile.area_half)
        assert predicted.crowd_half == pytest.approx(reference_profile.crowd_half)


class TestSearch:
    def test_respects_size_budget(self):
        result = search_configuration(size_budget_mib=10.0)
        assert result.spec.size_mib <= 10.0

    def test_respects_flops_budget(self):
        result = search_configuration(flops_budget_g=2.0)
        assert result.spec.gflops <= 2.0

    def test_respects_joint_budget(self):
        result = search_configuration(size_budget_mib=8.0, flops_budget_g=1.5)
        assert result.spec.size_mib <= 8.0 and result.spec.gflops <= 1.5

    def test_bigger_budget_bigger_model(self):
        small = search_configuration(size_budget_mib=5.0)
        large = search_configuration(size_budget_mib=25.0)
        assert large.spec.gflops > small.spec.gflops

    def test_base_restriction(self):
        result = search_configuration(size_budget_mib=12.0, base="mobilenet-v2")
        assert result.config.base == "mobilenet-v2"

    def test_no_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            search_configuration()

    def test_impossible_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            search_configuration(size_budget_mib=0.1)

    def test_pareto_front_anchored_at_small_model_1(self):
        """Sweeping the edge device's size budget yields a clean
        capability/size front: budgets hold, compute never shrinks, the
        predicted small-object response improves, and at small model 1's
        own budget the search matches the hand design's compute."""
        budgets = (4.0, 8.0, 12.0, 18.5, 30.0)
        results = {budget: search_configuration(size_budget_mib=budget) for budget in budgets}
        for budget, result in results.items():
            assert result.spec.size_mib <= budget
        gflops = [results[b].spec.gflops for b in budgets]
        assert all(b >= a - 1e-9 for a, b in zip(gflops, gflops[1:]))
        assert results[4.0].predicted_profile.area_half > results[30.0].predicted_profile.area_half
        assert results[18.5].spec.gflops >= build_small_model_1().gflops * 0.8


class TestFasterRcnn:
    def test_published_parameter_count(self):
        # VGG16 Faster R-CNN: ~137 M parameters (~523 MiB fp32).
        spec = build_faster_rcnn_vgg16()
        assert spec.params == pytest.approx(137e6, rel=0.03)

    def test_registered(self):
        assert build_model("faster-rcnn").algorithm == "faster-rcnn"

    def test_anchor_grid(self):
        maps = faster_rcnn_feature_maps(600)
        assert maps[0].size == 37
        # 3 scales x 3 ratios per location... spec: 1 + 1 + 2*3 = 8 boxes.
        assert maps[0].boxes_per_location == 8

    def test_heavier_than_ssd(self):
        frcnn = build_faster_rcnn_vgg16()
        ssd = build_model("ssd")
        assert frcnn.params > ssd.params
        assert frcnn.macs > ssd.macs

    def test_num_classes_scales_head(self):
        voc = build_faster_rcnn_vgg16(num_classes=20)
        helmet = build_faster_rcnn_vgg16(num_classes=2)
        assert helmet.params < voc.params
