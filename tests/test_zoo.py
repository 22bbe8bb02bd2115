"""Tests for the analytic model zoo (layers, backbones, Table II)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, RegistryError
from repro.zoo.backbones import (
    cspdarknet53_trunk,
    mobilenet_v1_trunk,
    mobilenet_v2_trunk,
    vgg16_ssd_trunk,
    vgg_lite_trunk,
)
from repro.zoo.layers import Tape, TensorShape
from repro.zoo.registry import build_model, list_models, model_zoo_table
from repro.zoo.ssd import build_small_model_1, build_ssd300_vgg16
from repro.zoo.yolo import build_small_yolo_mobilenet_v1, build_yolov4


class TestTapePrimitives:
    def test_conv_params_known(self):
        tape = Tape(TensorShape(3, 32, 32))
        tape.conv("c", 16, kernel=3)
        # 3*3*3*16 weights + 16 biases
        assert tape.total_params == 3 * 3 * 3 * 16 + 16

    def test_conv_macs_known(self):
        tape = Tape(TensorShape(3, 32, 32))
        tape.conv("c", 16, kernel=3)
        assert tape.total_macs == 3 * 3 * 3 * 16 * 32 * 32

    def test_stride_halves_output(self):
        tape = Tape(TensorShape(8, 64, 64))
        shape = tape.conv("c", 8, stride=2)
        assert shape.height == 32 and shape.width == 32

    def test_depthwise_groups(self):
        tape = Tape(TensorShape(32, 16, 16))
        tape.depthwise("dw", batch_norm=False)
        # 3*3*1*32 weights + 32 biases (bias on when no BN)
        assert tape.total_params == 9 * 32 + 32

    def test_batch_norm_adds_two_per_channel(self):
        plain = Tape(TensorShape(3, 8, 8))
        plain.conv("c", 4, bias=False)
        with_bn = Tape(TensorShape(3, 8, 8))
        with_bn.conv("c", 4, bias=False, batch_norm=True)
        assert with_bn.total_params == plain.total_params + 8

    def test_pool_free_and_halving(self):
        tape = Tape(TensorShape(8, 10, 10))
        shape = tape.max_pool("p")
        assert shape.height == 5 and tape.total_params == 0

    def test_ceil_mode_pool(self):
        tape = Tape(TensorShape(8, 75, 75))
        shape = tape.max_pool("p", ceil_mode=True)
        assert shape.height == 38

    def test_collapsed_conv_rejected(self):
        tape = Tape(TensorShape(8, 2, 2))
        with pytest.raises(ConfigurationError):
            tape.conv("c", 8, kernel=5, padding=0)

    def test_group_mismatch_rejected(self):
        tape = Tape(TensorShape(6, 8, 8))
        with pytest.raises(ConfigurationError):
            tape.conv("c", 8, groups=4)

    def test_size_mib(self):
        tape = Tape(TensorShape(3, 8, 8))
        tape.conv("c", 4, bias=False)
        assert tape.size_mib == pytest.approx(3 * 3 * 3 * 4 * 4 / 2**20)


class TestBackbones:
    def test_vgg16_taps(self):
        result = vgg16_ssd_trunk()
        assert result.taps["conv4_3"].height == 38
        assert result.taps["conv7"].height == 19
        assert result.taps["conv7"].channels == 1024

    def test_vgg_lite_tap(self):
        result = vgg_lite_trunk()
        assert result.taps["conv7"].height == 19
        assert result.taps["conv7"].channels == 1024

    def test_vgg_lite_has_no_38_tap(self):
        assert "conv4_3" not in vgg_lite_trunk().taps

    def test_mobilenet_v1_truncated_stride(self):
        result = mobilenet_v1_trunk(300, truncate_at_stride=16)
        assert result.taps["final"].height == 19

    def test_mobilenet_v1_full_reaches_stride32(self):
        result = mobilenet_v1_trunk(608, truncate_at_stride=None)
        assert result.taps["final"].height == 19  # 608 / 32

    def test_mobilenet_v2_truncated(self):
        result = mobilenet_v2_trunk(300, truncate_at_stride=16)
        assert result.taps["final"].height == 19

    def test_cspdarknet_taps(self):
        result = cspdarknet53_trunk(608)
        assert result.taps["stage3"].height == 76
        assert result.taps["stage4"].height == 38
        assert result.taps["stage5"].height == 19
        assert result.taps["stage5"].channels == 1024

    def test_bad_width_multiplier_rejected(self):
        with pytest.raises(ConfigurationError):
            vgg_lite_trunk(width_multiplier=0.0)


class TestTable2Budgets:
    """Table II shape assertions: sizes near the paper, pruned > 80 %."""

    def test_ssd_size_matches_paper_exactly(self):
        spec = build_ssd300_vgg16()
        assert spec.size_mib == pytest.approx(100.28, abs=1.0)

    def test_ssd_flops_near_paper(self):
        spec = build_ssd300_vgg16()
        assert spec.gflops == pytest.approx(61.19, rel=0.05)

    def test_small1_near_paper_size(self):
        spec = build_small_model_1()
        assert spec.size_mib == pytest.approx(18.50, rel=0.15)

    def test_all_small_models_pruned_above_80(self):
        big = build_ssd300_vgg16()
        for name in ("small1", "small2", "small3"):
            spec = build_model(name)
            assert spec.pruned_ratio_vs(big) > 80.0, name

    def test_small_ordering(self):
        sizes = [build_model(n).size_mib for n in ("small1", "small2", "small3")]
        assert sizes[0] > sizes[1] > sizes[2]

    def test_small_models_have_no_38_map(self):
        for name in ("small1", "small2", "small3"):
            spec = build_model(name)
            assert spec.num_anchors == 2956, name

    def test_ssd_has_8732_anchors(self):
        assert build_ssd300_vgg16().num_anchors == 8732

    def test_table_rows_structure(self):
        rows = model_zoo_table()
        assert [row["model"] for row in rows] == ["small1", "small2", "small3", "ssd"]
        assert all(row["gflops"] > 0 for row in rows)


class TestYoloBudgets:
    def test_yolov4_matches_published_weight_count(self):
        spec = build_yolov4()
        # YOLOv4 darknet weights: ~245 MB of fp32 parameters (~64 M params).
        assert spec.size_mib == pytest.approx(245.0, rel=0.05)

    def test_yolov4_flops_at_608(self):
        spec = build_yolov4()
        assert spec.gflops == pytest.approx(128.0, rel=0.15)

    def test_small_yolo_pruned_hard(self):
        big = build_yolov4()
        small = build_small_yolo_mobilenet_v1()
        assert small.pruned_ratio_vs(big) > 85.0

    def test_small_yolo_anchor_budget(self):
        small = build_small_yolo_mobilenet_v1()
        assert small.num_anchors == 3 * (38**2 + 19**2)


class TestRegistry:
    def test_all_models_listed(self):
        assert set(list_models()) == {
            "ssd",
            "small1",
            "small2",
            "small3",
            "yolov4",
            "small-yolo",
            "faster-rcnn",
        }

    def test_aliases(self):
        assert build_model("SSD300").name == build_model("ssd").name
        assert build_model("small model 2").name == build_model("small2").name

    def test_unknown_model_rejected(self):
        with pytest.raises(RegistryError):
            build_model("resnet-gigantic")

    def test_num_classes_changes_heads(self):
        voc = build_model("ssd", num_classes=20)
        helmet = build_model("ssd", num_classes=2)
        assert helmet.params < voc.params
