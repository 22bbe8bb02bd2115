"""Tests for SSD/YOLO anchor generation — the paper's box-budget numbers."""

from __future__ import annotations

import pytest

from repro.detection.anchors import (
    FeatureMapSpec,
    generate_anchors,
    num_anchors,
    ssd300_feature_maps,
    ssd300_small_feature_maps,
    yolo_feature_maps,
)
from repro.errors import ConfigurationError
from repro.zoo.yolo import yolo_small_feature_maps


class TestSsdBudget:
    def test_total_is_8732(self):
        assert num_anchors(ssd300_feature_maps()) == 8732

    def test_first_map_contributes_5776(self):
        maps = ssd300_feature_maps()
        assert maps[0].total_boxes == 5776

    def test_small_model_keeps_2956(self):
        assert num_anchors(ssd300_small_feature_maps()) == 8732 - 5776 == 2956

    def test_removed_fraction_is_66_percent(self):
        removed = 5776 / 8732
        assert removed == pytest.approx(0.66, abs=0.01)

    def test_boxes_per_location_pattern(self):
        pattern = [m.boxes_per_location for m in ssd300_feature_maps()]
        assert pattern == [4, 6, 6, 6, 4, 4]


class TestYoloBudget:
    def test_total_at_608(self):
        maps = yolo_feature_maps(608)
        assert num_anchors(maps) == 3 * (76**2 + 38**2 + 19**2) == 22743

    def test_small_drops_stride8(self):
        assert num_anchors(yolo_small_feature_maps(608)) == 3 * (38**2 + 19**2)

    def test_non_multiple_of_32_rejected(self):
        with pytest.raises(ConfigurationError):
            yolo_feature_maps(600)


class TestGeneration:
    def test_generated_count_matches_analytic(self):
        maps = ssd300_feature_maps()
        grid = generate_anchors(maps)
        assert grid.total == num_anchors(maps)

    def test_anchors_clipped_to_unit_square(self):
        grid = generate_anchors(ssd300_feature_maps())
        assert grid.boxes.min() >= 0.0 and grid.boxes.max() <= 1.0

    def test_square_anchor_centres_form_grid(self):
        spec = FeatureMapSpec(size=2, scale=0.3, next_scale=None, aspect_ratios=())
        grid = generate_anchors((spec,))
        centers = (grid.boxes[:, :2] + grid.boxes[:, 2:]) / 2.0
        expected = {(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)}
        got = {(round(cx, 6), round(cy, 6)) for cx, cy in centers}
        assert got == expected

    def test_empty_map_list_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_anchors(())

    def test_aspect_ratio_boxes_have_reciprocal_shapes(self):
        spec = FeatureMapSpec(size=1, scale=0.4, next_scale=None, aspect_ratios=(2.0,))
        grid = generate_anchors((spec,))
        # boxes: 1 square + 2 ratio boxes
        widths = grid.boxes[:, 2] - grid.boxes[:, 0]
        heights = grid.boxes[:, 3] - grid.boxes[:, 1]
        ratios = sorted((widths / heights).round(4).tolist())
        assert ratios[0] == pytest.approx(0.5, rel=1e-3)
        assert ratios[-1] == pytest.approx(2.0, rel=1e-3)
