"""Unit and property tests for repro.detection.boxes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.boxes import (
    as_boxes,
    box_area,
    clip_boxes,
    iou_matrix,
    pairwise_iou,
    scale_boxes,
    validate_boxes,
)
from repro.errors import GeometryError


def _unit_boxes(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    mins = rng.uniform(0.0, 0.8, size=(n, 2))
    sizes = rng.uniform(0.01, 0.2, size=(n, 2))
    return np.concatenate([mins, mins + sizes], axis=1)


unit_box_strategy = st.builds(
    lambda x0, y0, w, h: np.array([[x0, y0, min(x0 + w, 1.0), min(y0 + h, 1.0)]]),
    st.floats(0.0, 0.9),
    st.floats(0.0, 0.9),
    st.floats(0.001, 0.5),
    st.floats(0.001, 0.5),
)


class TestAsBoxes:
    def test_empty_input_becomes_0x4(self):
        assert as_boxes([]).shape == (0, 4)

    def test_single_flat_box_is_reshaped(self):
        assert as_boxes([0.1, 0.1, 0.2, 0.2]).shape == (1, 4)

    def test_wrong_width_rejected(self):
        with pytest.raises(GeometryError):
            as_boxes(np.zeros((3, 5)))

    def test_wrong_rank_rejected(self):
        with pytest.raises(GeometryError):
            as_boxes(np.zeros((2, 2, 4)))


class TestValidateBoxes:
    def test_inverted_corners_rejected(self):
        with pytest.raises(GeometryError, match="inverted"):
            validate_boxes([[0.5, 0.5, 0.1, 0.6]])

    def test_nan_rejected(self):
        with pytest.raises(GeometryError, match="non-finite"):
            validate_boxes([[0.0, 0.0, np.nan, 1.0]])

    def test_zero_area_boxes_accepted(self):
        out = validate_boxes([[0.2, 0.2, 0.2, 0.2]])
        assert out.shape == (1, 4)

    def test_empty_allowed_by_default(self):
        assert validate_boxes([]).shape == (0, 4)

    def test_empty_rejected_when_required(self):
        with pytest.raises(GeometryError):
            validate_boxes([], allow_empty=False)


class TestArea:
    def test_unit_square_area(self):
        assert box_area([[0.0, 0.0, 1.0, 1.0]])[0] == pytest.approx(1.0)

    def test_area_of_known_box(self):
        assert box_area([[0.1, 0.2, 0.5, 0.6]])[0] == pytest.approx(0.16)


class TestIoU:
    def test_identical_boxes_iou_one(self):
        box = [[0.1, 0.1, 0.4, 0.4]]
        assert iou_matrix(box, box)[0, 0] == pytest.approx(1.0)

    def test_disjoint_boxes_iou_zero(self):
        a = [[0.0, 0.0, 0.2, 0.2]]
        b = [[0.5, 0.5, 0.9, 0.9]]
        assert iou_matrix(a, b)[0, 0] == 0.0

    def test_known_half_overlap(self):
        a = [[0.0, 0.0, 0.2, 0.2]]
        b = [[0.1, 0.0, 0.3, 0.2]]
        # intersection 0.02, union 0.06
        assert iou_matrix(a, b)[0, 0] == pytest.approx(1.0 / 3.0)

    def test_matrix_shape(self):
        assert iou_matrix(_unit_boxes(3), _unit_boxes(5, seed=1)).shape == (3, 5)

    def test_empty_operands(self):
        assert iou_matrix([], _unit_boxes(4)).shape == (0, 4)
        assert iou_matrix(_unit_boxes(2), []).shape == (2, 0)

    def test_degenerate_pair_yields_zero(self):
        degenerate = [[0.3, 0.3, 0.3, 0.3]]
        assert iou_matrix(degenerate, degenerate)[0, 0] == 0.0

    @settings(max_examples=60)
    @given(a=unit_box_strategy, b=unit_box_strategy)
    def test_iou_symmetric_and_bounded(self, a, b):
        forward = iou_matrix(a, b)[0, 0]
        backward = iou_matrix(b, a)[0, 0]
        assert forward == pytest.approx(backward)
        assert 0.0 <= forward <= 1.0 + 1e-12

    @settings(max_examples=60)
    @given(box=unit_box_strategy)
    def test_self_iou_is_one(self, box):
        assert iou_matrix(box, box)[0, 0] == pytest.approx(1.0)

    def test_pairwise_matches_diagonal(self):
        a, b = _unit_boxes(6), _unit_boxes(6, seed=2)
        np.testing.assert_allclose(pairwise_iou(a, b), np.diag(iou_matrix(a, b)), atol=1e-12)

    def test_pairwise_shape_mismatch_rejected(self):
        with pytest.raises(GeometryError):
            pairwise_iou(_unit_boxes(2), _unit_boxes(3))


class TestScale:
    def test_scale_boxes(self):
        scaled = scale_boxes([[0.0, 0.0, 0.5, 1.0]], 200, 100)
        np.testing.assert_allclose(scaled, [[0.0, 0.0, 100.0, 100.0]])

    def test_scale_does_not_mutate_input(self):
        boxes = _unit_boxes(3)
        before = boxes.copy()
        scale_boxes(boxes, 10, 10)
        np.testing.assert_array_equal(boxes, before)


class TestClip:
    def test_clip_bounds(self):
        clipped = clip_boxes([[-0.5, 0.2, 1.5, 0.8]])
        assert clipped[0, 0] == 0.0 and clipped[0, 2] == 1.0
