"""Default-box (anchor) generation for SSD- and YOLO-style detectors.

The paper's small-model design argument is anchored (pun intended) in the
default-box budget: SSD300 places 8 732 default boxes over six feature maps,
and 5 776 of them — 66 % — live on the 38x38 map that the small model
removes.  This module reproduces those numbers exactly so the design claim in
Sec. IV.B is checkable in code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.detection.boxes import clip_boxes
from repro.errors import ConfigurationError

__all__ = [
    "FeatureMapSpec",
    "AnchorGrid",
    "ssd300_feature_maps",
    "ssd300_small_feature_maps",
    "yolo_feature_maps",
    "generate_anchors",
    "num_anchors",
]


@dataclass(frozen=True)
class FeatureMapSpec:
    """One detection feature map.

    Attributes
    ----------
    size:
        Spatial resolution (the map is ``size x size``).
    scale:
        Box scale relative to the image (SSD's ``s_k``).
    next_scale:
        Scale of the following map, used for the extra ``sqrt(s_k * s_k+1)``
        box.  ``None`` disables that box.
    aspect_ratios:
        Aspect ratios in addition to 1.  Each ratio ``r`` contributes boxes
        with width ``s*sqrt(r)`` and height ``s/sqrt(r)`` and its reciprocal.
    """

    size: int
    scale: float
    next_scale: float | None
    aspect_ratios: tuple[float, ...] = (2.0,)

    @property
    def boxes_per_location(self) -> int:
        """Number of default boxes per spatial location."""
        extra = 1 if self.next_scale is not None else 0
        return 1 + extra + 2 * len(self.aspect_ratios)

    @property
    def total_boxes(self) -> int:
        """Default boxes contributed by this map."""
        return self.size * self.size * self.boxes_per_location


@dataclass(frozen=True)
class AnchorGrid:
    """A fully generated anchor set for one detector head."""

    maps: tuple[FeatureMapSpec, ...]
    boxes: np.ndarray = field(repr=False)

    @property
    def total(self) -> int:
        """Total number of anchors."""
        return int(self.boxes.shape[0])


def ssd300_feature_maps() -> tuple[FeatureMapSpec, ...]:
    """The six SSD300 feature maps (VGG16 conv4_3 ... conv11_2).

    Scales follow the original SSD paper (0.1 for conv4_3, then a linear ramp
    0.2..1.05); aspect-ratio sets are ``{2}`` for the first and last two maps
    and ``{2, 3}`` for the middle three, yielding 4/6/6/6/4/4 boxes per
    location and 8 732 boxes in total.
    """
    sizes = (38, 19, 10, 5, 3, 1)
    scales = (0.1, 0.2, 0.375, 0.55, 0.725, 0.9)
    next_scales = (0.2, 0.375, 0.55, 0.725, 0.9, 1.075)
    ratio_sets: tuple[tuple[float, ...], ...] = (
        (2.0,),
        (2.0, 3.0),
        (2.0, 3.0),
        (2.0, 3.0),
        (2.0,),
        (2.0,),
    )
    return tuple(
        FeatureMapSpec(size=s, scale=sc, next_scale=ns, aspect_ratios=ar)
        for s, sc, ns, ar in zip(sizes, scales, next_scales, ratio_sets)
    )


def ssd300_small_feature_maps() -> tuple[FeatureMapSpec, ...]:
    """The small model's five feature maps: SSD300 without the 38x38 map.

    Removing the 38x38 map discards 5 776 of SSD's 8 732 default boxes
    (66 %), which is exactly the design trade-off Sec. IV.B describes: large
    feature maps analyse small objects, so the small model is prone to miss
    small and crowded objects.
    """
    return ssd300_feature_maps()[1:]


def yolo_feature_maps(input_size: int = 608) -> tuple[FeatureMapSpec, ...]:
    """YOLOv4-style three-scale anchor grids (strides 8/16/32).

    YOLO uses 3 anchors per location learned by k-means; we model them as one
    scale with ratio set ``{2}`` (3 boxes/location) per map, which reproduces
    the anchor *budget* ``3 * (S/8)^2 + 3 * (S/16)^2 + 3 * (S/32)^2``.
    """
    if input_size % 32 != 0:
        raise ConfigurationError("YOLO input size must be a multiple of 32")
    sizes = tuple(input_size // stride for stride in (8, 16, 32))
    scales = (0.05, 0.15, 0.4)
    return tuple(
        FeatureMapSpec(size=s, scale=sc, next_scale=None, aspect_ratios=(2.0,))
        for s, sc in zip(sizes, scales)
    )


def _location_centers(size: int) -> np.ndarray:
    """Centers of a ``size x size`` grid in normalised coordinates."""
    step = 1.0 / size
    coords = (np.arange(size) + 0.5) * step
    cx, cy = np.meshgrid(coords, coords)
    return np.stack([cx.ravel(), cy.ravel()], axis=1)


def _map_anchor_shapes(spec: FeatureMapSpec) -> np.ndarray:
    """The ``(boxes_per_location, 2)`` width/height set of one feature map."""
    shapes: list[tuple[float, float]] = [(spec.scale, spec.scale)]
    if spec.next_scale is not None:
        geo = math.sqrt(spec.scale * spec.next_scale)
        shapes.append((geo, geo))
    for ratio in spec.aspect_ratios:
        root = math.sqrt(ratio)
        shapes.append((spec.scale * root, spec.scale / root))
        shapes.append((spec.scale / root, spec.scale * root))
    return np.asarray(shapes, dtype=np.float64)


def generate_anchors(maps: tuple[FeatureMapSpec, ...] | list[FeatureMapSpec]) -> AnchorGrid:
    """Materialise the anchor boxes for a sequence of feature maps.

    Returns an :class:`AnchorGrid` whose boxes are normalised xyxy, clipped
    to the unit square (SSD clips its default boxes the same way).
    """
    if not maps:
        raise ConfigurationError("at least one feature map is required")
    chunks: list[np.ndarray] = []
    for spec in maps:
        centers = _location_centers(spec.size)
        shapes = _map_anchor_shapes(spec)
        # (locations, shapes, 4) -> flatten.
        half = shapes / 2.0
        mins = centers[:, None, :] - half[None, :, :]
        maxs = centers[:, None, :] + half[None, :, :]
        boxes = np.concatenate([mins, maxs], axis=2).reshape(-1, 4)
        chunks.append(boxes)
    all_boxes = clip_boxes(np.concatenate(chunks, axis=0))
    return AnchorGrid(maps=tuple(maps), boxes=all_boxes)


def num_anchors(maps: tuple[FeatureMapSpec, ...] | list[FeatureMapSpec]) -> int:
    """Total anchor count without materialising the boxes."""
    return sum(spec.total_boxes for spec in maps)
