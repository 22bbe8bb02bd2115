"""Detection substrate: boxes, containers, anchors, NMS, matching."""

from repro.detection.anchors import (
    AnchorGrid,
    FeatureMapSpec,
    generate_anchors,
    num_anchors,
    ssd300_feature_maps,
    ssd300_small_feature_maps,
    yolo_feature_maps,
)
from repro.detection.batch import (
    DetectionBatch,
    DetectionBatchBuilder,
    GroundTruthBatch,
)
from repro.detection.boxes import (
    as_boxes,
    box_area,
    clip_boxes,
    iou_matrix,
    pairwise_iou,
    scale_boxes,
    validate_boxes,
)
from repro.detection.matching import IOU_THRESHOLD, greedy_match_segments
from repro.detection.nms import class_aware_nms, nms_indices
from repro.detection.types import Detections, GroundTruth

__all__ = [
    "AnchorGrid",
    "FeatureMapSpec",
    "generate_anchors",
    "num_anchors",
    "ssd300_feature_maps",
    "ssd300_small_feature_maps",
    "yolo_feature_maps",
    "as_boxes",
    "box_area",
    "clip_boxes",
    "iou_matrix",
    "pairwise_iou",
    "scale_boxes",
    "validate_boxes",
    "DetectionBatch",
    "DetectionBatchBuilder",
    "GroundTruthBatch",
    "IOU_THRESHOLD",
    "greedy_match_segments",
    "class_aware_nms",
    "nms_indices",
    "Detections",
    "GroundTruth",
]
