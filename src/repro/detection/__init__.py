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
    box_center,
    box_wh,
    boxes_contain,
    clip_boxes,
    cxcywh_to_xyxy,
    iou_matrix,
    pairwise_iou,
    scale_boxes,
    validate_boxes,
    xyxy_to_cxcywh,
)
from repro.detection.matching import greedy_match_segments
from repro.detection.nms import class_aware_nms, filter_by_score, nms_indices
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
    "box_center",
    "box_wh",
    "boxes_contain",
    "clip_boxes",
    "cxcywh_to_xyxy",
    "iou_matrix",
    "pairwise_iou",
    "scale_boxes",
    "validate_boxes",
    "xyxy_to_cxcywh",
    "DetectionBatch",
    "DetectionBatchBuilder",
    "GroundTruthBatch",
    "greedy_match_segments",
    "class_aware_nms",
    "filter_by_score",
    "nms_indices",
    "Detections",
    "GroundTruth",
]
