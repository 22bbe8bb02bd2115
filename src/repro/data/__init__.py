"""Synthetic dataset substrate: scenes, splits, rendering, degradation."""

from repro.data.classes import COCO18_CLASSES, HELMET_CLASSES, VOC_CLASSES
from repro.data.datasets import (
    DATASET_SETTINGS,
    Dataset,
    DatasetSetting,
    ImageRecord,
    list_settings,
    load_dataset,
)
from repro.data.degrade import PRISTINE, Degradation, DegradationModel
from repro.data.io import save_dataset, save_detections
from repro.data.render import brenner_gradient, render_image
from repro.data.scene import Scene, SceneProfile, sample_scene
from repro.data.stats import per_image_features

__all__ = [
    "COCO18_CLASSES",
    "HELMET_CLASSES",
    "VOC_CLASSES",
    "DATASET_SETTINGS",
    "Dataset",
    "DatasetSetting",
    "ImageRecord",
    "list_settings",
    "load_dataset",
    "PRISTINE",
    "Degradation",
    "DegradationModel",
    "save_dataset",
    "save_detections",
    "brenner_gradient",
    "render_image",
    "Scene",
    "SceneProfile",
    "sample_scene",
    "per_image_features",
]
