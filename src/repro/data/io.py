"""Dataset and detection serialization (JSON).

Lets users export synthetic splits and detector outputs for inspection or
for use outside this library (e.g. plotting, or feeding a real training
pipeline), and re-import them bit-exactly: :func:`dataset_from_dict` and
:func:`detections_from_dict` read the parsed JSON back.  The format is
intentionally plain: one JSON document, numbers as lists, schema version
pinned.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.data.datasets import Dataset, ImageRecord
from repro.data.degrade import Degradation
from repro.detection.types import Detections, GroundTruth
from repro.errors import DatasetError

__all__ = [
    "dataset_to_dict",
    "dataset_from_dict",
    "save_dataset",
    "detections_to_dict",
    "detections_from_dict",
    "save_detections",
]

_SCHEMA_VERSION = 1


def dataset_to_dict(dataset: Dataset) -> dict:
    """Serialise a dataset split to a JSON-compatible dict."""
    return {
        "schema": _SCHEMA_VERSION,
        "kind": "dataset",
        "name": dataset.name,
        "split": dataset.split,
        "classes": list(dataset.classes),
        "records": [
            {
                "image_id": record.image_id,
                "boxes": record.truth.boxes.tolist(),
                "labels": record.truth.labels.tolist(),
                "width": record.truth.width,
                "height": record.truth.height,
                "quality": record.degradation.quality,
                "blur_sigma": record.degradation.blur_sigma,
                "brightness": record.degradation.brightness,
                "degradation_kind": record.degradation.kind,
                "render_seed": record.render_seed,
            }
            for record in dataset.records
        ],
    }


def dataset_from_dict(payload: dict) -> Dataset:
    """Rebuild a dataset from :func:`dataset_to_dict` output."""
    _check_payload(payload, "dataset")
    records = []
    for entry in payload["records"]:
        truth = GroundTruth(
            image_id=entry["image_id"],
            boxes=np.asarray(entry["boxes"], dtype=np.float64).reshape(-1, 4),
            labels=np.asarray(entry["labels"], dtype=np.int64),
            width=int(entry["width"]),
            height=int(entry["height"]),
        )
        degradation = Degradation(
            quality=float(entry["quality"]),
            blur_sigma=float(entry["blur_sigma"]),
            brightness=float(entry["brightness"]),
            kind=str(entry["degradation_kind"]),
        )
        records.append(
            ImageRecord(
                truth=truth,
                degradation=degradation,
                render_seed=int(entry["render_seed"]),
            )
        )
    return Dataset(
        name=payload["name"],
        split=payload["split"],
        classes=tuple(payload["classes"]),
        records=records,
    )


def detections_to_dict(detections: list[Detections], detector: str = "") -> dict:
    """Serialise per-image detections to a JSON-compatible dict."""
    return {
        "schema": _SCHEMA_VERSION,
        "kind": "detections",
        "detector": detector or (detections[0].detector if detections else "unknown"),
        "images": [
            {
                "image_id": dets.image_id,
                "boxes": dets.boxes.tolist(),
                "scores": dets.scores.tolist(),
                "labels": dets.labels.tolist(),
            }
            for dets in detections
        ],
    }


def detections_from_dict(payload: dict) -> list[Detections]:
    """Rebuild detections from :func:`detections_to_dict` output."""
    _check_payload(payload, "detections")
    detector = payload.get("detector", "unknown")
    out = []
    for entry in payload["images"]:
        out.append(
            Detections(
                image_id=entry["image_id"],
                boxes=np.asarray(entry["boxes"], dtype=np.float64).reshape(-1, 4),
                scores=np.asarray(entry["scores"], dtype=np.float64),
                labels=np.asarray(entry["labels"], dtype=np.int64),
                detector=detector,
            )
        )
    return out


def save_dataset(dataset: Dataset, path: str | Path) -> Path:
    """Write a dataset split to a JSON file; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(dataset_to_dict(dataset)))
    return path


def save_detections(detections: list[Detections], path: str | Path, detector: str = "") -> Path:
    """Write per-image detections to a JSON file; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(detections_to_dict(detections, detector)))
    return path


def _check_payload(payload: dict, kind: str) -> None:
    if not isinstance(payload, dict):
        raise DatasetError(f"expected a JSON object, got {type(payload).__name__}")
    if payload.get("kind") != kind:
        raise DatasetError(f"expected a {kind!r} document, got {payload.get('kind')!r}")
    if payload.get("schema") != _SCHEMA_VERSION:
        raise DatasetError(
            f"unsupported schema version {payload.get('schema')!r} "
            f"(this library reads version {_SCHEMA_VERSION})"
        )
