"""Runners for every table in the paper's evaluation (Tables I-XVII).

Each ``table_XX`` function takes a :class:`~repro.experiments.harness.Harness`
and returns a :class:`~repro.experiments.results.TableResult` whose rows
mirror the paper's layout, with the published values attached for
side-by-side reporting.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.blur_upload import BlurUploadPolicy
from repro.baselines.confidence_upload import ConfidenceUploadPolicy
from repro.baselines.policy import UploadPolicy
from repro.baselines.random_upload import RandomUploadPolicy
from repro.experiments.harness import Harness
from repro.experiments.results import TableResult
from repro.runtime.serving import cloud_only_scheme, collaborative_scheme, edge_only_scheme, run_cost
from repro.zoo.registry import model_zoo_table

__all__ = [
    "SSD_SETTINGS",
    "YOLO_SETTINGS",
    "MODEL_PAIRS",
    "detection_artifacts",
    "table_01_discriminator",
    "table_02_model_zoo",
    "table_03_map_small1",
    "table_04_counts_small1",
    "table_05_map_small2",
    "table_06_counts_small2",
    "table_07_map_small3",
    "table_08_counts_small3",
    "table_09_map_yolov4",
    "table_10_counts_yolov4",
    "table_11_helmet_realworld",
    "table_12_random_map",
    "table_13_random_counts",
    "table_14_blur_map",
    "table_15_blur_counts",
    "table_16_confidence_map",
    "table_17_confidence_counts",
    "table_18_fleet_policies",
    "table_19_admission_policies",
    "table_20_availability",
    "table_21_control_plane",
    "table_22_network",
    "all_tables",
]

#: The four settings of the SSD experiments (Tables III-VIII, XII-XVII).
SSD_SETTINGS: tuple[str, ...] = ("voc07", "voc07+12", "voc07++12", "coco18")

#: The two settings of the YOLOv4 experiment (Tables IX-X).
YOLO_SETTINGS: tuple[str, ...] = ("voc07", "voc07+12")

#: Every (small model, big model, setting) combination the 17 tables serve.
#: Tables I and III-VIII plus the XII-XVII baselines all ride on the SSD
#: pairs; IX-X on the YOLO pair; XI on the helmet deployment.
MODEL_PAIRS: tuple[tuple[str, str, str], ...] = tuple(
    [("small1", "ssd", setting) for setting in SSD_SETTINGS]
    + [("small2", "ssd", setting) for setting in SSD_SETTINGS]
    + [("small3", "ssd", setting) for setting in SSD_SETTINGS]
    + [("small-yolo", "yolov4", setting) for setting in YOLO_SETTINGS]
    + [("small1", "ssd", "helmet")]
)


def detection_artifacts() -> tuple[tuple[str, str, str], ...]:
    """Distinct ``(model, setting, split)`` detection artifacts of the tables.

    Every expensive ``Harness.detections`` call the 17-table suite makes,
    deduplicated in first-use order: each model pair needs both models'
    train-split detections (discriminator fit) and test-split detections
    (system run and per-model metrics).  The suite scheduler fans exactly
    these artifacts out across the harness's worker pool.
    """
    artifacts: list[tuple[str, str, str]] = []
    seen: set[tuple[str, str, str]] = set()
    for small, big, setting in MODEL_PAIRS:
        for split in ("train", "test"):
            for model in (small, big):
                key = (model, setting, split)
                if key not in seen:
                    seen.add(key)
                    artifacts.append(key)
    return tuple(artifacts)


#: Paper values reused across tables (same test set labels as the tables).
_PAPER_E2E_MAP_SMALL1 = {"voc07": 62.68, "voc07+12": 71.61, "voc07++12": 66.42, "coco18": 38.76}
_PAPER_UPLOAD_SMALL1 = {"voc07": 51.47, "voc07+12": 51.23, "voc07++12": 50.76, "coco18": 52.09}
_PAPER_E2E_RATIO_SMALL1 = {"voc07": 93.00, "voc07+12": 94.51, "voc07++12": 95.07, "coco18": 92.84}


# --------------------------------------------------------------------- #
# shared builders
# --------------------------------------------------------------------- #
def _map_table(
    harness: Harness,
    small: str,
    big: str,
    settings: tuple[str, ...],
    table_id: str,
    title: str,
    paper_rows: list[dict] | None,
) -> TableResult:
    rows = []
    for setting in settings:
        run = harness.system_run(small, big, setting)
        rows.append(
            {
                "setting": setting,
                "big_map": round(harness.model_map(big, setting), 2),
                "small_map": round(harness.model_map(small, setting), 2),
                "e2e_map": round(run.end_to_end_map(), 2),
                "upload_percent": round(100.0 * run.upload_ratio, 2),
            }
        )
    rows.append(
        {
            "setting": "Average",
            "big_map": float("nan"),
            "small_map": float("nan"),
            "e2e_map": float("nan"),
            "upload_percent": round(
                float(np.mean([r["upload_percent"] for r in rows])), 2
            ),
        }
    )
    return TableResult(
        table_id=table_id,
        title=title,
        columns=("setting", "big_map", "small_map", "e2e_map", "upload_percent"),
        rows=rows,
        paper_rows=paper_rows,
    )


def _counts_table(
    harness: Harness,
    small: str,
    big: str,
    settings: tuple[str, ...],
    table_id: str,
    title: str,
    paper_rows: list[dict] | None,
) -> TableResult:
    rows = []
    for setting in settings:
        run = harness.system_run(small, big, setting)
        big_counts = harness.model_counts(big, setting)
        small_counts = harness.model_counts(small, setting)
        e2e_counts = run.end_to_end_counts()
        rows.append(
            {
                "setting": setting,
                "big": big_counts.detected,
                "small": small_counts.detected,
                "e2e": e2e_counts.detected,
                "e2e_over_big_percent": round(e2e_counts.ratio_to(big_counts), 2),
            }
        )
    rows.append(
        {
            "setting": "Average",
            "big": float("nan"),
            "small": float("nan"),
            "e2e": float("nan"),
            "e2e_over_big_percent": round(
                float(np.mean([r["e2e_over_big_percent"] for r in rows])), 2
            ),
        }
    )
    return TableResult(
        table_id=table_id,
        title=title,
        columns=("setting", "big", "small", "e2e", "e2e_over_big_percent"),
        rows=rows,
        paper_rows=paper_rows,
    )


def _baseline_run(harness: Harness, setting: str, policy: UploadPolicy):
    dataset = harness.dataset(setting, "test")
    small_dets = harness.detections("small1", setting, "test")
    mask = policy.select(dataset, small_dets)
    return harness.system_run("small1", "ssd", setting, uploaded=mask)


def _baseline_map_table(
    harness: Harness,
    policy_factory,
    table_id: str,
    title: str,
    paper_baseline: dict[str, float],
) -> TableResult:
    rows = []
    for setting in SSD_SETTINGS:
        ours = harness.system_run("small1", "ssd", setting)
        baseline = _baseline_run(harness, setting, policy_factory(ours.upload_ratio))
        rows.append(
            {
                "setting": setting,
                "baseline_e2e_map": round(baseline.end_to_end_map(), 2),
                "ours_e2e_map": round(ours.end_to_end_map(), 2),
            }
        )
    paper_rows = [
        {
            "setting": setting,
            "baseline_e2e_map": paper_baseline[setting],
            "ours_e2e_map": _PAPER_E2E_MAP_SMALL1[setting],
        }
        for setting in SSD_SETTINGS
    ]
    return TableResult(
        table_id=table_id,
        title=title,
        columns=("setting", "baseline_e2e_map", "ours_e2e_map"),
        rows=rows,
        paper_rows=paper_rows,
        notes="Baseline upload quota matched to our method's measured ratio.",
    )


def _baseline_counts_table(
    harness: Harness,
    policy_factory,
    table_id: str,
    title: str,
    paper_baseline: dict[str, float],
) -> TableResult:
    rows = []
    for setting in SSD_SETTINGS:
        ours = harness.system_run("small1", "ssd", setting)
        baseline = _baseline_run(harness, setting, policy_factory(ours.upload_ratio))
        big_counts = harness.model_counts("ssd", setting)
        rows.append(
            {
                "setting": setting,
                "ours_ratio_percent": round(
                    ours.end_to_end_counts().ratio_to(big_counts), 2
                ),
                "baseline_ratio_percent": round(
                    baseline.end_to_end_counts().ratio_to(big_counts), 2
                ),
                "upload_percent": round(100.0 * baseline.upload_ratio, 2),
            }
        )
    rows.append(
        {
            "setting": "Average",
            "ours_ratio_percent": round(
                float(np.mean([r["ours_ratio_percent"] for r in rows])), 2
            ),
            "baseline_ratio_percent": round(
                float(np.mean([r["baseline_ratio_percent"] for r in rows])), 2
            ),
            "upload_percent": round(
                float(np.mean([r["upload_percent"] for r in rows])), 2
            ),
        }
    )
    paper_rows = [
        {
            "setting": setting,
            "ours_ratio_percent": _PAPER_E2E_RATIO_SMALL1[setting],
            "baseline_ratio_percent": paper_baseline[setting],
        }
        for setting in SSD_SETTINGS
    ]
    return TableResult(
        table_id=table_id,
        title=title,
        columns=(
            "setting",
            "ours_ratio_percent",
            "baseline_ratio_percent",
            "upload_percent",
        ),
        rows=rows,
        paper_rows=paper_rows,
    )


# --------------------------------------------------------------------- #
# Table I / II
# --------------------------------------------------------------------- #
def table_01_discriminator(harness: Harness) -> TableResult:
    """Table I: discriminator quality, ground-truth vs predicted features.

    Ground-truth row: the decision rule fed true object counts / min-area
    ratios, evaluated on the training split (the fitting regime of Sec. V.D).
    Predicted row: the deployed discriminator (estimated features from the
    small model's raw output) on the held-out test split.
    """
    setting = "voc07+12"
    discriminator, report = harness.discriminator("small1", "ssd", setting)
    test_small = harness.detections("small1", setting, "test")
    test_big = harness.detections("ssd", setting, "test")
    test_metrics = discriminator.evaluate(test_small, test_big)
    rows = [
        {"features": "Ground Truth", **report.ground_truth_metrics.as_row()},
        {"features": "Predicted", **test_metrics.as_row()},
    ]
    paper_rows = [
        {"features": "Ground Truth", "accuracy": 85.35, "f1": 0.8665, "precision": 77.51, "recall": 98.24},
        {"features": "Predicted", "accuracy": 78.35, "f1": 0.7732, "precision": 78.38, "recall": 76.29},
    ]
    return TableResult(
        table_id="I",
        title="Difficult-case discriminator on train (GT features) and test "
        "(predicted features), small model 1 + SSD on VOC07+12",
        columns=("features", "accuracy", "f1", "precision", "recall"),
        rows=rows,
        paper_rows=paper_rows,
        notes=(
            f"fitted thresholds: confidence="
            f"{discriminator.confidence_threshold:.2f}, count="
            f"{discriminator.count_threshold}, area="
            f"{discriminator.area_threshold:.2f} "
            f"(paper: 0.15-0.35 / 2 / 0.31)"
        ),
    )


def table_02_model_zoo(harness: Harness) -> TableResult:
    """Table II: model size, pruned ratio and FLOPs (analytic, exact)."""
    rows = model_zoo_table()
    paper_rows = [
        {"model": "small1", "size_mib": 18.50, "pruned_percent": 81.55, "gflops": 5.60},
        {"model": "small2", "size_mib": 11.55, "pruned_percent": 88.48, "gflops": 5.31},
        {"model": "small3", "size_mib": 6.50, "pruned_percent": 93.52, "gflops": 1.31},
        {"model": "ssd", "size_mib": 100.28, "pruned_percent": 0.0, "gflops": 61.19},
    ]
    return TableResult(
        table_id="II",
        title="Model size and computing operations of the three small models",
        columns=("model", "size_mib", "pruned_percent", "gflops"),
        rows=rows,
        paper_rows=paper_rows,
        notes="Sizes are fp32 parameter bytes in MiB; FLOPs = 2 x MACs at a "
        "300x300 input (608 for YOLO models).",
    )


# --------------------------------------------------------------------- #
# Tables III-VIII: the three small models under SSD
# --------------------------------------------------------------------- #
def table_03_map_small1(harness: Harness) -> TableResult:
    """Table III: mAP with small model 1 (VGG-Lite)."""
    paper_rows = [
        {"setting": "voc07", "big_map": 70.76, "small_map": 41.28, "e2e_map": 62.68, "upload_percent": 51.47},
        {"setting": "voc07+12", "big_map": 77.41, "small_map": 51.34, "e2e_map": 71.61, "upload_percent": 51.23},
        {"setting": "voc07++12", "big_map": 72.31, "small_map": 49.02, "e2e_map": 66.42, "upload_percent": 50.76},
        {"setting": "coco18", "big_map": 42.18, "small_map": 27.78, "e2e_map": 38.76, "upload_percent": 52.09},
        {"setting": "Average", "upload_percent": 51.32},
    ]
    return _map_table(
        harness,
        "small1",
        "ssd",
        SSD_SETTINGS,
        "III",
        "mAP when using small model 1",
        paper_rows,
    )


def table_04_counts_small1(harness: Harness) -> TableResult:
    """Table IV: detected objects with small model 1."""
    paper_rows = [
        {"setting": "voc07", "big": 9055, "small": 4759, "e2e": 8325, "e2e_over_big_percent": 93.00},
        {"setting": "voc07+12", "big": 9628, "small": 5511, "e2e": 9100, "e2e_over_big_percent": 94.51},
        {"setting": "voc07++12", "big": 8434, "small": 5202, "e2e": 7852, "e2e_over_big_percent": 95.07},
        {"setting": "coco18", "big": 7996, "small": 4353, "e2e": 7424, "e2e_over_big_percent": 92.84},
        {"setting": "Average", "e2e_over_big_percent": 94.01},
    ]
    return _counts_table(
        harness,
        "small1",
        "ssd",
        SSD_SETTINGS,
        "IV",
        "Number of detected objects when using small model 1",
        paper_rows,
    )


def table_05_map_small2(harness: Harness) -> TableResult:
    """Table V (reconciled: MobileNetV1 column set): mAP with small model 2."""
    paper_rows = [
        {"setting": "voc07", "big_map": 70.76, "small_map": 49.62, "e2e_map": 64.00, "upload_percent": 52.16},
        {"setting": "voc07+12", "big_map": 77.41, "small_map": 56.24, "e2e_map": 71.38, "upload_percent": 51.97},
        {"setting": "voc07++12", "big_map": 72.31, "small_map": 56.01, "e2e_map": 67.80, "upload_percent": 51.69},
        {"setting": "coco18", "big_map": 42.18, "small_map": 32.66, "e2e_map": 41.46, "upload_percent": 50.65},
        {"setting": "Average", "upload_percent": 51.61},
    ]
    return _map_table(
        harness,
        "small2",
        "ssd",
        SSD_SETTINGS,
        "V",
        "mAP when using small model 2 (MobileNetV1)",
        paper_rows,
    )


def table_06_counts_small2(harness: Harness) -> TableResult:
    """Table VI (reconciled): detected objects with small model 2."""
    paper_rows = [
        {"setting": "voc07", "big": 9055, "small": 6264, "e2e": 8810, "e2e_over_big_percent": 97.29},
        {"setting": "voc07+12", "big": 9628, "small": 6486, "e2e": 9320, "e2e_over_big_percent": 96.80},
        {"setting": "voc07++12", "big": 8434, "small": 6393, "e2e": 8323, "e2e_over_big_percent": 98.68},
        {"setting": "coco18", "big": 7996, "small": 6257, "e2e": 7884, "e2e_over_big_percent": 98.60},
        {"setting": "Average", "e2e_over_big_percent": 97.84},
    ]
    return _counts_table(
        harness,
        "small2",
        "ssd",
        SSD_SETTINGS,
        "VI",
        "Number of detected objects when using small model 2",
        paper_rows,
    )


def table_07_map_small3(harness: Harness) -> TableResult:
    """Table VII (reconciled: MobileNetV2 column set): mAP with small model 3."""
    paper_rows = [
        {"setting": "voc07", "big_map": 70.76, "small_map": 42.00, "e2e_map": 64.29, "upload_percent": 51.99},
        {"setting": "voc07+12", "big_map": 77.41, "small_map": 48.47, "e2e_map": 72.24, "upload_percent": 51.85},
        {"setting": "voc07++12", "big_map": 72.31, "small_map": 44.84, "e2e_map": 66.42, "upload_percent": 51.99},
        {"setting": "coco18", "big_map": 42.18, "small_map": 26.85, "e2e_map": 38.50, "upload_percent": 48.96},
        {"setting": "Average", "upload_percent": 51.19},
    ]
    return _map_table(
        harness,
        "small3",
        "ssd",
        SSD_SETTINGS,
        "VII",
        "mAP when using small model 3 (MobileNetV2)",
        paper_rows,
    )


def table_08_counts_small3(harness: Harness) -> TableResult:
    """Table VIII (reconciled): detected objects with small model 3."""
    paper_rows = [
        {"setting": "voc07", "big": 9055, "small": 4889, "e2e": 8647, "e2e_over_big_percent": 95.49},
        {"setting": "voc07+12", "big": 9628, "small": 5242, "e2e": 9079, "e2e_over_big_percent": 94.29},
        {"setting": "voc07++12", "big": 8434, "small": 4645, "e2e": 8101, "e2e_over_big_percent": 96.05},
        {"setting": "coco18", "big": 7996, "small": 4700, "e2e": 7917, "e2e_over_big_percent": 99.01},
        {"setting": "Average", "e2e_over_big_percent": 96.23},
    ]
    return _counts_table(
        harness,
        "small3",
        "ssd",
        SSD_SETTINGS,
        "VIII",
        "Number of detected objects when using small model 3",
        paper_rows,
    )


# --------------------------------------------------------------------- #
# Tables IX-X: YOLOv4
# --------------------------------------------------------------------- #
def table_09_map_yolov4(harness: Harness) -> TableResult:
    """Table IX: mAP with YOLOv4 as the big model."""
    paper_rows = [
        {"setting": "voc07", "small_map": 73.64, "big_map": 83.48, "e2e_map": 79.52, "upload_percent": 20.90},
        {"setting": "voc07+12", "small_map": 79.72, "big_map": 90.02, "e2e_map": 85.78, "upload_percent": 21.32},
        {"setting": "Average", "upload_percent": 21.11},
    ]
    return _map_table(
        harness,
        "small-yolo",
        "yolov4",
        YOLO_SETTINGS,
        "IX",
        "mAP when using YOLOv4",
        paper_rows,
    )


def table_10_counts_yolov4(harness: Harness) -> TableResult:
    """Table X: detected objects with YOLOv4 as the big model."""
    paper_rows = [
        {"setting": "voc07", "big": 11098, "small": 10509, "e2e": 10985, "e2e_over_big_percent": 98.98},
        {"setting": "voc07+12", "big": 11574, "small": 10478, "e2e": 11360, "e2e_over_big_percent": 98.15},
        {"setting": "Average", "e2e_over_big_percent": 98.57},
    ]
    return _counts_table(
        harness,
        "small-yolo",
        "yolov4",
        YOLO_SETTINGS,
        "X",
        "Number of detected objects when using YOLOv4",
        paper_rows,
    )


# --------------------------------------------------------------------- #
# Table XI: real-world helmet deployment
# --------------------------------------------------------------------- #
def table_11_helmet_realworld(harness: Harness) -> TableResult:
    """Table XI: Jetson Nano + WLAN + server on the Helmet dataset."""
    from repro.experiments.fleet import fleet_deployment

    setting = "helmet"
    run = harness.system_run("small1", "ssd", setting)
    dataset = harness.dataset(setting, "test")
    deployment = fleet_deployment(dataset.num_classes)
    seed = harness.config.seed
    edge_cost = run_cost(edge_only_scheme(), deployment, dataset, seed=seed)
    cloud_cost = run_cost(cloud_only_scheme(), deployment, dataset, seed=seed)
    ours_cost = run_cost(collaborative_scheme(), deployment, dataset, mask=run.uploaded, seed=seed)

    big_counts = harness.model_counts("ssd", setting)
    small_counts = harness.model_counts("small1", setting)
    rows = [
        {
            "metric": "mAP",
            "edge_only": round(harness.model_map("small1", setting), 2),
            "cloud_only": round(harness.model_map("ssd", setting), 2),
            "ours": round(run.end_to_end_map(), 2),
        },
        {
            "metric": "detected_objects",
            "edge_only": small_counts.detected,
            "cloud_only": big_counts.detected,
            "ours": run.end_to_end_counts().detected,
        },
        {
            "metric": "total_inference_time_s",
            "edge_only": round(edge_cost.latency.total, 2),
            "cloud_only": round(cloud_cost.latency.total, 2),
            "ours": round(ours_cost.latency.total, 2),
        },
        {
            "metric": "upload_ratio_percent",
            "edge_only": 0.0,
            "cloud_only": 100.0,
            "ours": round(100.0 * run.upload_ratio, 2),
        },
    ]
    paper_rows = [
        {"metric": "mAP", "edge_only": 75.04, "cloud_only": 92.40, "ours": 86.07},
        {"metric": "detected_objects", "edge_only": 940, "cloud_only": 1135, "ours": 1119},
        {"metric": "total_inference_time_s", "edge_only": 47.13, "cloud_only": 264.76, "ours": 179.79},
        {"metric": "upload_ratio_percent", "edge_only": 0.0, "cloud_only": 100.0, "ours": 51.19},
    ]
    saving = ours_cost.latency.saving_over(cloud_cost.latency)
    return TableResult(
        table_id="XI",
        title="Helmet dataset under real-world edge-cloud collaboration",
        columns=("metric", "edge_only", "cloud_only", "ours"),
        rows=rows,
        paper_rows=paper_rows,
        notes=f"ours saves {100 * saving:.1f}% inference time vs cloud-only "
        f"(paper: 32%) and {100 * ours_cost.bandwidth_saving_over(cloud_cost):.1f}% "
        f"uplink bytes (paper: ~50%).",
    )


# --------------------------------------------------------------------- #
# Tables XII-XVII: baseline comparisons
# --------------------------------------------------------------------- #
def table_12_random_map(harness: Harness) -> TableResult:
    """Table XII: e2e mAP — random uploading vs ours."""
    return _baseline_map_table(
        harness,
        lambda ratio: RandomUploadPolicy(ratio=ratio, seed=harness.config.seed),
        "XII",
        "End-to-end mAP of randomly uploading images to the cloud",
        {"voc07": 56.64, "voc07+12": 64.06, "voc07++12": 60.87, "coco18": 34.82},
    )


def table_13_random_counts(harness: Harness) -> TableResult:
    """Table XIII: detected objects — random uploading vs ours."""
    return _baseline_counts_table(
        harness,
        lambda ratio: RandomUploadPolicy(ratio=ratio, seed=harness.config.seed),
        "XIII",
        "Detected objects of randomly uploading images to the cloud",
        {"voc07": 74.83, "voc07+12": 77.07, "voc07++12": 78.69, "coco18": 75.06},
    )


def table_14_blur_map(harness: Harness) -> TableResult:
    """Table XIV: e2e mAP — blurred-image uploading (Brenner) vs ours."""
    return _baseline_map_table(
        harness,
        lambda ratio: BlurUploadPolicy(ratio=ratio),
        "XIV",
        "End-to-end mAP of uploading blurred images to the cloud",
        {"voc07": 57.30, "voc07+12": 65.22, "voc07++12": 60.05, "coco18": 35.26},
    )


def table_15_blur_counts(harness: Harness) -> TableResult:
    """Table XV: detected objects — blurred-image uploading vs ours."""
    return _baseline_counts_table(
        harness,
        lambda ratio: BlurUploadPolicy(ratio=ratio),
        "XV",
        "Detected objects of uploading blurred images to the cloud",
        {"voc07": 73.13, "voc07+12": 75.90, "voc07++12": 78.33, "coco18": 70.14},
    )


def table_16_confidence_map(harness: Harness) -> TableResult:
    """Table XVI: e2e mAP — top-1 confidence uploading vs ours."""
    return _baseline_map_table(
        harness,
        lambda ratio: ConfidenceUploadPolicy(ratio=ratio),
        "XVI",
        "End-to-end mAP of uploading by top-1 confidence score",
        {"voc07": 57.30, "voc07+12": 65.22, "voc07++12": 60.05, "coco18": 35.26},
    )


def table_17_confidence_counts(harness: Harness) -> TableResult:
    """Table XVII: detected objects — top-1 confidence uploading vs ours."""
    return _baseline_counts_table(
        harness,
        lambda ratio: ConfidenceUploadPolicy(ratio=ratio),
        "XVII",
        "Detected objects of uploading by top-1 confidence score",
        {"voc07": 73.13, "voc07+12": 75.90, "voc07++12": 78.33, "coco18": 70.14},
    )


# --------------------------------------------------------------------- #
# Table XVIII (extension): multi-camera fleet with online quality
# --------------------------------------------------------------------- #
def table_18_fleet_policies(harness: Harness) -> TableResult:
    """Table XVIII (extension): every offload policy at fleet scale.

    Eight helmet-site cameras share one WLAN uplink and one cloud GPU
    (:mod:`repro.experiments.fleet`); every policy rides the same serving
    pipeline and arrival processes, and quality is measured *online* —
    rolling mAP / count error over the frames arriving in each window, with
    dropped and stale (late beyond the freshness deadline) frames scoring
    zero detections.  No paper counterpart: the paper's Table XI serves one
    camera statically.
    """
    from repro.experiments.fleet import FLEET_CAMERAS, FLEET_FRESHNESS_S, fleet_policy_outcomes

    rows = []
    for outcome in fleet_policy_outcomes(harness):
        report = outcome.report
        rows.append(
            {
                **outcome.labels,
                "upload_percent": round(100.0 * report.upload_ratio, 2),
                "drop_percent": round(100.0 * report.drop_rate, 2),
                "p50_ms": round(1000.0 * report.latency.p50, 1),
                "p99_ms": round(1000.0 * report.latency.p99, 1),
                "rolling_map": round(outcome.mean_map, 2),
                "count_error_percent": round(outcome.mean_count_error, 2),
            }
        )
    return TableResult(
        table_id="XVIII",
        title=f"Offload policies serving a {FLEET_CAMERAS}-camera fleet over one "
        "shared uplink and cloud GPU (helmet deployment, online quality)",
        columns=(
            "policy",
            "upload_percent",
            "drop_percent",
            "p50_ms",
            "p99_ms",
            "rolling_map",
            "count_error_percent",
        ),
        rows=rows,
        paper_rows=None,
        notes="Extension workload: rolling-window quality (mAP / missed objects) "
        "over arriving frames; dropped and stale results score as empty "
        "detections (freshness deadline "
        f"{FLEET_FRESHNESS_S:g} s).  Baselines run at the discriminator's "
        "measured upload quota.",
    )


# --------------------------------------------------------------------- #
# Table XIX (extension): camera-buffer admission control at fleet scale
# --------------------------------------------------------------------- #
def table_19_admission_policies(harness: Harness) -> TableResult:
    """Table XIX (extension): admission policy x scheme on the 8-camera fleet.

    The shared uplink saturates under cloud-only, and then *which* frames
    the camera buffer sheds decides everything: drop-newest (the historical
    rule) and drop-oldest both serve frames that queued for tens of
    seconds — stale beyond the freshness deadline, so their measured
    rolling mAP collapses — while the deadline-aware buffer sheds exactly
    the frames that provably cannot return in time and keeps the served
    stream fresh.  The unsaturated discriminator rows are the control: with
    no buffer pressure every admission policy serves identically.  No paper
    counterpart (the paper serves one camera statically).
    """
    from repro.experiments.fleet import (
        FLEET_CAMERAS,
        FLEET_FRESHNESS_S,
        admission_policy_outcomes,
    )

    rows = []
    for outcome in admission_policy_outcomes(harness):
        report = outcome.report
        rows.append(
            {
                **outcome.labels,
                "drop_percent": round(100.0 * report.drop_rate, 2),
                "shed_percent": round(100.0 * report.frames_shed / max(report.frames_offered, 1), 2),
                "p50_ms": round(1000.0 * report.latency.p50, 1),
                "fresh_percent": round(outcome.fresh_percent, 2),
                "rolling_map": round(outcome.mean_map, 2),
                "count_error_percent": round(outcome.mean_count_error, 2),
            }
        )
    return TableResult(
        table_id="XIX",
        title=f"Camera-buffer admission policies serving the {FLEET_CAMERAS}-camera "
        "fleet (helmet deployment, online quality at the freshness deadline)",
        columns=(
            "scheme",
            "admission",
            "drop_percent",
            "shed_percent",
            "p50_ms",
            "fresh_percent",
            "rolling_map",
            "count_error_percent",
        ),
        rows=rows,
        paper_rows=None,
        notes="Extension workload: shed_percent counts frames the admission "
        "policy removed from the buffer after admitting them (a subset of "
        "drop_percent); fresh_percent is the share of offered frames served "
        f"within the {FLEET_FRESHNESS_S:g} s deadline, which is what "
        "rolling_map scores.",
    )


# --------------------------------------------------------------------- #
# Table XX (extension): availability under uplink failure
# --------------------------------------------------------------------- #
def table_20_availability(harness: Harness) -> TableResult:
    """Table XX (extension): escalation policies under uplink outages.

    The shared uplink of the 8-camera fleet goes down ~30 % of the time
    (two schedules: a deterministic maintenance cycle and seeded random
    outages) with 5 % per-transfer loss on top, and every serving scheme
    runs under every escalation policy.  Cloud-only stakes each frame on
    the uplink, so what happens to a failed transfer is the whole story:
    no-retry and drop-on-failure lose the frame for good, while the durable
    spool retries with backoff and recovers most verdicts after the outage.
    The discriminator scheme degrades gracefully either way — a failed
    escalation serves the frame's edge verdict immediately — and the spool
    upgrades those frames to the cloud verdict late.  Rolling mAP is scored
    without a freshness deadline: the measurement is eventual quality.  No
    paper counterpart (the paper's link never fails).
    """
    from repro.experiments.fleet import (
        FLEET_CAMERAS,
        FLEET_LOSS_PROBABILITY,
        availability_outcomes,
    )

    rows = []
    for outcome in availability_outcomes(harness):
        report = outcome.report
        rows.append(
            {
                **outcome.labels,
                "frames_lost_percent": round(outcome.frames_lost_percent, 2),
                "failed_transfers": report.escalations_failed,
                "dropped_escalations": report.escalations_dropped,
                "recovered_verdicts": report.escalations_recovered,
                "p99_ms": round(1000.0 * report.latency.p99, 1),
                "rolling_map": round(outcome.mean_map, 2),
            }
        )
    return TableResult(
        table_id="XX",
        title=f"Escalation policies serving the {FLEET_CAMERAS}-camera fleet "
        "over an unreliable uplink (~30% downtime, "
        f"{100.0 * FLEET_LOSS_PROBABILITY:g}% transfer loss)",
        columns=(
            "outage",
            "scheme",
            "escalation",
            "frames_lost_percent",
            "failed_transfers",
            "dropped_escalations",
            "recovered_verdicts",
            "p99_ms",
            "rolling_map",
        ),
        rows=rows,
        paper_rows=None,
        notes="Extension workload: frames_lost_percent counts frames that "
        "never produced a result; failed_transfers counts failed uplink "
        "attempts (retries included), dropped_escalations the cases "
        "permanently abandoned, recovered_verdicts the spooled cases whose "
        "cloud verdict eventually landed.  Rolling mAP has no freshness "
        "deadline — it measures eventual quality after recovery.",
    )


def table_21_control_plane(harness: Harness) -> TableResult:
    """Table XXI (extension): the closed-loop fleet control plane.

    The ``admission`` rows run the saturated cloud-only fleet and climb the
    information ladder: drop-newest (no deadline logic), the omniscient
    deadline policy (reads exact simulator queue state — an upper bound no
    deployment can run), the estimated policy (the same shedding rule from
    EWMA estimates of each camera's own completion events), and the
    estimated policy plus a fleet-wide uplink coordinator sweeping between
    arrivals.  The ``drift`` rows run the half-night fleet on a congested
    uplink: statically fitted thresholds over-upload on night footage and
    saturate the link, while per-camera adaptive quotas hold the realised
    upload ratio to the affordable budget and stay fresh.  No paper
    counterpart (the paper's policies are static and omniscient).
    """
    from repro.experiments.fleet import FLEET_CAMERAS, FLEET_FRESHNESS_S, control_plane_outcomes

    outcomes = control_plane_outcomes(harness)
    rows = []
    for outcome in outcomes:
        rows.append(
            {
                **outcome.labels,
                "rolling_map": round(outcome.mean_map, 2),
                "fresh_percent": round(outcome.fresh_percent, 2),
                "mean_staleness_s": round(outcome.mean_staleness_s, 3),
                "uploads": outcome.uploads,
            }
        )
    by_label = {tuple(o.labels.values()): o.mean_map for o in outcomes}
    floor = by_label[("admission", "drop-newest")]
    omniscient = by_label[("admission", "deadline-aware")]
    estimated = by_label[("admission", "estimated-deadline")]
    gap = omniscient - floor
    recovery = 100.0 * (estimated - floor) / gap if gap > 0 else 0.0
    return TableResult(
        table_id="XXI",
        title=f"Closed-loop control plane on the {FLEET_CAMERAS}-camera fleet: "
        "estimated-time admission, uplink coordination, adaptive offload quotas",
        columns=(
            "group",
            "policy",
            "rolling_map",
            "fresh_percent",
            "mean_staleness_s",
            "uploads",
        ),
        rows=rows,
        paper_rows=None,
        notes="Extension workload scored at the "
        f"{FLEET_FRESHNESS_S:g} s freshness deadline.  The estimated "
        f"admission policy recovers {recovery:.1f}% of the omniscient "
        "policy's rolling-mAP gap over drop-newest using only observed "
        "completion events; the drift rows compare statically fitted "
        "discriminator thresholds against per-camera adaptive upload "
        "quotas on a congested uplink.",
    )


def table_22_network(harness: Harness) -> TableResult:
    """Table XXII (extension): time-varying links through the runtime stack.

    The shared fleet uplink runs under three bandwidth profiles — the
    constant testbed WLAN (bit-for-bit the pre-schedule scalar path), a
    deterministic periodic congestion dip, and the bundled LTE-like random
    walk with a mid-run trough — and each serving scheme (cloud-only vs the
    difficult-case discriminator) runs under each admission policy:
    drop-newest, the constant-estimate ``EstimatedDeadlineAware`` (which
    trusts its EWMA memory through a dip), and the schedule-aware variant
    (which folds the link schedule's remaining-time bound into every doom
    test).  No paper counterpart (the paper's testbed link is a constant).
    """
    from repro.experiments.fleet import FLEET_CAMERAS, FLEET_FRESHNESS_S, network_outcomes

    outcomes = network_outcomes(harness)
    rows = []
    for outcome in outcomes:
        rows.append(
            {
                **outcome.labels,
                "rolling_map": round(outcome.mean_map, 2),
                "fresh_percent": round(outcome.fresh_percent, 2),
                "mean_staleness_s": round(outcome.mean_staleness_s, 3),
                "uploads": outcome.uploads,
            }
        )
    by_key = {tuple(o.labels.values()): o.mean_map for o in outcomes}
    aware = by_key[("lte-trace", "cloud-only", "estimated-schedule")]
    blind = by_key[("lte-trace", "cloud-only", "estimated-constant")]
    return TableResult(
        table_id="XXII",
        title=f"Trace-driven uplink bandwidth on the {FLEET_CAMERAS}-camera fleet: "
        "profiles x schemes x admission policies",
        columns=(
            "profile",
            "scheme",
            "admission",
            "rolling_map",
            "fresh_percent",
            "mean_staleness_s",
            "uploads",
        ),
        rows=rows,
        paper_rows=None,
        notes="Extension workload scored at the "
        f"{FLEET_FRESHNESS_S:g} s freshness deadline.  On the LTE-like "
        f"trace the schedule-aware estimator holds {aware:.2f} rolling mAP "
        f"vs {blind:.2f} for the constant-estimate variant on the "
        "cloud-only fleet; on the constant profile the two are identical "
        "by construction.",
    )


def all_tables(harness: Harness) -> list[TableResult]:
    """Run every table in paper order."""
    runners = [
        table_01_discriminator,
        table_02_model_zoo,
        table_03_map_small1,
        table_04_counts_small1,
        table_05_map_small2,
        table_06_counts_small2,
        table_07_map_small3,
        table_08_counts_small3,
        table_09_map_yolov4,
        table_10_counts_yolov4,
        table_11_helmet_realworld,
        table_12_random_map,
        table_13_random_counts,
        table_14_blur_map,
        table_15_blur_counts,
        table_16_confidence_map,
        table_17_confidence_counts,
        table_18_fleet_policies,
        table_19_admission_policies,
        table_20_availability,
        table_21_control_plane,
        table_22_network,
    ]
    return [runner(harness) for runner in runners]
