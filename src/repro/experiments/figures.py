"""Runners for the paper's evaluation figures (4, 7, 8, 9)."""

from __future__ import annotations

import numpy as np

from repro.core.cases import SERVING_THRESHOLD, label_cases
from repro.core.features import extract_feature_arrays
from repro.core.thresholds import area_threshold_sweep
from repro.data.stats import per_image_features
from repro.experiments.harness import Harness
from repro.experiments.results import FigureResult

__all__ = [
    "detection_artifacts",
    "difficulty_priority",
    "figure_04_case_scatter",
    "figure_07_threshold_sweep",
    "figure_08_map_vs_upload",
    "figure_09_counts_vs_upload",
    "figure_10_fleet_quality",
    "figure_11_staleness_tradeoff",
    "figure_12_outage_recovery",
    "figure_13_control_plane",
    "figure_14_network",
    "all_figures",
]

#: Upload-ratio grid of Figures 8 and 9.
UPLOAD_GRID: tuple[float, ...] = tuple(np.round(np.arange(0.0, 1.01, 0.1), 1))


def detection_artifacts() -> tuple[tuple[str, str, str], ...]:
    """Distinct ``(model, setting, split)`` detection artifacts of the figures.

    Figures 4 and 7 read the small1/SSD train-split detections on VOC07+12;
    Figures 8-9 additionally sweep the test split through the same pair, and
    the fleet runs of Figures 10-11 consume the helmet pair (both splits:
    the test detections feed the policies, the train split fits the
    discriminator).  (All are a subset of the table suite's artifacts; the
    suite scheduler deduplicates across both lists.)
    """
    return (
        ("small1", "voc07+12", "train"),
        ("ssd", "voc07+12", "train"),
        ("small1", "voc07+12", "test"),
        ("ssd", "voc07+12", "test"),
        ("small1", "helmet", "train"),
        ("ssd", "helmet", "train"),
        ("small1", "helmet", "test"),
        ("ssd", "helmet", "test"),
    )


def difficulty_priority(
    n_predict: np.ndarray,
    n_estimated: np.ndarray,
    min_area: np.ndarray,
    *,
    count_threshold: int = 2,
    area_threshold: float = 0.31,
) -> np.ndarray:
    """Continuous difficulty score consistent with the discriminator.

    The paper sweeps the upload ratio (Figs. 8-9) without saying how
    intermediate ratios are produced; we rank images by a score that orders
    them the same way the three-step rule would — uncertain images first
    (larger count gaps, more estimated objects, smaller minimum areas), then
    certain ones — and upload the top fraction.  At the discriminator's own
    operating ratio the selection closely matches its binary verdicts.
    """
    n_predict = np.asarray(n_predict, dtype=np.float64)
    n_estimated = np.asarray(n_estimated, dtype=np.float64)
    min_area = np.asarray(min_area, dtype=np.float64)
    gap = n_estimated - n_predict
    uncertain = (gap != 0).astype(np.float64)
    crowding = n_estimated / max(count_threshold, 1)
    smallness = np.clip((area_threshold - min_area) / max(area_threshold, 1e-9), 0.0, None)
    # Certain images rank below every uncertain one; within each group the
    # same semantics (crowding, smallness) order the images.
    return uncertain * (10.0 + np.abs(gap) + crowding + smallness) + (
        1.0 - uncertain
    ) * (0.1 * crowding + 0.05 * smallness)


def figure_04_case_scatter(harness: Harness) -> FigureResult:
    """Fig. 4: easy/difficult cases over (object count, min area ratio).

    Labels follow Sec. V.A (big detects >= 1 more object than small) on the
    VOC07+12 training split; coordinates are the true per-image semantics.
    """
    setting = "voc07+12"
    train = harness.dataset(setting, "train")
    labels = label_cases(
        harness.detections("small1", setting, "train"),
        harness.detections("ssd", setting, "train"),
    )
    counts, min_areas = per_image_features(train)
    difficult = labels
    return FigureResult(
        figure_id="4",
        title="Distribution of easy and difficult cases over the number of "
        "objects and the minimum object area ratio",
        x_label="minimum object area ratio",
        x_values=[float(v) for v in min_areas],
        series={
            "easy_min_area": [float(v) for v in min_areas[~difficult]],
            "easy_count": [float(v) for v in counts[~difficult]],
            "difficult_min_area": [float(v) for v in min_areas[difficult]],
            "difficult_count": [float(v) for v in counts[difficult]],
        },
        notes="Difficult cases concentrate at many objects / small minimum "
        "area; easy cases at few objects / large minimum area.",
    )


def figure_07_threshold_sweep(harness: Harness) -> FigureResult:
    """Fig. 7: discriminator metrics vs the area threshold (count fixed at 2)."""
    setting = "voc07+12"
    train = harness.dataset(setting, "train")
    small_train = harness.detections("small1", setting, "train")
    labels = label_cases(small_train, harness.detections("ssd", setting, "train"))
    n_predict = small_train.count_above(SERVING_THRESHOLD)
    true_counts = train.truth_batch.counts()
    true_min_areas = train.truth_batch.min_area_ratios()
    rows = area_threshold_sweep(n_predict, true_counts, true_min_areas, labels, count_threshold=2)
    return FigureResult(
        figure_id="7",
        title="Discriminator performance as the minimum-object-area-ratio "
        "threshold varies (count threshold fixed at 2)",
        x_label="area-ratio threshold",
        x_values=[row["area_threshold"] for row in rows],
        series={
            "accuracy": [row["accuracy"] for row in rows],
            "precision": [row["precision"] for row in rows],
            "recall": [row["recall"] for row in rows],
            "f1": [row["f1"] for row in rows],
        },
    )


def _upload_sweep(harness: Harness, setting: str) -> list:
    """System runs across the upload-ratio grid using difficulty ranking."""
    discriminator, _ = harness.discriminator("small1", "ssd", setting)
    small_test = harness.detections("small1", setting, "test")
    n_predict, n_estimated, min_area = extract_feature_arrays(small_test, discriminator.confidence_threshold)
    priority = difficulty_priority(
        n_predict,
        n_estimated,
        min_area,
        count_threshold=discriminator.count_threshold,
        area_threshold=discriminator.area_threshold,
    )
    order = np.lexsort((np.arange(priority.shape[0]), -priority))
    runs = []
    for ratio in UPLOAD_GRID:
        count = int(round(ratio * priority.shape[0]))
        mask = np.zeros(priority.shape[0], dtype=bool)
        mask[order[:count]] = True
        runs.append(harness.system_run("small1", "ssd", setting, uploaded=mask))
    return runs


def figure_08_map_vs_upload(harness: Harness) -> FigureResult:
    """Fig. 8: end-to-end mAP under different upload ratios."""
    setting = "voc07+12"
    runs = _upload_sweep(harness, setting)
    maps = [run.end_to_end_map() for run in runs]
    big_map = harness.model_map("ssd", setting)
    return FigureResult(
        figure_id="8",
        title="End-to-end mAP under different upload ratios (small model 1)",
        x_label="upload ratio",
        x_values=list(UPLOAD_GRID),
        series={
            "e2e_map": maps,
            "fraction_of_cloud_only": [m / big_map for m in maps],
        },
        notes="The curve is concave with a knee near 50% upload, where mAP "
        "already reaches ~90% of cloud-only (the paper's parabola turning "
        "point).",
    )


def figure_09_counts_vs_upload(harness: Harness) -> FigureResult:
    """Fig. 9: detected objects under different upload ratios."""
    setting = "voc07+12"
    runs = _upload_sweep(harness, setting)
    counts = [run.end_to_end_counts().detected for run in runs]
    big_count = harness.model_counts("ssd", setting).detected
    return FigureResult(
        figure_id="9",
        title="Number of detected objects under different upload ratios "
        "(small model 1)",
        x_label="upload ratio",
        x_values=list(UPLOAD_GRID),
        series={
            "e2e_detected": [float(c) for c in counts],
            "fraction_of_cloud_only": [c / big_count for c in counts],
        },
        notes="At 50% upload the count exceeds ~94% of cloud-only, "
        "mirroring the paper's knee.",
    )


def figure_10_fleet_quality(harness: Harness) -> FigureResult:
    """Figure 10 (extension): rolling online mAP of every fleet policy.

    One mAP series per offload policy over the shared window grid of the
    eight-camera fleet run (:mod:`repro.experiments.fleet`).  The shared
    uplink saturating under cloud-only shows up directly as a quality
    collapse, while the collaborative policies hold their level.
    """
    from repro.experiments.fleet import fleet_policy_outcomes

    outcomes = fleet_policy_outcomes(harness)
    x_values = [window.t_end for window in outcomes[0].windows]
    return FigureResult(
        figure_id="10",
        title="Rolling online mAP of an 8-camera fleet under each offload "
        "policy (helmet deployment, shared uplink and cloud GPU)",
        x_label="window end (s)",
        x_values=x_values,
        series={
            outcome.labels["policy"]: [window.map_percent for window in outcome.windows]
            for outcome in outcomes
        },
        notes="Windows score every arriving frame; dropped and stale results "
        "count as empty detections, so saturation is measured quality loss.",
    )


def figure_11_staleness_tradeoff(harness: Harness) -> FigureResult:
    """Figure 11 (extension): the staleness / online-mAP trade-off.

    One point per (serving scheme, admission policy) fleet run of Table
    XIX: x is the mean result age of the frames the run actually served,
    the series give the rolling online mAP and the fresh-serve rate at the
    deadline.  Buffers that hold stale frames (drop-newest/drop-oldest
    under saturation) sit far right at near-zero quality; the
    deadline-aware buffer trades a higher shed count for points in the
    fresh, high-mAP corner.
    """
    from repro.experiments.fleet import FLEET_FRESHNESS_S, admission_policy_outcomes

    outcomes = admission_policy_outcomes(harness)
    labels = ["/".join(outcome.labels.values()) for outcome in outcomes]
    return FigureResult(
        figure_id="11",
        title="Served-frame staleness vs rolling online mAP for each "
        "(serving scheme, admission policy) fleet run",
        x_label="mean served result age (s)",
        x_values=[round(outcome.mean_staleness_s, 3) for outcome in outcomes],
        series={
            "rolling_map": [round(outcome.mean_map, 2) for outcome in outcomes],
            "fresh_percent": [round(outcome.fresh_percent, 2) for outcome in outcomes],
        },
        notes="Points in x order: " + ", ".join(labels) + ".  Scored at the "
        f"{FLEET_FRESHNESS_S:g} s freshness deadline; a buffer that serves "
        "stale frames spends pipeline time on results that no longer count.",
    )


def figure_12_outage_recovery(harness: Harness) -> FigureResult:
    """Figure 12 (extension): rolling mAP through uplink outages, by policy.

    One rolling-mAP series per (serving scheme, escalation policy) fleet
    run under the deterministic ``periodic-30`` outage schedule of Table
    XX.  Cloud-only under no-retry / drop-on-failure collapses in every
    down window and never gets those frames back; the durable escalation
    queue refills the same windows as spooled verdicts land after each
    outage.  The discriminator rows barely dip — failed escalations serve
    their edge verdict immediately and the spool upgrades them late.
    """
    from repro.experiments.fleet import availability_outcomes

    outcomes = [o for o in availability_outcomes(harness) if o.labels["outage"] == "periodic-30"]
    x_values = [window.t_end for window in outcomes[0].windows]
    return FigureResult(
        figure_id="12",
        title="Rolling mAP of the 8-camera fleet through periodic uplink "
        "outages, per serving scheme and escalation policy",
        x_label="window end (s)",
        x_values=x_values,
        series={
            f"{outcome.labels['scheme']}/{outcome.labels['escalation']}": [
                window.map_percent for window in outcome.windows
            ]
            for outcome in outcomes
        },
        notes="Uplink down 6 s of every 20 s plus 5% transfer loss; no "
        "freshness deadline, so a window's score includes verdicts recovered "
        "for its frames after the outage.",
    )


def figure_13_control_plane(harness: Harness) -> FigureResult:
    """Figure 13 (extension): rolling mAP of the closed-loop control plane.

    One rolling-mAP series per Table XXI run over the shared window grid.
    The ``admission/*`` series show the estimated policy tracking the
    omniscient deadline policy on the saturated cloud-only fleet (with
    drop-newest collapsed at the floor) and the uplink coordinator pulling
    ahead of per-arrival shedding; the ``drift/*`` series show the static
    thresholds decaying as the congested uplink backs up while the
    adaptive quotas hold their level.
    """
    from repro.experiments.fleet import FLEET_FRESHNESS_S, control_plane_outcomes

    outcomes = control_plane_outcomes(harness)
    x_values = [window.t_end for window in outcomes[0].windows]
    return FigureResult(
        figure_id="13",
        title="Rolling mAP of the closed-loop control plane: estimated vs "
        "omniscient admission, uplink coordination, adaptive quotas under drift",
        x_label="window end (s)",
        x_values=x_values,
        series={
            "/".join(outcome.labels.values()): [
                window.map_percent for window in outcome.windows
            ]
            for outcome in outcomes
        },
        notes=f"Scored at the {FLEET_FRESHNESS_S:g} s freshness deadline.  "
        "admission/* series run the saturated cloud-only fleet; drift/* "
        "series run the half-night fleet on the congested uplink.",
    )


def figure_14_network(harness: Harness) -> FigureResult:
    """Figure 14 (extension): rolling mAP through the LTE-like trace.

    One rolling-mAP series per (scheme, admission) pair on the bundled
    ``lte_like`` uplink trace — the profile whose mid-run congestion trough
    makes the orderings visible: the schedule-aware estimator sheds the
    frames the dip has already doomed (holding the survivors fresh) while
    the constant-estimate variant admits them on stale EWMA memory, and the
    discriminator scheme's edge verdicts keep serving through the trough
    that starves the cloud-only fleet.
    """
    from repro.experiments.fleet import FLEET_FRESHNESS_S, network_outcomes

    outcomes = [o for o in network_outcomes(harness) if o.labels["profile"] == "lte-trace"]
    x_values = [window.t_end for window in outcomes[0].windows]
    return FigureResult(
        figure_id="14",
        title="Rolling mAP on the LTE-like bandwidth trace: serving schemes "
        "x admission policies through the congestion trough",
        x_label="window end (s)",
        x_values=x_values,
        series={
            f"{outcome.labels['scheme']}/{outcome.labels['admission']}": [
                window.map_percent for window in outcome.windows
            ]
            for outcome in outcomes
        },
        notes=f"Scored at the {FLEET_FRESHNESS_S:g} s freshness deadline on "
        "the bundled lte_like trace (benchmarks/traces/); the constant and "
        "periodic-dip profiles of the same runs are tabulated in Table "
        "XXII.",
    )


def all_figures(harness: Harness) -> list[FigureResult]:
    """Run every figure in paper order (extensions last)."""
    return [
        figure_04_case_scatter(harness),
        figure_07_threshold_sweep(harness),
        figure_08_map_vs_upload(harness),
        figure_09_counts_vs_upload(harness),
        figure_10_fleet_quality(harness),
        figure_11_staleness_tradeoff(harness),
        figure_12_outage_recovery(harness),
        figure_13_control_plane(harness),
        figure_14_network(harness),
    ]
