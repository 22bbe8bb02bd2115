"""The paper's shape claims, declared once and checked at both scales.

The reproduction criterion is the paper's *shape* — who wins, by roughly
what factor, where the knees fall — not absolute agreement (see
EXPERIMENTS.md).  Each :class:`Claim` names one reproduced table or
figure, states one property of it in a line and carries the predicate that
checks that property on the :class:`~repro.experiments.results.TableResult`
or :class:`~repro.experiments.results.FigureResult`.  :data:`CLAIMS` lists
every claim; :func:`violated_claims` evaluates the list against a
:func:`~repro.experiments.suite.run_suite` result.

Every claim holds at the full paper scale (``HarnessConfig()``), where
``python -m repro.experiments.report`` checks them.  The tier-1 tests check
them at ``HarnessConfig.quick()``'s sizes, where a claim whose ``quick`` is
false is skipped: :data:`FULL_SCALE_ONLY` lists the few bounds the smaller
splits were measured to miss.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.experiments.harness import HarnessConfig
from repro.experiments.results import FigureResult, TableResult
from repro.experiments.suite import SuiteResult
from repro.experiments.tables import SSD_SETTINGS, YOLO_SETTINGS

__all__ = ["Claim", "CLAIMS", "FULL_SCALE_ONLY", "at_quick_scale", "violated_claims"]

Result = TableResult | FigureResult


@dataclass(frozen=True)
class Claim:
    """One shape claim about one reproduced table or figure.

    ``result`` is ``"table <roman id>"`` or ``"figure <id>"``; ``holds``
    takes that result and says whether the claim holds on it; ``quick`` is
    false when the claim holds at full scale only.
    """

    result: str
    statement: str
    holds: Callable[[Result], bool]
    quick: bool = True

    def __str__(self) -> str:
        return f"{self.result}: {self.statement}"


def _per_setting(result: str, settings: tuple[str, ...], statement: str, test) -> list[Claim]:
    """One claim per setting: ``test`` on that setting's measured row."""
    return [
        Claim(result, f"{setting}: {statement}", lambda table, setting=setting: test(table.row_for("setting", setting)))
        for setting in settings
    ]


def _average(table: TableResult) -> dict:
    return table.rows[-1]


def _map_table(
    table_id: str,
    settings: tuple[str, ...],
    upload_lo: float,
    upload_hi: float,
    e2e_floor: float,
) -> list[Claim]:
    """Tables III/V/VII/IX: small < e2e <= big, upload in band, e2e near big."""
    result = f"table {table_id}"
    band = f"upload % within [{upload_lo:g}, {upload_hi:g}]"
    return [
        *_per_setting(result, settings, "small mAP < e2e mAP", lambda row: row["small_map"] < row["e2e_map"]),
        *_per_setting(result, settings, "e2e mAP <= big mAP + 2", lambda row: row["e2e_map"] <= row["big_map"] + 2.0),
        *_per_setting(result, settings, band, lambda row: upload_lo <= row["upload_percent"] <= upload_hi),
        *_per_setting(
            result,
            settings,
            f"e2e mAP >= {e2e_floor:g} x big mAP",
            lambda row: row["e2e_map"] >= e2e_floor * row["big_map"],
        ),
        Claim(result, "the last row is the Average", lambda table: _average(table)["setting"] == "Average"),
        Claim(result, f"average {band}", lambda table: upload_lo <= _average(table)["upload_percent"] <= upload_hi),
    ]


def _counts_table(table_id: str, settings: tuple[str, ...], ratio_floor: float) -> list[Claim]:
    """Tables IV/VI/VIII/X: small < e2e <= big, e2e keeps most of big's count."""
    result = f"table {table_id}"
    floor = f"e2e/big count >= {ratio_floor:g} %"
    return [
        *_per_setting(result, settings, "small count < e2e count", lambda row: row["small"] < row["e2e"]),
        *_per_setting(result, settings, "e2e count <= 1.02 x big count", lambda row: row["e2e"] <= row["big"] * 1.02),
        *_per_setting(result, settings, floor, lambda row: row["e2e_over_big_percent"] >= ratio_floor),
        Claim(result, f"average {floor}", lambda table: _average(table)["e2e_over_big_percent"] >= ratio_floor),
    ]


def _baseline_map_table(table_id: str) -> list[Claim]:
    """Tables XII/XIV/XVI: the discriminator beats a same-quota baseline."""
    return _per_setting(
        f"table {table_id}",
        SSD_SETTINGS,
        "ours beats the baseline's e2e mAP by > 1 point",
        lambda row: row["ours_e2e_map"] - row["baseline_e2e_map"] > 1.0,
    )


def _baseline_counts_table(table_id: str) -> list[Claim]:
    """Tables XIII/XV/XVII: the discriminator keeps more of big's objects."""
    result = f"table {table_id}"
    return [
        *_per_setting(
            result,
            SSD_SETTINGS,
            "ours keeps a larger share of big's count than the baseline",
            lambda row: row["ours_ratio_percent"] > row["baseline_ratio_percent"],
        ),
        Claim(
            result,
            "on average ours keeps > 3 points more of big's count",
            lambda table: _average(table)["ours_ratio_percent"] - _average(table)["baseline_ratio_percent"] > 3.0,
        ),
    ]


def _gt(table: TableResult) -> dict:
    return table.row_for("features", "Ground Truth")


def _predicted(table: TableResult) -> dict:
    return table.row_for("features", "Predicted")


def _model(table: TableResult, name: str) -> dict:
    return table.row_for("model", name)


def _metric(table: TableResult, name: str) -> dict:
    return table.row_for("metric", name)


def _times(table: TableResult) -> dict:
    return table.row_for("metric", "total_inference_time_s")


def _ascending(values: list[float], *, strict: bool = False) -> bool:
    return all(a < b if strict else a <= b for a, b in zip(values, values[1:]))


def _series(figure: FigureResult, name: str) -> np.ndarray:
    return np.asarray(figure.series[name])


def _at_best_accuracy(figure: FigureResult, name: str) -> float:
    """``name``'s value at Figure 7's accuracy-maximising area threshold."""
    return _series(figure, name)[int(np.argmax(_series(figure, "accuracy")))]


def _difficult_share(figure: FigureResult) -> float:
    difficult = len(figure.series["difficult_count"])
    return difficult / (difficult + len(figure.series["easy_count"]))


def _no_step_falls(values: list[float], by: float) -> bool:
    """No consecutive step of ``values`` falls by more than ``by``."""
    return bool((np.diff(values) >= -by).all())


def _knee(values: np.ndarray) -> bool:
    """The climb to 50 % upload buys > 1.5x the climb from 50 % to 100 %
    (x = 0, 10, ..., 100 % upload)."""
    return values[5] - values[0] > 1.5 * (values[10] - values[5])


#: Table XI's three deployments, from least to most cloud work.
_RUNS = ("edge_only", "ours", "cloud_only")

_CLAIMS: list[Claim] = [
    # Table I — discriminator quality (paper: GT 85.35 % accuracy / 98.24 %
    # recall on train, predicted 78.35 % accuracy on test).
    Claim("table I", "GT-feature accuracy > 78 %", lambda t: _gt(t)["accuracy"] > 78.0),
    Claim("table I", "GT-feature recall > 92 %", lambda t: _gt(t)["recall"] > 92.0),
    Claim("table I", "predicted-feature accuracy > 65 %", lambda t: _predicted(t)["accuracy"] > 65.0),
    Claim(
        "table I",
        "predicted-feature accuracy <= GT-feature accuracy + 2",
        lambda t: _predicted(t)["accuracy"] <= _gt(t)["accuracy"] + 2.0,
    ),
    Claim("table I", "the notes give the fitted thresholds", lambda t: "count=" in t.notes),
    # Table II — analytic model sizes and FLOPs (paper: SSD 100.28 MB and
    # 61.19 GFLOPs, small model 1 18.50 MB, every small model pruned > 80 %).
    Claim("table II", "ssd is 100.28 +/- 1 MiB", lambda t: abs(_model(t, "ssd")["size_mib"] - 100.28) <= 1.0),
    Claim(
        "table II",
        "ssd costs 61.19 GFLOPs +/- 5 %",
        lambda t: abs(_model(t, "ssd")["gflops"] - 61.19) <= 0.05 * 61.19,
    ),
    Claim(
        "table II",
        "small1 is 18.50 MiB +/- 15 %",
        lambda t: abs(_model(t, "small1")["size_mib"] - 18.50) <= 0.15 * 18.50,
    ),
    *[
        Claim("table II", f"{name} is pruned > 80 %", lambda t, name=name: _model(t, name)["pruned_percent"] > 80.0)
        for name in ("small1", "small2", "small3")
    ],
    Claim(
        "table II",
        "sizes order small3 <= small2 <= small1 <= ssd",
        lambda t: _ascending([_model(t, name)["size_mib"] for name in ("small3", "small2", "small1", "ssd")]),
    ),
    # Tables III-X — end-to-end mAP and detected objects per model pair
    # (paper: ~50-52 % upload, e2e mAP ~88-95 % and counts >= ~93 % of
    # cloud-only; the YOLOv4 pairing uploads only ~21 %).  Synthetic
    # COCO-18's difficult-case prevalence differs from the real subset, so
    # the SSD tables allow a wider upload band (see EXPERIMENTS.md).
    *_map_table("III", SSD_SETTINGS, 25.0, 70.0, 0.85),
    *_counts_table("IV", SSD_SETTINGS, 88.0),
    *_map_table("V", SSD_SETTINGS, 25.0, 70.0, 0.85),
    *_counts_table("VI", SSD_SETTINGS, 88.0),
    *_map_table("VII", SSD_SETTINGS, 25.0, 70.0, 0.85),
    *_counts_table("VIII", SSD_SETTINGS, 88.0),
    *_map_table("IX", YOLO_SETTINGS, 5.0, 40.0, 0.88),
    Claim("table IX", "average upload % < 40, far below SSD's", lambda t: _average(t)["upload_percent"] < 40.0),
    *_counts_table("X", YOLO_SETTINGS, 93.0),
    # Table XI — the helmet deployment (paper: mAP 75.04 / 86.07 / 92.40,
    # counts within ~1.4 % of cloud-only, 32 % of the time saved).
    Claim(
        "table XI",
        "mAP orders edge-only < ours < cloud-only",
        lambda t: _ascending([_metric(t, "mAP")[run] for run in _RUNS], strict=True),
    ),
    Claim(
        "table XI",
        "ours detects >= 0.90 x cloud-only's objects",
        lambda t: _metric(t, "detected_objects")["ours"] >= 0.90 * _metric(t, "detected_objects")["cloud_only"],
    ),
    Claim(
        "table XI",
        "total time orders edge-only < ours < cloud-only",
        lambda t: _ascending([_times(t)[run] for run in _RUNS], strict=True),
    ),
    Claim(
        "table XI",
        "ours takes <= 0.8 x cloud-only's time",
        lambda t: _times(t)["ours"] <= 0.8 * _times(t)["cloud_only"],
    ),
    Claim(
        "table XI",
        "ours uploads some but not all frames",
        lambda t: 0.0 < _metric(t, "upload_ratio_percent")["ours"] < 100.0,
    ),
    # Tables XII-XVII — same-quota baselines (paper: ours ahead by 3.5-8 mAP
    # points; ~94 % of cloud-only's objects against ~74-77 %).
    *_baseline_map_table("XII"),
    *_baseline_counts_table("XIII"),
    *_baseline_map_table("XIV"),
    *_baseline_counts_table("XV"),
    *_baseline_map_table("XVI"),
    *_baseline_counts_table("XVII"),
    # Figure 4 — difficult cases sit at many objects and small minimum areas.
    Claim(
        "figure 4",
        "difficult images' mean object count > 1.3 x easy images'",
        lambda f: _series(f, "difficult_count").mean() > _series(f, "easy_count").mean() * 1.3,
    ),
    Claim(
        "figure 4",
        "difficult images' median min-area < 0.6 x easy images'",
        lambda f: np.median(_series(f, "difficult_min_area")) < np.median(_series(f, "easy_min_area")) * 0.6,
    ),
    Claim("figure 4", "difficult share of images within (0.2, 0.7)", lambda f: 0.2 < _difficult_share(f) < 0.7),
    # Figure 7 — raising the area threshold only adds difficult verdicts; at
    # the accuracy optimum the paper reports recall 98.24 %, precision 77.51 %.
    Claim(
        "figure 7",
        "recall never falls as the area threshold rises",
        lambda f: _no_step_falls(f.series["recall"], 1e-9),
    ),
    Claim(
        "figure 7",
        "precision at the largest threshold <= precision at the accuracy optimum",
        lambda f: _series(f, "precision")[-1] <= _at_best_accuracy(f, "precision") + 1e-9,
    ),
    Claim("figure 7", "recall > 0.9 at the accuracy optimum", lambda f: _at_best_accuracy(f, "recall") > 0.9),
    Claim(
        "figure 7",
        "precision within (0.6, 1] at the accuracy optimum",
        lambda f: 0.6 < _at_best_accuracy(f, "precision") <= 1.0,
    ),
    Claim("figure 7", "best accuracy > 0.78", lambda f: _series(f, "accuracy").max() > 0.78),
    # Figure 8 — e2e mAP climbs from edge-only to cloud-only with a knee at
    # 50 % upload (paper: ~90 % of cloud-only there).
    Claim("figure 8", "mAP at 0 % upload < mAP at 100 %", lambda f: f.series["e2e_map"][0] < f.series["e2e_map"][-1]),
    Claim("figure 8", "no step loses more than 0.8 mAP", lambda f: _no_step_falls(f.series["e2e_map"], 0.8)),
    Claim(
        "figure 8",
        "at 50 % upload mAP >= 0.88 x cloud-only's",
        lambda f: _series(f, "fraction_of_cloud_only")[5] >= 0.88,
    ),
    Claim("figure 8", "the climb to 50 % upload > 1.5 x the climb after", lambda f: _knee(_series(f, "e2e_map"))),
    # Figure 9 — detected objects rise slowly with the same knee (paper:
    # >= 94 % of cloud-only's count at 50 % upload).
    Claim(
        "figure 9",
        "no step loses more than 1 % of the edge-only count",
        lambda f: _no_step_falls(f.series["e2e_detected"], f.series["e2e_detected"][0] * 0.01),
    ),
    Claim(
        "figure 9",
        "at 50 % upload count >= 0.90 x cloud-only's",
        lambda f: _series(f, "fraction_of_cloud_only")[5] >= 0.90,
    ),
    Claim("figure 9", "at 100 % upload count is cloud-only's", lambda f: f.series["fraction_of_cloud_only"][-1] == 1.0),
    Claim("figure 9", "the climb to 50 % upload > 1.5 x the climb after", lambda f: _knee(_series(f, "e2e_detected"))),
]

#: Claims the quick configuration's smaller splits miss, with the value
#: measured there: ``HarnessConfig.quick()`` reads coco18 upload 73.86 % in
#: Table VII and coco18 e2e 640 objects against big 625 x 1.02 = 637.5 in
#: Table VIII.
FULL_SCALE_ONLY = frozenset(
    {
        "table VII: coco18: upload % within [25, 70]",
        "table VIII: coco18: e2e count <= 1.02 x big count",
    }
)

CLAIMS: tuple[Claim, ...] = tuple(
    replace(claim, quick=False) if str(claim) in FULL_SCALE_ONLY else claim for claim in _CLAIMS
)


def at_quick_scale(config: HarnessConfig) -> bool:
    """Whether ``config`` sizes its splits as :meth:`HarnessConfig.quick`."""
    quick = HarnessConfig.quick()
    return (config.train_images, config.test_fraction) == (quick.train_images, quick.test_fraction)


def violated_claims(
    suite: SuiteResult,
    config: HarnessConfig,
    claims: tuple[Claim, ...] = CLAIMS,
) -> list[Claim]:
    """The claims ``suite`` violates, in declaration order.

    ``config`` is the harness configuration the suite ran at: at quick
    scale the full-scale-only claims are not evaluated.
    """
    results: dict[str, Result] = {f"table {table.table_id}": table for table in suite.tables}
    results.update((f"figure {figure.figure_id}", figure) for figure in suite.figures)
    quick = at_quick_scale(config)
    return [claim for claim in claims if (claim.quick or not quick) and not claim.holds(results[claim.result])]
