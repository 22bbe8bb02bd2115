"""Integration tests: harness caching, table/figure runners, report output.

These run at the quick configuration (small splits).  The paper's shape
claims are declared once in ``repro.experiments.claims`` and checked by
``test_claims.py``; the fleet tables' acceptance properties stay here.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.experiments import (
    Harness,
    HarnessConfig,
    admission_policy_outcomes,
    availability_outcomes,
    control_plane_outcomes,
    figure_07_threshold_sweep,
    format_figure,
    format_table,
    format_table_markdown,
    network_outcomes,
    table_02_model_zoo,
    table_03_map_small1,
)
from repro.experiments.figures import difficulty_priority


class TestHarnessCaching:
    def test_dataset_memoised(self, harness):
        a = harness.dataset("voc07", "test")
        b = harness.dataset("voc07", "test")
        assert a is b

    def test_detections_memoised(self, harness):
        a = harness.detections("small1", "voc07", "test")
        b = harness.detections("small1", "voc07", "test")
        assert a is b

    def test_disk_cache_roundtrip(self, quick_config):
        first = Harness(quick_config)
        original = first.detections("small1", "voc07", "test")
        second = Harness(quick_config)
        reloaded = second.detections("small1", "voc07", "test")
        assert len(original) == len(reloaded)
        for a, b in zip(original, reloaded):
            assert a.image_id == b.image_id
            np.testing.assert_allclose(a.boxes, b.boxes)
            np.testing.assert_allclose(a.scores, b.scores)
            np.testing.assert_array_equal(a.labels, b.labels)

    def test_discriminator_memoised(self, harness):
        a, _ = harness.discriminator("small1", "ssd", "voc07")
        b, _ = harness.discriminator("small1", "ssd", "voc07")
        assert a is b

    def test_model_map_cached_and_bounded(self, harness):
        value = harness.model_map("ssd", "voc07")
        assert 0.0 < value < 100.0
        assert harness.model_map("ssd", "voc07") == value


class TestTableLayout:
    """The paper's shape claims on these tables and figures are declared
    in ``repro.experiments.claims`` and checked by ``test_claims.py``."""

    def test_map_table_average_row_carries_only_upload(self, harness):
        average = table_03_map_small1(harness).rows[-1]
        assert math.isnan(average["big_map"])

    def test_difficulty_priority_orders_uncertain_first(self):
        priority = difficulty_priority(np.array([1, 2]), np.array([2, 2]), np.array([0.4, 0.4]))
        assert priority[0] > priority[1]


class TestAdmissionExperiment:
    """Table XIX / Figure 11: admission policy x scheme on the fleet."""

    def test_outcomes_memoised_and_shared(self, harness):
        first = admission_policy_outcomes(harness)
        assert admission_policy_outcomes(harness) is first
        assert len(first) == 6  # 2 schemes x 3 admission policies

    def test_table19_deadline_aware_wins_saturated(self, harness):
        from repro.experiments import table_19_admission_policies

        result = table_19_admission_policies(harness)
        assert len(result.rows) == 6
        by_key = {(row["scheme"], row["admission"]): row for row in result.rows}
        newest = by_key[("cloud-only", "drop-newest")]
        deadline = by_key[("cloud-only", "deadline-aware")]
        # The acceptance gap: deadline-aware admission measurably beats the
        # historical drop-newest buffer on rolling mAP at the deadline.
        assert deadline["rolling_map"] > 2.0 * newest["rolling_map"]
        assert deadline["fresh_percent"] > newest["fresh_percent"]
        assert deadline["shed_percent"] > 0.0
        assert newest["shed_percent"] == 0.0
        # Control: the unsaturated discriminator fleet is admission-invariant.
        discriminator_rows = [row for (scheme, _), row in by_key.items() if scheme == "discriminator"]
        assert len({row["rolling_map"] for row in discriminator_rows}) == 1
        assert all(row["drop_percent"] == 0.0 for row in discriminator_rows)

    def test_figure11_tradeoff_consistent_with_table(self, harness):
        from repro.experiments import figure_11_staleness_tradeoff

        figure = figure_11_staleness_tradeoff(harness)
        assert len(figure.x_values) == 6
        assert len(figure.series["rolling_map"]) == 6
        assert len(figure.series["fresh_percent"]) == 6
        # Staler served streams never score better than fresh ones at the
        # two extremes of the trade-off.
        stalest = figure.x_values.index(max(figure.x_values))
        freshest = figure.x_values.index(min(figure.x_values))
        assert figure.series["rolling_map"][freshest] >= figure.series["rolling_map"][stalest]


class TestAvailabilityExperiment:
    """Table XX / Figure 12: escalation policies under uplink outages."""

    def test_outcomes_memoised_and_shaped(self, harness):
        first = availability_outcomes(harness)
        assert availability_outcomes(harness) is first
        assert len(first) == 12  # 2 outage schedules x 2 schemes x 3 escalations

    def test_table20_durable_queue_recovers(self, harness):
        from repro.experiments import table_20_availability

        result = table_20_availability(harness)
        assert len(result.rows) == 12
        by_key = {(row["outage"], row["scheme"], row["escalation"]): row for row in result.rows}
        for outage in ("periodic-30", "random-30"):
            drop = by_key[(outage, "cloud-only", "drop-on-failure")]
            durable = by_key[(outage, "cloud-only", "durable-queue")]
            # Only the durable spool recovers verdicts; the drop policies
            # lose the same frames for good and score worse for it.
            assert durable["recovered_verdicts"] > 0
            assert drop["recovered_verdicts"] == 0
            assert durable["frames_lost_percent"] < drop["frames_lost_percent"]
            assert durable["rolling_map"] > drop["rolling_map"]
            # Graceful degradation: the discriminator fleet serves edge
            # verdicts on failure, so the fallback policies lose no frames.
            for escalation in ("drop-on-failure", "durable-queue"):
                assert by_key[(outage, "discriminator", escalation)]["frames_lost_percent"] == 0.0

    def test_figure12_series_match_outcomes(self, harness):
        from repro.experiments import figure_12_outage_recovery

        figure = figure_12_outage_recovery(harness)
        assert len(figure.series) == 6  # periodic-30 only: 2 schemes x 3 escalations
        assert all(len(values) == len(figure.x_values) for values in figure.series.values())
        durable = figure.series["cloud-only/durable-queue"]
        drop = figure.series["cloud-only/drop-on-failure"]
        assert sum(durable) > sum(drop)


class TestControlExperiment:
    """Table XXI / Figure 13: the closed-loop fleet control plane."""

    def test_outcomes_memoised_and_shaped(self, harness):
        first = control_plane_outcomes(harness)
        assert control_plane_outcomes(harness) is first
        assert len(first) == 6  # 4 admission rows + 2 drift rows
        assert [outcome.labels["group"] for outcome in first].count("admission") == 4

    def test_table21_estimated_recovers_omniscient_gap(self, harness):
        from repro.experiments import table_21_control_plane

        result = table_21_control_plane(harness)
        assert len(result.rows) == 6
        by_key = {(row["group"], row["policy"]): row for row in result.rows}
        floor = by_key[("admission", "drop-newest")]["rolling_map"]
        omniscient = by_key[("admission", "deadline-aware")]["rolling_map"]
        estimated = by_key[("admission", "estimated-deadline")]["rolling_map"]
        coordinated = by_key[("admission", "coordinated")]["rolling_map"]
        # Acceptance: EWMA estimates recover >= 70% of the rolling-mAP gap
        # the omniscient policy opens over the historical drop-newest
        # buffer, and fleet-wide coordination never does worse than the
        # per-camera estimates it is built on.
        gap = omniscient - floor
        assert gap > 0.0
        assert (estimated - floor) >= 0.7 * gap
        assert coordinated >= estimated

    def test_table21_adaptive_quota_beats_static_under_drift(self, harness):
        from repro.experiments import table_21_control_plane

        result = table_21_control_plane(harness)
        by_key = {(row["group"], row["policy"]): row for row in result.rows}
        static = by_key[("drift", "static-threshold")]
        adaptive = by_key[("drift", "adaptive-quota")]
        # The statically fitted thresholds over-upload on the drifted night
        # cameras and saturate the congested uplink; the adaptive quotas
        # cut uploads to the affordable budget and score better for it.
        assert adaptive["rolling_map"] > static["rolling_map"]
        assert adaptive["fresh_percent"] > static["fresh_percent"]
        assert adaptive["uploads"] < static["uploads"]

    def test_figure13_series_match_outcomes(self, harness):
        from repro.experiments import figure_13_control_plane

        figure = figure_13_control_plane(harness)
        assert len(figure.series) == 6
        assert all(len(values) == len(figure.x_values) for values in figure.series.values())
        assert figure.x_values == sorted(figure.x_values)
        coordinated = figure.series["admission/coordinated"]
        newest = figure.series["admission/drop-newest"]
        assert sum(coordinated) > sum(newest)


class TestNetworkExperiment:
    """Table XXII / Figure 14: trace-driven bandwidth through the stack."""

    def test_outcomes_memoised_and_shaped(self, harness):
        first = network_outcomes(harness)
        assert network_outcomes(harness) is first
        # 3 profiles x 2 schemes x 3 admission policies
        assert len(first) == 18
        assert {o.labels["profile"] for o in first} == {"constant", "periodic-dip", "lte-trace"}
        assert {o.labels["scheme"] for o in first} == {"cloud-only", "discriminator"}

    def test_constant_profile_schedule_aware_is_identical(self, harness):
        """On the constant profile the schedule-aware floor is exactly zero,
        so both estimator variants are the same run."""
        by = {tuple(o.labels.values()): o for o in network_outcomes(harness)}
        for scheme in ("cloud-only", "discriminator"):
            aware = by[("constant", scheme, "estimated-schedule")]
            blind = by[("constant", scheme, "estimated-constant")]
            assert aware.report == blind.report

    def test_table22_schedule_awareness_pays_on_lte_trace(self, harness):
        from repro.experiments import table_22_network

        result = table_22_network(harness)
        assert len(result.rows) == 18
        by_key = {(row["profile"], row["scheme"], row["admission"]): row for row in result.rows}
        # Acceptance: on the LTE-like trace the schedule-aware estimator is
        # at least as good as the constant-estimate variant on rolling mAP —
        # the congestion trough dooms frames the EWMA memory still admits.
        for scheme in ("cloud-only", "discriminator"):
            aware = by_key[("lte-trace", scheme, "estimated-schedule")]["rolling_map"]
            blind = by_key[("lte-trace", scheme, "estimated-constant")]["rolling_map"]
            assert aware >= blind
        # And it is strictly better somewhere: awareness is not a no-op.
        assert (
            by_key[("lte-trace", "cloud-only", "estimated-schedule")]["rolling_map"]
            > by_key[("lte-trace", "cloud-only", "estimated-constant")]["rolling_map"]
        )

    def test_table22_discriminator_degrades_more_gracefully(self, harness):
        """The discriminator's edge verdicts ride the bandwidth dip that
        starves cloud-only: its rolling-mAP loss through each time-varying
        profile is strictly smaller."""
        from repro.experiments import table_22_network

        result = table_22_network(harness)
        by_key = {(row["profile"], row["scheme"], row["admission"]): row for row in result.rows}
        for profile in ("periodic-dip", "lte-trace"):
            losses = {}
            for scheme in ("cloud-only", "discriminator"):
                const = by_key[("constant", scheme, "estimated-schedule")]["rolling_map"]
                varying = by_key[(profile, scheme, "estimated-schedule")]["rolling_map"]
                losses[scheme] = const - varying
            assert losses["discriminator"] < losses["cloud-only"]

    def test_figure14_series_match_outcomes(self, harness):
        from repro.experiments import figure_14_network

        figure = figure_14_network(harness)
        assert len(figure.series) == 6
        assert all(len(values) == len(figure.x_values) for values in figure.series.values())
        assert figure.x_values == sorted(figure.x_values)
        disc = figure.series["discriminator/estimated-schedule"]
        cloud = figure.series["cloud-only/estimated-schedule"]
        assert sum(disc) > sum(cloud)


class TestFormatting:
    def test_text_table_contains_rows(self, harness):
        text = format_table(table_02_model_zoo(harness))
        assert "small1" in text and "ssd" in text

    def test_markdown_table_has_paper_columns(self, harness):
        markdown = format_table_markdown(table_02_model_zoo(harness))
        assert "(measured)" in markdown and "(paper)" in markdown

    def test_figure_formatting(self, harness):
        text = format_figure(figure_07_threshold_sweep(harness))
        assert "Figure 7" in text and "accuracy" in text


class TestQuickConfig:
    def test_quick_sizes(self):
        config = HarnessConfig.quick()
        assert config.train_images <= 1000
        assert config.test_fraction <= 0.2

    @pytest.mark.parametrize(
        "field, value",
        [
            ("cache_shard_size", 0),
            ("cache_shard_size", -5),
            ("train_images", 0),
            ("test_fraction", 0.0),
            ("test_fraction", -0.1),
            ("test_fraction", 1.5),
            ("test_fraction", math.nan),
            ("workers", 0),
        ],
    )
    def test_out_of_range_fields_fail_at_construction(self, field, value):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match=field):
            HarnessConfig(**{field: value})

    def test_boundary_values_accepted(self):
        config = HarnessConfig(cache_shard_size=1, train_images=1, test_fraction=1.0, workers=1)
        assert config.resolve_workers() == 1
        assert HarnessConfig(workers=None).workers is None
