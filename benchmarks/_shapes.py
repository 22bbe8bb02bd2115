"""Shared shape assertions for the mAP / count benchmark tables.

The reproduction criterion is the paper's *shape*:
orderings, rough factors and knees — not absolute agreement.
"""

from __future__ import annotations

from repro.experiments.results import TableResult

__all__ = ["assert_map_table_shape", "assert_counts_table_shape"]


def assert_map_table_shape(
    result: TableResult,
    *,
    upload_lo: float = 30.0,
    upload_hi: float = 70.0,
    e2e_fraction_floor: float = 0.85,
) -> None:
    """Every data row: small < e2e <= big, upload in range, e2e near big."""
    for row in result.rows[:-1]:
        setting = row["setting"]
        assert row["small_map"] < row["e2e_map"], setting
        assert row["e2e_map"] <= row["big_map"] + 2.0, setting
        assert upload_lo <= row["upload_percent"] <= upload_hi, setting
        assert row["e2e_map"] >= e2e_fraction_floor * row["big_map"], setting
    average = result.rows[-1]
    assert average["setting"] == "Average"
    assert upload_lo <= average["upload_percent"] <= upload_hi


def assert_counts_table_shape(
    result: TableResult,
    *,
    ratio_floor: float = 90.0,
) -> None:
    """Every data row: small < e2e <= big and e2e/big above the floor."""
    for row in result.rows[:-1]:
        setting = row["setting"]
        assert row["small"] < row["e2e"], setting
        assert row["e2e"] <= row["big"] * 1.02, setting
        assert row["e2e_over_big_percent"] >= ratio_floor, setting
    assert result.rows[-1]["e2e_over_big_percent"] >= ratio_floor
