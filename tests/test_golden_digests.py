"""Golden digests of every table and figure at the quick configuration.

``tests/golden/quick_digests.json`` holds one sha256 per table and figure,
taken over its Markdown rendering (as EXPERIMENTS.md prints it) followed by
an exact rendering of its values (``repr`` keeps every float bit), and one
per fitted discriminator of ``tables.MODEL_PAIRS``, taken over the
``float.hex`` of its confidence and area thresholds and its count
threshold: the tables print thresholds rounded, so a one-ulp move of a
fitted threshold shows only here.  A refactor that must not change results
recomputes them from the session harness, through the suite front door
(``run_suite``), and compares.  The report's own preamble and run
configuration are not part of the digests.

Regenerate (only when a change is *meant* to move a result) with::

    PYTHONPATH=src python tests/test_golden_digests.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.experiments.formatting import format_table_markdown
from repro.experiments.report import _figure_markdown
from repro.experiments.suite import run_suite
from repro.experiments.tables import MODEL_PAIRS

GOLDEN = Path(__file__).parent / "golden" / "quick_digests.json"


def _digest(markdown: str, exact: tuple) -> str:
    return hashlib.sha256((markdown + "\n" + repr(exact)).encode()).hexdigest()


def quick_digests(harness, suite) -> dict[str, str]:
    """``{"table <id>" | "figure <id>" | "discriminator <pair>": sha256}``
    for every result ``suite`` rendered on ``harness`` and every fitted
    discriminator."""
    digests = {}
    for table in suite.tables:
        exact = (table.title, table.columns, table.rows, table.paper_rows, table.notes)
        digests[f"table {table.table_id}"] = _digest(format_table_markdown(table), exact)
    for figure in suite.figures:
        exact = (figure.title, figure.x_label, figure.x_values, figure.series, figure.notes)
        digests[f"figure {figure.figure_id}"] = _digest(_figure_markdown(figure), exact)
    for small, big, setting in MODEL_PAIRS:
        discriminator, _ = harness.discriminator(small, big, setting)
        fitted = (
            float.hex(discriminator.confidence_threshold),
            float.hex(discriminator.area_threshold),
            discriminator.count_threshold,
        )
        digests[f"discriminator {small}/{big}/{setting}"] = hashlib.sha256(repr(fitted).encode()).hexdigest()
    return digests


def test_quick_tables_and_figures_match_golden_digests(harness, suite):
    expected = json.loads(GOLDEN.read_text())
    assert quick_digests(harness, suite) == expected


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    import tempfile

    from repro.experiments import Harness, HarnessConfig

    with tempfile.TemporaryDirectory() as cache:
        base = HarnessConfig.quick()
        config = HarnessConfig(
            seed=base.seed,
            train_images=base.train_images,
            test_fraction=base.test_fraction,
            cache_dir=cache,
        )
        with Harness(config) as owned:
            digests = quick_digests(owned, run_suite(owned))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
