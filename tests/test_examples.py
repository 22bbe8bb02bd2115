"""Static checks of the example scripts (and the bench files' imports).

The examples run full calibrations (minutes each), so executing them is the
job of humans/CI-nightly; here we verify each one compiles, is documented,
and exposes the ``main()``/``__main__`` entry-point contract the README
promises.  Most ``benchmarks/*.py`` files run in no CI job either, so their
``repro`` imports are checked here too: a deleted name fails tier-1 instead
of rotting a bench file.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))
BENCH_FILES = sorted((EXAMPLES_DIR.parent / "benchmarks").glob("*.py"))


def test_expected_examples_present():
    names = {path.name for path in EXAMPLE_FILES}
    assert {
        "quickstart.py",
        "helmet_site_monitoring.py",
        "baseline_comparison.py",
        "threshold_tuning.py",
        "upload_ratio_sweep.py",
        "video_stream.py",
        "stream_fleet.py",
        "admission_control.py",
        "auto_compression.py",
        "closed_loop_control.py",
        "outage_recovery.py",
        "trace_driven_network.py",
    } <= names


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.name)
def test_example_compiles(path):
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    assert tree is not None


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.name)
def test_example_has_docstring(path):
    tree = ast.parse(path.read_text())
    docstring = ast.get_docstring(tree)
    assert docstring and "Run:" in docstring


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.name)
def test_example_has_main_guard(path):
    source = path.read_text()
    assert 'if __name__ == "__main__":' in source
    tree = ast.parse(source)
    functions = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "main" in functions


@pytest.mark.parametrize(
    "path",
    EXAMPLE_FILES + BENCH_FILES,
    ids=lambda p: p.name if p.parent == EXAMPLES_DIR else f"benchmarks/{p.name}",
)
def test_example_imports_resolve(path):
    """Every repro import in an example or bench file must exist in the package."""
    import importlib

    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("repro"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{path.name}: {node.module}.{alias.name} missing"
