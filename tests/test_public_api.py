"""Tests of the package-level public API (what the README shows)."""

from __future__ import annotations

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.runtime

SUBPACKAGES = [
    "repro.baselines",
    "repro.core",
    "repro.data",
    "repro.detection",
    "repro.experiments",
    "repro.metrics",
    "repro.runtime",
    "repro.simulate",
    "repro.zoo",
]
RUNTIME_MODULES = sorted(info.name for info in pkgutil.iter_modules(repro.runtime.__path__, "repro.runtime."))


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__

    @pytest.mark.parametrize("package", ["repro", *SUBPACKAGES])
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name}"

    def test_quickstart_system(self):
        system, report = repro.quickstart_system("voc07", train_images=300)
        record = repro.load_dataset("voc07", "test", fraction=0.002).records[0]
        detections, uploaded = system.process_image(record)
        assert isinstance(uploaded, bool)
        assert detections.image_id == record.image_id
        assert 0.0 <= report.difficult_fraction <= 1.0

    def test_quickstart_deterministic(self):
        system_a, _ = repro.quickstart_system("voc07", train_images=300)
        system_b, _ = repro.quickstart_system("voc07", train_images=300)
        assert (system_a.discriminator.confidence_threshold == system_b.discriminator.confidence_threshold)
        assert system_a.discriminator.area_threshold == pytest.approx(system_b.discriminator.area_threshold)

    def test_subpackages_importable(self):
        import repro.baselines
        import repro.core
        import repro.data
        import repro.detection
        import repro.experiments
        import repro.metrics
        import repro.runtime
        import repro.simulate
        import repro.zoo

        assert repro.core and repro.zoo and repro.data
        assert repro.detection and repro.metrics and repro.simulate
        assert repro.runtime and repro.baselines and repro.experiments


@pytest.mark.parametrize("module", RUNTIME_MODULES)
def test_runtime_module_imports_first(module):
    """Each runtime module imports on its own in a fresh interpreter.

    A module imported first pulls in its dependencies before anything else
    has, so an import cycle between the runtime modules fails here.
    """
    src = str(Path(repro.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def _runtime_imports(module: str) -> set[str]:
    """The runtime modules ``module`` imports when it is executed.

    Imports under ``if TYPE_CHECKING:`` are annotations only and never run.
    """
    tree = ast.parse(Path(importlib.import_module(module).__file__).read_text())
    found: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "repro.runtime":
            found.update(f"repro.runtime.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module in RUNTIME_MODULES:
            found.add(node.module)
        elif isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names if alias.name in RUNTIME_MODULES)
    return found & set(RUNTIME_MODULES)


def test_runtime_modules_import_acyclically():
    """The runtime modules' import graph is a DAG (no module waits on itself)."""
    graph = {module: _runtime_imports(module) for module in RUNTIME_MODULES}
    done: set[str] = set()
    while len(done) < len(graph):
        ready = [module for module, deps in graph.items() if module not in done and deps <= done]
        assert ready, f"import cycle among {sorted(set(graph) - done)}"
        done.update(ready)


def test_metrics_import_nothing_from_runtime():
    """The evaluators score a report through its methods; ``repro.metrics``
    never imports ``repro.runtime``, at module level or inside a function."""
    package = Path(importlib.import_module("repro.metrics").__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            for name in names:
                assert not (name == "repro.runtime" or name.startswith("repro.runtime.")), f"{path.name} imports {name}"


def test_engine_frame_lifecycle_builds_no_closures():
    """A frame is one record whose bound methods are the FIFO callbacks, and
    it ends in one ``_settle``: no method of the serving engine's classes
    builds a function per call, and one site constructs ``FrameEvent``."""
    path = Path(importlib.import_module("repro.runtime.engine").__file__)
    tree = ast.parse(path.read_text())
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    for name in ("_Frame", "_CameraStream", "EscalationQueue"):
        for method in classes[name].body:
            if not isinstance(method, ast.FunctionDef):
                continue
            nested = [
                node
                for node in ast.walk(method)
                if node is not method and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            ]
            assert not nested, f"{name}.{method.name} builds a function at line {nested[0].lineno}"
    sites = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "FrameEvent"
    ]
    assert len(sites) == 1, f"FrameEvent is built at lines {sites}"


_RENDER_ONLY_LOADS_SCIPY = """
import sys

import repro
import repro.baselines
import repro.experiments
import repro.metrics
import repro.runtime
from repro.data import load_dataset, render_image
from repro.detection import DetectionBatch
from repro.metrics import rolling_quality
from repro.runtime import (
    JETSON_NANO, RTX3060_SERVER, WLAN, Deployment, FleetSpec, StreamConfig, cloud_only_scheme, serve_fleet,
)
from repro.simulate import make_detector

dataset = load_dataset("helmet", "test", fraction=0.02)
detections = DetectionBatch.coerce(make_detector("ssd", "helmet").detect_split(dataset))
deployment = Deployment(
    edge=JETSON_NANO, cloud=RTX3060_SERVER, link=WLAN, small_model_flops=5.6e9, big_model_flops=61.2e9
)
spec = FleetSpec(cloud_only_scheme(), StreamConfig(fps=2.0, duration_s=4.0), cameras=2, detections=detections)
windows = rolling_quality(serve_fleet(deployment, dataset, spec, seed=0), dataset, window_s=2.0)
assert windows and windows[0].served, windows
assert "scipy" not in sys.modules, "scipy loaded before any image was rendered"
render_image(dataset.records[0])
assert "scipy" in sys.modules, "rendering an image did not load scipy"
"""


def test_only_rendering_loads_scipy():
    """SciPy is loaded by the first rendered image, not by importing the
    package, serving a fleet or scoring it: only the Brenner-gradient
    baseline renders, and every other run is spared SciPy's memory."""
    src = str(Path(repro.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", _RENDER_ONLY_LOADS_SCIPY],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


_REPORT_RUNS_ONCE = """
import runpy
import warnings

with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    runpy._get_module_details("repro.experiments.report")
messages = [str(warning.message) for warning in caught if issubclass(warning.category, RuntimeWarning)]
assert not messages, messages
"""


def test_report_module_runs_as_main_without_double_import():
    """``python -m repro.experiments.report`` regenerates EXPERIMENTS.md.
    Importing the package ``repro.experiments`` must not import the report
    module itself, or runpy executes it a second time as ``__main__`` and
    warns that it was already in ``sys.modules``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", _REPORT_RUNS_ONCE],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
