"""The benchmark's own tests.

Run from the repository root with::

    python3 -m pytest -q perfbench/check_workloads.py

They check the tracer and proxies, the output checks, and run every workload
once on both reference seeds through the runner, at the smallest run length
(one iteration), so each workload's outputs are compared with the stored
references.  The file name keeps them out of the package's own test run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracing import LoopProxy, TimedProxy, Tracer, rebound  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
REFERENCE_SEEDS = (20230701, 1)


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=180,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------- #
# tracer
# --------------------------------------------------------------------- #
def test_self_time_subtracts_children_and_coverage_counts_roots():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    with tracer.span("other"):
        pass
    times = tracer.self_times()
    inner = sum(tracer.ends[i] - tracer.starts[i] for i in (1, 2))
    outer = tracer.ends[0] - tracer.starts[0]
    assert times["inner"][1] == 2
    assert times["outer"][0] == pytest.approx(outer - inner)
    assert tracer.inclusive_time("outer") == pytest.approx(outer)
    region = (tracer.starts[0], tracer.ends[3])
    roots = outer + tracer.ends[3] - tracer.starts[3]
    assert tracer.coverage(*region) == pytest.approx(roots / (region[1] - region[0]))


def test_wrap_counts_after_the_span_closes():
    tracer = Tracer()
    seen = []
    traced = tracer.wrap("layer", lambda x: x + 1, lambda result, args, kwargs: seen.append((result, args)))
    assert traced(1) == 2
    assert seen == [(2, (1,))]
    assert tracer.names == ["layer"] and tracer.parents == [-1]


def test_rebound_wraps_functions_and_classmethods_then_restores():
    import types

    class Owner:
        @classmethod
        def build(cls, value):
            return (cls, value)

        def method(self):
            return "method"

    module = types.ModuleType("fake")
    module.function = lambda: "function"
    original_function = module.function
    tracer = Tracer()
    targets = [
        (module, "function", "f", None),
        (Owner, "build", "b", None),
        (Owner, "method", "m", None),
    ]
    with rebound(tracer, targets):
        assert module.function() == "function"
        assert Owner.build(3) == (Owner, 3)
        assert Owner().method() == "method"
    assert tracer.names == ["f", "b", "m"]
    assert module.function is original_function
    assert isinstance(Owner.__dict__["build"], classmethod)
    assert Owner.__dict__["method"].__name__ == "method" and Owner().method() == "method"
    assert len(tracer) == 3


def test_proxy_exposes_exactly_the_wrapped_methods():
    from repro.runtime.control import EstimatedDeadlineAware
    from repro.runtime.serving import DropNewest

    tracer = Tracer()
    plain = TimedProxy(DropNewest(), tracer, {"admit": "admit", "observe": "observe"})
    assert getattr(plain, "observe", None) is None
    assert plain.name == DropNewest().name
    estimated = TimedProxy(EstimatedDeadlineAware(), tracer, {"admit": "admit", "observe": "observe"})
    assert callable(estimated.observe) and estimated.freshness_s == 2.0
    estimated.reset()  # forwarded, untimed
    assert len(tracer) == 0


def test_loop_proxy_times_repeating_actions_only():
    from repro.runtime.events import EventLoop

    loop = EventLoop()
    tracer = Tracer()
    proxy = LoopProxy(loop, tracer, "sweep")
    fired = []
    proxy.schedule_repeating(1.0, lambda: fired.append(proxy.now), keep_going=lambda: len(fired) < 3)
    loop.run()
    assert fired == [1.0, 2.0, 3.0]
    assert tracer.names == ["sweep"] * 3


# --------------------------------------------------------------------- #
# output checks
# --------------------------------------------------------------------- #
def iteration(summary: dict, **invariants: bool) -> dict:
    return {"mode": "plain", "summary": summary, "invariants": invariants or {"ok": True}}


def test_checks_compare_against_reference_then_first_iteration():
    results = [{"iterations": [iteration({"a": 1, "b": 2}), iteration({"a": 1, "b": 3})]}]
    attempted, failed, passed, total, notes = run.check_iterations(results, None)
    assert (attempted, failed, passed, total) == (2, 1, 3, 4)
    assert "output:b" in notes[0]
    attempted, failed, passed, total, _ = run.check_iterations(results, {"a": 1, "b": 3})
    assert (attempted, failed, passed, total) == (2, 1, 5, 6)


def test_checks_count_failed_identities_and_crashed_processes():
    results = [
        {"iterations": [iteration({"a": 1}, conserved=False)]},
        {"iterations": [], "error": "Traceback\nValueError: boom"},
    ]
    attempted, failed, passed, total, notes = run.check_iterations(results, None)
    assert (attempted, failed) == (2, 2)
    assert passed == 0 and total == 2
    assert any("ValueError: boom" in note for note in notes)


# --------------------------------------------------------------------- #
# the runner, end to end
# --------------------------------------------------------------------- #
def test_spec_metrics_are_the_runner_metrics():
    names = {entry["name"] for entry in SPEC["end_to_end"]}
    record = dict(iteration({}), wall_s=2.0, cpu_s=1.0, items=4, probe_s=run.NOMINAL_PROBE_S)
    fake = [{"setup_s": 1.0, "setup_probe_s": run.NOMINAL_PROBE_S, "peak_rss_mb": 1.0, "iterations": [record]}]
    assert run.end_to_end(fake, 100.0)["items_per_s"] == 2.0
    assert set(run.end_to_end(fake, 100.0)) == names


def test_times_are_scaled_to_nominal_host_speed():
    slow = run.NOMINAL_PROBE_S * 2
    record = dict(iteration({}), wall_s=4.0, cpu_s=3.0, items=4, probe_s=slow)
    process = {"setup_s": 6.0, "setup_probe_s": slow, "probes_s": [slow, slow * 3, slow], "peak_rss_mb": 1.0}
    fake = [dict(process, iterations=[record])]
    values = run.end_to_end(fake, 100.0)
    assert (values["wall_s"], values["cpu_s"], values["setup_s"]) == pytest.approx((2.0, 1.5, 3.0))
    assert values["items_per_s"] == 2.0
    assert run.raw_timings(fake) == {"wall_s": 4.0, "cpu_s": 3.0, "setup_s": 6.0, "probe_s": slow}


@pytest.mark.parametrize("seed", REFERENCE_SEEDS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_matches_its_reference(workload, seed):
    cache_existed = (ROOT / ".repro_cache").exists()
    completed = bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "0")
    assert completed.returncode == 0, completed.stderr
    result = last_json(completed.stdout)
    assert result["correct"] and result["failed"] == 0, completed.stderr
    assert result["metrics"]["ok_pct"]["value"] == 100.0
    assert '"reference": "stored"' in completed.stdout
    assert cache_existed or not (ROOT / ".repro_cache").exists()


def test_traced_run_reports_every_layer_metric():
    completed = bench("--workload", "fleet-control", "--seed", "1", "--seconds", "1", "--trace", "1")
    assert completed.returncode == 0, completed.stderr
    result = last_json(completed.stdout)
    assert result["correct"], completed.stderr
    assert set(result["metrics"]) == {entry["name"] for entry in SPEC["per_layer"]}
    assert result["metrics"]["trace.coverage_pct"]["value"] >= 90.0
    assert result["metrics"]["runtime.control.offload_calls"]["value"] > 0


def test_runner_refuses_a_directory_without_the_package():
    tmp_path = ROOT / ".perfbench_tmp" / "bare-checkout"
    shutil.rmtree(tmp_path, ignore_errors=True)
    tmp_path.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1"],
            cwd=tmp_path,
            capture_output=True,
            text=True,
            timeout=180,
        )
    finally:
        shutil.rmtree(tmp_path)
        try:
            tmp_path.parent.rmdir()
        except OSError:
            pass  # a benchmark run still owns a directory there
    assert completed.returncode != 0
    assert completed.stdout == ""
