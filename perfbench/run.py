"""End-to-end and per-layer benchmark of the edge-cloud detection pipeline.

Usage, from the repository root::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads are listed in ``BENCHMARK.json`` and described in
``perfbench/NOTES.md``.  Measured iterations run in fresh Python processes
(``perfbench/child.py``) started with a pinned environment: the
``REPRO_*`` switches are cleared, ``PYTHONPATH`` is this checkout's ``src``
and every cache and temporary file lives in a fresh directory under
``.perfbench_tmp/`` that is removed afterwards.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics (medians over the run's iterations); with ``--trace 1`` it carries
the per-layer metrics of a traced iteration, its span coverage and its
tracing overhead against an untraced iteration of the same run.  Every
iteration's outputs are checked: against the stored reference when the seed
has one (``perfbench/references.json``), otherwise against the run's first
iteration, plus identities that hold for every seed.

``--record-reference`` stores the first iteration's outputs as the seed's
reference, after its identities pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
HERE = ROOT / "perfbench"
REFERENCES = HERE / "references.json"

#: Every run must end well inside the driver's 180 s limit.
RUN_DEADLINE_S = 170.0

#: Package switches that would change what a run measures.
CLEARED_ENV = ("REPRO_WORKERS", "REPRO_SHM", "REPRO_CACHE", "REPRO_PROFILE", "REPRO_PROFILE_DIR", "REPRO_TRACE")

#: The probe kernel's time (``child.host_probe``) at nominal host speed: its
#: median during the slow periods of the 2-vCPU x86_64 virtual machine the
#: benchmark was built on (it read 0.04-0.09 s there).  End-to-end times
#: are reported at this speed, which takes most of the host's drift out of
#: them; the raw timings are printed on the context line.
NOMINAL_PROBE_S = 0.084

#: Untraced process plan per workload: the budget is split evenly over this
#: many processes, so set-up is measured more than once where it is cheap.
PROCESSES = {"report-helmet": 1, "fleet-1000": 2, "fleet-control": 2, "detect-2w": 1}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PROCESSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    return parser.parse_args(argv)


def pinned_env(scratch: Path) -> dict[str, str]:
    env = {key: value for key, value in os.environ.items() if key not in CLEARED_ENV}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts in every process
    env["TMPDIR"] = str(scratch)
    return env


class Runner:
    """Spawns the run's processes and collects their results."""

    def __init__(self, args: argparse.Namespace, scratch: Path) -> None:
        self.args = args
        self.scratch = scratch
        self.env = pinned_env(scratch)
        self.deadline = perf_counter() + RUN_DEADLINE_S
        self.results: list[dict] = []
        self.count = 0

    def spawn(self, *, budget: float = 0.0, modes: str = "") -> None:
        """Run one child process to completion and keep its result."""
        self.count += 1
        out = self.scratch / f"result-{self.count}.json"
        work = self.scratch / f"work-{self.count}"
        work.mkdir()
        command = [
            sys.executable,
            str(HERE / "child.py"),
            "--workload",
            self.args.workload,
            "--seed",
            str(self.args.seed),
            "--out",
            str(out),
            "--scratch",
            str(work),
            "--budget",
            repr(budget),
            "--modes",
            modes,
        ]
        if "traced" in modes:
            spans_dir = ROOT / ".perfbench_out"
            spans_dir.mkdir(exist_ok=True)
            command += ["--spans", str(spans_dir / f"spans-{self.args.workload}-{self.args.seed}.json")]
        start = perf_counter()
        # A session of its own, so a timed-out child is stopped together with
        # any worker processes it started.
        process = subprocess.Popen(command + ["--t0", repr(start)], cwd=ROOT, env=self.env, start_new_session=True)
        try:
            process.wait(timeout=max(1.0, self.deadline - start))
        except BaseException as error:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            if not isinstance(error, subprocess.TimeoutExpired):
                raise
            self.results.append({"iterations": [], "error": "timed out"})
            return
        try:
            self.results.append(json.loads(out.read_text()))
        except (OSError, ValueError):
            self.results.append({"iterations": [], "error": f"exit code {process.returncode}, no result"})

    def run(self) -> None:
        if self.args.trace:
            self.spawn(modes="plain,plain,traced,plain")
            return
        processes = PROCESSES[self.args.workload]
        for _ in range(processes):
            self.spawn(budget=self.args.seconds / processes)


def check_iterations(results: list[dict], reference: dict | None) -> tuple[int, int, int, int, list[str]]:
    """Compare every iteration's outputs; returns counts and failure notes.

    Each summary entry is one checked output: equal to the seed's stored
    reference, or, for a seed without one, to the run's first iteration.
    Each identity is one more checked output.
    """
    attempted = failed = passed = total = 0
    notes: list[str] = []
    baseline = reference
    for process, result in enumerate(results):
        if result.get("error"):
            # the iteration (or set-up) that raised: attempted, failed, one failed check
            attempted += 1
            failed += 1
            total += 1
            notes.append(f"process {process}: {result['error'].strip().splitlines()[-1]}")
        for index, record in enumerate(result["iterations"]):
            attempted += 1
            checks = dict(record["invariants"])
            if baseline is None:
                baseline = record["summary"]
            else:
                for key in baseline.keys() | record["summary"].keys():
                    checks[f"output:{key}"] = baseline.get(key) == record["summary"].get(key)
            bad = sorted(name for name, ok in checks.items() if not ok)
            passed += len(checks) - len(bad)
            total += len(checks)
            if bad:
                failed += 1
                notes.append(f"process {process} iteration {index}: failed {', '.join(bad[:8])}")
    return attempted, failed, passed, total, notes


def plain_iterations(results: list[dict]) -> list[dict]:
    return [record for result in results for record in result["iterations"] if record["mode"] == "plain"]


def end_to_end(results: list[dict], ok_pct: float) -> dict[str, float]:
    """Medians over the run's untraced iterations (set-up and memory: over its processes).

    Times are at nominal host speed: each iteration's times, and each
    process's set-up time, are scaled by ``NOMINAL_PROBE_S`` over the probe
    kernel's time around them.
    """
    iterations = plain_iterations(results)

    def nominal(record: dict) -> float:
        return NOMINAL_PROBE_S / record["probe_s"]

    setups = [
        result["setup_s"] * NOMINAL_PROBE_S / result["setup_probe_s"]
        for result in results
        if "setup_probe_s" in result
    ]
    return {
        "wall_s": statistics.median(record["wall_s"] * nominal(record) for record in iterations),
        "cpu_s": statistics.median(record["cpu_s"] * nominal(record) for record in iterations),
        "items_per_s": statistics.median(record["items"] / (record["wall_s"] * nominal(record)) for record in iterations),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(result["peak_rss_mb"] for result in results if "peak_rss_mb" in result),
        "ok_pct": ok_pct,
    }


def raw_timings(results: list[dict]) -> dict[str, float]:
    """Unscaled medians of the run's timings and of its probe kernel, for the context line."""
    iterations = plain_iterations(results)
    return {
        "wall_s": statistics.median(record["wall_s"] for record in iterations),
        "cpu_s": statistics.median(record["cpu_s"] for record in iterations),
        "setup_s": statistics.median(result["setup_s"] for result in results if "setup_s" in result),
        "probe_s": statistics.median(probe for result in results for probe in result.get("probes_s", [])),
    }


def per_layer(results: list[dict]) -> dict[str, float]:
    traced = [record for result in results for record in result["iterations"] if record["mode"] == "traced"]
    untraced = statistics.median(record["wall_s"] for record in plain_iterations(results))
    metrics = dict(traced[0]["layers"])
    metrics["trace.overhead_s"] = traced[0]["wall_s"] - untraced
    return metrics


def print_breakdown(layers: dict[str, float]) -> None:
    """Human-readable self-time table of the traced run, largest first."""
    rows = sorted(
        ((name, value) for name, value in layers.items() if name.endswith((".s", "_s")) and value),
        key=lambda item: -abs(item[1]),
    )
    print("per-layer seconds (traced run):")
    for name, value in rows:
        print(f"  {name:<36} {value:10.4f}")


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn a termination request into SystemExit, so the running child is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        print(f"cannot read BENCHMARK.json: {error}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    scratch_root = ROOT / ".perfbench_tmp"
    scratch = scratch_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    runner = Runner(args, scratch)
    try:
        runner.run()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still owns a directory there
    results = runner.results
    traced = any(record["mode"] == "traced" for result in results for record in result["iterations"])
    if not plain_iterations(results) or (args.trace and not traced):
        for result in results:
            print(result.get("error", ""), file=sys.stderr)
        print("no iteration completed; nothing to report", file=sys.stderr)
        return 1

    references = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    reference = references.get(args.workload, {}).get(str(args.seed))
    attempted, failed, passed, total, notes = check_iterations(results, reference)
    for note in notes:
        print(f"check: {note}", file=sys.stderr)

    first = results[0]
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "reference": "stored" if reference is not None else "first iteration",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": first.get("python"),
        "numpy": first.get("numpy"),
        "inputs": first.get("inputs"),
        "processes": len(results),
        "iterations": attempted,
        "raw": raw_timings(results),
    }
    print("context " + json.dumps(context, sort_keys=True))

    if args.record_reference:
        if failed:
            print("not recording a reference from a failing run", file=sys.stderr)
            return 1
        record = results[0]["iterations"][0]["summary"]
        references.setdefault(args.workload, {})[str(args.seed)] = record
        REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")

    ok_pct = 100.0 * passed / total if total else 0.0
    if args.trace:
        values = per_layer(results)
        print_breakdown(values)
        declared = spec["per_layer"]
    else:
        values = end_to_end(results, ok_pct)
        declared = spec["end_to_end"]
    metrics = {entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]} for entry in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
