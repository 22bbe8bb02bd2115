"""One benchmark process: set up a workload, run its timed iterations, check them.

``run.py`` starts this script in a fresh interpreter with a pinned
environment and reads the JSON result it writes to ``--out``.  Set-up time is
measured from ``--t0``, the parent's ``perf_counter()`` just before the spawn
(both read the system-wide monotonic clock), so it covers interpreter start,
imports and input generation.

Iterations are either an explicit ``--modes`` list (``plain``/``traced``) or,
without one, plain iterations until ``--budget`` seconds of timed work: a
next iteration starts only while it is expected to end nearer the budget
than stopping would.

A fixed probe kernel (``host_probe``) is timed right before and right after
set-up and right after every iteration, so set-up and each iteration carry
the host's speed around them (``setup_probe_s``, ``probe_s``: the mean of
the probes before and after).
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--modes", default="")
    parser.add_argument("--spans", default="")
    return parser.parse_args(argv)


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """High-water resident set of this process or any reaped child, in MiB."""
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kib / 1024.0


def host_probe() -> float:
    """Seconds taken by a fixed mix of interpreter and NumPy work.

    The same work on every call, independent of the package: heap, dict and
    tuple churn like the serving engine's event loop, then element-wise
    array passes like the detectors'.  Its timing tracks how fast the host
    runs at the moment.
    """
    start = perf_counter()
    heap: list[tuple[int, int]] = []
    table: dict[int, tuple[int, str]] = {}
    for i in range(60_000):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
        table[i % 997] = (i, str(i))
        if len(heap) > 100:
            heapq.heappop(heap)
    values = np.arange(200_000, dtype=np.float64)
    for _ in range(20):  # in place: one 1.6 MB array and no temporaries, so peak RSS stays put
        values *= 1.0001
        values += 1.0
        np.sqrt(values, out=values)
    return perf_counter() - start


def main(argv=None) -> int:
    args = parse_args(argv)
    result: dict = {"iterations": []}
    try:
        from tracing import Tracer

        import workloads

        modes = [mode for mode in args.modes.split(",") if mode]
        tracer = Tracer() if "traced" in modes else None
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(args.scratch))
        before = host_probe()
        workload.setup(tracer)
        # the probe's own time is not set-up
        result["setup_s"] = perf_counter() - args.t0 - before
        probes = result["probes_s"] = [host_probe()]
        result["setup_probe_s"] = (before + probes[0]) / 2

        def iteration(mode: str) -> dict:
            gc.collect()  # every iteration starts from the same heap state
            before_cpu = cpu_seconds()
            start = perf_counter()
            outputs = workload.run(tracer if mode == "traced" else None)
            end = perf_counter()
            after_cpu = cpu_seconds()
            # Peak after set-up plus one job: later iterations in the same
            # process would otherwise add whatever the package keeps alive.
            result.setdefault("peak_rss_mb", peak_rss_mb())
            probes.append(host_probe())
            summary, invariants = workload.check(outputs)
            record = {
                "mode": mode,
                "wall_s": end - start,
                "cpu_s": after_cpu - before_cpu,
                "probe_s": (probes[-2] + probes[-1]) / 2,
                "items": outputs["items"],
                "summary": summary,
                "invariants": invariants,
            }
            if mode == "traced":
                workers = getattr(workload, "WORKERS", 1)
                record["layers"] = workloads.layer_metrics(tracer, (start, end), outputs, workers)
            return record

        if modes:
            for mode in modes:
                result["iterations"].append(iteration(mode))
        else:
            timed = 0.0
            while True:
                record = iteration("plain")
                result["iterations"].append(record)
                timed += record["wall_s"]
                if timed + record["wall_s"] / 2 >= args.budget:
                    break
        result["inputs"] = workload.inputs()
        result["numpy"] = np.__version__
        result["python"] = sys.version.split()[0]
        if tracer is not None and args.spans:
            columns = {"names": tracer.names, "starts": tracer.starts, "ends": tracer.ends, "parents": tracer.parents}
            Path(args.spans).write_text(json.dumps(columns))
        status = 0
    except Exception:
        result["error"] = traceback.format_exc()
        status = 1
    Path(args.out).write_text(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main())
