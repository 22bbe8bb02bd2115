"""Extension bench: streaming saturation (the paper's video motivation).

Sweeps the frame rate and checks the phenomenon that justifies the whole
framework: cloud-only saturates the WLAN uplink and collapses, while the
collaborative scheme — uploading only the discriminator's difficult cases —
keeps serving in near-real-time at multiples of that rate.
"""

from __future__ import annotations

from repro.runtime import (
    JETSON_NANO,
    RTX3060_SERVER,
    WLAN,
    Deployment,
    StreamConfig,
    StreamSpec,
    paper_schemes,
    serve_stream,
)
from repro.zoo.registry import build_model


def _sweep(harness):
    dataset = harness.dataset("helmet", "test")
    run = harness.system_run("small1", "ssd", "helmet")
    deployment = Deployment(
        edge=JETSON_NANO,
        cloud=RTX3060_SERVER,
        link=WLAN,
        small_model_flops=float(build_model("small1", num_classes=2).flops),
        big_model_flops=float(build_model("ssd", num_classes=2).flops),
    )
    rows = {}
    for fps in (2.0, 5.0, 10.0):
        config = StreamConfig(fps=fps, duration_s=45.0)
        rows[fps] = {
            name: serve_stream(
                deployment,
                dataset,
                StreamSpec(scheme, config, mask=run.uploaded if name == "collaborative" else None),
                seed=harness.config.seed,
            )
            for name, scheme in paper_schemes().items()
        }
    return rows


def test_stream_saturation(benchmark, harness):
    rows = benchmark.pedantic(_sweep, args=(harness,), rounds=1, iterations=1)

    print()
    print("Streaming sweep (helmet, WLAN):")
    for fps, reports in rows.items():
        for name, report in reports.items():
            print(
                f"  fps {fps:4.0f} {name:<14} p50 {1000 * report.latency.p50:8.1f}ms "
                f"drops {100 * report.drop_rate:5.1f}%  "
                f"uplink {100 * report.uplink_utilization:5.1f}%"
            )

    low, mid, high = rows[2.0], rows[5.0], rows[10.0]
    # At low rate everything keeps up.
    assert low["cloud"].drop_rate == 0.0
    # At 10 fps cloud-only has saturated the uplink: drops and/or multi-second
    # median latency — while the collaborative scheme stays interactive.
    assert high["cloud"].uplink_utilization > 0.95
    assert high["cloud"].drop_rate > 0.1 or high["cloud"].latency.p50 > 2.0
    assert high["collaborative"].drop_rate == 0.0
    assert high["collaborative"].latency.p50 < 0.5
    # Collaborative median latency tracks the edge path at every rate.
    for reports in (low, mid, high):
        assert reports["collaborative"].latency.p50 <= reports["cloud"].latency.p50
