"""Video-stream serving: where edge-cloud collaboration actually wins.

Run:  python examples/video_stream.py

The paper motivates the small-big framework with video workloads.  This
example streams helmet-camera frames through the three serving schemes at
increasing frame rates and shows the phenomenon static tables cannot:
cloud-only *saturates the WLAN uplink* — queueing delay explodes and frames
drop — while the collaborative scheme, which uploads only difficult frames,
keeps real-time latency far past cloud-only's breaking point.
"""

from __future__ import annotations

from repro import DifficultCaseDiscriminator, SmallBigSystem, load_dataset
from repro.runtime import (
    JETSON_NANO,
    RTX3060_SERVER,
    WLAN,
    Deployment,
    FleetSpec,
    StreamConfig,
    cloud_only_scheme,
    collaborative_scheme,
    paper_schemes,
    run_cost,
    serve_fleet,
)
from repro.simulate import make_detector
from repro.zoo import build_model


def main() -> None:
    print("Preparing the helmet small-big system...")
    small = make_detector("small1", "helmet")
    big = make_detector("ssd", "helmet")
    train = load_dataset("helmet", "train", fraction=0.4)
    discriminator, _ = DifficultCaseDiscriminator.fit(small.detect_split(train), big.detect_split(train), train.truths)
    system = SmallBigSystem(small_model=small, big_model=big, discriminator=discriminator)
    test = load_dataset("helmet", "test", fraction=0.5)
    run = system.run(test)
    print(f"discriminator uploads {100 * run.upload_ratio:.1f}% of frames\n")

    deployment = Deployment(
        edge=JETSON_NANO,
        cloud=RTX3060_SERVER,
        link=WLAN,
        small_model_flops=float(build_model("small1", num_classes=2).flops),
        big_model_flops=float(build_model("ssd", num_classes=2).flops),
    )

    print(f"{'fps':>5}  {'scheme':<14}{'p50 (ms)':>10}{'p99 (ms)':>10}" f"{'drops':>8}{'uplink util':>13}")
    for fps in (2.0, 5.0, 10.0, 20.0):
        config = StreamConfig(fps=fps, duration_s=60.0)
        for name, scheme in paper_schemes().items():
            mask = run.uploaded if name == "collaborative" else None
            report = serve_fleet(deployment, test, FleetSpec(scheme, config, mask=mask))
            print(
                f"{fps:>5.0f}  {name:<14}{1000 * report.latency.p50:>10.1f}"
                f"{1000 * report.latency.p99:>10.1f}"
                f"{100 * report.drop_rate:>7.1f}%"
                f"{100 * report.uplink_utilization:>12.1f}%"
            )
        print()
    print("cloud-only saturates once the uplink hits 100% utilisation; the")
    print("collaborative scheme keeps serving in real time because only the")
    print("difficult fraction of frames crosses the network.")

    # Sanity anchor: the static Table XI totals for the same deployment.
    cloud = run_cost(cloud_only_scheme(), deployment, test)
    ours = run_cost(collaborative_scheme(), deployment, test, mask=run.uploaded)
    print(
        f"\n(batch totals for reference: cloud-only {cloud.latency.total:.1f}s, "
        f"ours {ours.latency.total:.1f}s -> {100 * ours.latency.saving_over(cloud.latency):.0f}% saved)"
    )


if __name__ == "__main__":
    main()
