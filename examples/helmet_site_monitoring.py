"""Real-world scenario: safety-helmet monitoring on a building site.

Run:  python examples/helmet_site_monitoring.py

Reproduces the paper's Sec. VI.D deployment: a Jetson Nano runs small model
1 next to the site camera, an RTX3060 server runs SSD across the WLAN, and
the difficult-case discriminator decides which frames are worth uploading.
Prints the Table XI comparison — accuracy, detected objects, total
inference time and upload ratio for edge-only / cloud-only / collaborative
serving — on the synthetic Sedna-style helmet dataset (blur, low light and
smoke included).
"""

from __future__ import annotations

from repro import DifficultCaseDiscriminator, SmallBigSystem, load_dataset
from repro.metrics import count_summary, mean_average_precision
from repro.runtime import (
    JETSON_NANO,
    RTX3060_SERVER,
    WLAN,
    Deployment,
    cloud_only_scheme,
    collaborative_scheme,
    edge_only_scheme,
    run_cost,
)
from repro.simulate import make_detector
from repro.zoo import build_model


def main() -> None:
    print("Calibrating detectors on the helmet dataset...")
    small = make_detector("small1", "helmet")
    big = make_detector("ssd", "helmet")

    train = load_dataset("helmet", "train", fraction=0.5)
    discriminator, _ = DifficultCaseDiscriminator.fit(small.detect_split(train), big.detect_split(train), train.truths)
    system = SmallBigSystem(small_model=small, big_model=big, discriminator=discriminator)

    test = load_dataset("helmet", "test")
    print(f"serving {len(test)} camera frames ({test.total_objects} annotated heads/helmets)\n")
    run = system.run(test)

    deployment = Deployment(
        edge=JETSON_NANO,
        cloud=RTX3060_SERVER,
        link=WLAN,
        small_model_flops=float(build_model("small1", num_classes=2).flops),
        big_model_flops=float(build_model("ssd", num_classes=2).flops),
    )
    edge_cost = run_cost(edge_only_scheme(), deployment, test)
    cloud_cost = run_cost(cloud_only_scheme(), deployment, test)
    ours_cost = run_cost(collaborative_scheme(), deployment, test, mask=run.uploaded)

    def served_map(detections):
        return mean_average_precision([d.above(0.5) for d in detections], test.truths, test.num_classes)

    rows = [
        ("mAP (%)", served_map(run.small_detections), served_map(run.big_detections), run.end_to_end_map()),
        (
            "detected objects",
            count_summary(run.small_detections, test.truths).detected,
            count_summary(run.big_detections, test.truths).detected,
            run.end_to_end_counts().detected,
        ),
        ("total time (s)", edge_cost.latency.total, cloud_cost.latency.total, ours_cost.latency.total),
        ("uplink (MB)", 0.0, cloud_cost.uplink_bytes / 1e6, ours_cost.uplink_bytes / 1e6),
    ]
    print(f"{'metric':<22}{'edge-only':>12}{'cloud-only':>12}{'ours':>12}")
    for name, edge, cloud, ours in rows:
        print(f"{name:<22}{edge:>12.2f}{cloud:>12.2f}{ours:>12.2f}")
    print(f"\nupload ratio: {100 * run.upload_ratio:.1f}% of frames")
    print(f"time saved vs cloud-only: {100 * ours_cost.latency.saving_over(cloud_cost.latency):.1f}%")
    print(f"bandwidth saved vs cloud-only: {100 * ours_cost.bandwidth_saving_over(cloud_cost):.1f}%")


if __name__ == "__main__":
    main()
