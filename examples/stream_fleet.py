"""Multi-camera fleet serving with online quality evaluation.

Run:  python examples/stream_fleet.py

Eight helmet-site cameras stream into one shared WLAN uplink and one cloud
GPU.  Every offload policy — the difficult-case discriminator, the paper's
upload baselines at the same bandwidth quota, and edge/cloud-only — plugs
into the identical serving pipeline, and each run is scored *online*:
rolling-window mAP and missed-object error over every arriving frame, with
dropped and stale (late beyond a freshness deadline) results counting as
empty detections.  Cloud-only saturates the shared uplink and its measured
quality collapses; the discriminator keeps edge-like latency while
recovering most of the big model's quality.
"""

from __future__ import annotations

import numpy as np

from repro import DifficultCaseDiscriminator, load_dataset, make_detector
from repro.baselines import (
    BlurUploadPolicy,
    ConfidenceUploadPolicy,
    RandomUploadPolicy,
)
from repro.core import DiscriminatorPolicy
from repro.detection import DetectionBatch
from repro.metrics import rolling_quality
from repro.runtime import (
    JETSON_NANO,
    RTX3060_SERVER,
    WLAN,
    Deployment,
    FleetSpec,
    StreamConfig,
    cloud_only_scheme,
    collaborative_scheme,
    edge_only_scheme,
    serve_fleet,
)
from repro.zoo import build_model

CAMERAS = 8
CONFIG = StreamConfig(fps=1.5, poisson=True, duration_s=40.0)
WINDOW_S = 8.0
FRESHNESS_S = 2.0


def main() -> None:
    print("Preparing the helmet small-big system...")
    small_model = make_detector("small1", "helmet")
    big_model = make_detector("ssd", "helmet")
    train = load_dataset("helmet", "train", fraction=0.4)
    discriminator, _ = DifficultCaseDiscriminator.fit(
        small_model.detect_split(train),
        big_model.detect_split(train),
        train.truths,
    )
    test = load_dataset("helmet", "test", fraction=0.5)
    small = DetectionBatch.coerce(small_model.detect_split(test))
    big = DetectionBatch.coerce(big_model.detect_split(test))
    quota = float(discriminator.decide_split(small).mean())
    print(f"discriminator upload quota: {100 * quota:.1f}% of frames\n")

    deployment = Deployment(
        edge=JETSON_NANO,
        cloud=RTX3060_SERVER,
        link=WLAN,
        small_model_flops=float(build_model("small1", num_classes=2).flops),
        big_model_flops=float(build_model("ssd", num_classes=2).flops),
    )

    never = np.zeros(len(test), dtype=bool)
    entries = [
        ("edge-only", edge_only_scheme(), never, small),
        ("cloud-only", cloud_only_scheme(), ~never, big),
    ]
    for label, policy in [
        ("discriminator", DiscriminatorPolicy(discriminator)),
        ("random", RandomUploadPolicy(ratio=quota)),
        ("blur", BlurUploadPolicy(ratio=quota)),
        ("confidence", ConfidenceUploadPolicy(ratio=quota)),
    ]:
        mask = policy.select(test, small)
        entries.append((label, collaborative_scheme(policy, name=label), mask, DetectionBatch.where(mask, big, small)))

    print(f"{CAMERAS} cameras x {CONFIG.fps} fps over one {WLAN.bandwidth_mbps} Mbps uplink:\n")
    print(f"{'policy':<14}{'upload':>8}{'drops':>8}{'p50 (ms)':>10}{'rolling mAP':>13}{'missed obj':>12}")
    results: dict[str, list] = {}
    for label, scheme, mask, served in entries:
        report = serve_fleet(
            deployment,
            test,
            FleetSpec(scheme=scheme, config=CONFIG, cameras=CAMERAS, mask=mask, detections=served),
        )
        windows = rolling_quality(
            report,
            test,
            window_s=WINDOW_S,
            duration_s=CONFIG.duration_s,
            freshness_s=FRESHNESS_S,
        )
        results[label] = windows
        scored = [w for w in windows if w.frames]
        mean_map = sum(w.map_percent for w in scored) / max(len(scored), 1)
        mean_err = sum(w.count_error_percent for w in scored) / max(len(scored), 1)
        print(
            f"{label:<14}{100 * report.upload_ratio:>7.1f}%{100 * report.drop_rate:>7.1f}%"
            f"{1000 * report.latency.p50:>10.1f}{mean_map:>13.2f}{mean_err:>11.1f}%"
        )

    print("\nper-window mAP (cloud-only vs discriminator):")
    for label in ("cloud-only", "discriminator"):
        series = "  ".join(f"{w.map_percent:5.1f}" for w in results[label])
        print(f"  {label:<14} {series}")
    print("\nthe shared uplink is the fleet's bottleneck: policies that upload")
    print("everything shed frames and lose measured quality; the discriminator")
    print("spends the uplink only on difficult frames and holds its level.")


if __name__ == "__main__":
    main()
