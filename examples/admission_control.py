"""Deadline-aware admission control and heterogeneous camera fleets.

Run:  python examples/admission_control.py

Part 1 — admission control.  Eight helmet-site cameras saturate one shared
WLAN uplink under cloud-only serving, and then the camera buffer's
*admission policy* decides what quality an operator actually sees.  The
historical drop-newest rule refuses arriving frames while the buffer holds
ever-staler ones, so every served result blows the freshness deadline;
drop-oldest keeps the buffer fresh-ish but still serves from a deep queue;
the deadline-aware buffer sheds exactly the frames that provably cannot
return in time, and its served stream stays fresh enough to count.

Part 2 — heterogeneous fleets.  Real fleets are not eight identical
cameras: this one mixes frame rates, a night camera with degraded imagery,
an edge-only camera and a deadline-aware cloud-only camera over the same
shared uplink and cloud GPU, via per-camera ``CameraSpec``s.
"""

from __future__ import annotations

from repro import DifficultCaseDiscriminator, load_dataset, make_detector
from repro.core import DiscriminatorPolicy
from repro.data.degrade import DegradationModel
from repro.detection import DetectionBatch
from repro.metrics import rolling_quality
from repro.runtime import (
    JETSON_NANO,
    RTX3060_SERVER,
    WLAN,
    CameraSpec,
    DeadlineAware,
    Deployment,
    DropNewest,
    DropOldest,
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
    policy = DiscriminatorPolicy(discriminator)
    mask = policy.select(test, small)
    served = DetectionBatch.where(mask, big, small)

    deployment = Deployment(
        edge=JETSON_NANO,
        cloud=RTX3060_SERVER,
        link=WLAN,
        small_model_flops=float(build_model("small1", num_classes=2).flops),
        big_model_flops=float(build_model("ssd", num_classes=2).flops),
    )

    # ----------------------------------------------------------------- #
    # Part 1: admission policies on the saturated cloud-only fleet
    # ----------------------------------------------------------------- #
    print(f"\n{CAMERAS} cloud-only cameras over one shared {WLAN.bandwidth_mbps} Mbps uplink")
    print(f"(freshness deadline {FRESHNESS_S:g} s — a stale result scores as a miss):\n")
    print(f"{'admission':<16}{'drops':>8}{'shed':>8}{'p50 (s)':>9}{'fresh':>8}{'rolling mAP':>13}")
    admissions = [DropNewest(), DropOldest(), DeadlineAware(freshness_s=FRESHNESS_S)]
    for admission in admissions:
        report = serve_fleet(
            deployment,
            test,
            FleetSpec(scheme=cloud_only_scheme(), config=CONFIG, cameras=CAMERAS, detections=big, admission=admission),
        )
        windows = rolling_quality(
            report,
            test,
            window_s=WINDOW_S,
            duration_s=CONFIG.duration_s,
            freshness_s=FRESHNESS_S,
        )
        scored = [w for w in windows if w.frames]
        mean_map = sum(w.map_percent for w in scored) / max(len(scored), 1)
        fresh = sum(w.served for w in windows) / max(report.frames_offered, 1)
        print(
            f"{admission.name:<16}{100 * report.drop_rate:>7.1f}%"
            f"{100 * report.frames_shed / max(report.frames_offered, 1):>7.1f}%"
            f"{report.latency.p50:>9.2f}{100 * fresh:>7.1f}%{mean_map:>13.2f}"
        )
    print("\ndrop-newest/drop-oldest serve from a tens-of-seconds-deep queue —")
    print("fresh serves collapse; deadline-aware sheds doomed frames instead")
    print("and keeps the uplink working only on results that still count.")

    # ----------------------------------------------------------------- #
    # Part 2: a heterogeneous fleet over the same shared resources
    # ----------------------------------------------------------------- #
    night = test.with_degradation(
        DegradationModel(degraded_fraction=0.9, min_quality=0.45, max_quality=0.7),
        scope="night-shift",
    )
    night_small = DetectionBatch.coerce(small_model.detect_split(night))
    night_big = DetectionBatch.coerce(big_model.detect_split(night))
    night_mask = policy.select(night, night_small)
    night_served = DetectionBatch.where(night_mask, night_big, night_small)
    specs = [
        CameraSpec(),  # the fleet default: discriminator-collaborative, 1.5 fps
        CameraSpec(config=StreamConfig(fps=4.0, duration_s=CONFIG.duration_s)),  # high-rate gate camera
        CameraSpec(scheme=edge_only_scheme(), detections=small),  # bandwidth-free corner camera
        CameraSpec(  # critical-zone camera: everything to the cloud, freshness enforced
            scheme=cloud_only_scheme(),
            detections=big,
            admission=DeadlineAware(freshness_s=FRESHNESS_S),
        ),
        CameraSpec(  # night camera: same scenes, degraded imagery
            dataset=night,
            mask=night_mask,
            detections=night_served,
        ),
    ]
    fleet = serve_fleet(
        deployment,
        test,
        FleetSpec(
            scheme=collaborative_scheme(policy, name="discriminator"),
            config=CONFIG,
            cameras=specs,
            mask=mask,
            detections=served,
        ),
    )
    labels = ["default", "fast-4fps", "edge-only", "cloud-deadline", "night"]
    print(f"\nheterogeneous {len(specs)}-camera fleet (shared uplink + cloud GPU):\n")
    print(f"{'camera':<16}{'scheme':<15}{'offered':>8}{'served':>8}{'upload':>8}{'p50 (ms)':>10}")
    for label, camera in zip(labels, fleet.cameras):
        print(
            f"{label:<16}{camera.scheme:<15}{camera.frames_offered:>8}{camera.frames_served:>8}"
            f"{100 * camera.upload_ratio:>7.1f}%{1000 * camera.latency.p50:>10.1f}"
        )
    windows = rolling_quality(
        fleet,
        test,
        window_s=WINDOW_S,
        duration_s=CONFIG.duration_s,
        freshness_s=FRESHNESS_S,
    )
    scored = [w for w in windows if w.frames]
    mean_map = sum(w.map_percent for w in scored) / max(len(scored), 1)
    print(f"\nfleet-wide rolling mAP at the {FRESHNESS_S:g} s deadline: {mean_map:.2f}")
    print("mixed rates, schemes and imagery share one uplink without starving it.")


if __name__ == "__main__":
    main()
