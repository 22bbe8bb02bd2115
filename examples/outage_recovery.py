"""Availability under failure: uplink outages and the durable escalation queue.

Run:  python examples/outage_recovery.py

Eight helmet-site cameras share one WLAN uplink to the cloud — and the
uplink is *unreliable*: down six seconds of every twenty (a maintenance
cycle), with 5% per-transfer loss on top.  What happens to a difficult case
whose upload fails?

* ``no-retry`` drops the frame on the spot — even when the edge already has
  a verdict for it.
* ``drop-on-failure`` serves the frame's *edge* verdict immediately
  (graceful degradation, per AppealNet) but abandons the cloud appeal.
* ``durable-queue`` serves the edge verdict too, then spools the case and
  retries with exponential backoff until the link returns — the deferred
  cloud verdict upgrades the frame after the outage.

Cloud-only serving has no edge verdict to fall back on, so the escalation
policy decides whether outage frames are lost forever or merely late.
"""

from __future__ import annotations

import numpy as np

from repro import DifficultCaseDiscriminator, load_dataset, make_detector
from repro.core import DiscriminatorPolicy
from repro.detection import DetectionBatch
from repro.metrics import rolling_quality
from repro.runtime import (
    JETSON_NANO,
    RTX3060_SERVER,
    WLAN,
    Deployment,
    EscalationPolicy,
    FleetSpec,
    OutageSchedule,
    StreamConfig,
    UnreliableLink,
    cloud_only_scheme,
    collaborative_scheme,
    serve_fleet,
)
from repro.zoo import build_model

CAMERAS = 8
CONFIG = StreamConfig(fps=1.5, poisson=True, duration_s=40.0)
WINDOW_S = 8.0
LOSS = 0.05


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

    outages = OutageSchedule.periodic(period_s=20.0, downtime_s=6.0, duration_s=CONFIG.duration_s)
    link = UnreliableLink.wrap(WLAN, outages=outages, loss_probability=LOSS)
    deployment = Deployment(
        edge=JETSON_NANO,
        cloud=RTX3060_SERVER,
        link=link,
        small_model_flops=float(build_model("small1", num_classes=2).flops),
        big_model_flops=float(build_model("ssd", num_classes=2).flops),
    )
    downtime = outages.downtime_within(CONFIG.duration_s)
    print(
        f"\nuplink down {downtime:g}s of {CONFIG.duration_s:g}s "
        f"({100 * downtime / CONFIG.duration_s:.0f}%), {100 * LOSS:g}% transfer loss"
    )

    escalations = [
        ("no-retry", EscalationPolicy.no_retry()),
        ("drop-on-failure", EscalationPolicy.drop_on_failure()),
        ("durable-queue", EscalationPolicy.durable_queue(capacity=64, max_retries=6, max_backoff_s=8.0)),
    ]
    schemes = [
        ("cloud-only", cloud_only_scheme(), np.ones(len(test), dtype=bool), big),
        ("discriminator", collaborative_scheme(policy, name="discriminator"), mask, served),
    ]
    header = (
        f"{'scheme':<15}{'escalation':<17}{'lost':>7}{'failed':>8}"
        f"{'dropped':>9}{'recovered':>11}{'rolling mAP':>13}"
    )
    print(f"\n{header}")
    for scheme_label, scheme, scheme_mask, scheme_served in schemes:
        for escalation_label, escalation in escalations:
            fleet = serve_fleet(
                deployment,
                test,
                FleetSpec(
                    scheme=scheme,
                    config=CONFIG,
                    cameras=CAMERAS,
                    mask=scheme_mask,
                    small_detections=small,
                    detections=scheme_served,
                    escalation=escalation,
                ),
            )
            windows = rolling_quality(fleet, test, window_s=WINDOW_S, duration_s=CONFIG.duration_s)
            scored = [w for w in windows if w.frames]
            mean_map = sum(w.map_percent for w in scored) / max(len(scored), 1)
            print(
                f"{scheme_label:<15}{escalation_label:<17}"
                f"{100 * fleet.drop_rate:>6.1f}%{fleet.escalations_failed:>8}"
                f"{fleet.escalations_dropped:>9}{fleet.escalations_recovered:>11}"
                f"{mean_map:>13.2f}"
            )
    print("\ncloud-only loses every outage frame unless the durable queue")
    print("replays it after the link returns; the discriminator fleet serves")
    print("edge verdicts through the outage either way, and the queue then")
    print("upgrades the spooled cases to their cloud verdicts late.")


if __name__ == "__main__":
    main()
