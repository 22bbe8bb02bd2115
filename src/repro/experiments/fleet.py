"""Fleet-scale serving comparison: N cameras, one uplink, one cloud GPU.

The extension workload behind Table XVIII and Figure 10: every offload
policy — the difficult-case discriminator, the Sec. VI.E baselines at the
discriminator's measured upload quota, and the degenerate edge/cloud-only
schemes — drives the *same* eight-camera helmet-site fleet
(:func:`repro.runtime.serving.serve_fleet`) over the Table XI deployment,
and the served streams are scored online with
:func:`repro.metrics.rolling.rolling_quality`.  Saturation of the shared
WLAN uplink therefore shows up where it matters: as measured rolling mAP
and object-count loss, not just as latency percentiles.

Table XIX and Figure 11 extend the same fleet along the *admission* axis:
each serving scheme runs under every camera-buffer admission policy
(:class:`~repro.runtime.policies.DropNewest` /
:class:`~repro.runtime.policies.DropOldest` /
:class:`~repro.runtime.policies.DeadlineAware`), and the rolling evaluation
at the freshness deadline shows what shedding policy the buffer should run:
under saturation, *which* frames a camera keeps decides whether served
results are fresh enough to count at all.

Table XX and Figure 12 extend it along the *availability* axis: the shared
uplink becomes an :class:`~repro.runtime.network.UnreliableLink` (scheduled
outages plus per-transfer loss), and each serving scheme runs under every
escalation policy (:class:`~repro.runtime.policies.EscalationPolicy` —
no-retry / drop-on-failure / a durable spool with exponential backoff).
Rolling quality without a freshness deadline then measures *eventual*
quality: what a durable escalation queue recovers after the outage that the
drop policies lose for good.

Table XXI and Figure 13 close the loop: estimated-time admission
(:class:`~repro.runtime.control.EstimatedDeadlineAware`) and fleet-wide
uplink coordination (:class:`~repro.runtime.control.UplinkCoordinator`)
climb toward the omniscient deadline policy on the saturated cloud-only
fleet using only each camera's own completion events, and adaptive offload
quotas (:class:`~repro.runtime.control.AdaptiveQuota`) hold a drifted
half-night fleet to the upload budget a congested uplink can actually
carry, where the statically fitted thresholds saturate it and go stale.

Table XXII and Figure 14 make the link itself time-varying: the shared
uplink carries a :class:`~repro.runtime.network.RateSchedule` (the bundled
``periodic_dip`` and ``lte_like`` traces from ``benchmarks/traces/``), and
each serving scheme runs under each admission policy — including the
schedule-aware vs constant-estimate variants of
:class:`~repro.runtime.control.EstimatedDeadlineAware` — so the grid shows
what folding the link schedule into every doom test buys once the rate
actually moves, and how much more gracefully the discriminator scheme rides
a bandwidth dip than cloud-only.

All five tables run through one grid runner, :func:`run_grid`.  A table
declares only its cells: the axis labels, the deployment, the
:class:`~repro.runtime.serving.FleetSpec`, the freshness deadline and, where
the table reports something other than ``frames_uploaded``, how to count
uploads.  The runner serves each cell with ``serve_fleet``, scores it with
``rolling_quality`` and returns one :class:`FleetOutcome` per cell, whose
metrics are defined once for every table.  Every grid serves
:data:`FLEET_CAMERAS` cameras at :func:`fleet_config` and scores
:data:`FLEET_WINDOW_S`-wide windows.  :meth:`Harness.fleet_grid` memoises
each grid by name, so a table and its figure share the same runs; the
``*_outcomes`` functions, each taking only the harness, are the front
doors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator

import numpy as np

from repro.baselines.blur_upload import BlurUploadPolicy
from repro.baselines.confidence_upload import ConfidenceUploadPolicy
from repro.baselines.random_upload import RandomUploadPolicy
from repro.core.discriminator import DifficultCaseDiscriminator, DiscriminatorPolicy
from repro.data.datasets import Dataset
from repro.data.degrade import DegradationModel
from repro.detection.batch import DetectionBatch
from repro.experiments.harness import Harness
from repro.metrics.rolling import RollingWindow, rolling_quality
from repro.runtime.control import AdaptiveQuota, EstimatedDeadlineAware, UplinkCoordinator
from repro.runtime.devices import JETSON_NANO, RTX3060_SERVER
from repro.runtime.network import WLAN, OutageSchedule, RateSchedule, UnreliableLink
from repro.runtime.policies import AdmissionPolicy, DeadlineAware, DropNewest, DropOldest, EscalationPolicy
from repro.runtime.schemes import (
    Deployment,
    ServingScheme,
    StreamConfig,
    cloud_only_scheme,
    collaborative_scheme,
    edge_only_scheme,
)
from repro.runtime.serving import (
    CameraSpec,
    FleetReport,
    FleetSpec,
    serve_fleet,
    simulate_fleet,  # noqa: F401 - perfbench/ rebinds this module global by name
)
from repro.runtime.traces import bundled_trace
from repro.zoo.registry import build_model

__all__ = [
    "FLEET_CAMERAS",
    "FLEET_FRESHNESS_S",
    "FLEET_LOSS_PROBABILITY",
    "FLEET_SETTING",
    "FLEET_WINDOW_S",
    "DRIFT_BANDWIDTH_MBPS",
    "DRIFT_UPLOAD_BUDGET",
    "FleetOutcome",
    "admission_policies",
    "admission_policy_outcomes",
    "availability_outcomes",
    "control_plane_outcomes",
    "drift_degradation",
    "escalation_policies",
    "fleet_config",
    "fleet_deployment",
    "fleet_policy_outcomes",
    "network_admissions",
    "network_outcomes",
    "network_profiles",
    "outage_schedules",
    "run_grid",
]

#: Cameras contending for the shared uplink/cloud in the reported fleet.
FLEET_CAMERAS = 8

#: The deployment's dataset (the paper's real-world Table XI setting).
FLEET_SETTING = "helmet"

#: Rolling-evaluation window width in simulated seconds.
FLEET_WINDOW_S = 8.0

#: Staleness deadline: a result older than this on delivery is a miss.  Site
#: monitoring tolerates a couple of seconds; queue-saturated schemes whose
#: results trail by tens of seconds score as misses, as an operator would.
FLEET_FRESHNESS_S = 2.0

#: Per-transfer loss probability of the lossy uplink in the availability runs
#: (congestion loss on top of the outage schedule).
FLEET_LOSS_PROBABILITY = 0.05

#: Seed of the ``random-30`` schedule (fixed: the schedule is part of the
#: workload definition, not of a run's randomness).
DEFAULT_OUTAGE_SEED = 2023

#: Per-camera upload budget (fraction of frames) the adaptive-quota rows
#: hold every camera to on the congested drift uplink.
DRIFT_UPLOAD_BUDGET = 0.10

#: Shared-uplink bandwidth (Mbps) of the drift fleet — tight enough that the
#: static thresholds' night-time upload surge saturates it, while the
#: budgeted fleet stays comfortably inside capacity.
DRIFT_BANDWIDTH_MBPS = 2.2


# --------------------------------------------------------------------- #
# the one grid runner
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class _Grid:
    """What every cell of a fleet grid draws on: the helmet test split, both
    models' detections, the fitted discriminator and the Table XI testbed."""

    harness: Harness
    dataset: Dataset
    small: DetectionBatch
    big: DetectionBatch
    discriminator: DifficultCaseDiscriminator
    deployment: Deployment
    config: StreamConfig

    @property
    def seed(self) -> int:
        return self.harness.config.seed


@dataclass(frozen=True)
class _Cell:
    """One run of a fleet grid, as a table declares it.

    ``labels`` place the run on the grid's axes (axis name -> value, in
    column order).  ``freshness_s`` is the rolling-quality deadline
    (``None`` scores eventual quality).  ``uploads`` counts the finished
    run's uploads when ``report.frames_uploaded`` is not the figure the
    table reports.
    """

    labels: dict[str, str]
    deployment: Deployment
    spec: FleetSpec
    freshness_s: float | None = FLEET_FRESHNESS_S
    uploads: Callable[[FleetReport], int] | None = None


@dataclass(frozen=True)
class FleetOutcome:
    """One fleet-grid cell served and scored online."""

    labels: dict[str, str]
    report: FleetReport
    windows: list[RollingWindow]
    uploads: int

    @property
    def mean_map(self) -> float:
        """Mean rolling mAP over windows that saw frames."""
        values = [w.map_percent for w in self.windows if w.frames]
        return float(np.mean(values)) if values else 0.0

    @property
    def mean_count_error(self) -> float:
        """Mean rolling count-error percent over windows that saw frames."""
        values = [w.count_error_percent for w in self.windows if w.frames]
        return float(np.mean(values)) if values else 0.0

    @property
    def mean_staleness_s(self) -> float:
        """Mean served-frame result age (completion minus arrival) in seconds."""
        ages = [camera.trace.latencies() for camera in self.report.cameras]
        stacked = np.concatenate(ages) if ages else np.zeros(0)
        return float(stacked.mean()) if stacked.size else 0.0

    @property
    def fresh_percent(self) -> float:
        """Percent of *offered* frames served within the freshness deadline."""
        served = sum(w.served for w in self.windows)
        offered = sum(w.frames for w in self.windows)
        return 100.0 * served / offered if offered else 0.0

    @property
    def frames_lost_percent(self) -> float:
        """Percent of offered frames that never produced a served result."""
        return 100.0 * self.report.drop_rate


def run_grid(harness: Harness, name: str) -> tuple[FleetOutcome, ...]:
    """Serve and score every cell of the fleet grid ``name``, in order.

    Uncached — go through the ``*_outcomes`` front doors (memoised by
    :meth:`Harness.fleet_grid`) so each table and its figure consume the
    same runs.
    """
    dataset = harness.dataset(FLEET_SETTING, "test")
    small = harness.detections("small1", FLEET_SETTING, "test")
    big = harness.detections("ssd", FLEET_SETTING, "test")
    discriminator, _ = harness.discriminator("small1", "ssd", FLEET_SETTING)
    config = fleet_config()
    grid = _Grid(harness, dataset, small, big, discriminator, fleet_deployment(dataset.num_classes), config)
    outcomes = []
    # cells are generated lazily, so a cell may read state its predecessors' runs left behind
    for cell in _GRIDS[name](grid):
        report = serve_fleet(cell.deployment, dataset, cell.spec, seed=grid.seed)
        windows = rolling_quality(
            report,
            dataset,
            window_s=FLEET_WINDOW_S,
            duration_s=config.duration_s,
            freshness_s=cell.freshness_s,
        )
        uploads = report.frames_uploaded if cell.uploads is None else cell.uploads(report)
        outcomes.append(FleetOutcome(cell.labels, report, windows, uploads))
    return tuple(outcomes)


def fleet_config() -> StreamConfig:
    """Per-camera workload: 1.5 fps Poisson arrivals for 40 s.

    Eight cameras offer ~12 fps fleet-wide — comfortably within every
    camera's edge accelerator, but far beyond what the shared WLAN uplink
    can carry if every frame crosses it.  That is the regime the paper's
    collaboration argument targets.
    """
    return StreamConfig(fps=1.5, poisson=True, duration_s=40.0, max_edge_queue=30)


def fleet_deployment(num_classes: int) -> Deployment:
    """The Table XI testbed: Jetson Nano edges, WLAN, RTX3060 server."""
    return Deployment(
        edge=JETSON_NANO,
        cloud=RTX3060_SERVER,
        link=WLAN,
        small_model_flops=float(build_model("small1", num_classes=num_classes).flops),
        big_model_flops=float(build_model("ssd", num_classes=num_classes).flops),
    )


def _discriminator_entry(grid: _Grid) -> tuple[str, ServingScheme, np.ndarray, DetectionBatch]:
    """The discriminator's collaborative scheme, its upload mask and served outputs."""
    policy = DiscriminatorPolicy(grid.discriminator)
    mask = policy.select(grid.dataset, grid.small)
    served = DetectionBatch.where(mask, grid.big, grid.small)
    return "discriminator", collaborative_scheme(policy, name="discriminator"), mask, served


def _cloud_only_entry(grid: _Grid) -> tuple[str, ServingScheme, np.ndarray, DetectionBatch]:
    return "cloud-only", cloud_only_scheme(), np.ones(len(grid.dataset), dtype=bool), grid.big


# --------------------------------------------------------------------- #
# Table XVIII / Figure 10: offload policies
# --------------------------------------------------------------------- #
def fleet_policy_outcomes(harness: Harness) -> tuple[FleetOutcome, ...]:
    """Table XVIII / Figure 10 outcomes (axis ``policy``), memoised by the harness."""
    return harness.fleet_grid("policies")


def _policy_cells(grid: _Grid) -> Iterator[_Cell]:
    """Every offload policy on the same fleet, scored at the deadline.

    The four upload policies run through the shared
    :class:`~repro.runtime.policies.OffloadPolicy` protocol inside a
    collaborative-shaped scheme (the baselines at the discriminator's
    measured upload quota, the fair-bandwidth protocol of Tables XII-XVII);
    edge-only and cloud-only are their degenerate schemes.  The mask each
    policy selected is passed through, so expensive policies (blur renders
    every image) run ``select()`` exactly once.
    """
    dataset, small, big = grid.dataset, grid.small, grid.big
    quota = float(np.mean(grid.discriminator.decide_split(small)))
    policies = [
        ("discriminator", DiscriminatorPolicy(grid.discriminator)),
        ("random", RandomUploadPolicy(ratio=quota, seed=grid.seed)),
        ("blur", BlurUploadPolicy(ratio=quota)),
        ("confidence", ConfidenceUploadPolicy(ratio=quota)),
    ]
    entries = [("edge-only", edge_only_scheme(), np.zeros(len(dataset), dtype=bool), small), _cloud_only_entry(grid)]
    for label, policy in policies:
        mask = policy.select(dataset, small)
        served = DetectionBatch.where(mask, big, small)
        entries.append((label, collaborative_scheme(policy, name=label), mask, served))
    for label, scheme, mask, served in entries:
        spec = FleetSpec(scheme=scheme, config=grid.config, cameras=FLEET_CAMERAS, mask=mask, detections=served)
        yield _Cell({"policy": label}, grid.deployment, spec)


# --------------------------------------------------------------------- #
# Table XIX / Figure 11: admission policy x serving scheme
# --------------------------------------------------------------------- #
def admission_policies() -> tuple[tuple[str, AdmissionPolicy], ...]:
    """The camera-buffer admission policies Table XIX compares."""
    return (
        ("drop-newest", DropNewest()),
        ("drop-oldest", DropOldest()),
        ("deadline-aware", DeadlineAware(freshness_s=FLEET_FRESHNESS_S)),
    )


def admission_policy_outcomes(harness: Harness) -> tuple[FleetOutcome, ...]:
    """Table XIX / Figure 11 outcomes (axes ``scheme``, ``admission``), memoised by the harness."""
    return harness.fleet_grid("admission")


def _admission_cells(grid: _Grid) -> Iterator[_Cell]:
    """Every admission policy x serving scheme, scored at the deadline.

    ``cloud-only`` saturates the shared uplink (every admission decision
    matters); the discriminator scheme runs within budget (a control:
    admission must not perturb an unsaturated fleet).
    """
    for scheme_label, scheme, mask, served in (_cloud_only_entry(grid), _discriminator_entry(grid)):
        for admission_label, admission in admission_policies():
            spec = FleetSpec(
                scheme=scheme,
                config=grid.config,
                cameras=FLEET_CAMERAS,
                mask=mask,
                detections=served,
                admission=admission,
            )
            yield _Cell({"scheme": scheme_label, "admission": admission_label}, grid.deployment, spec)


# --------------------------------------------------------------------- #
# Table XX / Figure 12: availability under failure (escalation policies)
# --------------------------------------------------------------------- #
def outage_schedules(duration_s: float) -> tuple[tuple[str, OutageSchedule], ...]:
    """The ~30 %-downtime uplink outage schedules Table XX compares.

    ``periodic-30`` is a deterministic 6-s-down-every-20-s cycle;
    ``random-30`` draws seeded exponential up/down intervals with the same
    expected downtime fraction, so the two rows separate "predictable
    maintenance window" from "flaky backhaul" behaviour.
    """
    return (
        ("periodic-30", OutageSchedule.periodic(period_s=20.0, downtime_s=6.0, duration_s=duration_s)),
        (
            "random-30",
            OutageSchedule.random(seed=DEFAULT_OUTAGE_SEED, duration_s=duration_s, mean_up_s=7.0, mean_down_s=3.0),
        ),
    )


def escalation_policies() -> tuple[tuple[str, EscalationPolicy], ...]:
    """The escalation policies Table XX compares on failed uplink transfers."""
    return (
        ("no-retry", EscalationPolicy.no_retry()),
        ("drop-on-failure", EscalationPolicy.drop_on_failure()),
        ("durable-queue", EscalationPolicy.durable_queue(capacity=64, max_retries=6, max_backoff_s=8.0)),
    )


def availability_outcomes(harness: Harness) -> tuple[FleetOutcome, ...]:
    """Table XX / Figure 12 outcomes (axes ``outage``, ``scheme``, ``escalation``), memoised by the harness."""
    return harness.fleet_grid("availability")


def _availability_cells(grid: _Grid) -> Iterator[_Cell]:
    """Every outage schedule x scheme x escalation policy, eventual quality.

    The shared WLAN uplink is wrapped in an
    :class:`~repro.runtime.network.UnreliableLink` with the schedule's down
    windows plus :data:`FLEET_LOSS_PROBABILITY` per-transfer loss.
    ``cloud-only`` stakes every frame on the uplink; the discriminator
    scheme serves the frame's *edge* verdict when an escalation fails and
    the durable queue lands the cloud verdict late.  Scored **without** a
    freshness deadline: what each policy permanently loses versus
    eventually recovers.
    """
    schemes = (_cloud_only_entry(grid), _discriminator_entry(grid))
    base = grid.deployment
    for outage_label, outages in outage_schedules(grid.config.duration_s):
        link = UnreliableLink.wrap(base.link, outages=outages, loss_probability=FLEET_LOSS_PROBABILITY)
        deployment = replace(base, link=link)
        for scheme_label, scheme, mask, served in schemes:
            for escalation_label, escalation in escalation_policies():
                spec = FleetSpec(
                    scheme=scheme,
                    config=grid.config,
                    cameras=FLEET_CAMERAS,
                    mask=mask,
                    small_detections=grid.small,
                    detections=served,
                    escalation=escalation,
                )
                labels = {"outage": outage_label, "scheme": scheme_label, "escalation": escalation_label}
                yield _Cell(labels, deployment, spec, freshness_s=None)


# --------------------------------------------------------------------- #
# Table XXI / Figure 13: the closed-loop control plane
# --------------------------------------------------------------------- #
def drift_degradation() -> DegradationModel:
    """The night-shift image degradation of the Table XXI drift fleet.

    Strong enough that the (day-fit) discriminator's upload ratio jumps
    from ~0.20 to ~0.39 on night frames — the threshold drift the adaptive
    quota rows are asked to absorb.
    """
    return DegradationModel(degraded_fraction=1.0, min_quality=0.3, max_quality=0.55)


def control_plane_outcomes(harness: Harness) -> tuple[FleetOutcome, ...]:
    """Table XXI / Figure 13 outcomes (axes ``group``, ``policy``), memoised by the harness."""
    return harness.fleet_grid("control")


def _served_uploads(report: FleetReport) -> int:
    return sum(int(camera.trace.served.sum()) for camera in report.cameras)


def _control_cells(grid: _Grid) -> Iterator[_Cell]:
    """The closed-loop control-plane fleets, scored at the deadline.

    ``admission`` — the cloud-only fleet saturates the shared WLAN uplink,
    and the rows climb the information ladder: ``drop-newest`` (no deadline
    logic, the floor), omniscient ``deadline-aware`` (reads the simulator's
    exact queued service times — an upper bound no deployment can run),
    ``estimated-deadline`` (:class:`~repro.runtime.control.EstimatedDeadlineAware`,
    the same shedding rule driven purely by EWMA estimates from the
    camera's own completion events), and ``coordinated`` (the estimated
    policy plus an :class:`~repro.runtime.control.UplinkCoordinator`
    sweeping the fleet between arrivals with fleet-pooled estimates).

    ``drift`` — half the cameras switch to night-shift footage
    (:func:`drift_degradation`), which inflates the static discriminator
    thresholds' upload ratio far past what a congested
    :data:`DRIFT_BANDWIDTH_MBPS` uplink carries; everything queues and goes
    stale.  The ``adaptive-quota`` row gives each camera an
    :class:`~repro.runtime.control.AdaptiveQuota`
    (:class:`~repro.core.adaptive.BudgetController` per camera) holding its
    realised upload ratio to the affordable :data:`DRIFT_UPLOAD_BUDGET`,
    trading cloud verdicts it cannot afford for freshness it can.
    """
    config = grid.config
    _, cloud_only, everything, big = _cloud_only_entry(grid)
    admission_rows = (
        ("drop-newest", DropNewest(), None),
        ("deadline-aware", DeadlineAware(freshness_s=FLEET_FRESHNESS_S), None),
        ("estimated-deadline", EstimatedDeadlineAware(freshness_s=FLEET_FRESHNESS_S), None),
        (
            "coordinated",
            EstimatedDeadlineAware(freshness_s=FLEET_FRESHNESS_S),
            UplinkCoordinator(freshness_s=FLEET_FRESHNESS_S),
        ),
    )
    for label, admission, controller in admission_rows:
        spec = FleetSpec(
            scheme=cloud_only,
            config=config,
            cameras=FLEET_CAMERAS,
            mask=everything,
            detections=big,
            admission=admission,
            controller=controller,
        )
        yield _Cell({"group": "admission", "policy": label}, grid.deployment, spec, uploads=_served_uploads)

    discriminator, small = grid.discriminator, grid.small
    night = grid.dataset.with_degradation(drift_degradation(), scope="night-shift")
    night_small = grid.harness.detector("small1", FLEET_SETTING).detect_split(night)
    night_big = grid.harness.detector("ssd", FLEET_SETTING).detect_split(night)
    day_mask = np.asarray(discriminator.decide_split(small), dtype=bool)
    night_mask = np.asarray(discriminator.decide_split(night_small), dtype=bool)
    scheme = collaborative_scheme(DiscriminatorPolicy(discriminator), name="discriminator")
    congested = replace(grid.deployment, link=replace(WLAN, name="wlan-congested", bandwidth_mbps=DRIFT_BANDWIDTH_MBPS))
    night_cameras = FLEET_CAMERAS // 2
    day_cameras = FLEET_CAMERAS - night_cameras

    def static_uploads(report: FleetReport) -> int:
        uploads = 0
        for index, camera in enumerate(report.cameras):
            mask = day_mask if index < day_cameras else night_mask
            uploads += int(mask[camera.trace.records[camera.trace.served]].sum())
        return uploads

    night_camera = CameraSpec(dataset=night, detections=night_big, small_detections=night_small, mask=night_mask)
    static = FleetSpec(
        scheme=scheme,
        config=config,
        cameras=(CameraSpec(),) * day_cameras + (night_camera,) * night_cameras,
        mask=day_mask,
        detections=big,
        small_detections=small,
    )
    yield _Cell({"group": "drift", "policy": "static-threshold"}, congested, static, uploads=static_uploads)

    day_quota = AdaptiveQuota(discriminator, small, DRIFT_UPLOAD_BUDGET)
    night_quota = AdaptiveQuota(discriminator, night_small, DRIFT_UPLOAD_BUDGET)
    night_adaptive = CameraSpec(dataset=night, detections=night_big, small_detections=night_small, offload=night_quota)
    adaptive = FleetSpec(
        scheme=scheme,
        config=config,
        cameras=(CameraSpec(offload=day_quota),) * day_cameras + (night_adaptive,) * night_cameras,
        detections=big,
        small_detections=small,
    )
    yield _Cell(
        {"group": "drift", "policy": "adaptive-quota"},
        congested,
        adaptive,
        uploads=lambda _report: day_quota.uploads + night_quota.uploads,
    )


# --------------------------------------------------------------------- #
# Table XXII / Figure 14: time-varying links x scheme x admission
# --------------------------------------------------------------------- #
def network_profiles() -> tuple[tuple[str, RateSchedule | None], ...]:
    """The Table XXII bandwidth profiles on the shared fleet uplink.

    ``constant`` is the plain scalar WLAN (the pre-schedule baseline, bit
    for bit); the other two attach checked-in traces from
    ``benchmarks/traces/`` — the deterministic congestion cycle and the
    LTE-like random walk with a mid-run trough — via
    :meth:`~repro.runtime.network.NetworkLink.with_rate_schedule`, so the
    experiment and the examples consume the exact same profiles.
    """
    return (
        ("constant", None),
        ("periodic-dip", bundled_trace("periodic_dip")),
        ("lte-trace", bundled_trace("lte_like")),
    )


def network_admissions() -> tuple[tuple[str, AdmissionPolicy], ...]:
    """The Table XXII admission ladder.

    ``estimated-constant`` is :class:`~repro.runtime.control.EstimatedDeadlineAware`
    with the schedule-aware floor disabled — the pre-refactor estimator
    that believes its EWMA memory through a congestion dip;
    ``estimated-schedule`` folds the link schedule's view of *now* into
    every doom test.  On the constant profile the two are identical by
    construction (the floor is exactly zero there).
    """
    return (
        ("drop-newest", DropNewest()),
        ("estimated-constant", EstimatedDeadlineAware(freshness_s=FLEET_FRESHNESS_S, schedule_aware=False)),
        ("estimated-schedule", EstimatedDeadlineAware(freshness_s=FLEET_FRESHNESS_S, schedule_aware=True)),
    )


def network_outcomes(harness: Harness) -> tuple[FleetOutcome, ...]:
    """Table XXII / Figure 14 outcomes (axes ``profile``, ``scheme``, ``admission``), memoised by the harness."""
    return harness.fleet_grid("network")


def _network_cells(grid: _Grid) -> Iterator[_Cell]:
    """Every bandwidth profile x scheme x admission policy, scored at the deadline.

    The grid isolates two orderings: what schedule awareness buys the
    estimated admission policy once the rate actually varies, and how much
    more gracefully the discriminator scheme rides a bandwidth dip than
    cloud-only (its edge verdicts keep serving while the uplink crawls).
    """
    # the discriminator scheme's failed escalations fall back on the edge verdicts
    schemes = ((*_cloud_only_entry(grid), None), (*_discriminator_entry(grid), grid.small))
    base = grid.deployment
    for profile, schedule in network_profiles():
        link = base.link if schedule is None else base.link.with_rate_schedule(schedule)
        deployment = replace(base, link=link)
        for scheme_label, scheme, mask, served, small_detections in schemes:
            for admission_label, admission in network_admissions():
                spec = FleetSpec(
                    scheme=scheme,
                    config=grid.config,
                    cameras=FLEET_CAMERAS,
                    mask=mask,
                    detections=served,
                    small_detections=small_detections,
                    admission=admission,
                )
                labels = {"profile": profile, "scheme": scheme_label, "admission": admission_label}
                yield _Cell(labels, deployment, spec)


_GRIDS: dict[str, Callable[[_Grid], Iterator[_Cell]]] = {
    "policies": _policy_cells,
    "admission": _admission_cells,
    "availability": _availability_cells,
    "control": _control_cells,
    "network": _network_cells,
}
