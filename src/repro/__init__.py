"""repro — reproduction of "Edge-Cloud Collaborated Object Detection via
Difficult-Case Discriminator" (Cao et al., ICDCS 2023).

The package implements the paper's small-big model framework end to end:

* :mod:`repro.core` — the contribution: the difficult-case discriminator and
  the small-big system orchestrator;
* :mod:`repro.detection`, :mod:`repro.metrics` — detection geometry and the
  VOC evaluation protocol;
* :mod:`repro.zoo` — analytic architecture specs (Table II);
* :mod:`repro.data` — synthetic VOC / COCO-18 / Helmet scene generators;
* :mod:`repro.simulate` — calibrated statistical detector simulators (the
  substitute for GPU-trained SSD / YOLOv4 weights);
* :mod:`repro.runtime` — Jetson-Nano/WLAN/server latency model (Table XI);
* :mod:`repro.baselines` — random / blurred / top-1-confidence uploading;
* :mod:`repro.experiments` — runners regenerating every table and figure.

Quickstart::

    from repro import quickstart_system
    system, report = quickstart_system("voc07+12")
    detections, uploaded = system.process_image(record)
"""

from __future__ import annotations

from repro._rng import DEFAULT_SEED
from repro.core import (
    DifficultCaseDiscriminator,
    SmallBigSystem,
    SystemRun,
    is_difficult_case,
    label_cases,
)
from repro.data import Dataset, list_settings, load_dataset
from repro.detection import (
    DetectionBatch,
    DetectionBatchBuilder,
    Detections,
    GroundTruth,
    GroundTruthBatch,
)
from repro.runtime.parallel import run_split
from repro.runtime.pool import WorkerPool
from repro.simulate import DetectorProfile, SimulatedDetector, make_detector

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_SEED",
    "DifficultCaseDiscriminator",
    "SmallBigSystem",
    "SystemRun",
    "is_difficult_case",
    "label_cases",
    "Dataset",
    "list_settings",
    "load_dataset",
    "DetectionBatch",
    "DetectionBatchBuilder",
    "Detections",
    "GroundTruth",
    "GroundTruthBatch",
    "run_split",
    "WorkerPool",
    "DetectorProfile",
    "SimulatedDetector",
    "make_detector",
    "quickstart_system",
    "__version__",
]


def quickstart_system(setting: str = "voc07+12", *, train_images: int = 2000):
    """Build a ready-to-serve small-big system in one call.

    Calibrates the paper's headline pair (the ``small1`` edge model and the
    ``ssd`` cloud model), fits the difficult-case discriminator on the
    setting's training split and returns ``(system, fit_report)``.
    """
    small_model = make_detector("small1", setting)
    big_model = make_detector("ssd", setting)
    from repro.data.datasets import DATASET_SETTINGS

    entry = DATASET_SETTINGS[setting]
    fraction = min(1.0, train_images / entry.train_size)
    train = load_dataset(setting, "train", fraction=fraction)
    discriminator, report = DifficultCaseDiscriminator.fit(
        small_model.detect_split(train),
        big_model.detect_split(train),
        train.truths,
    )
    system = SmallBigSystem(small_model=small_model, big_model=big_model, discriminator=discriminator)
    return system, report
