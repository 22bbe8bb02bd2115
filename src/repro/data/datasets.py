"""Dataset containers and the registry of the paper's five settings.

The paper evaluates on four training *settings* over three datasets plus a
real-world one:

========  =========================================  ======================
setting   train split                                test split
========  =========================================  ======================
voc07     VOC2007 trainval (5 011)                   VOC2007 test (4 952)
voc07+12  VOC07 trainval + VOC12 trainval (16 551)   VOC2007 test (4 952)
voc07++12 VOC07 trainval+test + VOC12 part (16 551)  4 952 from VOC12
coco18    COCO 18-class subset (93 353)              4 914
helmet    Sedna helmet dataset (3 000)               1 000
========  =========================================  ======================

``voc07`` and ``voc07+12`` share their *test images exactly* (both use
VOC2007 test), which the registry reproduces by scoping the test generator
to the same stream; what differs between those settings is the detector
capability (models trained on more data — handled by the simulator presets).

A split is generated in one columnar pass.  Image ``i`` still draws its
scene, its degradation and its render seed from its own stream, the one
``generator_for(seed, "scene", scope, i)`` returns; the split's streams are
seeded in one pass by ``generators_for``, and the scene arithmetic
runs once over the split (:class:`~repro.data.scene.SceneDraws`), the
split's annotations are validated once as one
:class:`~repro.detection.batch.GroundTruthBatch`, and each record's
:class:`GroundTruth` is a zero-copy view of its segment.  The batch is the
dataset's ``truth_batch`` from the start, and ``subset`` and
``with_degradation`` slice or reuse it, so a generated split is never
flattened again.  Its annotation columns are read-only, because one split
may serve many callers: :func:`extend_dataset` grows the head of a split
into a longer one without generating the head's images again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro._rng import DEFAULT_SEED, generators_for
from repro.data.classes import COCO18_CLASSES, HELMET_CLASSES, VOC_CLASSES
from repro.data.degrade import Degradation, DegradationModel
from repro.data.scene import SceneDraws, SceneProfile
from repro.detection.batch import GroundTruthBatch
from repro.detection.types import GroundTruth
from repro.errors import DatasetError

__all__ = [
    "ImageRecord",
    "Dataset",
    "DatasetSetting",
    "DATASET_SETTINGS",
    "list_settings",
    "load_dataset",
    "extend_dataset",
]


@dataclass(frozen=True)
class ImageRecord:
    """One image: its annotation plus rendering/degradation metadata."""

    truth: GroundTruth
    degradation: Degradation
    render_seed: int

    @property
    def image_id(self) -> str:
        """The underlying image identifier."""
        return self.truth.image_id

    @property
    def quality(self) -> float:
        """Image quality in (0, 1]; 1 = pristine."""
        return self.degradation.quality


@dataclass(frozen=True)
class Dataset:
    """A materialised split: class vocabulary plus image records."""

    name: str
    split: str
    classes: tuple[str, ...]
    records: list[ImageRecord] = field(repr=False)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def num_classes(self) -> int:
        """Size of the class vocabulary."""
        return len(self.classes)

    @property
    def truths(self) -> list[GroundTruth]:
        """Ground-truth annotations in record order."""
        return [record.truth for record in self.records]

    @property
    def image_ids(self) -> tuple[str, ...]:
        """Image identifiers in record order."""
        return self.truth_batch.image_ids

    @cached_property
    def truth_batch(self) -> GroundTruthBatch:
        """The split's annotations as a cached structure-of-arrays batch.

        Evaluation code (VOC AP pooling, counting, threshold fits) consumes
        this directly.  A generated split comes with its batch already in
        place (its records view it); any other dataset flattens its records
        once, on first use.
        """
        return GroundTruthBatch.from_truths(self.truths)

    def _with_truth_batch(self, batch: GroundTruthBatch) -> "Dataset":
        """Seed the cached :attr:`truth_batch` with ``batch``, which must hold
        exactly this dataset's record annotations."""
        self.__dict__["truth_batch"] = batch
        return self

    @property
    def total_objects(self) -> int:
        """Total annotated objects across the split."""
        return self.truth_batch.total_objects

    def record(self, image_id: str) -> ImageRecord:
        """Look up a record by image id."""
        for candidate in self.records:
            if candidate.image_id == image_id:
                return candidate
        raise DatasetError(f"unknown image id {image_id!r} in {self.name}/{self.split}")

    def subset(self, count: int) -> "Dataset":
        """The first ``count`` records as a new dataset (deterministic)."""
        if count < 0:
            raise DatasetError("subset count must be >= 0")
        return Dataset(
            name=self.name,
            split=self.split,
            classes=self.classes,
            records=self.records[:count],
        )._with_truth_batch(self.truth_batch.head(count))

    def with_degradation(
        self,
        model: DegradationModel,
        *,
        seed: int = DEFAULT_SEED,
        scope: str = "drift",
    ) -> "Dataset":
        """The same annotated scenes under a different degradation mix.

        Re-samples every record's degradation (and render seed) from
        ``model`` while keeping the annotations untouched — a night
        camera's low-light imagery, a smoky site — so per-camera quality
        drift can ride the same split: record order, image ids and ground
        truth stay aligned with the original, which is what heterogeneous
        fleet runs and rolling-quality evaluation assume.  Deterministic in
        ``(seed, scope, record index)``.
        """
        records: list[ImageRecord] = []
        rngs = generators_for(seed, "degradation-drift", scope, self.name, self.split, ids=range(len(self.records)))
        for record, rng in zip(self.records, rngs):
            records.append(
                ImageRecord(
                    truth=record.truth,
                    degradation=model.sample(rng),
                    render_seed=int(rng.integers(0, 2**31 - 1)),
                )
            )
        dataset = Dataset(name=self.name, split=self.split, classes=self.classes, records=records)
        return dataset._with_truth_batch(self.truth_batch)


@dataclass(frozen=True)
class DatasetSetting:
    """Registry entry describing how to generate one setting's splits."""

    name: str
    classes: tuple[str, ...]
    scene_profile: SceneProfile
    degradation: DegradationModel
    train_size: int
    test_size: int
    #: Seed scopes let settings share image streams: voc07 and voc07+12 use
    #: the same test scope, hence literally identical test images.
    train_scope: str = ""
    test_scope: str = ""
    image_width: int = 500
    image_height: int = 375

    @property
    def num_classes(self) -> int:
        """Size of the class vocabulary."""
        return len(self.classes)

    def scope_for(self, split: str) -> str:
        if split == "train":
            return self.train_scope or f"{self.name}-train"
        return self.test_scope or f"{self.name}-test"

    def size_for(self, split: str) -> int:
        return self.train_size if split == "train" else self.test_size


_VOC_SCENES = SceneProfile(
    mean_extra_objects=1.45,
    count_dispersion=0.55,
    area_median=0.085,
    area_sigma=1.35,
)

_VOC12_SCENES = SceneProfile(
    mean_extra_objects=1.40,
    count_dispersion=0.55,
    area_median=0.082,
    area_sigma=1.35,
)

# The paper's COCO is an 18-VOC-class *subset* (98 267 images), not full
# COCO: scenes are denser than VOC but object sizes stay VOC-like, which is
# what keeps the min-area feature informative there.
_COCO_SCENES = SceneProfile(
    mean_extra_objects=2.30,
    count_dispersion=0.70,
    area_median=0.070,
    area_sigma=1.45,
)

_HELMET_SCENES = SceneProfile(
    mean_extra_objects=0.25,
    count_dispersion=0.50,
    area_median=0.055,
    area_sigma=0.9,
    class_zipf=0.5,
)

_MILD_DEGRADATION = DegradationModel(degraded_fraction=0.08, min_quality=0.7)
_HELMET_DEGRADATION = DegradationModel(degraded_fraction=0.4, min_quality=0.45, max_quality=0.9)

DATASET_SETTINGS: dict[str, DatasetSetting] = {
    "voc07": DatasetSetting(
        name="voc07",
        classes=VOC_CLASSES,
        scene_profile=_VOC_SCENES,
        degradation=_MILD_DEGRADATION,
        train_size=5011,
        test_size=4952,
        train_scope="voc07-trainval",
        test_scope="voc07-test",
    ),
    "voc07+12": DatasetSetting(
        name="voc07+12",
        classes=VOC_CLASSES,
        scene_profile=_VOC_SCENES,
        degradation=_MILD_DEGRADATION,
        train_size=16551,
        test_size=4952,
        train_scope="voc0712-trainval",
        test_scope="voc07-test",  # identical test images as the voc07 setting
    ),
    "voc07++12": DatasetSetting(
        name="voc07++12",
        classes=VOC_CLASSES,
        scene_profile=_VOC12_SCENES,
        degradation=_MILD_DEGRADATION,
        train_size=16551,
        test_size=4952,
        train_scope="voc07pp12-train",
        test_scope="voc12-test",
    ),
    "coco18": DatasetSetting(
        name="coco18",
        classes=COCO18_CLASSES,
        scene_profile=_COCO_SCENES,
        degradation=_MILD_DEGRADATION,
        train_size=93353,
        test_size=4914,
        image_width=640,
        image_height=480,
    ),
    "helmet": DatasetSetting(
        name="helmet",
        classes=HELMET_CLASSES,
        scene_profile=_HELMET_SCENES,
        degradation=_HELMET_DEGRADATION,
        train_size=3000,
        test_size=1000,
        image_width=1280,
        image_height=720,
    ),
}


def list_settings() -> list[str]:
    """Names of the registered dataset settings."""
    return sorted(DATASET_SETTINGS)


def load_dataset(
    setting: str,
    split: str = "test",
    *,
    seed: int = DEFAULT_SEED,
    fraction: float = 1.0,
) -> Dataset:
    """Materialise one split of a setting.

    Parameters
    ----------
    setting:
        One of :func:`list_settings`.
    split:
        ``"train"`` or ``"test"``.
    seed:
        Experiment-wide seed.  Image ``i`` of a given scope is a pure
        function of ``(seed, scope, i)``, so settings sharing a scope share
        images and ``fraction`` only truncates the stream.
    fraction:
        Fraction of the split to materialise (useful to keep unit tests and
        sweeps fast); the first ``ceil(fraction * size)`` images are used.
    """
    if split not in ("train", "test"):
        raise DatasetError(f"unknown split {split!r}; expected 'train' or 'test'")
    if not 0.0 < fraction <= 1.0:
        raise DatasetError(f"fraction must be in (0, 1], got {fraction}")
    try:
        entry = DATASET_SETTINGS[setting]
    except KeyError:
        raise DatasetError(f"unknown setting {setting!r}; available: {', '.join(list_settings())}") from None

    return _generate(entry, split, seed, 0, _split_size(entry, split, fraction))


def extend_dataset(prefix: Dataset, fraction: float, *, seed: int = DEFAULT_SEED) -> Dataset:
    """``load_dataset(prefix.name, prefix.split, seed=seed, fraction=fraction)``,
    reusing the images ``prefix`` already holds.

    ``prefix`` must be the first images of that split under ``seed`` (a
    :func:`load_dataset` result or a subset of one).  It is returned as is
    when it has the requested size and truncated with :meth:`Dataset.subset`
    when it has more; otherwise only the images past it are generated and
    appended.  Image ``i`` depends only on ``(seed, scope, i)``, so the
    result equals a fresh load field for field.
    """
    if not 0.0 < fraction <= 1.0:
        raise DatasetError(f"fraction must be in (0, 1], got {fraction}")
    entry = DATASET_SETTINGS[prefix.name]
    size = _split_size(entry, prefix.split, fraction)
    if size == len(prefix):
        return prefix
    if size < len(prefix):
        return prefix.subset(size)
    head, tail = prefix.truth_batch, _generate(entry, prefix.split, seed, len(prefix), size)
    batch = GroundTruthBatch._trusted(
        image_ids=head.image_ids + tail.truth_batch.image_ids,
        boxes=np.concatenate([head.boxes, tail.truth_batch.boxes]),
        labels=np.concatenate([head.labels, tail.truth_batch.labels]),
        offsets=np.concatenate([head.offsets, tail.truth_batch.offsets[1:] + head.total_objects]),
    )
    _freeze(batch)
    records = prefix.records + tail.records
    dataset = Dataset(name=prefix.name, split=prefix.split, classes=entry.classes, records=records)
    return dataset._with_truth_batch(batch)


def _split_size(entry: DatasetSetting, split: str, fraction: float) -> int:
    """Images a ``fraction`` of one of ``entry``'s splits holds."""
    return int(np.ceil(entry.size_for(split) * fraction))


def _freeze(batch: GroundTruthBatch) -> None:
    """Make a generated split's annotation columns read-only."""
    for column in (batch.boxes, batch.labels, batch.offsets):
        column.flags.writeable = False


def _generate(entry: DatasetSetting, split: str, seed: int, lo: int, hi: int) -> Dataset:
    """Images ``[lo, hi)`` of one split, as a dataset of their own."""
    scope = entry.scope_for(split)
    scenes = SceneDraws(entry.scene_profile, entry.num_classes)
    degradations: list[Degradation] = []
    render_seeds: list[int] = []
    for rng in generators_for(seed, "scene", scope, ids=range(lo, hi)):
        scenes.draw(rng)
        degradations.append(entry.degradation.sample(rng))
        render_seeds.append(int(rng.integers(0, 2**31 - 1)))
    boxes, labels, offsets = scenes.scenes()
    batch = GroundTruthBatch(
        image_ids=tuple(f"{scope}-{index:06d}" for index in range(lo, hi)),
        boxes=boxes,
        labels=labels,
        offsets=offsets,
    )
    # Frozen before the records view it, so every view is read-only too.
    _freeze(batch)
    records = [
        ImageRecord(truth=truth, degradation=degradation, render_seed=render_seed)
        for truth, degradation, render_seed in zip(
            batch.views(width=entry.image_width, height=entry.image_height), degradations, render_seeds
        )
    ]
    return Dataset(name=entry.name, split=split, classes=entry.classes, records=records)._with_truth_batch(batch)
