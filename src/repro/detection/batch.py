"""Structure-of-arrays batches of per-image detections and annotations.

:class:`DetectionBatch` holds one detector's output over a whole split as
four flat arrays — concatenated ``boxes``/``scores``/``labels`` plus an
``offsets`` array delimiting each image's segment — exactly the layout the
experiment harness serialises to disk.  Split-level operations (threshold
counting, serving filters, per-image minima) run as single vectorised passes
over the flat arrays instead of a Python loop over ``list[Detections]``,
while :meth:`view` exposes any image as a zero-copy :class:`Detections`.

Invariants mirror :class:`Detections`: boxes are validated ``(N, 4)`` xyxy,
scores lie in ``[0, 1]`` and every per-image segment is sorted by descending
score.  Construction validates all of them with array passes, so views can
bypass the per-image ``Detections`` constructor entirely.

:class:`DetectionBatchBuilder` is the streaming producer of the same layout:
an appendable accumulator with amortised (doubling) growth, so per-image
results fill flat arrays directly instead of staging a
``list[Detections]``.  :class:`GroundTruthBatch` is the annotation-side
mirror (flat ``boxes``/``labels`` + ``offsets``), cached on ``Dataset`` so
evaluation never re-flattens a split's ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.detection.boxes import box_area, validate_boxes
from repro.detection.types import Detections, GroundTruth
from repro.errors import GeometryError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids layering cycles
    from repro.runtime.shm import SharedBatchHandle

__all__ = ["DetectionBatch", "DetectionBatchBuilder", "GroundTruthBatch"]


def _segment_view(batch: "DetectionBatch", index: int) -> Detections:
    """Zero-copy :class:`Detections` over one segment (invariants hold by
    construction, so ``__post_init__`` validation/sorting is skipped)."""
    lo = int(batch.offsets[index])
    hi = int(batch.offsets[index + 1])
    view = object.__new__(Detections)
    object.__setattr__(view, "image_id", batch.image_ids[index])
    object.__setattr__(view, "boxes", batch.boxes[lo:hi])
    object.__setattr__(view, "scores", batch.scores[lo:hi])
    object.__setattr__(view, "labels", batch.labels[lo:hi])
    object.__setattr__(view, "detector", batch.detector)
    object.__setattr__(view, "extras", {})
    return view


def _gather_segments(values: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``values[starts[i] : starts[i] + counts[i]]`` segments."""
    total = int(counts.sum())
    if total == 0:
        return values[:0]
    bases = np.concatenate([[0], np.cumsum(counts)[:-1]])
    indices = np.repeat(starts - bases, counts) + np.arange(total)
    return values[indices]


@dataclass(frozen=True)
class DetectionBatch:
    """One detector's output over a whole split, stored structure-of-arrays.

    Attributes
    ----------
    image_ids:
        Per-image identifiers, aligned with the segments.
    boxes / scores / labels:
        Flat concatenation of every image's detections (score-descending
        within each segment).
    offsets:
        ``(num_images + 1,)`` segment boundaries: image ``i`` owns rows
        ``offsets[i]:offsets[i + 1]``.
    detector:
        Name of the producing detector (``"mixed"`` after a merge).
    """

    image_ids: tuple[str, ...]
    boxes: np.ndarray
    scores: np.ndarray
    labels: np.ndarray
    offsets: np.ndarray
    detector: str = "unknown"

    def __post_init__(self) -> None:
        boxes = validate_boxes(self.boxes)
        total = boxes.shape[0]
        scores = np.asarray(self.scores, dtype=np.float64).reshape(-1)
        if scores.shape[0] != total:
            raise GeometryError(f"DetectionBatch: got {scores.shape[0]} scores for {total} boxes")
        if total and (not np.isfinite(scores).all()):
            raise GeometryError("DetectionBatch: scores contain non-finite values")
        if total and ((scores < 0.0).any() or (scores > 1.0).any()):
            raise GeometryError("DetectionBatch: scores must lie in [0, 1]")
        labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        if labels.shape[0] != total:
            raise GeometryError(f"DetectionBatch: got {labels.shape[0]} labels for {total} boxes")
        offsets = np.asarray(self.offsets, dtype=np.int64).reshape(-1)
        if offsets.size == 0 or offsets[0] != 0 or offsets[-1] != total:
            raise GeometryError("DetectionBatch: offsets must run from 0 to len(boxes)")
        if (np.diff(offsets) < 0).any():
            raise GeometryError("DetectionBatch: offsets must be non-decreasing")
        image_ids = tuple(self.image_ids)
        if len(image_ids) != offsets.size - 1:
            raise GeometryError(f"DetectionBatch: got {len(image_ids)} image ids for " f"{offsets.size - 1} segments")
        if total > 1:
            starts = np.zeros(total, dtype=bool)
            interior = offsets[1:-1]
            starts[interior[interior < total]] = True
            if not np.all((scores[1:] <= scores[:-1]) | starts[1:]):
                raise GeometryError("DetectionBatch: segments must be sorted by descending score")
        object.__setattr__(self, "image_ids", image_ids)
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "offsets", offsets)

    # ------------------------------------------------------------------ #
    # construction / conversion
    # ------------------------------------------------------------------ #
    @classmethod
    def _trusted(
        cls,
        image_ids: tuple[str, ...],
        boxes: np.ndarray,
        scores: np.ndarray,
        labels: np.ndarray,
        offsets: np.ndarray,
        detector: str,
    ) -> "DetectionBatch":
        """Build without re-running ``__post_init__`` validation.

        Only for arrays derived from an already-validated batch (filtering,
        slicing, gathering preserve every invariant); external data must go
        through the public constructor.
        """
        batch = object.__new__(cls)
        object.__setattr__(batch, "image_ids", image_ids)
        object.__setattr__(batch, "boxes", boxes)
        object.__setattr__(batch, "scores", scores)
        object.__setattr__(batch, "labels", labels)
        object.__setattr__(batch, "offsets", offsets)
        object.__setattr__(batch, "detector", detector)
        return batch

    @classmethod
    def from_list(cls, detections: Iterable[Detections], *, detector: str | None = None) -> "DetectionBatch":
        """Concatenate per-image :class:`Detections` into one batch.

        A thin wrapper over :class:`DetectionBatchBuilder` — appends every
        image's arrays into one amortised-growth buffer and validates once.
        """
        builder = DetectionBatchBuilder(detector=detector)
        for item in detections:
            builder.append_detections(item)
        return builder.build()

    @classmethod
    def concat(
        cls,
        parts: Sequence["DetectionBatch"],
        *,
        detector: str | None = None,
    ) -> "DetectionBatch":
        """Concatenate batches over disjoint image ranges, in order.

        The inverse of slicing: ``concat([b[:k], b[k:]])`` reproduces ``b``
        exactly.  Inputs are already-validated batches, so the result skips
        re-validation.
        """
        parts = [part for part in parts]
        if detector is None:
            names = {part.detector for part in parts}
            detector = names.pop() if len(names) == 1 else "mixed"
        if not parts:
            return cls._trusted(
                (),
                np.zeros((0, 4)),
                np.zeros(0),
                np.zeros(0, dtype=np.int64),
                np.zeros(1, dtype=np.int64),
                detector,
            )
        if len(parts) == 1:
            only = parts[0]
            return cls._trusted(
                only.image_ids,
                only.boxes,
                only.scores,
                only.labels,
                only.offsets,
                detector,
            )
        sizes = np.fromiter((part.num_boxes for part in parts), dtype=np.int64, count=len(parts))
        bases = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64)]
            + [part.offsets[1:] + base for part, base in zip(parts, bases)]
        )
        return cls._trusted(
            tuple(image_id for part in parts for image_id in part.image_ids),
            np.concatenate([part.boxes for part in parts], axis=0),
            np.concatenate([part.scores for part in parts]),
            np.concatenate([part.labels for part in parts]),
            offsets,
            detector,
        )

    @classmethod
    def coerce(cls, detections: "DetectionBatch | list[Detections]") -> "DetectionBatch":
        """Pass a batch through unchanged; concatenate a list."""
        if isinstance(detections, cls):
            return detections
        return cls.from_list(detections)

    def to_list(self) -> list[Detections]:
        """Per-image zero-copy views, in split order."""
        return [_segment_view(self, index) for index in range(len(self))]

    # ------------------------------------------------------------------ #
    # sequence protocol (drop-in for list[Detections] consumers)
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.image_ids)

    def __iter__(self):
        for index in range(len(self)):
            yield _segment_view(self, index)

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                raise GeometryError("DetectionBatch slicing requires step 1")
            lo = int(self.offsets[start]) if start < stop else 0
            hi = int(self.offsets[stop]) if start < stop else 0
            offsets = (
                self.offsets[start : stop + 1] - self.offsets[start]
                if start < stop
                else np.zeros(1, dtype=np.int64)
            )
            return DetectionBatch._trusted(
                self.image_ids[start:stop],
                self.boxes[lo:hi],
                self.scores[lo:hi],
                self.labels[lo:hi],
                offsets,
                self.detector,
            )
        index = int(index)
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"image index {index} out of range")
        return _segment_view(self, index)

    def view(self, index: int) -> Detections:
        """Zero-copy :class:`Detections` of one image."""
        return self[index]

    # ------------------------------------------------------------------ #
    # vectorised split-level ops
    # ------------------------------------------------------------------ #
    @property
    def num_boxes(self) -> int:
        """Total detections across the split."""
        return int(self.boxes.shape[0])

    def counts(self) -> np.ndarray:
        """Per-image detection counts, shape ``(num_images,)``."""
        return np.diff(self.offsets)

    def image_indices(self) -> np.ndarray:
        """For every flat row, the index of the image that owns it."""
        return np.repeat(np.arange(len(self), dtype=np.int64), self.counts())

    def count_above(self, threshold: float) -> np.ndarray:
        """Per-image number of boxes scoring ``>= threshold``."""
        passing = np.concatenate([[0], np.cumsum(self.scores >= threshold, dtype=np.int64)])
        return passing[self.offsets[1:]] - passing[self.offsets[:-1]]

    def min_area_above(self, threshold: float) -> np.ndarray:
        """Per-image smallest area ratio among boxes scoring ``>= threshold``.

        1.0 for images where no box passes, consistent with
        :meth:`Detections.min_area_above`.
        """
        out = np.full(len(self), 1.0)
        if self.num_boxes == 0:
            return out
        areas = np.where(self.scores >= threshold, box_area(self.boxes), np.inf)
        nonempty = self.offsets[:-1] < self.offsets[1:]
        starts = self.offsets[:-1][nonempty]
        if starts.size:
            # Empty segments contribute no elements, so each reduceat span
            # (start to next start, or to the end) is exactly one segment.
            mins = np.minimum.reduceat(areas, starts)
            out[nonempty] = np.where(np.isinf(mins), 1.0, mins)
        return out

    def above(self, threshold: float) -> "DetectionBatch":
        """Batch restricted to boxes scoring ``>= threshold`` (the serving
        filter), preserving per-segment score order."""
        keep = self.scores >= threshold
        counts = self.count_above(threshold)
        offsets = np.zeros(len(self) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return DetectionBatch._trusted(
            self.image_ids,
            self.boxes[keep],
            self.scores[keep],
            self.labels[keep],
            offsets,
            self.detector,
        )

    def select(self, indices: np.ndarray) -> "DetectionBatch":
        """Batch over a subset/reordering of images."""
        indices = np.asarray(indices)
        if indices.dtype == bool:
            indices = np.flatnonzero(indices)
        indices = indices.astype(np.int64, copy=False)
        counts = self.counts()[indices]
        offsets = np.zeros(indices.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        starts = self.offsets[:-1][indices]
        return DetectionBatch._trusted(
            tuple(self.image_ids[int(i)] for i in indices),
            _gather_segments(self.boxes, starts, counts),
            _gather_segments(self.scores, starts, counts),
            _gather_segments(self.labels, starts, counts),
            offsets,
            self.detector,
        )

    @classmethod
    def where(
        cls,
        mask: np.ndarray,
        if_true: "DetectionBatch",
        if_false: "DetectionBatch",
    ) -> "DetectionBatch":
        """Per-image merge: ``if_true``'s segment where ``mask``, else
        ``if_false``'s (the served-output composition of the system)."""
        mask = np.asarray(mask, dtype=bool).reshape(-1)
        if not (mask.shape[0] == len(if_true) == len(if_false)):
            raise GeometryError("DetectionBatch.where: misaligned inputs")
        if if_true.image_ids != if_false.image_ids:
            raise GeometryError("DetectionBatch.where: batches cover different images")
        true_counts = if_true.counts()
        false_counts = if_false.counts()
        counts = np.where(mask, true_counts, false_counts)
        offsets = np.zeros(mask.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        starts = np.where(mask, if_true.offsets[:-1], if_false.offsets[:-1] + if_true.num_boxes)
        pooled_boxes = np.concatenate([if_true.boxes, if_false.boxes], axis=0)
        pooled_scores = np.concatenate([if_true.scores, if_false.scores])
        pooled_labels = np.concatenate([if_true.labels, if_false.labels])
        detector = if_true.detector if if_true.detector == if_false.detector else "mixed"
        return cls._trusted(
            if_true.image_ids,
            _gather_segments(pooled_boxes, starts, counts),
            _gather_segments(pooled_scores, starts, counts),
            _gather_segments(pooled_labels, starts, counts),
            offsets,
            detector,
        )

    # ------------------------------------------------------------------ #
    # persistence (the harness's on-disk cache layout)
    # ------------------------------------------------------------------ #
    def save(self, path) -> None:
        """Serialise the four flat arrays as a compressed ``.npz``."""
        np.savez_compressed(
            path,
            offsets=self.offsets,
            boxes=self.boxes,
            scores=self.scores,
            labels=self.labels,
        )

    @classmethod
    def load(cls, path, image_ids: tuple[str, ...], *, detector: str = "unknown") -> "DetectionBatch":
        """Rebuild a batch from :meth:`save` output.

        ``image_ids`` supply the segment identities (the cache stores only
        numerics).  Raises on malformed payloads; callers treat that as a
        cache miss.
        """
        payload = np.load(path)
        return cls(
            image_ids=tuple(image_ids),
            boxes=payload["boxes"],
            scores=payload["scores"],
            labels=payload["labels"],
            offsets=payload["offsets"],
            detector=detector,
        )

    # ------------------------------------------------------------------ #
    # shared-memory transport (zero-copy worker-to-parent hand-off)
    # ------------------------------------------------------------------ #
    def to_shared(self, *, prefix: str = "repro-batch", max_bytes: int | None = None) -> "SharedBatchHandle":
        """Park the four flat columns in a named shared-memory segment.

        Returns a tiny picklable handle; :meth:`from_shared` (in any process
        that can see ``/dev/shm``) adopts it back as zero-copy views.  See
        :mod:`repro.runtime.shm` for the ownership hand-off rules.  Raises
        :class:`~repro.errors.GeometryError` when ``max_bytes`` would be
        exceeded — pool workers use :func:`repro.runtime.shm.share_batch`
        directly to fall back to pickling instead.
        """
        from repro.runtime.shm import share_batch

        handle = share_batch(self, prefix=prefix, max_bytes=max_bytes)
        if handle is None:
            raise GeometryError(f"to_shared: batch exceeds max_bytes={max_bytes}")
        return handle

    @classmethod
    def from_shared(cls, handle: "SharedBatchHandle") -> "DetectionBatch":
        """Adopt a :meth:`to_shared` handle as a batch of zero-copy views.

        Consumes the handle: the segment name is unlinked immediately (the
        mapping lives as long as the returned batch's arrays do).
        """
        from repro.runtime.shm import adopt_batch

        return adopt_batch(handle)


class DetectionBatchBuilder:
    """Appendable accumulator producing :class:`DetectionBatch` layouts.

    Per-image results are copied straight into flat buffers that grow by
    doubling, so appending a whole split is amortised O(total boxes) with no
    ``list[Detections]`` staging hop.  Producer:
    :meth:`DetectionBatch.from_list`.

    ``build()`` snapshots the current contents (validated through the public
    :class:`DetectionBatch` constructor); the builder stays appendable
    afterwards — earlier snapshots are never mutated because growth
    reallocates and appends only touch rows past the snapshot.
    """

    def __init__(self, *, detector: str | None = None) -> None:
        self._detector = detector
        self._names: set[str] = set()
        self._image_ids: list[str] = []
        self._offsets: list[int] = [0]
        self._boxes = np.empty((0, 4), dtype=np.float64)
        self._scores = np.empty(0, dtype=np.float64)
        self._labels = np.empty(0, dtype=np.int64)
        self._count = 0

    def __len__(self) -> int:
        return len(self._image_ids)

    @property
    def num_boxes(self) -> int:
        """Total boxes appended so far."""
        return self._count

    def _reserve(self, extra: int) -> None:
        needed = self._count + extra
        capacity = int(self._scores.shape[0])
        if needed <= capacity:
            return
        capacity = max(needed, capacity * 2, 16)
        boxes = np.empty((capacity, 4), dtype=np.float64)
        boxes[: self._count] = self._boxes[: self._count]
        scores = np.empty(capacity, dtype=np.float64)
        scores[: self._count] = self._scores[: self._count]
        labels = np.empty(capacity, dtype=np.int64)
        labels[: self._count] = self._labels[: self._count]
        self._boxes, self._scores, self._labels = boxes, scores, labels

    def append(
        self,
        image_id: str,
        boxes: np.ndarray,
        scores: np.ndarray,
        labels: np.ndarray,
    ) -> None:
        """Append one image's detections (arrays already score-descending)."""
        boxes = np.asarray(boxes, dtype=np.float64)
        if boxes.ndim != 2 or boxes.shape[1] != 4:
            raise GeometryError(f"DetectionBatchBuilder: boxes must be (N, 4), got {boxes.shape}")
        count = boxes.shape[0]
        scores = np.asarray(scores, dtype=np.float64).reshape(-1)
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        if scores.shape[0] != count or labels.shape[0] != count:
            raise GeometryError(
                f"DetectionBatchBuilder: got {scores.shape[0]} scores / "
                f"{labels.shape[0]} labels for {count} boxes"
            )
        self._reserve(count)
        lo, hi = self._count, self._count + count
        self._boxes[lo:hi] = boxes
        self._scores[lo:hi] = scores
        self._labels[lo:hi] = labels
        self._count = hi
        self._image_ids.append(image_id)
        self._offsets.append(hi)

    def append_detections(self, detections: Detections) -> None:
        """Append one validated :class:`Detections` object."""
        if self._detector is None:
            self._names.add(detections.detector)
        self.append(
            detections.image_id,
            detections.boxes,
            detections.scores,
            detections.labels,
        )

    def build(self) -> "DetectionBatch":
        """Snapshot the appended images as a validated batch."""
        detector = self._detector
        if detector is None:
            detector = next(iter(self._names)) if len(self._names) == 1 else "mixed"
        return DetectionBatch(
            image_ids=tuple(self._image_ids),
            boxes=self._boxes[: self._count],
            scores=self._scores[: self._count],
            labels=self._labels[: self._count],
            offsets=np.asarray(self._offsets, dtype=np.int64),
            detector=detector,
        )


@dataclass(frozen=True)
class GroundTruthBatch:
    """A split's annotations, stored structure-of-arrays.

    The annotation-side mirror of :class:`DetectionBatch`: flat concatenated
    ``boxes``/``labels`` plus an ``offsets`` array delimiting each image's
    segment.  ``Dataset.truth_batch`` caches one per split, so evaluation
    (VOC AP pooling, counting, threshold fits) reads the flat arrays
    directly instead of re-flattening ``list[GroundTruth]`` per call.
    """

    image_ids: tuple[str, ...]
    boxes: np.ndarray
    labels: np.ndarray
    offsets: np.ndarray

    def __post_init__(self) -> None:
        boxes = validate_boxes(self.boxes)
        total = boxes.shape[0]
        labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        if labels.shape[0] != total:
            raise GeometryError(f"GroundTruthBatch: got {labels.shape[0]} labels for {total} boxes")
        offsets = np.asarray(self.offsets, dtype=np.int64).reshape(-1)
        if offsets.size == 0 or offsets[0] != 0 or offsets[-1] != total:
            raise GeometryError("GroundTruthBatch: offsets must run from 0 to len(boxes)")
        if (np.diff(offsets) < 0).any():
            raise GeometryError("GroundTruthBatch: offsets must be non-decreasing")
        image_ids = tuple(self.image_ids)
        if len(image_ids) != offsets.size - 1:
            raise GeometryError(f"GroundTruthBatch: got {len(image_ids)} image ids for " f"{offsets.size - 1} segments")
        object.__setattr__(self, "image_ids", image_ids)
        object.__setattr__(self, "boxes", boxes)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "offsets", offsets)

    # ------------------------------------------------------------------ #
    # construction / conversion
    # ------------------------------------------------------------------ #
    @classmethod
    def _trusted(
        cls,
        image_ids: tuple[str, ...],
        boxes: np.ndarray,
        labels: np.ndarray,
        offsets: np.ndarray,
    ) -> "GroundTruthBatch":
        """Build without re-running ``__post_init__`` validation.

        Only for arrays derived from an already-validated batch (gathering
        preserves every invariant); external data must go through the public
        constructor.
        """
        batch = object.__new__(cls)
        object.__setattr__(batch, "image_ids", image_ids)
        object.__setattr__(batch, "boxes", boxes)
        object.__setattr__(batch, "labels", labels)
        object.__setattr__(batch, "offsets", offsets)
        return batch

    @classmethod
    def from_truths(cls, truths: Sequence[GroundTruth]) -> "GroundTruthBatch":
        """Flatten per-image :class:`GroundTruth` into one batch."""
        items = list(truths)
        counts = np.fromiter((len(truth) for truth in items), dtype=np.int64, count=len(items))
        offsets = np.zeros(len(items) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        if items and offsets[-1]:
            boxes = np.concatenate([truth.boxes for truth in items], axis=0)
            labels = np.concatenate([truth.labels for truth in items])
        else:
            boxes = np.zeros((0, 4))
            labels = np.zeros(0, dtype=np.int64)
        return cls(
            image_ids=tuple(truth.image_id for truth in items),
            boxes=boxes,
            labels=labels,
            offsets=offsets,
        )

    @classmethod
    def coerce(cls, truths: "GroundTruthBatch | Sequence[GroundTruth]") -> "GroundTruthBatch":
        """Pass a batch through unchanged; use a ``Dataset``'s cached batch
        when one is offered; flatten a plain annotation list."""
        if isinstance(truths, cls):
            return truths
        cached = getattr(truths, "truth_batch", None)
        if isinstance(cached, cls):
            return cached
        return cls.from_truths(truths)

    def views(self, *, width: int = 500, height: int = 375) -> list[GroundTruth]:
        """Every image's annotation as a zero-copy :class:`GroundTruth` over
        this batch's segments (validated once by the batch, so the per-image
        constructor is skipped); ``width``/``height`` are the images' pixel
        size."""
        bounds = self.offsets.tolist()
        truths = []
        for index, image_id in enumerate(self.image_ids):
            lo, hi = bounds[index], bounds[index + 1]
            view = object.__new__(GroundTruth)
            object.__setattr__(view, "image_id", image_id)
            object.__setattr__(view, "boxes", self.boxes[lo:hi])
            object.__setattr__(view, "labels", self.labels[lo:hi])
            object.__setattr__(view, "width", width)
            object.__setattr__(view, "height", height)
            truths.append(view)
        return truths

    def head(self, count: int) -> "GroundTruthBatch":
        """The first ``count`` images as a zero-copy batch."""
        return self.span(0, min(max(count, 0), len(self)))

    def span(self, lo: int, hi: int) -> "GroundTruthBatch":
        """Images ``[lo, hi)`` as a batch over views of this one's columns
        (only a nonzero start copies the offsets, to rebase them)."""
        start, end = int(self.offsets[lo]), int(self.offsets[hi])
        offsets = self.offsets[lo : hi + 1]
        return GroundTruthBatch._trusted(
            image_ids=self.image_ids[lo:hi],
            boxes=self.boxes[start:end],
            labels=self.labels[start:end],
            offsets=offsets - start if start else offsets,
        )

    # ------------------------------------------------------------------ #
    # vectorised split-level ops
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.image_ids)

    @property
    def total_objects(self) -> int:
        """Total annotated objects across the split."""
        return int(self.offsets[-1])

    def counts(self) -> np.ndarray:
        """Per-image object counts, shape ``(num_images,)``."""
        return np.diff(self.offsets)

    def image_indices(self) -> np.ndarray:
        """For every flat row, the index of the image that owns it."""
        return np.repeat(np.arange(len(self), dtype=np.int64), self.counts())

    def select(self, indices: np.ndarray) -> "GroundTruthBatch":
        """Batch over a subset/reordering of images (repeats allowed).

        The annotation-side mirror of :meth:`DetectionBatch.select` — the
        rolling stream evaluator uses it to gather the ground truth of the
        frames completed inside one time window.
        """
        indices = np.asarray(indices)
        if indices.dtype == bool:
            indices = np.flatnonzero(indices)
        indices = indices.astype(np.int64, copy=False)
        counts = self.counts()[indices]
        offsets = np.zeros(indices.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        starts = self.offsets[:-1][indices]
        ids = self.image_ids
        return GroundTruthBatch._trusted(
            image_ids=tuple(ids[index] for index in indices.tolist()),
            boxes=_gather_segments(self.boxes, starts, counts),
            labels=_gather_segments(self.labels, starts, counts),
            offsets=offsets,
        )

    def min_area_ratios(self) -> np.ndarray:
        """Per-image smallest object area ratio (1.0 for empty images),
        consistent with :attr:`GroundTruth.min_area_ratio`."""
        out = np.full(len(self), 1.0)
        if self.boxes.shape[0] == 0:
            return out
        areas = box_area(self.boxes)
        nonempty = self.offsets[:-1] < self.offsets[1:]
        starts = self.offsets[:-1][nonempty]
        if starts.size:
            # Empty segments contribute no rows, so each reduceat span is
            # exactly one segment (same argument as min_area_above).
            out[nonempty] = np.minimum.reduceat(areas, starts)
        return out
