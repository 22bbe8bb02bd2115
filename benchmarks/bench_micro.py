"""Micro-benchmarks of the library's hot paths.

Unlike the table/figure benches (one-shot, full-scale), these measure
steady-state throughput of the kernels every experiment leans on: IoU, NMS,
per-image detection simulation, per-image discrimination, split-level mAP
evaluation, the structure-of-arrays batch operations (construction,
feature extraction, split verdicts) that back them, and the two cold-path
passes every calibration runs: split generation and detected-object
counting.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.features import extract_feature_arrays
from repro.data import load_dataset
from repro.detection.batch import DetectionBatch, DetectionBatchBuilder
from repro.detection.boxes import iou_matrix
from repro.detection.nms import nms_indices
from repro.experiments import Harness, HarnessConfig
from repro.metrics.counting import count_detected_objects
from repro.metrics.voc_ap import mean_average_precision


@pytest.fixture(scope="module")
def random_boxes():
    rng = np.random.default_rng(0)
    mins = rng.uniform(0, 0.7, size=(200, 2))
    sizes = rng.uniform(0.02, 0.3, size=(200, 2))
    boxes = np.concatenate([mins, np.minimum(mins + sizes, 1.0)], axis=1)
    scores = rng.uniform(0.05, 1.0, size=200)
    return boxes, scores


def test_micro_iou_matrix_200x200(benchmark, random_boxes):
    boxes, _ = random_boxes
    result = benchmark(iou_matrix, boxes, boxes)
    assert result.shape == (200, 200)


def test_micro_nms_200_boxes(benchmark, random_boxes):
    boxes, scores = random_boxes
    keep = benchmark(nms_indices, boxes, scores, 0.45)
    assert keep.size >= 1


def test_micro_detect_one_image(benchmark, harness):
    detector = harness.detector("small1", "voc07")
    record = harness.dataset("voc07", "test").records[0]
    detections = benchmark(detector.detect, record)
    assert detections.image_id == record.image_id


def test_micro_discriminator_decide(benchmark, harness):
    discriminator, _ = harness.discriminator("small1", "ssd", "voc07")
    detections = harness.detections("small1", "voc07", "test")[0]
    verdict = benchmark(discriminator.decide, detections)
    assert verdict in (True, False)


def test_micro_map_500_images(benchmark, harness):
    dataset = harness.dataset("voc07", "test").subset(500)
    served = harness.detections("ssd", "voc07", "test")[:500].above(0.5)
    value = benchmark.pedantic(
        mean_average_precision,
        args=(served, dataset.truths, dataset.num_classes),
        rounds=3,
        iterations=1,
    )
    assert 0.0 < value < 100.0


def test_micro_batch_from_list(benchmark, harness):
    detections = harness.detections("ssd", "voc07", "test")[:500].to_list()
    batch = benchmark(DetectionBatch.from_list, detections)
    assert len(batch) == 500


def test_micro_builder_append_500_images(benchmark, harness):
    """Streaming accumulation throughput: per-image raw-array appends into
    the amortised-growth builder (the shard-worker / stream-collector path)."""
    batch = harness.detections("ssd", "voc07", "test")[:500]
    segments = [(d.image_id, d.boxes, d.scores, d.labels) for d in batch]

    def accumulate():
        builder = DetectionBatchBuilder(detector=batch.detector)
        for image_id, boxes, scores, labels in segments:
            builder.append(image_id, boxes, scores, labels)
        return builder.build()

    result = benchmark(accumulate)
    assert len(result) == 500
    assert result.num_boxes == batch.num_boxes


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_micro_detections_cold_cache(benchmark, workers, tmp_path_factory):
    """End-to-end `Harness.detections` wall time on a cold disk cache at
    1/2/4 workers (quick-config split sizes; dataset pre-materialised so the
    timing isolates detection production + cache persistence)."""
    base = HarnessConfig.quick()

    def setup():
        cache = tmp_path_factory.mktemp(f"cold-cache-{workers}")
        config = HarnessConfig(
            seed=base.seed,
            train_images=base.train_images,
            test_fraction=base.test_fraction,
            cache_dir=str(cache),
            workers=workers,
        )
        cold = Harness(config)
        cold.dataset("voc07", "test")
        cold.detector("small1", "voc07")
        return (cold,), {}

    def produce(cold):
        # Context-managed so each round's worker pool is reaped, not leaked
        # into the rest of the benchmark session.
        with cold:
            return cold.detections("small1", "voc07", "test")

    batch = benchmark.pedantic(produce, setup=setup, rounds=3, iterations=1)
    assert len(batch) == 397  # quick-config voc07 test split


def test_micro_features_batched_500_images(benchmark, harness):
    batch = harness.detections("small1", "voc07", "test")[:500]
    n_predict, n_estimated, min_area = benchmark(extract_feature_arrays, batch, 0.2)
    assert n_predict.shape == n_estimated.shape == min_area.shape == (500,)


def test_micro_decide_split_batched_500_images(benchmark, harness):
    discriminator, _ = harness.discriminator("small1", "ssd", "voc07")
    batch = harness.detections("small1", "voc07", "test")[:500]
    verdicts = benchmark(discriminator.decide_split, batch)
    assert verdicts.shape == (500,)


def test_micro_load_dataset_helmet_train(benchmark):
    """Cold generation of the 3,000-image helmet train split: per-image
    draws, then one flat pass of scene arithmetic and one validated batch."""
    dataset = benchmark.pedantic(load_dataset, args=("helmet", "train"), rounds=5, iterations=1)
    assert len(dataset) == 3000


def test_micro_count_detected_3000_images(benchmark, harness):
    """Detected-object counting over the helmet train split: the serving
    filter plus one block-diagonal greedy match of all 3,000 images."""
    truths = harness.dataset("helmet", "train").truth_batch
    detections = harness.detections("ssd", "helmet", "train")
    assert len(detections) == 3000
    count = benchmark(count_detected_objects, detections, truths)
    assert 0 < count <= truths.total_objects
