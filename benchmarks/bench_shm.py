"""Transport benchmarks for the zero-copy data plane.

Measures the parent-side cost of moving a finished detection shard between
processes — the pickle pipe (serialise + deserialise, the historical path)
against the shared-memory arena (segment write + memmap adoption) at
500- and 5 000-image scale — plus a warm-cache ``Harness.detections`` read
of the ``.npz`` cache layout.

Caveat: these cases time transport mechanics in one process, not the pipe
contention between worker processes that motivates the arena; the
end-to-end ``detect-2w`` workload of ``perfbench/`` measures that on 2
workers.
"""

from __future__ import annotations

import pickle

import pytest

from repro.experiments import Harness, HarnessConfig
from repro.runtime.shm import leaked_segments, shm_supported

needs_shm = pytest.mark.skipif(not shm_supported(), reason="no /dev/shm on this platform")


@pytest.fixture(scope="module")
def batch_500(harness):
    return harness.detections("ssd", "voc07", "test")[:500]


@pytest.fixture(scope="module")
def batch_5000(harness):
    full = harness.detections("ssd", "voc07", "test")
    return full[: min(5000, len(full))]


def _pickle_round_trip(batch):
    return pickle.loads(pickle.dumps(batch, protocol=pickle.HIGHEST_PROTOCOL))


def _shm_round_trip(batch, prefix):
    from repro.detection.batch import DetectionBatch

    return DetectionBatch.from_shared(batch.to_shared(prefix=prefix))


def test_micro_transport_pickle_500(benchmark, batch_500):
    result = benchmark(_pickle_round_trip, batch_500)
    assert len(result) == 500


def test_micro_transport_pickle_5000(benchmark, batch_5000):
    result = benchmark(_pickle_round_trip, batch_5000)
    assert len(result) == len(batch_5000)


@needs_shm
def test_micro_transport_shm_500(benchmark, batch_500):
    result = benchmark(_shm_round_trip, batch_500, "repro-bench-500")
    assert len(result) == 500
    assert leaked_segments("repro-bench-500") == ()


@needs_shm
def test_micro_transport_shm_5000(benchmark, batch_5000):
    result = benchmark(_shm_round_trip, batch_5000, "repro-bench-5000")
    assert len(result) == len(batch_5000)
    assert leaked_segments("repro-bench-5000") == ()


# One layout is left; the parameter keeps the case's id, which the
# bench-micro gate and its baseline name.
@pytest.mark.parametrize("layout", ["npz"])
def test_micro_detections_warm_cache(benchmark, layout, tmp_path_factory):
    """Warm-cache `Harness.detections` read cost (decompress every `.npz`
    shard), quick-config sizes.  Each round constructs a fresh harness so
    the memo cache never hides the disk read; the cache itself is warmed
    once in setup."""
    base = HarnessConfig.quick()
    cache = tmp_path_factory.mktemp(f"warm-cache-{layout}")
    config = HarnessConfig(
        seed=base.seed,
        train_images=base.train_images,
        test_fraction=base.test_fraction,
        cache_dir=str(cache),
    )
    with Harness(config) as warmer:
        expected = len(warmer.detections("small1", "voc07", "test"))

    def setup():
        warm = Harness(config)
        warm.dataset("voc07", "test")
        warm.detector("small1", "voc07")
        return (warm,), {}

    def read(warm):
        with warm:
            return warm.detections("small1", "voc07", "test")

    batch = benchmark.pedantic(read, setup=setup, rounds=5, iterations=1)
    assert len(batch) == expected
