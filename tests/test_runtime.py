"""Tests for the edge-cloud runtime substrate."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.data.datasets import load_dataset
from repro.errors import ConfigurationError, RuntimeModelError
from repro.runtime.codec import JpegCodec, detections_payload_bytes
from repro.runtime.devices import JETSON_NANO, RTX3060_SERVER, ComputeDevice
from repro.runtime.network import ETHERNET_1G, WLAN, NetworkLink
from repro.runtime.schemes import Deployment, cloud_only_scheme, collaborative_scheme, edge_only_scheme, run_cost


@pytest.fixture(scope="module")
def helmet_mini():
    return load_dataset("helmet", "test", fraction=0.1)


@pytest.fixture(scope="module")
def deployment():
    return Deployment(
        edge=JETSON_NANO,
        cloud=RTX3060_SERVER,
        link=WLAN,
        small_model_flops=5.6e9,
        big_model_flops=61.2e9,
    )


def edge_only(deployment, dataset, seed=99):
    return run_cost(edge_only_scheme(), deployment, dataset, seed=seed)


def cloud_only(deployment, dataset, seed=99):
    return run_cost(cloud_only_scheme(), deployment, dataset, seed=seed)


def collaborative(deployment, dataset, mask, seed=99):
    return run_cost(collaborative_scheme(), deployment, dataset, mask=mask, seed=seed)


class TestDevices:
    def test_latency_formula(self):
        device = ComputeDevice(name="d", effective_gflops=100.0, overhead_s=0.001)
        assert device.inference_latency(1e9) == pytest.approx(0.011)

    def test_jetson_small_model_latency_near_paper(self):
        # Paper: small model 1 at ~47 ms/frame on the Jetson Nano.
        latency = JETSON_NANO.inference_latency(5.6e9)
        assert latency == pytest.approx(0.047, rel=0.15)

    def test_server_much_faster_than_edge(self):
        flops = 61.2e9
        assert RTX3060_SERVER.inference_latency(flops) < JETSON_NANO.inference_latency(flops)

    def test_invalid_throughput_rejected(self):
        with pytest.raises(ConfigurationError):
            ComputeDevice(name="x", effective_gflops=0.0)

    def test_negative_flops_rejected(self):
        with pytest.raises(ConfigurationError):
            JETSON_NANO.inference_latency(-1.0)


class TestNetwork:
    def test_transfer_time_scales_with_payload(self):
        small = WLAN.expected_transfer_time(10_000)
        large = WLAN.expected_transfer_time(1_000_000)
        assert large > small

    def test_faster_link_is_faster(self):
        payload = 300_000
        assert ETHERNET_1G.expected_transfer_time(payload) < WLAN.expected_transfer_time(payload)

    def test_jitter_deterministic_given_rng(self):
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)
        assert WLAN.transfer_time(1000, rng_a) == WLAN.transfer_time(1000, rng_b)

    def test_jittered_link_requires_rng(self):
        # WLAN has jitter_s > 0: sampling a transfer without an RNG used to
        # silently return the jitter-free figure; now it is an explicit error.
        with pytest.raises(ConfigurationError):
            WLAN.transfer_time(1000)

    def test_jitter_free_link_needs_no_rng(self):
        payload = 300_000
        assert ETHERNET_1G.transfer_time(payload) == ETHERNET_1G.expected_transfer_time(payload)

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkLink(name="x", bandwidth_mbps=0.0)

    def test_negative_payload_rejected(self):
        with pytest.raises(ConfigurationError):
            WLAN.expected_transfer_time(-1)


class TestCodec:
    def test_bigger_image_bigger_payload(self, helmet_mini):
        codec = JpegCodec()
        record = helmet_mini.records[0]
        small_voc = load_dataset("voc07", "test", fraction=0.002).records[0]
        assert codec.encoded_bytes(record) > codec.encoded_bytes(small_voc)

    def test_degraded_image_compresses_better(self, helmet_mini):
        codec = JpegCodec()
        pristine = [r for r in helmet_mini.records if r.quality == 1.0]
        degraded = [r for r in helmet_mini.records if r.quality < 0.7]
        if pristine and degraded:
            assert codec.encoded_bytes(degraded[0]) < codec.encoded_bytes(pristine[0])

    def test_helmet_frame_size_plausible(self, helmet_mini):
        # 1280x720 JPEG at camera quality: roughly 60-250 kB.
        size = JpegCodec().encoded_bytes(helmet_mini.records[0])
        assert 40_000 < size < 300_000

    def test_payload_bytes_monotone(self):
        assert detections_payload_bytes(10) > detections_payload_bytes(1)

    def test_negative_boxes_rejected(self):
        with pytest.raises(ConfigurationError):
            detections_payload_bytes(-1)


class TestRunCost:
    def test_edge_only_no_uplink(self, deployment, helmet_mini):
        cost = edge_only(deployment, helmet_mini)
        assert cost.uplink_bytes == 0 and cost.upload_ratio == 0.0

    def test_cloud_only_uploads_everything(self, deployment, helmet_mini):
        cost = cloud_only(deployment, helmet_mini)
        assert cost.upload_ratio == 1.0
        assert cost.uplink_bytes > 0

    def test_ordering_edge_ours_cloud(self, deployment, helmet_mini):
        edge = edge_only(deployment, helmet_mini)
        cloud = cloud_only(deployment, helmet_mini)
        half = np.zeros(len(helmet_mini), dtype=bool)
        half[:: 2] = True
        ours = collaborative(deployment, helmet_mini, half)
        assert edge.latency.total < ours.latency.total < cloud.latency.total

    def test_collaborative_bandwidth_saving(self, deployment, helmet_mini):
        cloud = cloud_only(deployment, helmet_mini)
        half = np.zeros(len(helmet_mini), dtype=bool)
        half[: len(helmet_mini) // 2] = True
        ours = collaborative(deployment, helmet_mini, half)
        assert ours.bandwidth_saving_over(cloud) == pytest.approx(0.5, abs=0.1)

    def test_mask_misalignment_rejected(self, deployment, helmet_mini):
        with pytest.raises(RuntimeModelError):
            collaborative(deployment, helmet_mini, np.zeros(3, dtype=bool))

    def test_deterministic_totals(self, deployment, helmet_mini):
        a = cloud_only(deployment, helmet_mini, seed=1)
        b = cloud_only(deployment, helmet_mini, seed=1)
        assert a.latency.total == pytest.approx(b.latency.total)

    def test_empty_upload_equals_edge_plus_discriminator(self, deployment, helmet_mini):
        none = collaborative(deployment, helmet_mini, np.zeros(len(helmet_mini), dtype=bool))
        edge = edge_only(deployment, helmet_mini)
        # Collaborative adds the (tiny) discriminator cost per image.
        assert none.latency.total >= edge.latency.total
        assert none.latency.total < edge.latency.total * 1.2

    def test_invalid_deployment_rejected(self):
        with pytest.raises(ConfigurationError):
            Deployment(
                edge=JETSON_NANO,
                cloud=RTX3060_SERVER,
                link=WLAN,
                small_model_flops=0.0,
                big_model_flops=1.0,
            )

    @pytest.mark.parametrize("flops", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["small_model_flops", "big_model_flops"])
    def test_non_finite_model_flops_rejected(self, field, flops):
        with pytest.raises(ConfigurationError, match="positive and finite"):
            Deployment(edge=JETSON_NANO, cloud=RTX3060_SERVER, link=WLAN, **{field: flops})
