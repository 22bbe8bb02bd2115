"""Transfer-size models.

What crosses the edge-to-cloud link is (a) JPEG-compressed camera frames for
difficult cases and (b) the tiny serialized detection results coming back.
The JPEG model is a standard bits-per-pixel estimate; quality-degraded
(blurry, dark) images compress better, which the size model reflects.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.datasets import ImageRecord
from repro.errors import ConfigurationError

__all__ = ["JpegCodec", "detections_payload_bytes"]

#: Camera-quality JPEG (quality ~85) on natural imagery.
_BITS_PER_PIXEL = 1.2
_HEADER_BYTES = 600


@dataclass(frozen=True)
class JpegCodec:
    """JPEG size estimator at about 1.2 bits per pixel plus a 600-byte header."""

    def encoded_bytes(self, record: ImageRecord) -> int:
        """Estimated JPEG size of one image record.

        Blur and low light remove high-frequency content; the effective
        bits-per-pixel shrinks with image quality (floor at 45 %).
        """
        truth = record.truth
        pixels = truth.width * truth.height
        quality_scale = 0.45 + 0.55 * record.quality
        return _HEADER_BYTES + int(pixels * _BITS_PER_PIXEL * quality_scale / 8)


def detections_payload_bytes(num_boxes: int) -> int:
    """Serialized detection-result size (label, score, four coordinates).

    Six float32 values plus framing per box, and a small envelope.
    """
    if num_boxes < 0:
        raise ConfigurationError("num_boxes must be >= 0")
    return 96 + 28 * num_boxes
