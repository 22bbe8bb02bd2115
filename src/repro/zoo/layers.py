"""Analytic layer primitives: parameter and FLOP accounting.

The paper's Table II reports model size (MiB of fp32 weights), pruned ratio
and FLOPs for the three small models and SSD.  Because the evaluation
environment has no deep-learning framework, we reproduce those numbers
*analytically*: every architecture is described layer by layer and this
module computes exact parameter counts and multiply-accumulate operations.

Conventions
-----------
* ``FLOPs = 2 x MACs`` (one multiply + one add), which is the convention
  under which SSD300-VGG16 evaluates to ~61 GFLOPs — the figure the paper
  reports.
* Batch-norm layers contribute their learnable affine parameters (2 per
  channel); running statistics are buffers, not weights.
* Shapes are ``(channels, height, width)``; convolutions use "same" padding
  unless ``padding`` is given explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

__all__ = ["TensorShape", "LayerStat", "Tape", "BYTES_PER_PARAM_FP32"]

#: fp32 storage cost used for the "model size (MB)" column of Table II.
BYTES_PER_PARAM_FP32 = 4


@dataclass(frozen=True)
class TensorShape:
    """Shape of an activation tensor, ``(channels, height, width)``."""

    channels: int
    height: int
    width: int

    def __post_init__(self) -> None:
        if self.channels <= 0 or self.height <= 0 or self.width <= 0:
            raise ConfigurationError(f"degenerate tensor shape {self}")

    @property
    def spatial(self) -> int:
        """Number of spatial positions."""
        return self.height * self.width


@dataclass(frozen=True)
class LayerStat:
    """Cost record of a single layer."""

    name: str
    params: int
    macs: int
    out_shape: TensorShape

    @property
    def flops(self) -> int:
        """Floating-point operations (2 per MAC)."""
        return 2 * self.macs


def _conv_out_size(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ConfigurationError(
            f"convolution output collapsed to {out} "
            f"(size={size}, kernel={kernel}, stride={stride}, padding={padding})"
        )
    return out


@dataclass
class Tape:
    """Accumulates layer statistics while "executing" an architecture.

    A ``Tape`` behaves like a symbolic forward pass: each method consumes the
    current activation shape, records a :class:`LayerStat` and produces the
    next shape.  Branches (feature-pyramid taps, residual side paths) are
    expressed by saving :attr:`shape` and restoring it with :meth:`goto`.
    """

    shape: TensorShape
    stats: list[LayerStat] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # primitives
    # ------------------------------------------------------------------ #
    def conv(
        self,
        name: str,
        out_channels: int,
        *,
        kernel: int = 3,
        stride: int = 1,
        padding: int | None = None,
        groups: int = 1,
        bias: bool = True,
        batch_norm: bool = False,
    ) -> TensorShape:
        """2-D convolution (optionally grouped / depthwise via ``groups``)."""
        in_c = self.shape.channels
        if in_c % groups or out_channels % groups:
            raise ConfigurationError(f"{name}: channels ({in_c}->{out_channels}) not divisible by " f"groups={groups}")
        pad = (kernel - 1) // 2 if padding is None else padding
        out_h = _conv_out_size(self.shape.height, kernel, stride, pad)
        out_w = _conv_out_size(self.shape.width, kernel, stride, pad)
        weight = kernel * kernel * (in_c // groups) * out_channels
        params = weight + (out_channels if bias else 0)
        if batch_norm:
            params += 2 * out_channels
        macs = weight * out_h * out_w
        out_shape = TensorShape(out_channels, out_h, out_w)
        self.stats.append(LayerStat(name, params, macs, out_shape))
        self.shape = out_shape
        return out_shape

    def depthwise(
        self,
        name: str,
        *,
        kernel: int = 3,
        stride: int = 1,
        batch_norm: bool = True,
    ) -> TensorShape:
        """Depthwise convolution (groups == channels)."""
        channels = self.shape.channels
        return self.conv(
            name,
            channels,
            kernel=kernel,
            stride=stride,
            groups=channels,
            bias=not batch_norm,
            batch_norm=batch_norm,
        )

    def pointwise(
        self,
        name: str,
        out_channels: int,
        *,
        batch_norm: bool = True,
    ) -> TensorShape:
        """1x1 convolution."""
        return self.conv(
            name,
            out_channels,
            kernel=1,
            bias=not batch_norm,
            batch_norm=batch_norm,
        )

    def max_pool(
        self,
        name: str,
        *,
        kernel: int = 2,
        stride: int | None = None,
        padding: int = 0,
        ceil_mode: bool = False,
    ) -> TensorShape:
        """Max pooling: no parameters; comparisons are not counted as MACs."""
        stride = kernel if stride is None else stride
        size_fn = math.ceil if ceil_mode else math.floor
        out_h = int(size_fn((self.shape.height + 2 * padding - kernel) / stride)) + 1
        out_w = int(size_fn((self.shape.width + 2 * padding - kernel) / stride)) + 1
        if out_h <= 0 or out_w <= 0:
            raise ConfigurationError(f"{name}: pooling collapsed the feature map")
        out_shape = TensorShape(self.shape.channels, out_h, out_w)
        self.stats.append(LayerStat(name, 0, 0, out_shape))
        self.shape = out_shape
        return out_shape

    def l2_norm(self, name: str) -> TensorShape:
        """SSD's conv4_3 L2Norm layer: one scale parameter per channel."""
        params = self.shape.channels
        macs = self.shape.channels * self.shape.spatial
        self.stats.append(LayerStat(name, params, macs, self.shape))
        return self.shape

    def goto(self, shape: TensorShape) -> TensorShape:
        """Restore the cursor to a previously saved shape (branching)."""
        self.shape = shape
        return shape

    # ------------------------------------------------------------------ #
    # composites
    # ------------------------------------------------------------------ #
    def depthwise_separable(
        self,
        name: str,
        out_channels: int,
        *,
        stride: int = 1,
    ) -> TensorShape:
        """MobileNetV1 block: 3x3 depthwise followed by 1x1 pointwise."""
        self.depthwise(f"{name}/dw", stride=stride)
        return self.pointwise(f"{name}/pw", out_channels)

    def inverted_residual(
        self,
        name: str,
        out_channels: int,
        *,
        expansion: int = 6,
        stride: int = 1,
    ) -> TensorShape:
        """MobileNetV2 block: expand (1x1) -> depthwise (3x3) -> project (1x1).

        The residual add is free in parameters and negligible in MACs, so it
        is not recorded separately.
        """
        hidden = self.shape.channels * expansion
        if expansion != 1:
            self.pointwise(f"{name}/expand", hidden)
        self.depthwise(f"{name}/dw", stride=stride)
        return self.pointwise(f"{name}/project", out_channels)

    # ------------------------------------------------------------------ #
    # aggregation
    # ------------------------------------------------------------------ #
    @property
    def total_params(self) -> int:
        """Total learnable parameters recorded so far."""
        return sum(stat.params for stat in self.stats)

    @property
    def total_macs(self) -> int:
        """Total multiply-accumulates recorded so far."""
        return sum(stat.macs for stat in self.stats)

    @property
    def size_mib(self) -> float:
        """fp32 checkpoint size in MiB — the paper's "model size (MB)"."""
        return self.total_params * BYTES_PER_PARAM_FP32 / 2**20

    def merge(self, other: "Tape") -> None:
        """Append another tape's records (used to combine trunk + heads)."""
        self.stats.extend(other.stats)
