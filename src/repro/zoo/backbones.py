"""Backbone (base-network) architecture specifications.

Each builder symbolically executes a backbone on a :class:`~repro.zoo.layers.Tape`
and returns the tape plus the *taps*: named feature maps that detection heads
attach to.  Widths follow the original publications; where the paper leaves a
width unspecified (the small models' trunks), the chosen multiplier is the one
that lands closest to the paper's Table II size budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.zoo.layers import Tape, TensorShape

__all__ = [
    "BackboneResult",
    "vgg16_ssd_trunk",
    "vgg_lite_trunk",
    "mobilenet_v1_trunk",
    "mobilenet_v2_trunk",
    "cspdarknet53_trunk",
]


@dataclass
class BackboneResult:
    """A symbolically executed backbone.

    Attributes
    ----------
    tape:
        The tape holding every recorded layer.
    taps:
        Feature maps (name -> shape) that heads or necks may consume, in
        backbone order.
    """

    tape: Tape
    taps: dict[str, TensorShape]


def _scaled(channels: int, multiplier: float) -> int:
    """Width-multiplied channel count, rounded to a multiple of 8 (>= 8)."""
    return max(8, int(round(channels * multiplier / 8)) * 8)


def vgg16_ssd_trunk(input_size: int = 300) -> BackboneResult:
    """VGG16 through conv5_3 plus SSD's converted fc6/fc7 (conv6/conv7).

    This is the standard SSD300 base network: 13 VGG convolutions, pool5
    turned into a stride-1 3x3 pool, conv6 a dilated 3x3x1024 and conv7 a
    1x1x1024.  Taps: ``conv4_3`` (38x38, with L2Norm) and ``conv7`` (19x19).
    """
    tape = Tape(TensorShape(3, input_size, input_size))
    taps: dict[str, TensorShape] = {}

    cfg = [
        ("conv1_1", 64),
        ("conv1_2", 64),
        ("pool1", None),
        ("conv2_1", 128),
        ("conv2_2", 128),
        ("pool2", None),
        ("conv3_1", 256),
        ("conv3_2", 256),
        ("conv3_3", 256),
        ("pool3", None),
        ("conv4_1", 512),
        ("conv4_2", 512),
        ("conv4_3", 512),
    ]
    for name, channels in cfg:
        if channels is None:
            # SSD's pool3 uses ceil mode so the 75x75 map becomes 38x38.
            tape.max_pool(name, ceil_mode=(name == "pool3"))
        else:
            tape.conv(name, channels)
    tape.l2_norm("conv4_3/l2norm")
    taps["conv4_3"] = tape.shape

    # pool3 uses ceil mode in SSD so 75 -> 38; pool4 brings 38 -> 19.
    tape.max_pool("pool4")
    for name in ("conv5_1", "conv5_2", "conv5_3"):
        tape.conv(name, 512)
    tape.max_pool("pool5", kernel=3, stride=1, padding=1)
    tape.conv("conv6", 1024, kernel=3)  # dilation changes receptive field only
    tape.conv("conv7", 1024, kernel=1)
    taps["conv7"] = tape.shape
    return BackboneResult(tape=tape, taps=taps)


def vgg_lite_trunk(
    input_size: int = 300,
    *,
    width_multiplier: float = 0.625,
    conv7_channels: int = 1024,
) -> BackboneResult:
    """The paper's VGG-Lite base network (Fig. 3) plus Conv6&7.

    VGG-Lite keeps one convolution per resolution stage — VGG16 minus nine
    convolutions and two pooling layers (the stride-1 pool5 and one stage
    pool are gone) — then Conv6 (3x3) and Conv7 (1x1x1024) adjust the scale
    for the extra feature layers.  The figure's printed widths are partially
    illegible; the default ``width_multiplier`` is chosen so that the full
    small model 1 reproduces Table II's 18.50 MB / ~5.6 GFLOPs budget.

    Tap: ``conv7`` (19x19x1024) — the small model has no 38x38 tap, which is
    precisely the design sacrifice Sec. IV.B discusses.
    """
    if not 0.0 < width_multiplier <= 2.0:
        raise ConfigurationError(f"width_multiplier out of range: {width_multiplier}")
    mult = width_multiplier
    tape = Tape(TensorShape(3, input_size, input_size))
    tape.conv("conv1", _scaled(64, mult))
    tape.max_pool("pool1")
    tape.conv("conv2", _scaled(128, mult))
    tape.max_pool("pool2")
    tape.conv("conv3", _scaled(256, mult))
    tape.max_pool("pool3", ceil_mode=True)
    tape.conv("conv4", _scaled(512, mult))
    tape.max_pool("pool4")
    tape.conv("conv6", _scaled(512, mult), kernel=3)
    tape.conv("conv7", conv7_channels, kernel=1)
    return BackboneResult(tape=tape, taps={"conv7": tape.shape})


_MOBILENET_V1_BLOCKS: tuple[tuple[int, int], ...] = (
    # (output channels, stride)
    (64, 1),
    (128, 2),
    (128, 1),
    (256, 2),
    (256, 1),
    (512, 2),
    (512, 1),
    (512, 1),
    (512, 1),
    (512, 1),
    (512, 1),
    (1024, 2),
    (1024, 1),
)


def mobilenet_v1_trunk(
    input_size: int = 300,
    *,
    width_multiplier: float = 1.0,
    truncate_at_stride: int | None = 16,
) -> BackboneResult:
    """MobileNetV1 feature extractor (Howard et al., 2017).

    ``truncate_at_stride=16`` stops after the last stride-16 block (the
    19x19 map for a 300 input) — the small-model recipe replaces everything
    past that point with the SSD extra feature layers, and the 38x38 map is
    never tapped (the paper's "remove the large-size feature map").
    Set ``truncate_at_stride=None`` to keep the full 13-block network.

    Tap: ``final`` — the last emitted feature map.
    """
    tape = Tape(TensorShape(3, input_size, input_size))
    tape.conv("conv1", _scaled(32, width_multiplier), stride=2, bias=False, batch_norm=True)
    stride_product = 2
    for index, (channels, stride) in enumerate(_MOBILENET_V1_BLOCKS, start=1):
        if truncate_at_stride is not None and stride == 2 and stride_product * 2 > truncate_at_stride:
            break
        stride_product *= stride if stride == 2 else 1
        tape.depthwise_separable(f"block{index}", _scaled(channels, width_multiplier), stride=stride)
    return BackboneResult(tape=tape, taps={"final": tape.shape})


_MOBILENET_V2_BLOCKS: tuple[tuple[int, int, int, int], ...] = (
    # (expansion, output channels, repeats, first stride)
    (1, 16, 1, 1),
    (6, 24, 2, 2),
    (6, 32, 3, 2),
    (6, 64, 4, 2),
    (6, 96, 3, 1),
    (6, 160, 3, 2),
    (6, 320, 1, 1),
)


def mobilenet_v2_trunk(
    input_size: int = 300,
    *,
    width_multiplier: float = 0.75,
    truncate_at_stride: int | None = 16,
) -> BackboneResult:
    """MobileNetV2 feature extractor (Sandler et al., 2018).

    With ``truncate_at_stride=16`` the network stops after the 96-channel
    stage (stride 16 — the 19x19 map at a 300 input), mirroring the small
    model recipe.  The default 0.75 width multiplier lands small model 3 on
    Table II's 6.5 MB budget.

    Tap: ``final``.
    """
    tape = Tape(TensorShape(3, input_size, input_size))
    tape.conv("conv1", _scaled(32, width_multiplier), stride=2, bias=False, batch_norm=True)
    stride_product = 2
    block_index = 0
    for expansion, channels, repeats, first_stride in _MOBILENET_V2_BLOCKS:
        if truncate_at_stride is not None and first_stride == 2 and stride_product * 2 > truncate_at_stride:
            break
        for repeat in range(repeats):
            stride = first_stride if repeat == 0 else 1
            stride_product *= 2 if stride == 2 else 1
            block_index += 1
            tape.inverted_residual(
                f"block{block_index}",
                _scaled(channels, width_multiplier),
                expansion=expansion,
                stride=stride,
            )
    return BackboneResult(tape=tape, taps={"final": tape.shape})


_CSPDARKNET53_STAGES: tuple[tuple[int, int], ...] = (
    # (output channels, residual blocks)
    (64, 1),
    (128, 2),
    (256, 8),
    (512, 8),
    (1024, 4),
)


def cspdarknet53_trunk(input_size: int = 608) -> BackboneResult:
    """CSPDarknet53 — YOLOv4's backbone (Wang et al., 2019).

    Each stage downsamples with a 3x3 stride-2 convolution and then runs a
    cross-stage-partial block: the input is split into two 1x1-projected
    halves, one half passes through ``n`` residual bottlenecks, and the
    halves are fused by a final 1x1 transition.

    Taps: ``stage3`` (stride 8), ``stage4`` (stride 16), ``stage5``
    (stride 32) — the three maps the PAN neck consumes.
    """
    tape = Tape(TensorShape(3, input_size, input_size))
    taps: dict[str, TensorShape] = {}
    tape.conv("stem", 32, bias=False, batch_norm=True)
    for stage_index, (channels, blocks) in enumerate(_CSPDARKNET53_STAGES, start=1):
        prefix = f"stage{stage_index}"
        tape.conv(f"{prefix}/down", channels, stride=2, bias=False, batch_norm=True)
        half = channels if stage_index == 1 else channels // 2
        # CSP split: two parallel 1x1 projections of the stage input.
        stage_input = tape.shape
        tape.pointwise(f"{prefix}/split_main", half)
        for block in range(blocks):
            bottleneck = half if stage_index == 1 else half
            tape.pointwise(f"{prefix}/res{block}/reduce", bottleneck)
            tape.conv(f"{prefix}/res{block}/expand", half, bias=False, batch_norm=True)
        main_shape = tape.shape
        tape.goto(stage_input)
        tape.pointwise(f"{prefix}/split_shortcut", half)
        # Fuse: concat (free) then 1x1 transition back to stage width.
        tape.goto(TensorShape(half * 2, main_shape.height, main_shape.width))
        tape.pointwise(f"{prefix}/transition", channels)
        if stage_index >= 3:
            taps[prefix] = tape.shape
    return BackboneResult(tape=tape, taps=taps)
