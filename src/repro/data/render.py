"""Numpy image renderer.

The Brenner-gradient baseline (Sec. VI.E.2, Eq. 2) ranks *pixels*, so the
library needs actual images.  The renderer draws each scene as a grayscale
array: a smooth textured background plus one filled shape per object with a
contrasting border.  Degradations (blur, low light) are applied with
``scipy.ndimage``, which is exactly what makes degraded images score low
Brenner values — the baseline's selection signal works for real.

Rendering resolution is modest (default 128x128) because the Brenner
gradient is resolution-covariant: ranking is preserved.

``scipy.ndimage`` is imported inside the two functions that use it, not at
module level: ``repro.data`` exports this module, so a module-level import
would make every ``import repro`` load SciPy (about 27 MB of resident
memory and 0.3 s on a 2-vCPU x86_64 host), although only the
Brenner-gradient baseline ever renders an image.  After the first render
the import is a ``sys.modules`` lookup.
"""

from __future__ import annotations

import numpy as np

from repro._rng import generator_for
from repro.data.datasets import ImageRecord
from repro.detection.boxes import scale_boxes
from repro.errors import ConfigurationError

__all__ = ["render_image", "brenner_gradient"]


def _background(size: int, rng: np.random.Generator) -> np.ndarray:
    """Smooth low-frequency background texture in [0.2, 0.8]."""
    from scipy import ndimage

    coarse = rng.uniform(0.0, 1.0, size=(8, 8))
    zoomed = ndimage.zoom(coarse, size / 8.0, order=3)[:size, :size]
    noise = rng.normal(0.0, 0.02, size=(size, size))
    spread = max(float(np.ptp(zoomed)), 1e-9)
    return np.clip(0.2 + 0.6 * (zoomed - zoomed.min()) / spread + noise, 0.0, 1.0)


def _draw_object(
    canvas: np.ndarray,
    box_px: np.ndarray,
    fill: float,
    rng: np.random.Generator,
) -> None:
    """Fill one object box with a contrasting shade and a crisp border."""
    size = canvas.shape[0]
    x0, y0, x1, y1 = box_px
    col0, col1 = int(np.floor(x0)), int(np.ceil(x1))
    row0, row1 = int(np.floor(y0)), int(np.ceil(y1))
    col0, row0 = max(col0, 0), max(row0, 0)
    col1, row1 = min(col1, size), min(row1, size)
    if col1 <= col0 or row1 <= row0:
        return
    patch = canvas[row0:row1, col0:col1]
    if rng.uniform() < 0.5:  # ellipse
        height, width = patch.shape
        yy, xx = np.ogrid[:height, :width]
        cy, cx = (height - 1) / 2.0, (width - 1) / 2.0
        mask = ((yy - cy) / max(cy, 0.5)) ** 2 + ((xx - cx) / max(cx, 0.5)) ** 2 <= 1.0
    else:  # rectangle
        mask = np.ones(patch.shape, dtype=bool)
    patch[mask] = fill
    # Crisp 1-px border maximises the Brenner response of sharp imagery.
    border = np.zeros(patch.shape, dtype=bool)
    border[0, :] = border[-1, :] = True
    border[:, 0] = border[:, -1] = True
    patch[border & mask] = 1.0 - fill


def render_image(record: ImageRecord, *, size: int = 128) -> np.ndarray:
    """Render one image record to a ``(size, size)`` float array in [0, 1].

    The render is deterministic in the record's ``render_seed``; the
    degradation stored on the record (blur, brightness) is applied last.
    """
    if size < 16:
        raise ConfigurationError(f"render size too small: {size}")
    rng = generator_for(record.render_seed, "render", record.image_id)
    canvas = _background(size, rng)
    boxes_px = scale_boxes(record.truth.boxes, size, size)
    # Draw large objects first so small ones stay visible on top.
    order = np.argsort(-record.truth.area_ratios)
    for obj_index in order:
        fill = float(rng.uniform(0.0, 1.0))
        # Push fill away from mid-gray so objects contrast with background.
        fill = 0.08 if fill < 0.5 else 0.92
        _draw_object(canvas, boxes_px[obj_index], fill, rng)
    degradation = record.degradation
    if degradation.blur_sigma > 0.0:
        from scipy import ndimage

        canvas = ndimage.gaussian_filter(canvas, degradation.blur_sigma * size / 128.0)
    if degradation.brightness != 1.0:
        canvas = canvas * degradation.brightness
    return np.clip(canvas, 0.0, 1.0)


def brenner_gradient(image: np.ndarray) -> float:
    """Brenner gradient sharpness measure (the paper's Eq. 2).

    ``sum over x, y of |f(x + 2, y) - f(x, y)|^2`` — larger values mean a
    sharper (clearer) image.  Computed on the gray values scaled to [0, 255]
    to match the conventional definition.
    """
    array = np.asarray(image, dtype=np.float64)
    if array.ndim != 2:
        raise ConfigurationError(f"expected a 2-D grayscale image, got {array.ndim}-D")
    gray = array * 255.0
    diff = gray[2:, :] - gray[:-2, :]
    return float(np.sum(diff * diff))
