"""Reference-point generation from a depth map and instance mask.

The reference point ``(x0, y0, d0)`` anchors all relative-offset encodings.
Three strategies are provided:

  - CENTER_NEAREST_DEPTH: ROI-center pixel for (u0, v0), minimum visible
    depth for d0, then (x0, y0) from the pin-hole equations.
  - CENTER_MEAN_DEPTH:    same (u0, v0), d0 = mean of the visible depths.
  - MEAN_VISIBLE:         componentwise mean of all lifted visible points.

A visible pixel is a masked pixel with depth above ``DEPTH_EPSILON``; any
smaller depth (0 included) is missing data.  :func:`visible_points` is the
one place that selects and lifts them, for the reference point here and for
the channels and targets in :mod:`offset6d.encoding`.  The ROI center is
used as given even when it falls on background; occlusion can push the box
center off the object and that case is deliberately preserved.

Means are accumulated with exact compensated summation (``math.fsum``) in
row-major pixel order, so results are bit-stable and independent of how the
mask was produced.
"""

from __future__ import annotations

import math
from .record import record
from enum import Enum

import numpy as np

from .errors import EmptyObjectError
from .geometry import CameraIntrinsics, backproject_pixels

# Depths at or below this (meters) are missing.  The depth-scaled channels
# divide by d, and ``(d - d0) + d0`` could round a tinier d to 0.
DEPTH_EPSILON = 1e-6


class RefStrategy(Enum):
    CENTER_NEAREST_DEPTH = "center-nearest"
    CENTER_MEAN_DEPTH = "center-mean"
    MEAN_VISIBLE = "mean-visible"


@record
class DepthMap:
    """Row-major depth image in meters; a depth <= DEPTH_EPSILON (0, say)
    marks a missing pixel."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise ValueError(f"depth map must be 2-D, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("depth values must be finite")
        if np.any(v < 0):
            raise ValueError("depth values must be >= 0")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


@record
class InstanceMask:
    """Row-major boolean foreground mask, same shape as its depth map."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=bool)
        if v.ndim != 2:
            raise ValueError(f"mask must be 2-D, got shape {v.shape}")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


@record
class Roi:
    """Box on the image plane: center pixel plus extent in pixels."""

    c_col: int
    c_row: int
    w: int
    h: int

    def __post_init__(self):
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"roi extent must be positive, got w={self.w}, h={self.h}")

    def intersects(self, width: int, height: int) -> bool:
        half_w = self.w / 2.0
        half_h = self.h / 2.0
        return (
            self.c_col + half_w > 0
            and self.c_col - half_w < width
            and self.c_row + half_h > 0
            and self.c_row - half_h < height
        )


@record
class ReferencePoint:
    """Camera-frame anchor (x0, y0, d0) plus the strategy that produced it."""

    x0: float
    y0: float
    d0: float
    strategy: RefStrategy

    def __post_init__(self):
        if not (math.isfinite(self.d0) and self.d0 > 0):
            raise ValueError(f"reference depth must be positive, got {self.d0!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x0, self.y0, self.d0], dtype=np.float64)


def visible_points(
    depth: DepthMap, mask: InstanceMask, k: CameraIntrinsics
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-major ``(rows, cols, points)`` of the masked pixels with depth
    above ``DEPTH_EPSILON``, lifted to the camera frame: the one pixel set
    that the reference point, the channels and the targets are built from."""
    if depth.values.shape != mask.values.shape:
        raise ValueError(
            f"depth {depth.values.shape} and mask {mask.values.shape} shapes differ"
        )
    rows, cols = np.nonzero(mask.values & (depth.values > DEPTH_EPSILON))
    if rows.size == 0:
        raise EmptyObjectError("no masked pixel with valid depth")
    return rows, cols, backproject_pixels(cols, rows, depth.values[rows, cols], k)


def fsum_mean(values: np.ndarray) -> float:
    """Mean via exact (compensated) summation; order-independent result."""
    values = np.asarray(values, dtype=np.float64)
    return math.fsum(values.tolist()) / values.size


def _ref_center(
    depth: DepthMap, mask: InstanceMask, roi: Roi, k: CameraIntrinsics, statistic, strategy: RefStrategy
) -> ReferencePoint:
    """ROI-center pixel lifted at ``statistic`` of the visible depths."""
    height, width = depth.values.shape
    if not roi.intersects(width, height):
        raise ValueError(f"roi {roi} does not intersect a {width}x{height} image")
    _, _, points = visible_points(depth, mask, k)
    d0 = float(statistic(points[:, 2]))
    x0, y0, _ = backproject_pixels(roi.c_col, roi.c_row, d0, k).tolist()
    return ReferencePoint(x0, y0, d0, strategy)


def ref_center_nearest(
    depth: DepthMap, mask: InstanceMask, roi: Roi, k: CameraIntrinsics
) -> ReferencePoint:
    """ROI-center pixel, depth of the closest visible point."""
    return _ref_center(depth, mask, roi, k, np.min, RefStrategy.CENTER_NEAREST_DEPTH)


def ref_center_meandepth(
    depth: DepthMap, mask: InstanceMask, roi: Roi, k: CameraIntrinsics
) -> ReferencePoint:
    """ROI-center pixel, arithmetic mean of the visible depths."""
    return _ref_center(depth, mask, roi, k, fsum_mean, RefStrategy.CENTER_MEAN_DEPTH)


def ref_mean_visible(depth: DepthMap, mask: InstanceMask, k: CameraIntrinsics) -> ReferencePoint:
    """Componentwise mean of every lifted visible point."""
    _, _, pts = visible_points(depth, mask, k)
    x0 = fsum_mean(pts[:, 0])
    y0 = fsum_mean(pts[:, 1])
    d0 = fsum_mean(pts[:, 2])
    return ReferencePoint(x0, y0, d0, RefStrategy.MEAN_VISIBLE)


def make_reference(
    depth: DepthMap, mask: InstanceMask, k: CameraIntrinsics, strategy: RefStrategy
) -> ReferencePoint:
    """Dispatch on strategy; the ROI is the mask's bounding box."""
    if strategy is RefStrategy.MEAN_VISIBLE:
        return ref_mean_visible(depth, mask, k)
    roi = roi_from_mask(mask)
    if strategy is RefStrategy.CENTER_NEAREST_DEPTH:
        return ref_center_nearest(depth, mask, roi, k)
    if strategy is RefStrategy.CENTER_MEAN_DEPTH:
        return ref_center_meandepth(depth, mask, roi, k)
    raise ValueError(f"unknown strategy {strategy!r}")


def roi_from_mask(mask: InstanceMask) -> Roi:
    """Tight bounding box of the mask, center at the rounded-down midpoint."""
    rows, cols = np.nonzero(mask.values)
    if rows.size == 0:
        raise EmptyObjectError("mask has no foreground pixel")
    r0, r1 = int(rows.min()), int(rows.max())
    c0, c1 = int(cols.min()), int(cols.max())
    return Roi(c_col=(c0 + c1) // 2, c_row=(r0 + r1) // 2, w=c1 - c0 + 1, h=r1 - r0 + 1)
