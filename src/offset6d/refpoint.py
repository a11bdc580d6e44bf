"""Reference-point generation from a depth map and instance mask.

The reference point ``(x0, y0, d0)`` anchors all relative-offset encodings.
Three strategies are provided:

  - CENTER_NEAREST_DEPTH: ROI-center pixel for (u0, v0), minimum visible
    depth for d0, then (x0, y0) from the pin-hole equations.
  - CENTER_MEAN_DEPTH:    same (u0, v0), d0 = mean of the visible depths.
  - MEAN_VISIBLE:         componentwise mean of all lifted visible points.

A visible pixel is a masked pixel with depth above ``DEPTH_EPSILON``; any
smaller depth (0 included) is missing data.  :class:`SceneObservation` is
the one place that checks a depth map and its mask, and its
:attr:`~SceneObservation.visible` the one place that selects and lifts the
visible pixels, once per observation, for the reference point here and for
the channels and targets in :mod:`offset6d.encoding`.  The ROI is the mask's
bounding box.  Its center is used as given even when it falls on
background; occlusion can push the box center off the object and that case
is deliberately preserved.

Means are accumulated with exact compensated summation (``math.fsum``) in
row-major pixel order, so results are bit-stable and independent of how the
mask was produced.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import chain
from .record import read_only, record
from enum import Enum

import numpy as np

from .errors import EmptyObjectError
from .geometry import CameraIntrinsics, RigidPose, backproject_pixels

# Values converted to Python floats at once (32 bytes each) by fsum_mean.
_FSUM_CHUNK = 4096
# Depths at or below this (meters) are missing.  The depth-scaled channels
# divide by d, and ``(d - d0) + d0`` could round a tinier d to 0.
DEPTH_EPSILON = 1e-6


class RefStrategy(Enum):
    CENTER_NEAREST_DEPTH = "center-nearest"
    CENTER_MEAN_DEPTH = "center-mean"
    MEAN_VISIBLE = "mean-visible"


@record
class SceneObservation:
    """One observed object instance: a row-major depth image in meters, its
    boolean foreground mask of the same shape, and the camera intrinsics.
    A depth <= DEPTH_EPSILON (0, say) marks a missing pixel.  Each array is
    held through :func:`~offset6d.record.read_only`, as float64 and bool.

    ``gt_pose`` is required only by target encoding.
    """

    depth: np.ndarray
    mask: np.ndarray
    intrinsics: CameraIntrinsics
    gt_pose: RigidPose | None = None

    def __post_init__(self):
        depth, mask = read_only(self.depth), read_only(self.mask, bool)
        if depth.ndim != 2:
            raise ValueError(f"depth map must be 2-D, got shape {depth.shape}")
        if not np.all(np.isfinite(depth)):
            raise ValueError("depth values must be finite")
        if np.any(depth < 0):
            raise ValueError("depth values must be >= 0")
        if depth.shape != mask.shape:
            raise ValueError(f"depth {depth.shape} and mask {mask.shape} shapes differ")
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "mask", mask)

    @cached_property
    def visible(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row-major ``(rows, cols, points)`` of the masked pixels with depth
        above ``DEPTH_EPSILON``, lifted to the camera frame: the one pixel set
        that the reference point, the channels and the targets are built
        from.  Computed on first use and kept read-only; ``cached_property``
        stores it in the instance ``__dict__`` past the frozen
        ``__setattr__``, and equality and ``replace`` see only the fields."""
        rows, cols = np.nonzero(self.mask & (self.depth > DEPTH_EPSILON))
        if rows.size == 0:
            raise EmptyObjectError("no masked pixel with valid depth")
        arrays = rows, cols, backproject_pixels(cols, rows, self.depth[rows, cols], self.intrinsics)
        for array in arrays:
            array.flags.writeable = False
        return arrays


@record
class ReferencePoint:
    """Camera-frame anchor (x0, y0, d0) plus the strategy that produced it."""

    x0: float
    y0: float
    d0: float
    strategy: RefStrategy

    def __post_init__(self):
        for name, value in (("x0", self.x0), ("y0", self.y0)):
            if not math.isfinite(value):
                raise ValueError(f"reference {name!r} must be finite, got {value!r}")
        if not (math.isfinite(self.d0) and self.d0 > 0):
            raise ValueError(f"reference depth must be positive, got {self.d0!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x0, self.y0, self.d0], dtype=np.float64)


def fsum_mean(values: np.ndarray) -> float:
    """Mean via exact (compensated) summation; order-independent result.  The
    values reach ``fsum`` as Python floats a few thousand at a time."""
    values = np.asarray(values, dtype=np.float64)
    chunks = (values[i : i + _FSUM_CHUNK].tolist() for i in range(0, values.size, _FSUM_CHUNK))
    return math.fsum(chain.from_iterable(chunks)) / values.size


def ref_mean_visible(depth: np.ndarray, mask: np.ndarray, k: CameraIntrinsics) -> ReferencePoint:
    """Componentwise mean of every lifted visible point of ``depth`` and ``mask``."""
    return make_reference(SceneObservation(depth, mask, k), RefStrategy.MEAN_VISIBLE)


def make_reference(obs: SceneObservation, strategy: RefStrategy) -> ReferencePoint:
    """The reference point of ``strategy``, from ``obs.visible``.

    The ROI strategies lift the center pixel of the mask's bounding box,
    the midpoint rounded down, at the minimum (CENTER_NEAREST_DEPTH) or the
    mean (CENTER_MEAN_DEPTH) of the visible depths.
    """
    _, _, points = obs.visible
    if strategy is RefStrategy.MEAN_VISIBLE:
        x0, y0, d0 = (fsum_mean(points[:, i]) for i in range(3))
        return ReferencePoint(x0, y0, d0, strategy)
    if strategy is RefStrategy.CENTER_NEAREST_DEPTH:
        d0 = float(points[:, 2].min())
    elif strategy is RefStrategy.CENTER_MEAN_DEPTH:
        d0 = fsum_mean(points[:, 2])
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    # A visible pixel is masked, so both axes have a foreground index.
    rows = np.flatnonzero(obs.mask.any(axis=1))
    cols = np.flatnonzero(obs.mask.any(axis=0))
    u0 = (int(cols[0]) + int(cols[-1])) // 2
    v0 = (int(rows[0]) + int(rows[-1])) // 2
    x0, y0, _ = backproject_pixels(u0, v0, d0, obs.intrinsics).tolist()
    return ReferencePoint(x0, y0, d0, strategy)
