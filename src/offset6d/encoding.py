"""Relative-offset constraint encoding and residuals.

Starting from the pose transform ``[x, y, d]^T = R [a, b, c]^T + t`` applied
to a visible point i and to a reference point 0, two constraint systems are
built:

Plain offsets (translation eliminated)::

    [x_i - x0, y_i - y0, d_i - d0]^T = R [a_i - a0, b_i - b0, c_i - c0]^T

Depth-scaled offsets (translation preserved)::

    [dx, dy, 0]^T = R * dABC - (dd / (d_i d0)) * dt - (dd / (d_i d0)) * t0

with ``dx = x_i/d_i - x0/d0``, ``dy`` likewise, ``dd = d_i - d0``,
``dABC = p_i/d_i - p0/d0`` in the object frame, ``t0 = [x0, y0, d0]^T`` and
``dt = t - t0``.  Dividing the pose transform by d_i and d0 and subtracting
forces the ``dd/(d_i d0)`` factor on the *last* term as well; that variant is
CORRECTED here.  The AS_PRINTED variant keeps the widely circulated form whose
last term is ``t0/(d_i d0)`` without the dd factor, and is retained only so
the discrepancy between the two can be measured.

Per-pixel channels are stored sparsely (valid masked pixels only, row-major)
with explicit (u, v) indices.  Pixels with depth <= ``depth_epsilon`` are
dropped before encoding because the scaled form divides by d_i.  The
geometric products ``d_i d0`` and ``t0 / (d_i d0)`` follow from ``dd`` and
the reference point; :func:`geometric_products` is the one place they are
computed.
"""

from __future__ import annotations

from .record import record
from enum import Enum

import numpy as np

from .errors import EmptyObjectError, MissingPoseError, ModeMismatchError
from .geometry import CameraIntrinsics, RigidPose, backproject_pixels, inverse_transform_points
from .refpoint import DepthMap, InstanceMask, ReferencePoint

DEPTH_EPSILON = 1e-6


class InputMode(Enum):
    """What the per-pixel input channels hold."""

    ABSOLUTE_XYD = "absolute"         # raw lifted coordinates (x, y, d)
    OFFSET_XYD = "offset"             # plain offsets (x - x0, y - y0, d - d0)
    GEOMETRIC = "geometric"           # depth-scaled offsets + d*d0 + t0/(d*d0)


class TargetMode(Enum):
    """What the per-pixel object-frame regression targets hold."""

    ABSOLUTE = "absolute"             # (a, b, c)
    OFFSET = "offset"                 # (a - a0, b - b0, c - c0)
    RELATIVE_OFFSET = "relative-offset"  # (a/d - a0/d0, ...)


class ConstraintForm(Enum):
    CORRECTED = "corrected"           # dd/(d_i d0) factor on the anchor term
    AS_PRINTED = "as-printed"         # anchor term 1/(d_i d0), no dd factor


@record
class SceneObservation:
    """One observed object instance: depth + mask + intrinsics.

    ``gt_pose`` is required only by target encoding.
    """

    depth: DepthMap
    mask: InstanceMask
    intrinsics: CameraIntrinsics
    gt_pose: RigidPose | None = None

    def __post_init__(self):
        if self.depth.values.shape != self.mask.values.shape:
            raise ValueError(
                f"depth {self.depth.values.shape} and mask "
                f"{self.mask.values.shape} shapes differ"
            )


def valid_pixels(obs: SceneObservation, depth_epsilon: float = DEPTH_EPSILON):
    """Row-major (rows, cols, depths) of masked pixels with usable depth."""
    valid = obs.mask.values & (obs.depth.values > depth_epsilon)
    rows, cols = np.nonzero(valid)
    return rows, cols, obs.depth.values[rows, cols]


@record
class GeoEncoding:
    """Per-pixel camera-frame input channels around a reference point.

    ``delta_x/delta_y/delta_d`` hold whatever the mode dictates: raw lifted
    coordinates (ABSOLUTE_XYD), plain offsets (OFFSET_XYD), or depth-scaled
    offsets with ``delta_d = d - d0`` (GEOMETRIC).  ``dd0`` (= d_i * d0) and
    ``t0_over_dd0`` are populated only in GEOMETRIC mode, where
    :func:`encode_input` takes them from :func:`geometric_products`; an
    encoding file stores only ``u v delta_x delta_y delta_d`` and its reader
    derives them the same way.
    """

    us: np.ndarray
    vs: np.ndarray
    delta_x: np.ndarray
    delta_y: np.ndarray
    delta_d: np.ndarray
    dd0: np.ndarray | None
    t0_over_dd0: np.ndarray | None
    ref: ReferencePoint
    mode: InputMode

    def __post_init__(self):
        n = self.us.shape[0]
        for name in ("vs", "delta_x", "delta_y", "delta_d"):
            if getattr(self, name).shape[0] != n:
                raise ValueError(f"channel {name} length mismatch")
        if self.mode is InputMode.GEOMETRIC:
            if self.dd0 is None or self.t0_over_dd0 is None:
                raise ValueError("geometric mode requires dd0 and t0_over_dd0 channels")
            if np.any(self.dd0 <= 0):
                raise ValueError("dd0 must be positive")

    def __len__(self) -> int:
        return self.us.shape[0]


@record
class GeoTargets:
    """Object-frame regression targets for the same pixel set.

    ``delta_t = t - t0`` recovers the ground-truth translation through
    :func:`decode_translation`.  ``delta_abc`` rows follow ``mode``.
    """

    delta_t: np.ndarray
    delta_abc: np.ndarray
    mode: TargetMode
    ref: ReferencePoint
    us: np.ndarray
    vs: np.ndarray

    def __len__(self) -> int:
        return self.delta_abc.shape[0]


def geometric_products(delta_d: np.ndarray, ref: ReferencePoint) -> tuple[np.ndarray, np.ndarray]:
    """The GEOMETRIC channels ``dd0 = d_i d0`` and ``t0 / (d_i d0)``, (N,) and
    (N, 3), from ``delta_d = d_i - d0`` and the reference point.

    ``dd0`` is computed as ``(delta_d + d0) * d0``, not from d_i, because an
    encoding file stores ``delta_d`` and not d_i: ``(d_i - d0) + d0`` need
    not round back to d_i.  With this one function behind both
    :func:`encode_input` and the file reader, a written encoding reads back
    with the same bits.
    """
    dd0 = (delta_d + ref.d0) * ref.d0
    return dd0, ref.as_array()[None, :] / dd0[:, None]


def encode_input(
    obs: SceneObservation,
    ref: ReferencePoint,
    mode: InputMode = InputMode.GEOMETRIC,
    depth_epsilon: float = DEPTH_EPSILON,
) -> GeoEncoding:
    """Build the per-pixel input channels for one observation.

    GEOMETRIC mode takes ``dd0`` and ``t0_over_dd0`` from
    :func:`geometric_products` of its ``delta_d``.
    """
    rows, cols, depths = valid_pixels(obs, depth_epsilon)
    if rows.size == 0:
        raise EmptyObjectError("no masked pixel with valid depth")
    pts = backproject_pixels(cols, rows, depths, obs.intrinsics)
    x, y, d = pts[:, 0], pts[:, 1], pts[:, 2]

    dd0 = None
    t0_over_dd0 = None
    if mode is InputMode.ABSOLUTE_XYD:
        cx, cy, cd = x, y, d
    elif mode is InputMode.OFFSET_XYD:
        cx, cy, cd = x - ref.x0, y - ref.y0, d - ref.d0
    elif mode is InputMode.GEOMETRIC:
        cx = x / d - ref.x0 / ref.d0
        cy = y / d - ref.y0 / ref.d0
        cd = d - ref.d0
        dd0, t0_over_dd0 = geometric_products(cd, ref)
    else:
        raise ValueError(f"unknown input mode {mode!r}")

    return GeoEncoding(
        us=cols.copy(),
        vs=rows.copy(),
        delta_x=cx,
        delta_y=cy,
        delta_d=cd,
        dd0=dd0,
        t0_over_dd0=t0_over_dd0,
        ref=ref,
        mode=mode,
    )


def encode_targets(
    obs: SceneObservation,
    ref: ReferencePoint,
    mode: TargetMode = TargetMode.RELATIVE_OFFSET,
    depth_epsilon: float = DEPTH_EPSILON,
) -> GeoTargets:
    """Build object-frame targets from the ground-truth pose.

    Object coordinates come from inverse-transforming the lifted pixel
    points (and the reference point) with ``obs.gt_pose``; they are exactly
    consistent with the input channels by construction.
    """
    if obs.gt_pose is None:
        raise MissingPoseError("target encoding requires a ground-truth pose")
    rows, cols, depths = valid_pixels(obs, depth_epsilon)
    if rows.size == 0:
        raise EmptyObjectError("no masked pixel with valid depth")
    pose = obs.gt_pose
    cam = backproject_pixels(cols, rows, depths, obs.intrinsics)
    obj = inverse_transform_points(pose, cam)
    obj0 = pose.rotation.T @ (ref.as_array() - pose.translation)

    if mode is TargetMode.ABSOLUTE:
        delta_abc = obj
    elif mode is TargetMode.OFFSET:
        delta_abc = obj - obj0
    elif mode is TargetMode.RELATIVE_OFFSET:
        delta_abc = obj / cam[:, 2:3] - obj0 / ref.d0
    else:
        raise ValueError(f"unknown target mode {mode!r}")

    delta_t = pose.translation - ref.as_array()
    return GeoTargets(
        delta_t=delta_t,
        delta_abc=delta_abc,
        mode=mode,
        ref=ref,
        us=cols.copy(),
        vs=rows.copy(),
    )


def decode_translation(delta_t: np.ndarray, ref: ReferencePoint) -> np.ndarray:
    """Recover the absolute translation: delta_t + [x0, y0, d0]."""
    return np.asarray(delta_t, dtype=np.float64) + ref.as_array()


def constraint_residual(
    enc: GeoEncoding,
    tgt: GeoTargets,
    pose: RigidPose,
    form: ConstraintForm = ConstraintForm.CORRECTED,
) -> np.ndarray:
    """Per-pixel residual of the depth-scaled constraint, (N, 3).

    The residual is right-hand side minus left-hand side::

        R * dABC - w * dt - anchor  -  [dx, dy, 0]^T

    with ``w = dd / (d_i d0)``, ``dt = pose.t - t0``, and the anchor term
    ``w * t0`` (CORRECTED) or ``t0 / (d_i d0)`` (AS_PRINTED).  On exactly
    consistent data the CORRECTED residual vanishes, while the AS_PRINTED
    residual equals ``(dd - 1) * t0 / (d_i d0)``.
    """
    if tgt.mode is not TargetMode.RELATIVE_OFFSET:
        raise ModeMismatchError(
            f"constraint residual requires RELATIVE_OFFSET targets, got {tgt.mode}"
        )
    if enc.mode is not InputMode.GEOMETRIC:
        raise ModeMismatchError(
            f"constraint residual requires GEOMETRIC input channels, got {enc.mode}"
        )
    t0 = enc.ref.as_array()
    delta_t = pose.translation - t0
    w = enc.delta_d / enc.dd0
    rhs = tgt.delta_abc @ pose.rotation.T - w[:, None] * delta_t[None, :]
    if form is ConstraintForm.CORRECTED:
        rhs = rhs - w[:, None] * t0[None, :]
    elif form is ConstraintForm.AS_PRINTED:
        rhs = rhs - enc.t0_over_dd0
    else:
        raise ValueError(f"unknown constraint form {form!r}")
    lhs = np.stack([enc.delta_x, enc.delta_y, np.zeros_like(enc.delta_x)], axis=1)
    return rhs - lhs


def naive_offset_residual(
    cam_points: np.ndarray,
    obj_points: np.ndarray,
    cam_ref: np.ndarray,
    obj_ref: np.ndarray,
    rotation: np.ndarray,
) -> np.ndarray:
    """Residual of the plain-offset constraint, (N, 3).

    Evaluates ``(c_i - c_0) - R (o_i - o_0)``.  Both sides are free of the
    translation, so the result cannot depend on t for data generated from a
    rigid pose; only rotation errors show up.
    """
    cam = np.asarray(cam_points, dtype=np.float64)
    obj = np.asarray(obj_points, dtype=np.float64)
    if cam.shape != obj.shape or cam.ndim != 2 or cam.shape[1] != 3:
        raise ValueError(
            f"paired point lists must both be (N, 3), got {cam.shape} and {obj.shape}"
        )
    cam_ref = np.asarray(cam_ref, dtype=np.float64).reshape(3)
    obj_ref = np.asarray(obj_ref, dtype=np.float64).reshape(3)
    rotation = np.asarray(rotation, dtype=np.float64)
    return (cam - cam_ref) - (obj - obj_ref) @ rotation.T
