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

Per-pixel channels are stored sparsely (row-major) with explicit (u, v)
indices, over the pixels the observation's
:attr:`~offset6d.refpoint.SceneObservation.visible` selects for the
reference point too: masked pixels with depth above ``DEPTH_EPSILON``,
since the scaled form divides by d_i.  The geometric
products ``d_i d0`` and ``t0 / (d_i d0)`` follow from ``dd`` and the
reference point; :func:`geometric_products` is the one place they are
computed.
"""

from __future__ import annotations

from .record import record
from enum import Enum

import numpy as np

from .errors import MissingPoseError, ModeMismatchError
from .geometry import RigidPose, as_points, inverse_transform_points
from .refpoint import ReferencePoint, SceneObservation


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
        n = len(self)
        _check_shapes(self, us=(n,), vs=(n,), delta_x=(n,), delta_y=(n,), delta_d=(n,),
                      dd0=(n,), t0_over_dd0=(n, 3))
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

    def __post_init__(self):
        n = len(self)
        _check_shapes(self, delta_t=(3,), delta_abc=(n, 3), us=(n,), vs=(n,))

    def __len__(self) -> int:
        return self.delta_abc.shape[0]


def _check_shapes(channels, **shapes: tuple[int, ...]) -> None:
    """Raise ``ValueError`` naming the first field of ``channels`` that is
    not None and not of its shape in ``shapes``."""
    for name, shape in shapes.items():
        value = getattr(channels, name)
        if value is not None and value.shape != shape:
            raise ValueError(f"{name} has shape {value.shape}, expected {shape}")


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
) -> GeoEncoding:
    """Build the per-pixel input channels for one observation.

    GEOMETRIC mode takes ``dd0`` and ``t0_over_dd0`` from
    :func:`geometric_products` of its ``delta_d``.
    """
    rows, cols, pts = obs.visible
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
        us=cols,
        vs=rows,
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
) -> GeoTargets:
    """Build object-frame targets from the ground-truth pose.

    Object coordinates come from inverse-transforming the lifted pixel
    points (and the reference point) with ``obs.gt_pose``; they are exactly
    consistent with the input channels by construction.  The pixel indices
    are ``obs.visible``'s read-only arrays, shared with the encoding.
    """
    if obs.gt_pose is None:
        raise MissingPoseError("target encoding requires a ground-truth pose")
    rows, cols, cam = obs.visible
    pose = obs.gt_pose
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
        us=cols,
        vs=rows,
    )


def camera_side(enc: GeoEncoding) -> tuple[np.ndarray, np.ndarray]:
    """The camera side of the depth-scaled constraint: the rows
    ``[dx, dy, 0]`` (N, 3) and the depth column ``w = dd / (d_i d0)`` (N,)."""
    if enc.mode is not InputMode.GEOMETRIC:
        raise ModeMismatchError(f"depth-scaled constraint requires GEOMETRIC input channels, got {enc.mode}")
    lhs = np.stack([enc.delta_x, enc.delta_y, np.zeros_like(enc.delta_x)], axis=1)
    return lhs, enc.delta_d / enc.dd0


def decode_translation(delta_t: np.ndarray, ref: ReferencePoint) -> np.ndarray:
    """Recover the absolute translation: delta_t + [x0, y0, d0]."""
    return np.asarray(delta_t, dtype=np.float64) + ref.as_array()


def constraint_residuals(enc: GeoEncoding, tgt: GeoTargets, pose: RigidPose) -> dict[ConstraintForm, np.ndarray]:
    """Per-pixel residual of the depth-scaled constraint, (N, 3), in each
    :class:`ConstraintForm`.

    The residual is right-hand side minus left-hand side::

        R * dABC - w * dt - anchor  -  [dx, dy, 0]^T

    with ``w = dd / (d_i d0)``, ``dt = pose.t - t0``, and the anchor term
    ``w * t0`` (CORRECTED) or ``t0 / (d_i d0)`` (AS_PRINTED).  On exactly
    consistent data the CORRECTED residual vanishes, while the AS_PRINTED
    residual equals ``(dd - 1) * t0 / (d_i d0)``.  ``R * dABC - w * dt``, which
    the forms share, is built once, and the AS_PRINTED residual in it.
    """
    if tgt.mode is not TargetMode.RELATIVE_OFFSET:
        raise ModeMismatchError(
            f"constraint residual requires RELATIVE_OFFSET targets, got {tgt.mode}"
        )
    w = camera_side(enc)[1]
    t0 = enc.ref.as_array()
    delta_t = pose.translation - t0
    rhs = tgt.delta_abc @ pose.rotation.T
    corrected = np.empty_like(rhs)
    for j in range(3):  # the products of w[:, None] * delta_t and w[:, None] * t0, a column at a time
        rhs[:, j] -= w * delta_t[j]
        np.subtract(rhs[:, j], w * t0[j], out=corrected[:, j])
    residuals = {ConstraintForm.CORRECTED: corrected,
                 ConstraintForm.AS_PRINTED: np.subtract(rhs, enc.t0_over_dd0, out=rhs)}
    for residual in residuals.values():  # less [dx, dy, 0]: x - 0 is x
        residual[:, 0] -= enc.delta_x
        residual[:, 1] -= enc.delta_y
    return residuals


def constraint_residual(
    enc: GeoEncoding,
    tgt: GeoTargets,
    pose: RigidPose,
    form: ConstraintForm = ConstraintForm.CORRECTED,
) -> np.ndarray:
    """The residual of :func:`constraint_residuals` in ``form``."""
    if not isinstance(form, ConstraintForm):
        raise ValueError(f"unknown constraint form {form!r}")
    return constraint_residuals(enc, tgt, pose)[form]


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
    cam, obj = as_points(cam_points, "cam_points"), as_points(obj_points, "obj_points")
    if cam.shape != obj.shape:
        raise ValueError(f"point counts differ: {cam.shape[0]} vs {obj.shape[0]}")
    cam_ref = np.asarray(cam_ref, dtype=np.float64).reshape(3)
    obj_ref = np.asarray(obj_ref, dtype=np.float64).reshape(3)
    rotation = np.asarray(rotation, dtype=np.float64)
    return (cam - cam_ref) - (obj - obj_ref) @ rotation.T
