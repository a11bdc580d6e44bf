"""Closed-form pose recovery.

Two independent routes are provided so each can check the other:

  - :func:`solve_procrustes`: classical SVD least-squares rigid alignment of
    paired camera/object point sets.
  - :func:`solve_from_constraints`: the depth-scaled offset constraints
    solved in closed form.  Projecting the depth column ``w`` out of both
    sides leaves a pure rotation problem, one 3x3 Procrustes fit; the
    translation then follows by least squares given R.

Both take their rotation from one SVD of a 3x3 cross-covariance, with the
determinant sign fix of :func:`offset6d.geometry.nearest_rotation`; the same
singular values decide whether the rotation is determined.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .encoding import GeoEncoding, camera_side
from .errors import DegenerateConfigurationError
from .geometry import RigidPose, _rotation_and_singular_values, as_points
from .record import record
from .refpoint import ReferencePoint

# Relative singular-value floor below which a configuration is declared
# degenerate (s2 / s1 of the cross-covariance of each rotation fit).
RANK_RATIO_THRESHOLD = 1e-10

MIN_PROCRUSTES_POINTS = 3
MIN_CONSTRAINT_PIXELS = 6


class ConditionFlag(Enum):
    WELL_POSED = "well-posed"
    DEGENERATE = "degenerate"


@record
class SolveReport:
    """Solver output: pose, the RMS residual in meters, the number of points
    used, and the conditioning verdict."""

    pose: RigidPose
    residual_rms: float
    point_count: int
    condition_flag: ConditionFlag

    def __post_init__(self):
        if not (math.isfinite(self.residual_rms) and self.residual_rms >= 0):
            raise ValueError(f"residual_rms must be a finite number >= 0, got {self.residual_rms!r}")
        if self.point_count < 0:
            raise ValueError(f"point_count must be >= 0, got {self.point_count!r}")


def _fit_rotation(h: np.ndarray, degenerate: str) -> np.ndarray:
    """The rotation R maximizing ``trace(R^T h)`` for a 3x3 cross-covariance
    ``h``; it is determined iff ``h`` has rank >= 2."""
    rotation, s = _rotation_and_singular_values(h)
    if s[0] <= 0 or s[1] / s[0] < RANK_RATIO_THRESHOLD:
        raise DegenerateConfigurationError(degenerate)
    return rotation


def solve_procrustes(cam_points, obj_points) -> SolveReport:
    """Least-squares rigid transform mapping object points onto camera points.

    Minimizes ``sum_j || R o_j + t - c_j ||^2`` via SVD of the centered
    cross-covariance, with the determinant sign fixed so R is a proper
    rotation.  Needs >= 3 point pairs spanning more than a line; collinear
    or duplicate configurations leave the rotation undetermined and raise
    :class:`DegenerateConfigurationError`.
    """
    cam = as_points(cam_points, "cam_points")
    obj = as_points(obj_points, "obj_points")
    if cam.shape != obj.shape:
        raise ValueError(f"point counts differ: {cam.shape[0]} vs {obj.shape[0]}")
    n = cam.shape[0]
    if n < MIN_PROCRUSTES_POINTS:
        raise DegenerateConfigurationError(f"need >= {MIN_PROCRUSTES_POINTS} point pairs, got {n}")

    cam_centroid = cam.mean(axis=0)
    obj_centroid = obj.mean(axis=0)
    cam_c = cam - cam_centroid
    obj_c = obj - obj_centroid

    rotation = _fit_rotation(
        cam_c.T @ obj_c, "points are collinear or coincident; rotation is not determined"
    )
    translation = cam_centroid - rotation @ obj_centroid

    residual = obj @ rotation.T + translation - cam
    rms = float(np.sqrt(np.mean(np.sum(residual**2, axis=1))))
    return SolveReport(
        pose=RigidPose(rotation, translation),
        residual_rms=rms,
        point_count=n,
        condition_flag=ConditionFlag.WELL_POSED,
    )


def _reconstruct_camera_points(enc: GeoEncoding) -> np.ndarray:
    """Lifted pixel points recovered from the channels alone (no intrinsics):
    ``d = dd + d0`` and ``x = d * (dx + x0 / d0)``, ``y`` likewise, built in
    the (N, 3) result."""
    d0 = enc.ref.d0
    cam = np.empty((len(enc), 3))
    d = np.add(enc.delta_d, d0, out=cam[:, 2])
    for axis, (delta, anchor) in enumerate(((enc.delta_x, enc.ref.x0), (enc.delta_y, enc.ref.y0))):
        np.add(delta, anchor / d0, out=cam[:, axis])
        cam[:, axis] *= d
    return cam


def _object_points(
    cam: np.ndarray, delta_abc: np.ndarray, ref: ReferencePoint, pose: RigidPose
) -> np.ndarray:
    """Surface points in the object frame: the targets anchored at the
    reference point's object-frame image under ``pose``, scaled by depth."""
    obj0 = pose.rotation.T @ (ref.as_array() - pose.translation)
    obj = np.add(delta_abc, obj0[None, :] / ref.d0)
    obj *= cam[:, 2:3]
    return obj


def _constraint_rms(
    cam: np.ndarray, delta_abc: np.ndarray, ref: ReferencePoint, pose: RigidPose
) -> float:
    """Meters-level RMS: reconstruct each surface point in both frames under
    the recovered pose and measure the 3D mismatch."""
    residual = _object_points(cam, delta_abc, ref, pose) @ pose.rotation.T
    residual += pose.translation
    residual -= cam
    return float(np.sqrt(np.mean(np.sum(np.square(residual, out=residual), axis=1))))


def _without(x: np.ndarray, w: np.ndarray, ww: float) -> np.ndarray:
    """``x - w (w^T x) / ww``: the (N, 3) ``x`` with the ``w`` direction
    projected out, built in one array."""
    projected = np.outer(w, w @ x)
    projected /= ww
    return np.subtract(x, projected, out=projected)


def solve_from_constraints(
    enc: GeoEncoding,
    delta_abc: np.ndarray,
    refine_iterations: int = 0,
) -> SolveReport:
    """Recover (R, t) from geometric input channels plus object-frame targets.

    ``delta_abc`` must hold relative offsets (``a/d - a0/d0`` rows), e.g.
    straight from target encoding or a regressor's output, anchored at the
    encoding's own reference point ``enc.ref``.  Each pixel satisfies
    ``R dABC_i = l_i + w_i t`` with the exact camera-side values
    ``l_i = [dx_i, dy_i, 0]`` and ``w_i = dd_i / (d_i d0)``.  In the object
    frame the rows read ``P = L R + w s^T`` with ``s = R^T t``, so removing
    the ``w`` direction from both sides leaves ``P' = L' R``: R is the
    orthogonal Procrustes fit of ``L'^T P'`` (Schönemann 1966), and ``s``
    the least-squares fit of ``P - L R`` along ``w``.  The noise of a
    regressor's ``dABC`` stays on one side of every fit.

    When every pixel sits at the reference depth (``w = 0``) translation is
    not observable.  When ``L'^T P'`` has rank below 2 rotation is not:
    visible points in one plane ``n . p = k`` that holds the reference point
    satisfy ``n_x dx + n_y dy + k w = 0``.  Two views meet this: one planar
    face under a reference on its plane (a box face under mean-visible), and
    pixels of one image row, whose plane passes through the camera centre
    (a small sphere seen in a single row).  An unobservable translation or
    rotation raises :class:`DegenerateConfigurationError`, as does
    non-finite input (a NaN regressor output, say).

    The result is already the least-squares optimum of the constraint cost
    ``J = |P - L R - w s^T|^2`` (``TestLeastSquaresOptimum``).
    ``refine_iterations`` (off by default) re-fits reconstructed 3D points,
    which minimises another cost: two iterations raised ``J`` in all 180
    cases checked and failed the rotation check in 525 of 1,800.
    """
    lhs, w = camera_side(enc)
    delta_abc = as_points(delta_abc, "delta_abc")
    n = len(enc)
    if delta_abc.shape[0] != n:
        raise ValueError(f"delta_abc rows ({delta_abc.shape[0]}) != pixel count ({n})")
    if n < MIN_CONSTRAINT_PIXELS:
        raise DegenerateConfigurationError(f"need >= {MIN_CONSTRAINT_PIXELS} pixels, got {n}")

    if not all(np.all(np.isfinite(a)) for a in (delta_abc, lhs, w)):
        raise DegenerateConfigurationError("constraint system has non-finite entries (NaN or inf input)")
    ww = float(w @ w)
    if not ww > 0:
        raise DegenerateConfigurationError(
            "every pixel is at the reference depth; translation is not observable"
        )

    h = _without(lhs, w, ww).T @ _without(delta_abc, w, ww)
    rotation = _fit_rotation(h, "constraint system is rank deficient; rotation is not determined")
    pose = RigidPose(rotation, rotation @ ((delta_abc - lhs @ rotation).T @ w / ww))
    del lhs, w  # freed before the (N, 3) arrays of the RMS
    cam = _reconstruct_camera_points(enc)
    rms = _constraint_rms(cam, delta_abc, enc.ref, pose)

    for _ in range(refine_iterations):
        pose = solve_procrustes(cam, _object_points(cam, delta_abc, enc.ref, pose)).pose
        rms = _constraint_rms(cam, delta_abc, enc.ref, pose)

    return SolveReport(
        pose=pose,
        residual_rms=rms,
        point_count=n,
        condition_flag=ConditionFlag.WELL_POSED,
    )


def rotation_geodesic_error(a: RigidPose, b: RigidPose) -> float:
    """Geodesic distance on SO(3) between the two rotations, in radians.

    Mathematically ``arccos((trace(Ra Rb^T) - 1) / 2)``.  For angles below
    pi/2 the equivalent ``2 asin(|Ra - Rb|_F / (2 sqrt(2)))`` is evaluated
    instead: arccos loses half the float digits near 1, which would floor
    every small-angle comparison at ~1e-8 rad.
    """
    cos = (np.trace(a.rotation @ b.rotation.T) - 1.0) / 2.0
    if cos >= 0.0:
        half_chord = np.linalg.norm(a.rotation - b.rotation) / (2.0 * np.sqrt(2.0))
        return float(2.0 * np.arcsin(np.clip(half_chord, 0.0, 1.0)))
    return float(np.arccos(np.clip(cos, -1.0, 1.0)))
