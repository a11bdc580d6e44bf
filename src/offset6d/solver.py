"""Closed-form pose recovery.

Two independent routes are provided so each can check the other:

  - :func:`solve_procrustes`: classical SVD least-squares rigid alignment of
    paired camera/object point sets.
  - :func:`solve_from_constraints`: direct linear solve of the depth-scaled
    offset constraints.  Each pixel contributes three equations that are
    linear in the nine rotation entries and the three components of
    ``dt = t - t0``; the equations for the three rows of R decouple, so the
    stacked 12-unknown system reduces to one (N, 4) design matrix shared by
    three right-hand sides.

Both project the raw rotation block to SO(3) (SVD, determinant sign fix) and
report the pre-projection block alongside the final pose.
"""

from __future__ import annotations

from .record import record
from enum import Enum

import numpy as np

from .encoding import GeoEncoding, InputMode, decode_translation
from .errors import DegenerateConfigurationError, ModeMismatchError
from .geometry import RigidPose, nearest_rotation
from .refpoint import ReferencePoint

# Relative singular-value floor below which a configuration is declared
# degenerate (applied to the covariance / normal matrix of each solve).
RANK_RATIO_THRESHOLD = 1e-10

MIN_PROCRUSTES_POINTS = 3
MIN_CONSTRAINT_PIXELS = 6


class ConditionFlag(Enum):
    WELL_POSED = "well-posed"
    DEGENERATE = "degenerate"


@record
class SolveReport:
    """Solver output: pose, the raw least-squares rotation block before the
    SO(3) projection, the post-projection RMS residual in meters, the number
    of points used, and the conditioning verdict."""

    pose: RigidPose
    pre_projection_rotation: np.ndarray
    residual_rms: float
    point_count: int
    condition_flag: ConditionFlag

    def __post_init__(self):
        if self.residual_rms < 0:
            raise ValueError("residual_rms must be >= 0")


def _as_points(arr, name: str) -> np.ndarray:
    pts = np.asarray(arr, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"{name} must be (N, 3), got shape {pts.shape}")
    return pts


def solve_procrustes(cam_points, obj_points) -> SolveReport:
    """Least-squares rigid transform mapping object points onto camera points.

    Minimizes ``sum_j || R o_j + t - c_j ||^2`` via SVD of the centered
    cross-covariance, with the determinant sign fixed so R is a proper
    rotation.  Needs >= 3 point pairs spanning more than a line; collinear
    or duplicate configurations leave the rotation undetermined and raise
    :class:`DegenerateConfigurationError`.
    """
    cam = _as_points(cam_points, "cam_points")
    obj = _as_points(obj_points, "obj_points")
    if cam.shape != obj.shape:
        raise ValueError(f"point counts differ: {cam.shape[0]} vs {obj.shape[0]}")
    n = cam.shape[0]
    if n < MIN_PROCRUSTES_POINTS:
        raise DegenerateConfigurationError(f"need >= {MIN_PROCRUSTES_POINTS} point pairs, got {n}")

    cam_centroid = cam.mean(axis=0)
    obj_centroid = obj.mean(axis=0)
    cam_c = cam - cam_centroid
    obj_c = obj - obj_centroid

    h = cam_c.T @ obj_c
    u, s, vt = np.linalg.svd(h)
    # Rotation is determined iff the covariance has rank >= 2.
    if s[0] <= 0 or s[1] / s[0] < RANK_RATIO_THRESHOLD:
        raise DegenerateConfigurationError(
            "points are collinear or coincident; rotation is not determined"
        )
    d = np.sign(np.linalg.det(u @ vt))
    rotation = u @ np.diag([1.0, 1.0, d]) @ vt
    translation = cam_centroid - rotation @ obj_centroid

    # Unconstrained linear fit (before any orthogonality), for the report.
    gram = obj_c.T @ obj_c
    raw = h @ np.linalg.pinv(gram)

    residual = obj @ rotation.T + translation - cam
    rms = float(np.sqrt(np.mean(np.sum(residual**2, axis=1))))
    return SolveReport(
        pose=RigidPose(rotation, translation),
        pre_projection_rotation=raw,
        residual_rms=rms,
        point_count=n,
        condition_flag=ConditionFlag.WELL_POSED,
    )


def _reconstruct_camera_points(enc: GeoEncoding) -> np.ndarray:
    """Lifted pixel points recovered from the channels alone (no intrinsics)."""
    d0 = enc.ref.d0
    d = enc.delta_d + d0
    x = d * (enc.delta_x + enc.ref.x0 / d0)
    y = d * (enc.delta_y + enc.ref.y0 / d0)
    return np.stack([x, y, d], axis=1)


def _object_points(
    cam: np.ndarray, delta_abc: np.ndarray, ref: ReferencePoint, pose: RigidPose
) -> np.ndarray:
    """Surface points in the object frame: the targets anchored at the
    reference point's object-frame image under ``pose``, scaled by depth."""
    obj0 = pose.rotation.T @ (ref.as_array() - pose.translation)
    return (delta_abc + obj0[None, :] / ref.d0) * cam[:, 2:3]


def _constraint_rms(
    cam: np.ndarray, delta_abc: np.ndarray, ref: ReferencePoint, pose: RigidPose
) -> float:
    """Meters-level RMS: reconstruct each surface point in both frames under
    the recovered pose and measure the 3D mismatch."""
    obj = _object_points(cam, delta_abc, ref, pose)
    residual = obj @ pose.rotation.T + pose.translation - cam
    return float(np.sqrt(np.mean(np.sum(residual**2, axis=1))))


def solve_from_constraints(
    enc: GeoEncoding,
    delta_abc: np.ndarray,
    refine_iterations: int = 0,
) -> SolveReport:
    """Recover (R, t) from geometric input channels plus object-frame targets.

    ``delta_abc`` must hold relative offsets (``a/d - a0/d0`` rows), e.g.
    straight from target encoding or a regressor's output, anchored at the
    encoding's own reference point ``enc.ref``.  Each pixel gives
    three equations linear in the nine R entries and ``dt = t - t0``; the
    three R rows decouple onto one shared (N, 4) design matrix
    ``[dABC | -dd/(d d0)]``.

    That matrix is *structurally* rank 3 on consistent data: dividing the
    third row of the pose transform by depth yields the identity
    ``R_row3 . dABC_i = (dd_i/(d_i d0)) t_z``, so ``[R_row3; t_z]`` spans
    its null space.  The pose is still unique because only one member of the
    least-squares solution family is a proper rotation.  The solver uses
    exactly that: the smallest right singular vector recovers
    ``[R_row3; t_z]`` up to scale and sign, scale comes from ``|R_row3| = 1``,
    the per-row family parameters from ``R_row_m . R_row3 = delta_{m3}``, and
    the sign ambiguity is settled by comparing the reconstruction residuals
    of the two candidates.  The raw R block is then projected to SO(3).

    Degeneracy is judged on the three informative directions: when the
    third-largest singular value collapses (all pixels at one depth kill the
    dt column and flatten dABC into a plane), the pose is not recoverable
    and :class:`DegenerateConfigurationError` is raised.  Non-finite input
    (a NaN regressor output, say) has no solution and raises the same error.

    ``refine_iterations`` optionally polishes the result by alternating
    point reconstruction with a rigid re-fit; off by default.
    """
    if enc.mode is not InputMode.GEOMETRIC:
        raise ModeMismatchError(f"solver requires GEOMETRIC input channels, got {enc.mode}")
    delta_abc = _as_points(delta_abc, "delta_abc")
    n = len(enc)
    if delta_abc.shape[0] != n:
        raise ValueError(f"delta_abc rows ({delta_abc.shape[0]}) != pixel count ({n})")
    if n < MIN_CONSTRAINT_PIXELS:
        raise DegenerateConfigurationError(
            f"need >= {MIN_CONSTRAINT_PIXELS} pixels, got {n}"
        )

    ref = enc.ref
    w = enc.delta_d / enc.dd0
    # Row m of R and dt[m] satisfy, per pixel:
    #   dABC_i . R_row_m - w_i dt_m = lhs_im + w_i t0_m
    design = np.hstack([delta_abc, -w[:, None]])
    t0 = ref.as_array()
    lhs = np.stack([enc.delta_x, enc.delta_y, np.zeros(n)], axis=1)
    rhs = lhs + w[:, None] * t0[None, :]
    if not (np.all(np.isfinite(design)) and np.all(np.isfinite(rhs))):
        raise DegenerateConfigurationError("constraint system has non-finite entries (NaN or inf input)")

    u, s, vt = np.linalg.svd(design, full_matrices=False)
    if s[0] <= 0 or (s[2] / s[0]) ** 2 < RANK_RATIO_THRESHOLD:
        raise DegenerateConfigurationError(
            "constraint system is rank deficient (e.g. no depth variation)"
        )
    null_vec = vt[3]
    null_r = null_vec[:3]
    if np.linalg.norm(null_r) < 1e-9:
        raise DegenerateConfigurationError(
            "null direction carries no rotation content; system is degenerate"
        )

    # Rank-3 minimum-norm solution; columns are (R_row_m, dt_m).
    solution = vt[:3].T @ ((u[:, :3].T @ rhs) / s[:3, None])
    rows_star = solution[:3, :].T
    dt_star = solution[3, :]

    cam = _reconstruct_camera_points(enc)
    best = None
    e3 = np.array([0.0, 0.0, 1.0])
    for sign in (1.0, -1.0):
        row3 = sign * null_r / np.linalg.norm(null_r)
        lam = (e3 - rows_star @ row3) / (null_r @ row3)
        raw_rotation = rows_star + lam[:, None] * null_r[None, :]
        delta_t = dt_star + lam * null_vec[3]
        pose = RigidPose(nearest_rotation(raw_rotation), decode_translation(delta_t, ref))
        rms = _constraint_rms(cam, delta_abc, ref, pose)
        if best is None or rms < best[0]:
            best = (rms, pose, raw_rotation)
    rms, pose, raw_rotation = best

    for _ in range(refine_iterations):
        pose = solve_procrustes(cam, _object_points(cam, delta_abc, ref, pose)).pose
        rms = _constraint_rms(cam, delta_abc, ref, pose)

    return SolveReport(
        pose=pose,
        pre_projection_rotation=raw_rotation,
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
