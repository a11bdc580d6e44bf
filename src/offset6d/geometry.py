"""Pin-hole camera math and rigid transforms.

Coordinate conventions used everywhere in this package:

Camera frame (right-handed, standard computer vision):
  - origin at the optical center
  - x right, y down, z forward along the optical axis
  - ``d`` is the z-coordinate (the depth-image value), not the ray length

Object frame:
  - attached to the object model; points are ``(a, b, c)`` in meters

Image frame:
  - ``u`` is the pixel column, ``v`` the pixel row, origin at the top-left

A pose ``(R, t)`` maps object-frame points to camera-frame points:
``[x, y, d]^T = R [a, b, c]^T + t``.  All positions are in meters.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidDepthError
from .record import read_only, record

# Orthonormality drift accepted silently / repaired by SVD projection / rejected.
ROTATION_TOLERANCE = 1e-9
ROTATION_REPAIR_LIMIT = 1e-6


@record
class CameraIntrinsics:
    """Pin-hole parameters in pixels: focal lengths and principal point."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        for name in ("fx", "fy", "cx", "cy"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"intrinsics.{name} must be finite, got {value!r}")
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")


def _det3(m: list) -> float:
    """Cofactor determinant of a 3x3 nested list, in plain Python floats
    (no LAPACK call for a sign or a defect)."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def rotation_defect(matrix: np.ndarray) -> float:
    """How far ``matrix`` is from SO(3): max of Frobenius orthonormality
    residual and determinant deviation from +1."""
    m = np.asarray(matrix, dtype=np.float64).tolist()
    cols = list(zip(*m))
    gram = [sum(x * y for x, y in zip(p, q)) - (j == k) for j, p in enumerate(cols) for k, q in enumerate(cols)]
    ortho = math.hypot(*gram)  # Frobenius norm of m^T m - I
    return max(ortho, abs(_det3(m) - 1.0))


def nearest_rotation(matrix: np.ndarray) -> np.ndarray:
    """Project a 3x3 matrix to the nearest rotation (Frobenius sense).

    SVD with a determinant sign fix so the result is proper (det +1),
    never a reflection.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.shape != (3, 3):
        raise ValueError(f"expected 3x3 matrix, got shape {m.shape}")
    return _rotation_and_singular_values(m)[0]


def _rotation_and_singular_values(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The nearest proper rotation to a 3x3 ``m`` and the singular values of
    ``m``, descending, from one SVD."""
    u, s, vt = np.linalg.svd(m)
    r = u @ vt
    if _det3(r.tolist()) < 0:  # Umeyama's sign fix; r is orthogonal, so det is +-1
        r = u @ np.diag([1.0, 1.0, -1.0]) @ vt
    return r, s


def as_points(values, name: str) -> np.ndarray:
    """``values`` as a float64 (N, 3) point list; any other shape raises a
    ``ValueError`` naming the argument ``name``."""
    points = np.asarray(values, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ValueError(f"{name} must be (N, 3), got shape {points.shape}")
    return points


@record
class RigidPose:
    """Rotation matrix and translation vector, object frame -> camera frame,
    each held through :func:`~offset6d.record.read_only`.

    The rotation must be orthonormal with det +1 to within 1e-9 (Frobenius).
    Inputs off by at most 1e-6 are repaired by projection to the nearest
    rotation; anything worse is rejected.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r, t = read_only(self.rotation), read_only(self.translation)
        if t.ndim != 1:
            t = read_only(t.reshape(-1))
        if r.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got shape {r.shape}")
        if t.shape != (3,):
            raise ValueError(f"translation must be a 3-vector, got shape {t.shape}")
        if not np.all(np.isfinite(r)) or not np.all(np.isfinite(t)):
            raise ValueError("pose entries must be finite")
        defect = rotation_defect(r) if np.abs(r).max() <= 2 else math.inf  # far from SO(3); squares could overflow
        if defect > ROTATION_TOLERANCE:
            if defect > ROTATION_REPAIR_LIMIT:
                raise ValueError(
                    f"rotation is not orthonormal (defect {defect:.3e} exceeds "
                    f"repair limit {ROTATION_REPAIR_LIMIT:.0e})"
                )
            r = read_only(nearest_rotation(r))
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "RigidPose":
        return RigidPose(np.eye(3), np.zeros(3))

    @staticmethod
    def from_quaternion(w: float, x: float, y: float, z: float, translation=(0.0, 0.0, 0.0)) -> "RigidPose":
        """Construction helper; the canonical representation stays the matrix."""
        norm = math.sqrt(w * w + x * x + y * y + z * z)
        if norm == 0.0 or not math.isfinite(norm):
            raise ValueError("quaternion must be nonzero and finite")
        w, x, y, z = w / norm, x / norm, y / norm, z / norm
        r = np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
                [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
                [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
            ]
        )
        return RigidPose(r, np.asarray(translation, dtype=np.float64))

    @staticmethod
    def from_axis_angle(axis, angle: float, translation=(0.0, 0.0, 0.0)) -> "RigidPose":
        axis = np.asarray(axis, dtype=np.float64)
        n = np.linalg.norm(axis)
        if n == 0.0:
            raise ValueError("rotation axis must be nonzero")
        half = 0.5 * angle
        w = math.cos(half)
        xyz = axis / n * math.sin(half)
        return RigidPose.from_quaternion(w, *xyz, translation=translation)


def backproject_pixels(us, vs, ds, k: CameraIntrinsics) -> np.ndarray:
    """Lift pixels ``(u, v)`` with depths ``d`` to the camera frame: an (N, 3)
    array of ``x = (u - cx) / fx * d``, ``y = (v - cy) / fy * d``, ``z = d``.
    """
    ds = np.asarray(ds, dtype=np.float64)
    if not (np.all(np.isfinite(ds)) and np.all(ds > 0)):
        raise InvalidDepthError("all depths must be positive and finite")
    points = np.empty(np.broadcast(us, vs, ds).shape + (3,))
    for axis, (pixel, c, f) in enumerate(((us, k.cx, k.fx), (vs, k.cy, k.fy))):
        coordinate = np.subtract(pixel, c, out=points[..., axis], dtype=np.float64)  # in the result, no temporaries
        coordinate /= f
        coordinate *= ds
    points[..., 2] = ds
    return points


def transform_points(pose: RigidPose, points: np.ndarray) -> np.ndarray:
    """Map (N, 3) object-frame points into the camera frame: ``R p + t``."""
    pts = np.asarray(points, dtype=np.float64)
    return pts @ pose.rotation.T + pose.translation


def inverse_transform_points(pose: RigidPose, points: np.ndarray) -> np.ndarray:
    """Map (N, 3) camera-frame points back to the object frame: ``R^T (q - t)``."""
    pts = np.asarray(points, dtype=np.float64)
    return (pts - pose.translation) @ pose.rotation
