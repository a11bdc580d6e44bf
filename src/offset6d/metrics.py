"""Pose-accuracy metrics and the squared-loss decomposition.

Distance metrics (meters, unsquared):

  - ADD:   mean distance between matched model points under the two poses.
  - ADD-S: mean closest-point distance, for objects whose symmetry makes the
    matched pairing ambiguous.  Exhaustive O(m^2) nearest neighbor.
  - ADD(S): picks ADD-S when the model is flagged symmetric, ADD otherwise.

ADD-S and the model diameter are exhaustive over point pairs and exact: each
pair's squared distance is ``dx*dx + dy*dy + dz*dz``, the same operations in
the same order as a per-pair Python loop, and ``sqrt`` is taken only of the
reduced squared values.  ``sqrt`` is correctly rounded and monotone, so
``sqrt(min(sq)) == min(sqrt(sq))`` bit for bit and the results equal the
per-pair loop's exactly.

Threshold accuracy counts errors strictly below ``threshold_fraction *
diameter``.  AUC is the exact area under the accuracy-vs-threshold curve up
to ``auc_max_threshold``, i.e. the mean of ``max(0, 1 - e / M)``.

The training-style loss (squared distances) decomposes exactly into

    total = (1/m) sum ||dR p_j||^2  +  (2/m) (dR sum p_j) . dt  +  ||dt||^2

with ``dR``/``dt`` the pose differences; for a centroid-centered model the
cross term vanishes and the split is rotation part + translation part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInputError
from .geometry import RigidPose, transform_points

DIAMETER_TOLERANCE = 1e-9

# Rows of ``a`` per block of pairwise squared distances: two (rows, m)
# float64 buffers, small enough to stay in cache at m ~ 1000.
_CHUNK = 64


def _reduce_squared_distances(a: np.ndarray, b: np.ndarray, reduce: np.ufunc) -> np.ndarray:
    """``reduce`` (np.minimum or np.maximum) over j of ``|a_i - b_j|^2``, per i.

    Squared distances are built per component in row blocks of ``_CHUNK``,
    as ``(dx*dx + dy*dy) + dz*dz`` -- bit-identical to a per-pair loop.
    """
    (ax, ay, az), (bx, by, bz) = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
    out = np.empty(a.shape[0])
    total = np.empty((min(_CHUNK, a.shape[0]), b.shape[0]))
    term = np.empty_like(total)
    for start in range(0, a.shape[0], _CHUNK):
        stop = min(start + _CHUNK, a.shape[0])
        acc, tmp = total[: stop - start], term[: stop - start]
        np.subtract(ax[start:stop, None], bx, out=acc)
        np.multiply(acc, acc, out=acc)
        for ac, bc in ((ay, by), (az, bz)):
            np.subtract(ac[start:stop, None], bc, out=tmp)
            np.multiply(tmp, tmp, out=tmp)
            np.add(acc, tmp, out=acc)
        reduce.reduce(acc, axis=1, out=out[start:stop])
    return out


def max_pairwise_distance(points: np.ndarray) -> float:
    """Exhaustive maximum pairwise distance: one ``sqrt`` of the largest
    squared distance, exactly the per-pair loop's maximum."""
    pts = np.asarray(points, dtype=np.float64)
    return math.sqrt(float(_reduce_squared_distances(pts, pts, np.maximum).max(initial=0.0)))


@dataclass(frozen=True)
class ObjectModel:
    """Object-frame point set with its diameter and symmetry flag.

    A declared ``diameter`` must equal the true maximum pairwise distance of
    ``points`` (within 1e-9); ``None`` takes the computed one, which is what
    :meth:`from_points` passes.  Either way the O(m^2) diameter is computed
    once.
    """

    points: np.ndarray
    diameter: float | None
    symmetric: bool

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 2:
            raise ValueError(f"model needs >= 2 points of dim 3, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("model points must be finite")
        true_diameter = max_pairwise_distance(pts)
        if true_diameter <= 0:
            raise ValueError("model diameter must be positive (all points coincide?)")
        if self.diameter is None:
            object.__setattr__(self, "diameter", true_diameter)
        elif not abs(self.diameter - true_diameter) <= DIAMETER_TOLERANCE:
            raise ValueError(
                f"declared diameter {self.diameter} != max pairwise distance {true_diameter}"
            )
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @staticmethod
    def from_points(points, symmetric: bool) -> "ObjectModel":
        return ObjectModel(points, None, symmetric)

    @property
    def point_count(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class MetricConfig:
    """Evaluation knobs: AUC threshold cap (meters) and the diameter fraction
    used for threshold accuracy."""

    auc_max_threshold: float = 0.1
    threshold_fraction: float = 0.1

    def __post_init__(self):
        if self.auc_max_threshold <= 0 or self.threshold_fraction <= 0:
            raise ValueError("metric config values must be positive")


@dataclass(frozen=True)
class LossDecomposition:
    """Split of the squared loss; ``total`` is the exact sum of the parts."""

    total: float
    rotation_part: float
    translation_part: float
    cross_term: float


def add(pred: RigidPose, gt: RigidPose, model: ObjectModel) -> float:
    """Mean matched-point distance between the two transformed models."""
    a = transform_points(pred, model.points)
    b = transform_points(gt, model.points)
    return float(np.mean(np.linalg.norm(a - b, axis=1)))


def add_s(pred: RigidPose, gt: RigidPose, model: ObjectModel) -> float:
    """Mean closest-point distance (exhaustive nearest neighbor).

    The minimum is taken over squared distances and ``sqrt`` only of the m
    minima; the result is bit-identical to a per-pair loop taking the
    minimum of ``sqrt(dx*dx + dy*dy + dz*dz)``.
    """
    a = transform_points(pred, model.points)
    b = transform_points(gt, model.points)
    return float(np.mean(np.sqrt(_reduce_squared_distances(a, b, np.minimum))))


def add_selective(pred: RigidPose, gt: RigidPose, model: ObjectModel) -> float:
    """ADD-S for symmetric models, ADD otherwise."""
    if model.symmetric:
        return add_s(pred, gt, model)
    return add(pred, gt, model)


def accuracy_at_threshold(errors, model: ObjectModel, cfg: MetricConfig = MetricConfig()) -> float:
    """Fraction of errors strictly below ``threshold_fraction * diameter``."""
    e = np.asarray(errors, dtype=np.float64)
    if e.size == 0:
        raise EmptyInputError("no errors to evaluate")
    threshold = cfg.threshold_fraction * model.diameter
    return float(np.count_nonzero(e < threshold)) / e.size


def auc(errors, cfg: MetricConfig = MetricConfig()) -> float:
    """Exact area under the accuracy-threshold curve, normalized to [0, 1].

    Equals the mean over errors of ``max(0, 1 - e / M)`` with M the cap:
    each error contributes the area of the interval where it counts as
    accurate.
    """
    e = np.asarray(errors, dtype=np.float64)
    if e.size == 0:
        raise EmptyInputError("no errors to evaluate")
    if np.any(e < 0) or not np.all(np.isfinite(e)):
        raise ValueError("errors must be finite and >= 0")
    return float(np.mean(np.clip(1.0 - e / cfg.auc_max_threshold, 0.0, None)))


def add_loss(pred: RigidPose, gt: RigidPose, model: ObjectModel) -> float:
    """Mean *squared* matched-point distance (the training loss, meters^2)."""
    a = transform_points(pred, model.points)
    b = transform_points(gt, model.points)
    return float(np.mean(np.sum((a - b) ** 2, axis=1)))


def decompose_add_loss(pred: RigidPose, gt: RigidPose, model: ObjectModel) -> LossDecomposition:
    """Exact rotation / cross / translation split of the squared loss."""
    d_rot = pred.rotation - gt.rotation
    d_t = pred.translation - gt.translation
    m = model.point_count
    rotated = model.points @ d_rot.T
    rotation_part = float(np.sum(rotated**2) / m)
    point_sum = np.array([math.fsum(model.points[:, i].tolist()) for i in range(3)])
    cross_term = float(2.0 / m * np.dot(d_rot @ point_sum, d_t))
    translation_part = float(np.dot(d_t, d_t))
    return LossDecomposition(
        total=rotation_part + cross_term + translation_part,
        rotation_part=rotation_part,
        translation_part=translation_part,
        cross_term=cross_term,
    )


def weighted_add_loss(
    pred: RigidPose,
    gt: RigidPose,
    model: ObjectModel,
    w_rot: float,
    w_trans: float,
) -> float:
    """Reweighted split: ``w_rot * rotation + cross + w_trans * translation``."""
    if w_rot < 0 or w_trans < 0:
        raise ValueError("weights must be >= 0")
    parts = decompose_add_loss(pred, gt, model)
    return w_rot * parts.rotation_part + parts.cross_term + w_trans * parts.translation_part
