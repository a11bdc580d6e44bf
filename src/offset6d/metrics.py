"""Pose-accuracy metrics and the squared-loss decomposition.

Distance metrics (meters, unsquared):

  - ADD:   mean distance between matched model points under the two poses.
  - ADD-S: mean closest-point distance, for objects whose symmetry makes the
    matched pairing ambiguous.  Exact nearest neighbor by a windowed search:
    only the points whose x lies within the matched pair's distance are
    scanned (see :func:`_nearest_squared_distances`).
  - ADD(S): picks ADD-S when the model is flagged symmetric, ADD otherwise.

ADD-S and the model diameter are exact: each pair's squared distance is
``dx*dx + dy*dy + dz*dz``, the same operations in the same order as a
per-pair Python loop, and ``sqrt`` is taken only of the reduced squared
values.  ``sqrt`` is correctly rounded and monotone, so ``sqrt(min(sq)) ==
min(sqrt(sq))`` bit for bit and the results equal the per-pair loop's
exactly.  The diameter scans every pair; ADD-S scans every pair only when
the window would hold more than a quarter of them.

Threshold accuracy counts errors strictly below ``threshold_fraction *
diameter`` (:func:`accuracy_at_threshold`'s argument, 0.1 by default).  AUC
is the exact area under the accuracy-vs-threshold curve up to
``max_threshold`` meters (:func:`auc`'s argument, 0.1 by default), i.e. the
mean of ``max(0, 1 - e / max_threshold)``.

The training-style loss (squared distances) decomposes exactly into

    total = (1/m) sum ||dR p_j||^2  +  (2/m) (dR sum p_j) . dt  +  ||dt||^2

with ``dR``/``dt`` the pose differences; for a centroid-centered model the
cross term vanishes and the split is rotation part + translation part.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import EmptyInputError
from .geometry import RigidPose, as_points, transform_points
from .record import read_only, record

# Rows of ``a`` per block of pairwise squared distances: two (rows, m)
# float64 buffers, 256 KB each at m = 1000.  Against 64 rows, 32 scan a
# 1000-point model 9% faster and a 4000-point one 33% faster, and lose
# 0.05 ms at m = 200.
_CHUNK = 32

# Absolute widening of the ADD-S window: any pair whose rounded x-difference
# squares below the smallest normal double (|dx| < 2**-511) lies within it.
_WINDOW_FLOOR = 2.0**-510


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


def _nearest_squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``min_j |a_i - b_j|^2`` per i, bit-identical to
    ``_reduce_squared_distances(a, b, np.minimum)`` for equal-length ``a``, ``b``.

    The matched pair's squared distance ``ub_i = |a_i - b_i|^2`` bounds query
    i's minimum, so only the ``b_j`` with ``|a_ix - b_jx| <= r_i`` can attain
    it, where ``r_i = sqrt(ub_i)*(1 + 1e-9) + 2**-510``.  With ``b`` sorted by
    x, that window is one ``searchsorted`` range per query; every candidate
    pair is gathered into one flat array and each window reduced with
    ``np.minimum.reduceat``.  When the windows hold more than m^2/4 pairs
    (poses far apart) the all-pairs scan runs instead.

    Why the result equals the scan's, bit for bit (``fl`` is the rounded
    result of an operation):

      - Every term of ``(dx*dx + dy*dy) + dz*dz`` is >= 0 and rounding is
        monotone, so a pair with rounded squared distance <= ub_i has
        ``fl(dx*dx) <= ub_i``.  Then ``|fl(a_x - b_x)| <= sqrt(ub_i)(1 + 2u)``
        if ``dx*dx`` is normal (u = 2**-53), and ``|fl(a_x - b_x)| < 2**-511``
        if it is subnormal or underflows to 0 -- which covers ``ub_i`` 0 or
        subnormal.  Subtraction loses at most a factor (1 + 2u) more, so
        every pair attaining the minimum has ``|a_x - b_x| <= r_i`` exactly;
        the computed ``r_i`` errs by a few u against a margin of 1e-9.
      - ``a_x - r_i <= b_x`` implies ``fl(a_x - r_i) <= b_x`` because ``b_x``
        is a double and rounding is monotone (likewise for ``+``), so the
        rounded window bounds still hold that pair.  Pair i itself always
        qualifies, so no window is empty.
      - Each candidate's value comes from the same float operations in the
        same order as the scan's, and only the minimum value is returned,
        so ties and the order of the candidates do not matter.
    """
    m = a.shape[0]
    (ax, ay, az), (bx, by, bz) = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
    dx, dy, dz = ax - bx, ay - by, az - bz
    bound = (dx * dx + dy * dy) + dz * dz
    radius = np.sqrt(bound) * (1.0 + 1e-9) + _WINDOW_FLOOR
    order = np.argsort(bx, kind="stable")
    sorted_x = bx[order]
    lo = np.searchsorted(sorted_x, ax - radius, side="left")
    counts = np.searchsorted(sorted_x, ax + radius, side="right") - lo
    total = int(counts.sum())
    if total > m * m / 4:
        return _reduce_squared_distances(a, b, np.minimum)
    starts = np.cumsum(counts) - counts
    query = np.repeat(np.arange(m), counts)
    cand = order[np.arange(total) + np.repeat(lo - starts, counts)]
    dx, dy, dz = ax[query] - bx[cand], ay[query] - by[cand], az[query] - bz[cand]
    return np.minimum.reduceat((dx * dx + dy * dy) + dz * dz, starts)


def max_pairwise_distance(points: np.ndarray) -> float:
    """Exhaustive maximum pairwise distance: one ``sqrt`` of the largest
    squared distance, exactly the per-pair loop's maximum."""
    pts = np.asarray(points, dtype=np.float64)
    return math.sqrt(float(_reduce_squared_distances(pts, pts, np.maximum).max(initial=0.0)))


@record
class ObjectModel:
    """Object-frame point set with its symmetry flag.  The (m, 3) ``points``
    are held through :func:`~offset6d.record.read_only`.  The ``diameter``
    attribute is the maximum pairwise distance of ``points``, computed once
    (O(m^2)) at construction; it is not a field and cannot be passed in.
    """

    points: np.ndarray
    symmetric: bool

    def __post_init__(self):
        pts = as_points(read_only(self.points), "points")
        if pts.shape[0] < 2:
            raise ValueError(f"model needs >= 2 points, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("model points must be finite")
        with np.errstate(over="ignore"):  # a diameter past the float range squares to infinity
            diameter = max_pairwise_distance(pts)
        if diameter <= 0:
            raise ValueError("model diameter must be positive (all points coincide?)")
        if diameter == math.inf:
            raise ValueError("model diameter is not finite (coordinates too large?)")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "diameter", diameter)

    @staticmethod
    def from_points(points, symmetric: bool) -> "ObjectModel":
        return ObjectModel(points, symmetric)

    @property
    def point_count(self) -> int:
        return self.points.shape[0]


@record
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
    """Mean closest-point distance (exact nearest neighbor).

    The minimum is taken over squared distances by the windowed search of
    :func:`_nearest_squared_distances` and ``sqrt`` only of the m minima; the
    result is bit-identical to the all-pairs scan and to a per-pair loop
    taking the minimum of ``sqrt(dx*dx + dy*dy + dz*dz)``.  It equals the
    scan because each window always holds a point that attains the minimum,
    also under rounding of its bounds and when the matched pair's squared
    distance is 0 or subnormal; each candidate's value comes from the scan's
    float operations in the scan's order; and only the minimum value is
    returned, so ties do not matter.
    """
    a = transform_points(pred, model.points)
    b = transform_points(gt, model.points)
    return float(np.mean(np.sqrt(_nearest_squared_distances(a, b))))


def add_selective(pred: RigidPose, gt: RigidPose, model: ObjectModel) -> float:
    """ADD-S for symmetric models, ADD otherwise."""
    if model.symmetric:
        return add_s(pred, gt, model)
    return add(pred, gt, model)


def accuracy_at_threshold(errors, model: ObjectModel, threshold_fraction: float = 0.1) -> float:
    """Fraction of errors strictly below ``threshold_fraction * model.diameter``;
    ``threshold_fraction`` must be > 0."""
    if not threshold_fraction > 0:  # NaN included
        raise ValueError(f"threshold_fraction must be positive, got {threshold_fraction!r}")
    e = np.asarray(errors, dtype=np.float64)
    if e.size == 0:
        raise EmptyInputError("no errors to evaluate")
    return float(np.count_nonzero(e < threshold_fraction * model.diameter)) / e.size


def auc(errors, max_threshold: float = 0.1) -> float:
    """Exact area under the accuracy-threshold curve up to ``max_threshold``
    meters (> 0), normalized to [0, 1].

    Equals the mean over errors of ``max(0, 1 - e / max_threshold)``: each
    error contributes the area of the interval where it counts as accurate.
    """
    if not max_threshold > 0:  # NaN included
        raise ValueError(f"max_threshold must be positive, got {max_threshold!r}")
    e = np.asarray(errors, dtype=np.float64)
    if e.size == 0:
        raise EmptyInputError("no errors to evaluate")
    if np.any(e < 0) or not np.all(np.isfinite(e)):
        raise ValueError("errors must be finite and >= 0")
    return float(np.mean(np.clip(1.0 - e / max_threshold, 0.0, None)))


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
    if not (w_rot >= 0 and w_trans >= 0):
        raise ValueError("weights must be >= 0")
    parts = decompose_add_loss(pred, gt, model)
    return w_rot * parts.rotation_part + parts.cross_term + w_trans * parts.translation_part
