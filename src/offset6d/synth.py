"""Deterministic synthetic depth scenes.

A scene is fully determined by a :class:`~offset6d.spec.SceneSpec` plus a
scene index: the per-scene RNG is a counter-based Philox stream keyed by the
spec seed with the scene index in the counter, so datasets are reproducible
point-for-point and scenes can be generated in any order or in parallel.

Rendering: for the analytic primitives (box, cylinder, sphere) every pixel
ray is intersected with the exact surface and the nearest hit wins, so each
masked depth pixel backprojects to a point that lies *on* the object surface
(up to float rounding, and up to the truncated depth noise when enabled).
Each primitive's sampler, extreme pairs and ray cast, and each translation
volume's draw, are methods of its class in :mod:`offset6d.spec`.
Point-set models loaded from file have no analytic surface and fall back to
point splatting with a per-pixel z-buffer.

Depth noise is Gaussian truncated at +-3 sigma; dropout zeroes the depth of
a masked pixel (the mask keeps claiming the object, mimicking a sensor hole).

:func:`distribution_report` reduces each scene's ground-truth translation and
its offset from a reference point to the translation-spread table.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from . import formats
from .errors import EmptyInputError, EmptyObjectError, Offset6DError
from .geometry import RigidPose
from .metrics import ObjectModel
from .record import record
from .refpoint import SceneObservation
from .spec import FileModel, ModelKind, SceneSpec

# Counter-space layout: scene i draws from counter i << 128, the model from
# a reserved block that no scene index can reach.
_MODEL_COUNTER = 1 << 192
_PERTURB_COUNTER = 1 << 193
# Rays cast at once when rendering a primitive: a scene's ray-cast
# temporaries stay this size, whatever the object's pixel footprint.
_BAND_RAYS = 4096


@record
class SyntheticScene:
    observation: SceneObservation
    model: ObjectModel


def _stream(seed: int, counter: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


def scene_rng(spec: SceneSpec, index: int) -> np.random.Generator:
    if index < 0:
        raise ValueError("scene index must be >= 0")
    return _stream(spec.seed, index << 128)


def model_rng(spec: SceneSpec) -> np.random.Generator:
    return _stream(spec.seed, _MODEL_COUNTER)


def perturbation_rng(seed: int, index: int) -> np.random.Generator:
    """Stream for optional target noise, separate from scene generation."""
    return _stream(seed, _PERTURB_COUNTER + (index << 128))


def sample_rotation_uniform(rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform rotation matrix via a normalized Gaussian quaternion."""
    while True:
        q = rng.normal(size=4)
        norm = np.linalg.norm(q)
        if norm > 1e-8:
            break
    w, x, y, z = q / norm
    return RigidPose.from_quaternion(w, x, y, z).rotation


def make_model(kind: ModelKind, surface_sample_count: int, rng: np.random.Generator) -> ObjectModel:
    """Sample a point model on the primitive surface.

    Random samples are drawn in antipodal pairs (every primitive here is
    centrally symmetric), and a few deterministic extreme pairs are always
    included.  Consequences: the point centroid is exactly zero, every point
    norm is at most half the diameter, and the sampled diameter equals the
    analytic one.  The returned count is the requested one rounded up to
    preserve pairing.
    """
    if isinstance(kind, FileModel):
        points, file_symmetric = formats.read_ply(kind.path)
        symmetric = kind.symmetric if file_symmetric is None else file_symmetric
        # Two-pass re-centering: the residual mean after the second pass is
        # far below float resolution at these scales.  A sum past the float
        # range leaves points the model refuses as not finite.
        with np.errstate(over="ignore", invalid="ignore"):
            points = points - points.mean(axis=0)
            points = points - points.mean(axis=0)
        return formats._built(kind.path, ObjectModel.from_points, points, symmetric)  # a refusal names the PLY

    extremes = kind.extreme_pairs()
    n_random = max(0, surface_sample_count - extremes.shape[0])
    n_pairs = (n_random + 1) // 2
    half = kind.sample_surface(rng, n_pairs)
    paired = np.empty((2 * n_pairs, 3))
    paired[0::2] = half
    paired[1::2] = -half
    points = np.vstack([extremes, paired])
    return ObjectModel.from_points(points, kind.symmetric)


def model_for_spec(spec: SceneSpec) -> ObjectModel:
    """The dataset's model; identical for every scene of the spec."""
    return make_model(spec.model_kind, spec.surface_sample_count, model_rng(spec))


def _pixel_bbox(spec: SceneSpec, t: np.ndarray, r_bound: float):
    """Conservative pixel range covering the object's bounding sphere."""
    k = spec.intrinsics
    width, height = spec.image_size
    z_near, z_far = t[2] - r_bound, t[2] + r_bound
    u_candidates = [
        k.fx * (t[0] + sx * r_bound) / z + k.cx
        for sx in (-1, 1)
        for z in (z_near, z_far)
    ]
    v_candidates = [
        k.fy * (t[1] + sy * r_bound) / z + k.cy
        for sy in (-1, 1)
        for z in (z_near, z_far)
    ]
    u0 = max(0, int(math.floor(min(u_candidates))) - 1)
    u1 = min(width - 1, int(math.ceil(max(u_candidates))) + 1)
    v0 = max(0, int(math.floor(min(v_candidates))) - 1)
    v1 = min(height - 1, int(math.ceil(max(v_candidates))) + 1)
    return u0, u1, v0, v1


def _render_depth(spec: SceneSpec, pose: RigidPose, model: ObjectModel) -> np.ndarray:
    width, height = spec.image_size
    k = spec.intrinsics
    # The surface's bounding ball: a primitive's points hold its extreme pairs, which lie on it.
    r_bound = float(np.max(np.linalg.norm(model.points, axis=1)))
    t = pose.translation
    if t[2] - r_bound <= 0:
        raise EmptyObjectError(
            "translation sample does not keep the whole object in front of the "
            "camera; adjust the translation distribution"
        )

    if isinstance(spec.model_kind, FileModel):
        cam = model.points @ pose.rotation.T + t
        us = np.rint(k.fx * cam[:, 0] / cam[:, 2] + k.cx).astype(int)
        vs = np.rint(k.fy * cam[:, 1] / cam[:, 2] + k.cy).astype(int)
        keep = (us >= 0) & (us < width) & (vs >= 0) & (vs < height)
        if not np.any(keep):
            raise EmptyObjectError("object projects entirely outside the image")
        depth = np.full((height, width), np.inf)
        np.minimum.at(depth.reshape(-1), vs[keep] * width + us[keep], cam[keep, 2])  # a view: writes reach depth
        depth[~np.isfinite(depth)] = 0.0
        return depth

    u0, u1, v0, v1 = _pixel_bbox(spec, t, r_bound)
    if u1 < u0 or v1 < v0:
        raise EmptyObjectError("object projects entirely outside the image")
    depth = np.zeros((height, width))
    origin_obj = -(pose.rotation.T @ t)
    # Rays through pixel centers, parameterized so s equals camera depth.
    # Each pixel's ray and depth depend on that pixel alone, so casting the
    # box a band of whole rows at a time gives the same bytes as one cast.
    x = (np.arange(u0, u1 + 1) - k.cx) / k.fx
    band_rows = max(1, _BAND_RAYS // x.size)
    hit_any = False
    for b0 in range(v0, v1 + 1, band_rows):
        b1 = min(b0 + band_rows, v1 + 1)
        dirs_cam = np.ones((b1 - b0, x.size, 3))
        dirs_cam[:, :, 0] = x
        dirs_cam[:, :, 1] = ((np.arange(b0, b1) - k.cy) / k.fy)[:, None]
        s = spec.model_kind.intersect(origin_obj, dirs_cam.reshape(-1, 3) @ pose.rotation)
        s = s.reshape(b1 - b0, x.size)
        hit = np.isfinite(s)
        np.copyto(depth[b0:b1, u0 : u1 + 1], s, where=hit)
        hit_any = hit_any or hit.any()
    if not hit_any:
        raise EmptyObjectError("object projects entirely outside the image")
    return depth


def _apply_occlusion(depth: np.ndarray, fraction: float) -> None:
    rows, cols = np.nonzero(depth > 0)
    if rows.size == 0:
        return
    r0, r1 = rows.min(), rows.max()
    c0, c1 = cols.min(), cols.max()
    strip = math.ceil(fraction * (r1 - r0 + 1))
    depth[r0 : r0 + strip, c0 : c1 + 1] = 0.0


def render_scene(spec: SceneSpec, index: int, model: ObjectModel | None = None) -> SyntheticScene:
    """Generate scene ``index`` of the dataset described by ``spec``.

    Draw order per scene (fixed for reproducibility): rotation, translation,
    depth noise, dropout.  Fully occluded or out-of-frame objects raise
    :class:`EmptyObjectError`.
    """
    if model is None:
        model = model_for_spec(spec)
    rng = scene_rng(spec, index)

    rotation = sample_rotation_uniform(rng)
    pose = RigidPose(rotation, spec.translation_dist.sample(rng))

    depth = _render_depth(spec, pose, model)
    mask = depth > 0

    if spec.occlusion_fraction:
        _apply_occlusion(depth, spec.occlusion_fraction)
        mask = depth > 0
        if not np.any(mask):
            raise EmptyObjectError("object fully occluded")

    if spec.depth_noise_sigma > 0:
        sigma = spec.depth_noise_sigma
        idx = np.nonzero(depth > 0)
        noise = np.clip(rng.normal(0.0, sigma, idx[0].size), -3 * sigma, 3 * sigma)
        noisy = depth[idx] + noise
        depth[idx] = np.where(noisy > 0, noisy, 0.0)

    if spec.pixel_dropout > 0:
        idx = np.nonzero(depth > 0)
        drop = rng.random(idx[0].size) < spec.pixel_dropout
        depth[idx[0][drop], idx[1][drop]] = 0.0

    if not np.any(mask & (depth > 0)):
        raise EmptyObjectError("no valid depth pixel survived noise/dropout")

    depth.flags.writeable = mask.flags.writeable = False  # handed over to the observation, not copied
    observation = SceneObservation(depth=depth, mask=mask, intrinsics=spec.intrinsics, gt_pose=pose)
    return SyntheticScene(observation=observation, model=model)


def distribution_report(pairs: Iterable[tuple[np.ndarray, np.ndarray]]) -> list[list]:
    """The spread of ground-truth translations ``t`` against their offsets
    ``t - t0`` from a reference point, given one ``(t, t - t0)`` pair per
    scene.

    Six rows ``[quantity, component, variance, min, max, variance_ratio]``:
    ``raw_t`` then ``delta_t``, each for x, y and z.  Variances are sample
    variances (ddof=1); the ratio is the raw variance over the offset
    variance, ``None`` on the ``raw_t`` rows.  Fewer than two pairs raise
    :class:`EmptyInputError`; an offset component with zero variance, which
    leaves its ratio undefined, raises :class:`Offset6DError` naming it.
    """
    pairs = list(pairs)
    if len(pairs) < 2:
        raise EmptyInputError(f"the distribution report needs at least two scenes, got {len(pairs)}")
    raw, delta = (np.array(column) for column in zip(*pairs))
    raw_var, delta_var = raw.var(axis=0, ddof=1), delta.var(axis=0, ddof=1)
    zero = np.flatnonzero(delta_var == 0)
    if zero.size:
        raise Offset6DError(f"delta_t {'xyz'[zero[0]]}: zero variance over {len(pairs)} scenes, "
                            "so its variance_ratio is undefined")
    ratio = raw_var / delta_var
    return [
        [quantity, component, float(var[i]), float(values[:, i].min()), float(values[:, i].max()),
         None if ratios is None else float(ratios[i])]
        for quantity, values, var, ratios in (("raw_t", raw, raw_var, None), ("delta_t", delta, delta_var, ratio))
        for i, component in enumerate("xyz")
    ]
