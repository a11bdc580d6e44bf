"""Deterministic synthetic depth scenes.

A scene is fully determined by a :class:`~offset6d.spec.SceneSpec` plus a
scene index: the per-scene RNG is a counter-based Philox stream keyed by the
spec seed with the scene index in the counter, so datasets are reproducible
point-for-point and scenes can be generated in any order or in parallel.  A
scene's digest hashes the spec's manifest lines
(:func:`offset6d.formats.spec_to_pairs`) with its index.

Rendering: for the analytic primitives (box, cylinder, sphere) every pixel
ray is intersected with the exact surface and the nearest hit wins, so each
masked depth pixel backprojects to a point that lies *on* the object surface
(up to float rounding, and up to the truncated depth noise when enabled).
Point-set models loaded from file have no analytic surface and fall back to
point splatting with a per-pixel z-buffer.

Depth noise is Gaussian truncated at +-3 sigma; dropout zeroes the depth of
a masked pixel (the mask keeps claiming the object, mimicking a sensor hole).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from . import formats
from .encoding import SceneObservation
from .errors import EmptyObjectError
from .geometry import RigidPose
from .metrics import ObjectModel
from .refpoint import DepthMap, InstanceMask, RefStrategy, make_reference
from .spec import (
    RNG_ALGORITHM,
    BoxModel,
    BoxVolume,
    CylinderModel,
    FileModel,
    ModelKind,
    SceneSpec,
    SphereModel,
)

# Counter-space layout: scene i draws from counter i << 128, the model from
# a reserved block that no scene index can reach.
_MODEL_COUNTER = 1 << 192
_PERTURB_COUNTER = 1 << 193


@dataclass(frozen=True)
class SyntheticScene:
    observation: SceneObservation
    model: ObjectModel
    spec_digest: str


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


def _sample_box_surface(rng: np.random.Generator, half: np.ndarray, n: int) -> np.ndarray:
    # Pick an axis by total face area (both faces of the axis), then a sign.
    hx, hy, hz = half
    areas = np.array([hy * hz, hx * hz, hx * hy])
    weights = areas / areas.sum()
    axes = rng.choice(3, size=n, p=weights)
    signs = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    uv = rng.uniform(-1.0, 1.0, size=(n, 2))
    pts = np.empty((n, 3))
    for axis in range(3):
        sel = axes == axis
        others = [i for i in range(3) if i != axis]
        pts[sel, axis] = signs[sel] * half[axis]
        pts[np.ix_(sel, others)] = uv[sel] * half[others]
    return pts

def _sample_cylinder_surface(rng: np.random.Generator, r: float, h: float, n: int) -> np.ndarray:
    lateral = 2 * math.pi * r * h
    caps = 2 * math.pi * r * r
    on_side = rng.random(n) < lateral / (lateral + caps)
    theta = rng.uniform(0.0, 2 * math.pi, n)
    pts = np.empty((n, 3))
    side = on_side
    pts[side, 0] = r * np.cos(theta[side])
    pts[side, 1] = r * np.sin(theta[side])
    pts[side, 2] = rng.uniform(-h / 2, h / 2, n)[side]
    cap = ~on_side
    rad = r * np.sqrt(rng.random(n))[cap]
    pts[cap, 0] = rad * np.cos(theta[cap])
    pts[cap, 1] = rad * np.sin(theta[cap])
    pts[cap, 2] = np.where(rng.random(int(cap.sum())) < 0.5, h / 2, -h / 2)
    return pts


def _sample_sphere_surface(rng: np.random.Generator, r: float, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    norms = np.linalg.norm(v, axis=1)
    while np.any(norms < 1e-12):
        redo = norms < 1e-12
        v[redo] = rng.normal(size=(int(redo.sum()), 3))
        norms = np.linalg.norm(v, axis=1)
    return v / norms[:, None] * r


def _extreme_points(kind: ModelKind) -> np.ndarray:
    """Deterministic antipodal pairs realizing the exact diameter."""
    if isinstance(kind, BoxModel):
        hx, hy, hz = kind.half_extents
        corners = np.array(
            [
                [hx, hy, hz], [-hx, -hy, -hz],
                [hx, hy, -hz], [-hx, -hy, hz],
                [hx, -hy, hz], [-hx, hy, -hz],
                [hx, -hy, -hz], [-hx, hy, hz],
            ]
        )
        return corners
    if isinstance(kind, CylinderModel):
        r, hh = kind.radius, kind.height / 2
        return np.array(
            [[r, 0, hh], [-r, 0, -hh], [0, r, hh], [0, -r, -hh]]
        )
    if isinstance(kind, SphereModel):
        return np.array([[kind.radius, 0, 0], [-kind.radius, 0, 0]])
    raise TypeError(f"no extreme points for {type(kind).__name__}")


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
        # far below float resolution at these scales.
        points = points - points.mean(axis=0)
        points = points - points.mean(axis=0)
        return ObjectModel.from_points(points, symmetric)

    extremes = _extreme_points(kind)
    n_random = max(0, surface_sample_count - extremes.shape[0])
    n_pairs = (n_random + 1) // 2
    if isinstance(kind, BoxModel):
        half = _sample_box_surface(rng, kind.half_extents, n_pairs)
    elif isinstance(kind, CylinderModel):
        half = _sample_cylinder_surface(rng, kind.radius, kind.height, n_pairs)
    else:
        half = _sample_sphere_surface(rng, kind.radius, n_pairs)
    paired = np.empty((2 * n_pairs, 3))
    paired[0::2] = half
    paired[1::2] = -half
    points = np.vstack([extremes, paired])
    return ObjectModel.from_points(points, kind.symmetric)


def model_for_spec(spec: SceneSpec) -> ObjectModel:
    """The dataset's model; identical for every scene of the spec."""
    return make_model(spec.model_kind, spec.surface_sample_count, model_rng(spec))


def _surface_bound(kind: ModelKind, model: ObjectModel) -> float:
    """Radius of a ball (around the model origin) containing the surface."""
    if isinstance(kind, BoxModel):
        return float(np.linalg.norm(kind.half_extents))
    if isinstance(kind, CylinderModel):
        return math.hypot(kind.radius, kind.height / 2)
    if isinstance(kind, SphereModel):
        return kind.radius
    return float(np.max(np.linalg.norm(model.points, axis=1)))


def _intersect_sphere(origin: np.ndarray, dirs: np.ndarray, r: float) -> np.ndarray:
    a = np.sum(dirs**2, axis=1)
    b = 2.0 * dirs @ origin
    c = origin @ origin - r * r
    disc = b * b - 4 * a * c
    hit = disc >= 0
    s = np.full(dirs.shape[0], np.inf)
    root = np.sqrt(np.clip(disc, 0, None))
    near = (-b - root) / (2 * a)
    s[hit & (near > 0)] = near[hit & (near > 0)]
    return s


def _intersect_box(origin: np.ndarray, dirs: np.ndarray, half: np.ndarray) -> np.ndarray:
    """Ray parameter of the first hit on the box ``|x| <= half``, else inf.

    The slab method (Kay & Kajiya 1986) in one pass per axis: each axis's
    entry and exit parameters fold into a running ``tmin``/``tmax``, and no
    ``(n, 3)`` table is built.

    Every depth is bit-identical to a per-axis ``(n, 3)`` table reduced by
    ``max(axis=1)``/``min(axis=1)``. A ray with ``dj != 0`` gets the same
    division and the same exact min/max. A ray with ``dj == 0`` (±inf, or
    NaN from an origin on a face) is overwritten before the fold, with
    (-inf, inf) inside the slab and (inf, -inf) outside, so no NaN is
    folded. Folding from -inf/inf over axes 0, 1, 2 takes the maxima and
    minima in the table's order, and on non-NaN floats they are exact in any
    order but for the sign of a zero, which no depth shows: a depth is a
    ``tmin > 0``, and ``tmax >= tmin`` reads alike for either zero.
    """
    n = dirs.shape[0]
    tmin = np.full(n, -np.inf)
    tmax = np.full(n, np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(3):
            dj = dirs[:, j]
            t1 = (-half[j] - origin[j]) / dj
            t2 = (half[j] - origin[j]) / dj
            near = np.minimum(t1, t2)
            far = np.maximum(t1, t2, out=t2)
            # Ray parallel to this slab: inside is unbounded, outside misses.
            parallel = dj == 0
            if parallel.any():
                inside = abs(origin[j]) <= half[j]
                near[parallel] = -np.inf if inside else np.inf
                far[parallel] = np.inf if inside else -np.inf
            np.maximum(tmin, near, out=tmin)
            np.minimum(tmax, far, out=tmax)
    s = np.full(n, np.inf)
    hit = (tmax >= tmin) & (tmin > 0)
    s[hit] = tmin[hit]
    return s


def _intersect_cylinder(origin: np.ndarray, dirs: np.ndarray, r: float, half_h: float) -> np.ndarray:
    n = dirs.shape[0]
    best = np.full(n, np.inf)

    dx, dy, dz = dirs[:, 0], dirs[:, 1], dirs[:, 2]
    ox, oy, oz = origin
    a = dx * dx + dy * dy
    b = 2 * (ox * dx + oy * dy)
    c = ox * ox + oy * oy - r * r
    quad = a > 0
    disc = b * b - 4 * a * c
    root = np.sqrt(np.clip(disc, 0, None))
    with np.errstate(divide="ignore", invalid="ignore"):
        for sign in (-1.0, 1.0):
            s = (-b + sign * root) / (2 * a)
            z = oz + s * dz
            ok = quad & (disc >= 0) & (s > 0) & (np.abs(z) <= half_h)
            best[ok] = np.minimum(best[ok], s[ok])
        for cap_z in (half_h, -half_h):
            s = (cap_z - oz) / dz
            px = ox + s * dx
            py = oy + s * dy
            ok = (np.abs(dz) > 0) & (s > 0) & (px * px + py * py <= r * r)
            best[ok] = np.minimum(best[ok], s[ok])
    return best


def _intersect(kind: ModelKind, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    if isinstance(kind, SphereModel):
        return _intersect_sphere(origin, dirs, kind.radius)
    if isinstance(kind, BoxModel):
        return _intersect_box(origin, dirs, kind.half_extents)
    if isinstance(kind, CylinderModel):
        return _intersect_cylinder(origin, dirs, kind.radius, kind.height / 2)
    raise TypeError(f"no analytic surface for {type(kind).__name__}")


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
    depth = np.zeros((height, width))
    r_bound = _surface_bound(spec.model_kind, model)
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
        flat = np.full(height * width, np.inf)
        np.minimum.at(flat, vs[keep] * width + us[keep], cam[keep, 2])
        grid = flat.reshape(height, width)
        depth[np.isfinite(grid)] = grid[np.isfinite(grid)]
        return depth

    u0, u1, v0, v1 = _pixel_bbox(spec, t, r_bound)
    if u1 < u0 or v1 < v0:
        raise EmptyObjectError("object projects entirely outside the image")
    us, vs = np.meshgrid(np.arange(u0, u1 + 1), np.arange(v0, v1 + 1))
    us = us.ravel()
    vs = vs.ravel()
    # Rays through pixel centers, parameterized so s equals camera depth.
    dirs_cam = np.stack(
        [(us - k.cx) / k.fx, (vs - k.cy) / k.fy, np.ones(us.size)], axis=1
    )
    origin_obj = -(pose.rotation.T @ t)
    dirs_obj = dirs_cam @ pose.rotation
    s = _intersect(spec.model_kind, origin_obj, dirs_obj)
    hit = np.isfinite(s)
    if not np.any(hit):
        raise EmptyObjectError("object projects entirely outside the image")
    depth[vs[hit], us[hit]] = s[hit]
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
    dist = spec.translation_dist
    if isinstance(dist, BoxVolume):
        center = np.asarray(dist.center)
        half = np.asarray(dist.half_widths)
        translation = rng.uniform(center - half, center + half)
    else:
        translation = rng.normal(np.asarray(dist.mean), np.asarray(dist.sigma))
    pose = RigidPose(rotation, translation)

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

    observation = SceneObservation(
        depth=DepthMap(depth),
        mask=InstanceMask(mask),
        intrinsics=spec.intrinsics,
        gt_pose=pose,
    )
    return SyntheticScene(observation=observation, model=model, spec_digest=scene_digest(spec, index))


def scene_digest(spec: SceneSpec, index: int) -> str:
    """SHA-256 of the manifest's spec lines (``rng_algorithm`` and
    :func:`formats.spec_to_pairs`) followed by an ``index`` line."""
    pairs = [("rng_algorithm", RNG_ALGORITHM), *formats.spec_to_pairs(spec), ("index", str(index))]
    return hashlib.sha256(formats.format_keyvalue(pairs).encode()).hexdigest()


@dataclass(frozen=True)
class DistributionReport:
    """Per-component spread of raw translations vs anchored offsets."""

    strategy: RefStrategy
    scene_count: int
    raw_variance: np.ndarray
    raw_min: np.ndarray
    raw_max: np.ndarray
    delta_variance: np.ndarray
    delta_min: np.ndarray
    delta_max: np.ndarray

    @property
    def variance_ratio(self) -> np.ndarray:
        return self.raw_variance / self.delta_variance

    def rows(self) -> list[dict]:
        out = []
        for name, var, lo, hi, ratio in (
            ("raw_t", self.raw_variance, self.raw_min, self.raw_max, [None] * 3),
            ("delta_t", self.delta_variance, self.delta_min, self.delta_max, self.variance_ratio),
        ):
            for i, comp in enumerate("xyz"):
                out.append(
                    {
                        "quantity": name,
                        "component": comp,
                        "variance": float(var[i]),
                        "min": float(lo[i]),
                        "max": float(hi[i]),
                        "variance_ratio": None if ratio[i] is None else float(ratio[i]),
                    }
                )
        return out


def distribution_report(scenes, strategy: RefStrategy) -> DistributionReport:
    """Compare ground-truth translation spread against the anchored offsets.

    For each scene the reference point of the given strategy is computed and
    ``delta_t = t - t0`` recorded; variances are sample variances (ddof=1).
    Accepts :class:`SyntheticScene` items or bare observations.
    """
    raw = []
    delta = []
    for scene in scenes:
        obs = scene.observation if isinstance(scene, SyntheticScene) else scene
        if obs.gt_pose is None:
            raise ValueError("distribution report needs ground-truth poses")
        ref = make_reference(obs.depth, obs.mask, obs.intrinsics, strategy)
        raw.append(obs.gt_pose.translation)
        delta.append(obs.gt_pose.translation - ref.as_array())
    if len(raw) < 2:
        raise ValueError("need at least two scenes")
    raw = np.asarray(raw)
    delta = np.asarray(delta)
    return DistributionReport(
        strategy=strategy,
        scene_count=raw.shape[0],
        raw_variance=raw.var(axis=0, ddof=1),
        raw_min=raw.min(axis=0),
        raw_max=raw.max(axis=0),
        delta_variance=delta.var(axis=0, ddof=1),
        delta_min=delta.min(axis=0),
        delta_max=delta.max(axis=0),
    )
