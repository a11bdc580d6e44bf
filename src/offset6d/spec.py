"""The scene spec: everything that determines a synthetic dataset.

A :class:`SceneSpec` names the object model (an analytic primitive or a
point-set file), the camera, the translation distribution, the nuisance
settings and the seed.  With a scene index it fixes one scene exactly; see
:mod:`offset6d.synth` for the generator and :func:`offset6d.formats.spec_to_pairs`
for the spec's one text form (the manifest's spec lines and the experiment
config's keys).

Each class here is the one home of its kind's facts.  Every model kind and
translation volume carries its ``config_name``; an analytic primitive also
has its extreme antipodal pairs (``extreme_pairs``), its half-set surface
sampler (``sample_surface``) and its ray cast (``intersect``), and a volume
its translation draw (``sample``).
"""

from __future__ import annotations

import math
from .record import record
from typing import Union

import numpy as np

from .geometry import CameraIntrinsics

RNG_ALGORITHM = "numpy-philox4x64-10"
SEED_LIMIT = 2**128  # a seed is the 128-bit Philox key: 0 <= seed < SEED_LIMIT
# Each scene's depth map is rendered as a float64 array of this many pixels at
# most (32 MiB); 2**22 covers 2048x2048 and 1080p.
PIXEL_LIMIT = 2**22
# The model diameter is an exhaustive O(m^2) scan of the surface samples.
SAMPLE_LIMIT = 2**17
# A depth PGM stores whole millimeters in 16 bits: depths up to 65.535 m.
DEPTH_UNIT = 0.001  # PGM depth LSB in meters
MAX_DEPTH_MM = 65535


def _positive(*values) -> bool:
    """Every value a finite number above 0; NaN and infinity fail."""
    return all(0 < v < math.inf for v in values)


@record
class BoxModel:
    width: float
    height: float
    length: float

    config_name = "box"  # class attributes, not fields
    symmetric = False

    def __post_init__(self):
        if not _positive(self.width, self.height, self.length):
            raise ValueError("box extents must be positive and finite")

    @property
    def half_extents(self) -> np.ndarray:
        return np.array([self.width, self.height, self.length]) / 2.0

    def extreme_pairs(self) -> np.ndarray:
        """The corners, in antipodal pairs: they realize the exact diameter."""
        hx, hy, hz = self.half_extents
        return np.array(
            [
                [hx, hy, hz], [-hx, -hy, -hz],
                [hx, hy, -hz], [-hx, -hy, hz],
                [hx, -hy, hz], [-hx, hy, -hz],
                [hx, -hy, -hz], [-hx, hy, hz],
            ]
        )

    def sample_surface(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` points uniform on the surface."""
        # Pick an axis by total face area (both faces of the axis), then a sign.
        # The axis is Generator.choice(3, size=n, p=weights) by its own inverse
        # CDF: the same draws and stream use, without choice's argument checks.
        half = self.half_extents
        hx, hy, hz = half
        areas = np.array([hy * hz, hx * hz, hx * hy])
        weights = areas / areas.sum()
        if not np.isfinite(weights).all():
            raise ValueError("box face areas are not finite (extents too large or too small?)")
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        axes = cdf.searchsorted(rng.random(n), side="right")
        signs = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        uv = rng.uniform(-1.0, 1.0, size=(n, 2))
        pts = np.empty((n, 3))
        for axis in range(3):
            sel = axes == axis
            others = [i for i in range(3) if i != axis]
            pts[sel, axis] = signs[sel] * half[axis]
            pts[np.ix_(sel, others)] = uv[sel] * half[others]
        return pts

    def intersect(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
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
        half = self.half_extents
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


@record
class CylinderModel:
    radius: float
    height: float

    config_name = "cylinder"
    symmetric = True

    def __post_init__(self):
        if not _positive(self.radius, self.height):
            raise ValueError("cylinder dimensions must be positive and finite")

    def extreme_pairs(self) -> np.ndarray:
        """Rim points of opposite caps, in antipodal pairs: they realize the exact diameter."""
        r, hh = self.radius, self.height / 2
        return np.array(
            [[r, 0, hh], [-r, 0, -hh], [0, r, hh], [0, -r, -hh]]
        )

    def sample_surface(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` points uniform on the surface, caps included."""
        r, h = self.radius, self.height
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

    def intersect(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        """Ray parameter of the first hit on the side or a cap, else inf."""
        r, half_h = self.radius, self.height / 2
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


@record
class SphereModel:
    radius: float

    config_name = "sphere"
    symmetric = True

    def __post_init__(self):
        if not _positive(self.radius):
            raise ValueError("sphere radius must be positive and finite")

    def extreme_pairs(self) -> np.ndarray:
        """The two poles on x: they realize the exact diameter."""
        return np.array([[self.radius, 0, 0], [-self.radius, 0, 0]])

    def sample_surface(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` points uniform on the sphere: normalized Gaussian vectors."""
        v = rng.normal(size=(n, 3))
        norms = np.linalg.norm(v, axis=1)
        while np.any(norms < 1e-12):
            redo = norms < 1e-12
            v[redo] = rng.normal(size=(int(redo.sum()), 3))
            norms = np.linalg.norm(v, axis=1)
        return v / norms[:, None] * self.radius

    def intersect(self, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        """Ray parameter of the near hit, else inf."""
        r = self.radius
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


@record
class FileModel:
    """Point set loaded from an ASCII PLY file; rendered by point splatting."""

    path: str
    symmetric: bool = False

    config_name = "file"


ModelKind = Union[BoxModel, CylinderModel, SphereModel, FileModel]
PRIMITIVES = (BoxModel, CylinderModel, SphereModel)  # the analytic kinds


@record
class BoxVolume:
    """Uniform translation sampling inside center +- half_widths."""

    center: tuple[float, float, float]
    half_widths: tuple[float, float, float]

    config_name = "box"

    def __post_init__(self):
        if not all(map(math.isfinite, self.center)):
            raise ValueError("center must be finite")
        if not _positive(*self.half_widths):
            raise ValueError("half widths must be positive and finite")

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        center = np.asarray(self.center)
        half = np.asarray(self.half_widths)
        return rng.uniform(center - half, center + half)


@record
class GaussianVolume:
    mean: tuple[float, float, float]
    sigma: tuple[float, float, float]

    config_name = "gaussian"

    def __post_init__(self):
        if not all(map(math.isfinite, self.mean)):
            raise ValueError("mean must be finite")
        if not _positive(*self.sigma):
            raise ValueError("sigma must be positive and finite")

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.normal(np.asarray(self.mean), np.asarray(self.sigma))


TranslationDist = Union[BoxVolume, GaussianVolume]
VOLUMES = (BoxVolume, GaussianVolume)


@record
class SceneSpec:
    """Everything needed to generate a dataset deterministically."""

    model_kind: ModelKind
    surface_sample_count: int
    image_size: tuple[int, int]  # (width, height)
    intrinsics: CameraIntrinsics
    translation_dist: TranslationDist
    seed: int
    rotation_dist: str = "uniform-so3"
    depth_noise_sigma: float = 0.0
    pixel_dropout: float = 0.0
    occlusion_fraction: float | None = None

    def __post_init__(self):
        if not 0 <= self.seed < SEED_LIMIT:
            raise ValueError(f"seed must be in [0, 2**128), got {self.seed}")
        if self.rotation_dist != "uniform-so3":
            raise ValueError(f"unsupported rotation distribution {self.rotation_dist!r}")
        # Quoted like a config key: each of these fields shares its key's name.
        if not 0 < self.surface_sample_count <= SAMPLE_LIMIT:
            raise ValueError(f"'surface_sample_count' must be in [1, 2**17], got {self.surface_sample_count}")
        width, height = self.image_size
        if not (width > 0 and height > 0 and width * height <= PIXEL_LIMIT):
            raise ValueError(f"'image_width' x 'image_height' must be positive and at most 2**22 pixels, "
                             f"got {width} x {height}")
        # Noise is clipped at +-3 sigma; a clip past the PGM range leaves no scene writable.
        if not 0.0 <= 3 * self.depth_noise_sigma <= MAX_DEPTH_MM * DEPTH_UNIT:
            raise ValueError(f"'depth_noise_sigma' must be >= 0 with its 3-sigma clip within the "
                             f"{MAX_DEPTH_MM * DEPTH_UNIT} m PGM depth range, got {self.depth_noise_sigma!r}")
        if not 0.0 <= self.pixel_dropout < 1.0:
            raise ValueError("pixel_dropout must be in [0, 1)")
        # The strip covers ceil(fraction * rows) of the object's rows: at 1 it leaves none visible.
        if self.occlusion_fraction is not None and not 0.0 <= self.occlusion_fraction < 1.0:
            raise ValueError(f"'occlusion_fraction' must be in [0, 1), got {self.occlusion_fraction!r}")
