"""The scene spec: everything that determines a synthetic dataset.

A :class:`SceneSpec` names the object model (an analytic primitive or a
point-set file), the camera, the translation distribution, the nuisance
settings and the seed.  With a scene index it fixes one scene exactly; see
:mod:`offset6d.synth` for the generator and :func:`offset6d.formats.spec_to_pairs`
for the spec's one text form (the manifest's spec lines and the experiment
config's keys).
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

    symmetric = False  # class attribute, not a field

    def __post_init__(self):
        if not _positive(self.width, self.height, self.length):
            raise ValueError("box extents must be positive and finite")

    @property
    def half_extents(self) -> np.ndarray:
        return np.array([self.width, self.height, self.length]) / 2.0


@record
class CylinderModel:
    radius: float
    height: float

    symmetric = True

    def __post_init__(self):
        if not _positive(self.radius, self.height):
            raise ValueError("cylinder dimensions must be positive and finite")


@record
class SphereModel:
    radius: float

    symmetric = True

    def __post_init__(self):
        if not _positive(self.radius):
            raise ValueError("sphere radius must be positive and finite")


@record
class FileModel:
    """Point set loaded from an ASCII PLY file; rendered by point splatting."""

    path: str
    symmetric: bool = False


ModelKind = Union[BoxModel, CylinderModel, SphereModel, FileModel]


@record
class BoxVolume:
    """Uniform translation sampling inside center +- half_widths."""

    center: tuple[float, float, float]
    half_widths: tuple[float, float, float]

    def __post_init__(self):
        if not all(map(math.isfinite, self.center)):
            raise ValueError("center must be finite")
        if not _positive(*self.half_widths):
            raise ValueError("half widths must be positive and finite")


@record
class GaussianVolume:
    mean: tuple[float, float, float]
    sigma: tuple[float, float, float]

    def __post_init__(self):
        if not all(map(math.isfinite, self.mean)):
            raise ValueError("mean must be finite")
        if not _positive(*self.sigma):
            raise ValueError("sigma must be positive and finite")


TranslationDist = Union[BoxVolume, GaussianVolume]


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
