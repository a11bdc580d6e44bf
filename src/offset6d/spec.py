"""The scene spec: everything that determines a synthetic dataset.

A :class:`SceneSpec` names the object model (an analytic primitive or a
point-set file), the camera, the translation distribution, the nuisance
settings and the seed.  With a scene index it fixes one scene exactly; see
:mod:`offset6d.synth` for the generator and :func:`offset6d.formats.spec_to_pairs`
for the spec's one text form (the manifest's spec lines and the experiment
config's keys).
"""

from __future__ import annotations

from .record import record
from typing import Union

import numpy as np

from .geometry import CameraIntrinsics

RNG_ALGORITHM = "numpy-philox4x64-10"
SEED_LIMIT = 2**128  # a seed is the 128-bit Philox key: 0 <= seed < SEED_LIMIT


@record
class BoxModel:
    width: float
    height: float
    length: float

    symmetric = False  # class attribute, not a field

    def __post_init__(self):
        if min(self.width, self.height, self.length) <= 0:
            raise ValueError("box extents must be positive")

    @property
    def half_extents(self) -> np.ndarray:
        return np.array([self.width, self.height, self.length]) / 2.0


@record
class CylinderModel:
    radius: float
    height: float

    symmetric = True

    def __post_init__(self):
        if self.radius <= 0 or self.height <= 0:
            raise ValueError("cylinder dimensions must be positive")


@record
class SphereModel:
    radius: float

    symmetric = True

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("sphere radius must be positive")


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
        if min(self.half_widths) <= 0:
            raise ValueError("half widths must be positive")


@record
class GaussianVolume:
    mean: tuple[float, float, float]
    sigma: tuple[float, float, float]

    def __post_init__(self):
        if min(self.sigma) <= 0:
            raise ValueError("sigma must be positive")


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
        if self.surface_sample_count <= 0:
            raise ValueError("surface_sample_count must be positive")
        if self.image_size[0] <= 0 or self.image_size[1] <= 0:
            raise ValueError("image size must be positive")
        if self.rotation_dist != "uniform-so3":
            raise ValueError(f"unsupported rotation distribution {self.rotation_dist!r}")
        if self.depth_noise_sigma < 0:
            raise ValueError("depth_noise_sigma must be >= 0")
        if not 0.0 <= self.pixel_dropout < 1.0:
            raise ValueError("pixel_dropout must be in [0, 1)")
        if self.occlusion_fraction is not None and self.occlusion_fraction < 0:
            raise ValueError("occlusion_fraction must be >= 0")
