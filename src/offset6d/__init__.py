"""Relative-offset geometric constraints for 6D object pose estimation.

The package turns depth + mask observations into anchored constraint
encodings, recovers poses from them in closed form, evaluates the standard
distance metrics, and generates deterministic synthetic scenes to exercise
all of it.
"""

from .encoding import (
    ConstraintForm,
    GeoEncoding,
    GeoTargets,
    InputMode,
    TargetMode,
    constraint_residual,
    decode_translation,
    encode_input,
    encode_targets,
    naive_offset_residual,
)
from .errors import (
    DegenerateConfigurationError,
    EmptyInputError,
    EmptyObjectError,
    FormatError,
    InvalidDepthError,
    MissingPoseError,
    ModeMismatchError,
    Offset6DError,
)
from .geometry import (
    CameraIntrinsics,
    RigidPose,
    backproject_pixels,
    inverse_transform_points,
    nearest_rotation,
    transform_points,
)
from .metrics import (
    LossDecomposition,
    ObjectModel,
    accuracy_at_threshold,
    add,
    add_loss,
    add_s,
    add_selective,
    auc,
    decompose_add_loss,
    weighted_add_loss,
)
from .refpoint import (
    ReferencePoint,
    RefStrategy,
    SceneObservation,
    make_reference,
    ref_mean_visible,
)
from .solver import (
    ConditionFlag,
    SolveReport,
    rotation_geodesic_error,
    solve_from_constraints,
    solve_procrustes,
)
from .spec import (
    BoxModel,
    BoxVolume,
    CylinderModel,
    FileModel,
    GaussianVolume,
    SceneSpec,
    SphereModel,
)
from .synth import (
    SyntheticScene,
    distribution_report,
    make_model,
    model_for_spec,
    render_scene,
    sample_rotation_uniform,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
