"""Shared test helpers plus the acceptance-criteria summary.

Acceptance tests live in test_acceptance.py and are named
``test_criterion_<n>_...``; their pass/fail outcomes are collected here and
printed as one line per criterion in the terminal summary.
"""

import os
import subprocess
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import offset6d as o6

# ``HYPOTHESIS_PROFILE=ci`` makes every property test draw the same examples
# on each run, with no per-example deadline: timings on shared runners vary
# too much for one.  Local runs keep hypothesis's default random exploration.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

SRC = Path(__file__).resolve().parent.parent / "src"

_acceptance_results: dict[str, str] = {}


def pytest_runtest_makereport(item, call):
    if call.when != "call":
        return
    if item.module.__name__ != "test_acceptance":
        return
    if not item.name.startswith("test_criterion_"):
        return
    outcome = "PASS" if call.excinfo is None else "FAIL"
    _acceptance_results[item.name] = outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_acceptance_results):
        label = name.removeprefix("test_").replace("_", " ")
        terminalreporter.write_line(f"{label}: {_acceptance_results[name]}")


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def random_pose(rng: np.random.Generator, t_scale: float = 0.5, z_center: float = 1.0) -> o6.RigidPose:
    t = rng.uniform(-t_scale, t_scale, 3)
    t[2] += z_center
    return o6.RigidPose(random_rotation(rng), t)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def default_intrinsics() -> o6.CameraIntrinsics:
    return o6.CameraIntrinsics(fx=140.0, fy=140.0, cx=80.0, cy=80.0)


def small_scene_spec(seed: int = 42, **overrides) -> o6.SceneSpec:
    kwargs = dict(
        model_kind=o6.BoxModel(0.08, 0.06, 0.1),
        surface_sample_count=600,
        image_size=(160, 160),
        intrinsics=default_intrinsics(),
        translation_dist=o6.BoxVolume(center=(0.0, 0.0, 1.0), half_widths=(0.25, 0.25, 0.25)),
        seed=seed,
    )
    kwargs.update(overrides)
    return o6.SceneSpec(**kwargs)


def launch(argv: list, **kwargs) -> subprocess.CompletedProcess:
    """Run ``argv`` to its end, its output captured as text, with this
    checkout's ``src/`` first on ``PYTHONPATH`` and the caller's path after
    it: a fresh interpreter imports the code under test."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(argv, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, **kwargs)
