"""Geometry: backprojection, rigid transforms, pose invariants."""

import re

import numpy as np
import pytest

import offset6d as o6
from offset6d import formats
from offset6d.errors import InvalidDepthError
from offset6d.geometry import as_points, rotation_defect

from conftest import random_pose, random_rotation


K = o6.CameraIntrinsics(fx=500.0, fy=400.0, cx=320.0, cy=240.0)


def lift(u, v, d, k=K):
    """The pin-hole formula in Python floats, one pixel at a time."""
    return [(u - k.cx) / k.fx * d, (v - k.cy) / k.fy * d, d]


class TestBackproject:
    def test_principal_ray(self):
        # Pixel at the principal point lifts straight down the optical axis.
        p = o6.backproject_pixels([K.cx], [K.cy], [1.0], K)
        np.testing.assert_allclose(p, [[0.0, 0.0, 1.0]])

    def test_direct_formula(self):
        # x = (u - cx) / fx * d = (4 - 0) / 2 * 0.5 = 1.0
        k = o6.CameraIntrinsics(fx=2.0, fy=3.0, cx=0.0, cy=10.0)
        p = o6.backproject_pixels([4.0], [10.0], [0.5], k)
        np.testing.assert_allclose(p, [[1.0, 0.0, 0.5]])

    def test_one_focal_length_off_center(self):
        # u = cx + fx, v = cy + fy at depth 2 lifts to (2, 2, 2).
        p = o6.backproject_pixels([K.cx + K.fx], [K.cy + K.fy], [2.0], K)
        np.testing.assert_allclose(p, [[2.0, 2.0, 2.0]])

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_invalid_depth(self, bad):
        with pytest.raises(InvalidDepthError):
            o6.backproject_pixels([10, 11], [10, 10], [1.0, bad], K)

    def test_vectorized_matches_scalar(self, rng):
        # Bit for bit: a single pixel lifted through the array path (as the
        # ROI reference point is) equals the formula in Python floats.
        us = rng.uniform(0, 640, 50)
        vs = rng.uniform(0, 480, 50)
        ds = rng.uniform(0.3, 3.0, 50)
        pts = o6.backproject_pixels(us, vs, ds, K)
        for i in range(50):
            assert pts[i].tolist() == lift(float(us[i]), float(vs[i]), float(ds[i]))
            assert o6.backproject_pixels(int(us[i]), int(vs[i]), ds[i], K).tolist() == lift(
                int(us[i]), int(vs[i]), float(ds[i])
            )


class TestProject:
    """backproject_pixels inverts the pin-hole projection u = fx x / d + cx,
    v = fy y / d + cy that the renderer casts its rays with."""

    def test_round_trip_pixels(self, rng):
        us = rng.uniform(0, 640, 1000)
        vs = rng.uniform(0, 480, 1000)
        x, y, d = o6.backproject_pixels(us, vs, rng.uniform(0.1, 5.0, 1000), K).T
        np.testing.assert_allclose(K.fx * x / d + K.cx, us, rtol=0, atol=1e-9)
        np.testing.assert_allclose(K.fy * y / d + K.cy, vs, rtol=0, atol=1e-9)

    def test_round_trip_points(self, rng):
        p = np.stack([rng.uniform(-1, 1, 200), rng.uniform(-1, 1, 200), rng.uniform(0.1, 5.0, 200)], axis=1)
        us = K.fx * p[:, 0] / p[:, 2] + K.cx
        vs = K.fy * p[:, 1] / p[:, 2] + K.cy
        np.testing.assert_allclose(o6.backproject_pixels(us, vs, p[:, 2], K), p, atol=1e-12)


class TestTransform:
    def test_identity(self):
        p = o6.transform_points(o6.RigidPose.identity(), [[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(p, [[1.0, 2.0, 3.0]])

    def test_quarter_turn_about_z(self):
        # R(90deg about z) maps (1,0,0) to (0,1,0); add t=(0,0,1).
        pose = o6.RigidPose.from_axis_angle([0, 0, 1], np.pi / 2, translation=(0, 0, 1))
        p = o6.transform_points(pose, [[1.0, 0.0, 0.0]])
        np.testing.assert_allclose(p, [[0.0, 1.0, 1.0]], atol=1e-15)

    def test_inverse_example(self):
        pose = o6.RigidPose.from_axis_angle([0, 0, 1], np.pi / 2, translation=(0, 0, 1))
        q = o6.inverse_transform_points(pose, [[0.0, 1.0, 1.0]])
        np.testing.assert_allclose(q, [[1.0, 0.0, 0.0]], atol=1e-15)

    def test_inverse_composition_randomized(self, rng):
        for _ in range(1000):
            pose = random_pose(rng)
            p = rng.uniform(-1, 1, (1, 3))
            back = o6.inverse_transform_points(pose, o6.transform_points(pose, p))
            np.testing.assert_allclose(back, p, atol=1e-12)

    def test_rigidity(self, rng):
        # Distances survive any rigid motion to 1e-9 relative.
        for _ in range(1000):
            pose = random_pose(rng)
            pq = rng.uniform(-1, 1, (2, 3))
            d_before = np.linalg.norm(pq[0] - pq[1])
            moved = o6.transform_points(pose, pq)
            d_after = np.linalg.norm(moved[0] - moved[1])
            assert abs(d_after - d_before) <= 1e-9 * max(d_before, 1e-300)

    def test_points_batch_matches_scalar(self, rng):
        # BLAS batching may differ from a per-point matmul in the final ulp.
        pose = random_pose(rng)
        pts = rng.uniform(-1, 1, (20, 3))
        batch = o6.transform_points(pose, pts)
        for i in range(20):
            np.testing.assert_allclose(
                batch[i], pose.rotation @ pts[i] + pose.translation, rtol=0, atol=1e-14
            )
        np.testing.assert_allclose(o6.inverse_transform_points(pose, batch), pts, atol=1e-12)


class TestRigidPoseInvariants:
    def test_accepts_exact_rotation(self, rng):
        r = random_rotation(rng)
        pose = o6.RigidPose(r, np.zeros(3))
        np.testing.assert_array_equal(pose.rotation, r)

    def test_repairs_small_drift(self, rng):
        r = random_rotation(rng) + 1e-8
        pose = o6.RigidPose(r, np.zeros(3))
        assert rotation_defect(pose.rotation) <= 1e-9

    def test_rejects_large_drift(self, rng):
        r = random_rotation(rng) + 0.01
        with pytest.raises(ValueError):
            o6.RigidPose(r, np.zeros(3))

    def test_rejects_huge_entry_without_overflow(self):
        r = np.eye(3)
        r[0, 0] = 1e300  # its square overflows; no numpy warning may escape
        with pytest.raises(ValueError, match="not orthonormal"):
            o6.RigidPose(r, np.zeros(3))

    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            o6.RigidPose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            o6.RigidPose(np.eye(4), np.zeros(3))
        with pytest.raises(ValueError):
            o6.RigidPose(np.eye(3), np.zeros(2))

    def test_pose_arrays_read_only(self):
        pose = o6.RigidPose.identity()
        with pytest.raises(ValueError):
            pose.rotation[0, 0] = 5.0


def _encoding():
    depth = np.linspace(0.9, 1.1, 16).reshape(4, 4)
    obs = o6.SceneObservation(depth, np.ones((4, 4), dtype=bool), K)
    return o6.encode_input(obs, o6.make_reference(obs, o6.RefStrategy.MEAN_VISIBLE))


# Each user of as_points, called with ``bad`` as the argument it names.
POINT_LISTS = {
    "solve_procrustes-cam_points": (lambda bad, _: o6.solve_procrustes(bad, np.zeros((4, 3))), "cam_points"),
    "solve_procrustes-obj_points": (lambda bad, _: o6.solve_procrustes(np.zeros((4, 3)), bad), "obj_points"),
    "solve_from_constraints": (lambda bad, _: o6.solve_from_constraints(_encoding(), bad), "delta_abc"),
    "naive_offset_residual-cam_points": (
        lambda bad, _: o6.naive_offset_residual(bad, np.zeros((4, 3)), np.zeros(3), np.zeros(3), np.eye(3)),
        "cam_points"),
    "naive_offset_residual-obj_points": (
        lambda bad, _: o6.naive_offset_residual(np.zeros((4, 3)), bad, np.zeros(3), np.zeros(3), np.eye(3)),
        "obj_points"),
    "write_ply": (lambda bad, tmp_path: formats.write_ply(tmp_path / "points.ply", bad), "points"),
    "ObjectModel": (lambda bad, _: o6.ObjectModel(bad, False), "points"),
}


class TestAsPoints:
    @pytest.mark.parametrize("user", sorted(POINT_LISTS))
    @pytest.mark.parametrize("shape", [(4, 2), (12,), (2, 3, 2)])
    def test_each_user_names_its_argument(self, tmp_path, user, shape):
        call, name = POINT_LISTS[user]
        with pytest.raises(ValueError, match=rf"^{name} must be \(N, 3\), got shape {re.escape(str(shape))}$"):
            call(np.zeros(shape), tmp_path)
        assert not list(tmp_path.iterdir())

    def test_a_point_list_passes_as_float64(self):
        points = as_points([[0, 1, 2]], "points")
        assert points.dtype == np.float64 and points.tolist() == [[0.0, 1.0, 2.0]]


def numpy_rotation_defect(m):
    return max(np.linalg.norm(m.T @ m - np.eye(3)), abs(np.linalg.det(m) - 1.0))


def numpy_nearest_rotation(m):
    """The SVD projection with the sign test done by LAPACK's determinant."""
    u, _, vt = np.linalg.svd(m)
    r = u @ vt
    return u @ np.diag([1.0, 1.0, -1.0]) @ vt if np.linalg.det(r) < 0 else r


class TestRotationDefect:
    def test_agrees_with_numpy_formula(self, rng):
        for _ in range(500):
            r = random_rotation(rng)
            for m in (r, r + rng.normal(0, 1e-7, (3, 3)), r * (1 + 1e-3), rng.normal(size=(3, 3))):
                # A few ulp of the determinant's scale: the two sum in different orders.
                tol = 8 * np.spacing(max(1.0, np.abs(m).max() ** 3))
                assert abs(rotation_defect(m) - numpy_rotation_defect(m)) <= tol

    def test_thresholds_kept(self, rng):
        # Stretching one axis by e gives a defect of about 2e.
        r = random_rotation(rng)
        for e, outcome in ((0.4e-9, "kept"), (0.6e-9, "repaired"), (0.4e-6, "repaired"), (0.6e-6, "rejected")):
            m = r @ np.diag([1 + e, 1.0, 1.0])
            if outcome == "rejected":
                with pytest.raises(ValueError, match="not orthonormal"):
                    o6.RigidPose(m, np.zeros(3))
                continue
            pose = o6.RigidPose(m, np.zeros(3))
            assert np.array_equal(pose.rotation, m) == (outcome == "kept")
            assert rotation_defect(pose.rotation) <= 1e-9


class TestNearestRotation:
    def test_bit_identical_to_numpy_determinant_formula(self, rng):
        inputs = []
        for _ in range(300):
            r = random_rotation(rng)
            u, _, vt = np.linalg.svd(rng.normal(size=(3, 3)))
            inputs += [
                rng.normal(size=(3, 3)),
                r + rng.normal(0, 1e-3, (3, 3)),
                u @ np.diag([1.0, 1e-12, 0.0]) @ vt,  # near-singular: rank 1 and a bit
                r @ np.diag([1.0, 1.0, -1.0]),  # reflected
            ]
        for m in inputs:
            np.testing.assert_array_equal(o6.nearest_rotation(m), numpy_nearest_rotation(m))

    def test_projects_noisy_rotation_back(self, rng):
        r = random_rotation(rng)
        noisy = r + rng.normal(0, 1e-3, (3, 3))
        fixed = o6.nearest_rotation(noisy)
        assert rotation_defect(fixed) < 1e-12

    def test_determinant_sign_fix(self):
        fixed = o6.nearest_rotation(np.diag([1.0, 1.0, -1.0]))
        assert np.linalg.det(fixed) == pytest.approx(1.0, abs=1e-12)


class TestIntrinsicsValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(fx=0.0, fy=1.0, cx=0.0, cy=0.0),
        dict(fx=1.0, fy=-2.0, cx=0.0, cy=0.0),
        dict(fx=1.0, fy=1.0, cx=float("nan"), cy=0.0),
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            o6.CameraIntrinsics(**kwargs)
