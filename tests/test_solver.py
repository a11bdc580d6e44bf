"""Pose recovery: Procrustes alignment and the closed-form constraint solve."""

import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import offset6d as o6
from offset6d import record
from offset6d.encoding import camera_side
from offset6d.errors import DegenerateConfigurationError, ModeMismatchError
from offset6d.geometry import rotation_defect
from offset6d.solver import ConditionFlag

from conftest import default_intrinsics, random_pose, small_scene_spec

K = default_intrinsics()


def encoded_scene(index: int, seed: int = 11, spec=None):
    spec = spec or small_scene_spec(seed=seed)
    scene = o6.render_scene(spec, index)
    obs = scene.observation
    ref = o6.ref_mean_visible(obs.depth, obs.mask, obs.intrinsics)
    enc = o6.encode_input(obs, ref)
    tgt = o6.encode_targets(obs, ref)
    return scene, enc, tgt, ref


class TestProcrustes:
    def test_identity_alignment(self, rng):
        pts = rng.uniform(-1, 1, (30, 3))
        report = o6.solve_procrustes(pts, pts)
        np.testing.assert_allclose(report.pose.rotation, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(report.pose.translation, np.zeros(3), atol=1e-12)
        assert report.residual_rms < 1e-12
        assert report.condition_flag is ConditionFlag.WELL_POSED
        assert report.point_count == 30

    def test_generate_then_recover(self, rng):
        for _ in range(50):
            pose = random_pose(rng)
            obj = rng.uniform(-0.2, 0.2, (40, 3))
            cam = o6.transform_points(pose, obj)
            report = o6.solve_procrustes(cam, obj)
            assert o6.rotation_geodesic_error(report.pose, pose) < 1e-6
            assert np.linalg.norm(report.pose.translation - pose.translation) < 1e-8

    def test_collinear_points_degenerate(self):
        obj = np.outer(np.linspace(0, 1, 5), [1.0, 2.0, 3.0])
        cam = obj + [0.1, 0.0, 0.5]
        with pytest.raises(DegenerateConfigurationError):
            o6.solve_procrustes(cam, obj)

    def test_too_few_points(self):
        with pytest.raises(DegenerateConfigurationError):
            o6.solve_procrustes(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_coplanar_points_are_fine(self, rng):
        # Any 3 non-collinear points are coplanar; rotation is still unique.
        pose = random_pose(rng)
        obj = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [0.0, 0.1, 0.0], [0.1, 0.1, 0.0]])
        cam = o6.transform_points(pose, obj)
        report = o6.solve_procrustes(cam, obj)
        assert o6.rotation_geodesic_error(report.pose, pose) < 1e-9

    def test_equivariance(self, rng):
        # Moving all camera points by G turns the answer into G o pose.
        for _ in range(20):
            pose = random_pose(rng)
            motion = random_pose(rng)
            obj = rng.uniform(-0.2, 0.2, (25, 3))
            cam = o6.transform_points(pose, obj)
            moved = o6.transform_points(motion, cam)
            report = o6.solve_procrustes(moved, obj)
            r, t = motion.rotation, motion.translation
            expected = o6.RigidPose(r @ pose.rotation, r @ pose.translation + t)  # motion o pose
            assert o6.rotation_geodesic_error(report.pose, expected) < 1e-9
            assert np.linalg.norm(report.pose.translation - expected.translation) < 1e-9

    def test_noisy_rotation_still_valid(self, rng):
        pose = random_pose(rng)
        obj = rng.uniform(-0.2, 0.2, (40, 3))
        cam = o6.transform_points(pose, obj) + rng.normal(0, 0.01, (40, 3))
        report = o6.solve_procrustes(cam, obj)
        assert rotation_defect(report.pose.rotation) <= 1e-9


class TestConstraintSolve:
    def test_noiseless_recovery(self):
        for i in range(20):
            scene, enc, tgt, ref = encoded_scene(i)
            assert len(enc) >= 20
            report = o6.solve_from_constraints(enc, tgt.delta_abc)
            gt = scene.observation.gt_pose
            assert o6.rotation_geodesic_error(report.pose, gt) < 1e-6
            assert np.linalg.norm(report.pose.translation - gt.translation) < 1e-8
            assert report.residual_rms < 1e-10

    def test_agrees_with_procrustes(self):
        for i in range(10):
            scene, enc, tgt, ref = encoded_scene(i, seed=13)
            obs = scene.observation
            report = o6.solve_from_constraints(enc, tgt.delta_abc)
            cam = o6.backproject_pixels(enc.us, enc.vs, obs.depth[enc.vs, enc.us], obs.intrinsics)
            obj = o6.inverse_transform_points(obs.gt_pose, cam)
            baseline = o6.solve_procrustes(cam, obj)
            assert o6.rotation_geodesic_error(report.pose, baseline.pose) < 1e-8
            assert np.linalg.norm(report.pose.translation - baseline.pose.translation) < 1e-8

    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.one_of(
            st.builds(o6.SphereModel, st.floats(0.03, 0.12)),
            st.builds(o6.CylinderModel, st.floats(0.02, 0.08), st.floats(0.05, 0.2)),
            st.builds(o6.BoxModel, st.floats(0.04, 0.2), st.floats(0.04, 0.2), st.floats(0.04, 0.2)),
        ),
        z=st.floats(0.6, 1.6),
        seed=st.integers(0, 2**32 - 1),
        index=st.integers(0, 1000),
        strategy=st.sampled_from(list(o6.RefStrategy)),
    )
    def test_agrees_with_procrustes_on_rendered_scenes(self, kind, z, seed, index, strategy):
        # Well-conditioned: at least 50 pixels spread over >= 1 cm of depth.
        spec = small_scene_spec(
            seed=seed, model_kind=kind, surface_sample_count=50,
            translation_dist=o6.BoxVolume((0.0, 0.0, z), (0.1, 0.1, 0.1)),
        )
        obs = o6.render_scene(spec, index).observation
        ref = o6.make_reference(obs, strategy)
        enc = o6.encode_input(obs, ref)
        depths = obs.depth[enc.vs, enc.us]
        assume(len(enc) >= 50 and np.ptp(depths) >= 0.01)
        # s3/s1 of the constraint columns [dx, dy, w]: near 0 when one planar
        # face is seen, exactly 0 when its plane holds the reference point.
        s = np.linalg.svd(np.stack([enc.delta_x, enc.delta_y, enc.delta_d / enc.dd0], axis=1), compute_uv=False)
        try:
            report = o6.solve_from_constraints(enc, o6.encode_targets(obs, ref).delta_abc)
        except DegenerateConfigurationError:
            assert s[2] / s[0] < 1e-4
            return
        cam = o6.backproject_pixels(enc.us, enc.vs, depths, obs.intrinsics)
        baseline = o6.solve_procrustes(cam, o6.inverse_transform_points(obs.gt_pose, cam))
        # A near-planar view costs both solvers digits; 1e-12 holds once the
        # columns are conditioned, as every uniformly drawn scene is (s3/s1 >= 0.015).
        tolerance = 1e-12 if s[2] / s[0] > 1e-2 else 1e-8
        assert o6.rotation_geodesic_error(report.pose, baseline.pose) < tolerance
        assert np.linalg.norm(report.pose.translation - baseline.pose.translation) < tolerance

    def test_uniform_depth_is_degenerate(self):
        # Fronto-parallel plane: dd = 0 kills the translation column and
        # flattens the offsets; the pose cannot be pinned down.
        depth = np.zeros((40, 40))
        mask = np.zeros((40, 40), dtype=bool)
        depth[10:30, 10:30] = 1.0
        mask[10:30, 10:30] = True
        obs = o6.SceneObservation(depth, mask, K, gt_pose=o6.RigidPose.identity())
        ref = o6.ref_mean_visible(obs.depth, obs.mask, K)
        assert ref.d0 == 1.0
        enc = o6.encode_input(obs, ref)
        tgt = o6.encode_targets(obs, ref)
        with pytest.raises(DegenerateConfigurationError):
            o6.solve_from_constraints(enc, tgt.delta_abc)

    def test_planar_face_through_reference_is_degenerate(self):
        # One face of the box is seen.  Anchored at the mean visible point,
        # which lies on that face, dx, dy and w are linearly dependent and the
        # rotation about the face normal is free; anchored off the plane, the
        # same view solves.
        spec = small_scene_spec(
            seed=157, model_kind=o6.BoxModel(0.125, 0.125, 0.1875), surface_sample_count=50,
            translation_dist=o6.BoxVolume((0.0, 0.0, 1.0), (0.1, 0.1, 0.1)),
        )
        obs = o6.render_scene(spec, 157).observation
        for strategy in (o6.RefStrategy.MEAN_VISIBLE, o6.RefStrategy.CENTER_MEAN_DEPTH):
            ref = o6.make_reference(obs, strategy)
            enc = o6.encode_input(obs, ref)
            delta_abc = o6.encode_targets(obs, ref).delta_abc
            if strategy is o6.RefStrategy.MEAN_VISIBLE:
                with pytest.raises(DegenerateConfigurationError):
                    o6.solve_from_constraints(enc, delta_abc)
            else:
                report = o6.solve_from_constraints(enc, delta_abc)
                assert o6.rotation_geodesic_error(report.pose, obs.gt_pose) < 1e-8

    def test_too_few_pixels(self):
        scene, enc, tgt, ref = encoded_scene(0)
        small = record.replace(
            enc,
            us=enc.us[:4], vs=enc.vs[:4],
            delta_x=enc.delta_x[:4], delta_y=enc.delta_y[:4], delta_d=enc.delta_d[:4],
            dd0=enc.dd0[:4], t0_over_dd0=enc.t0_over_dd0[:4],
        )
        with pytest.raises(DegenerateConfigurationError):
            o6.solve_from_constraints(small, tgt.delta_abc[:4])

    def test_non_finite_targets_are_degenerate(self):
        scene, enc, tgt, ref = encoded_scene(0)
        for bad in (np.nan, np.inf):
            delta_abc = tgt.delta_abc.copy()
            delta_abc[3, 1] = bad
            with pytest.raises(DegenerateConfigurationError):
                o6.solve_from_constraints(enc, delta_abc)

    def test_requires_geometric_channels(self):
        scene, enc, tgt, ref = encoded_scene(0)
        obs = scene.observation
        plain = o6.encode_input(obs, ref, o6.InputMode.OFFSET_XYD)
        with pytest.raises(ModeMismatchError):
            o6.solve_from_constraints(plain, tgt.delta_abc)

    def test_noisy_targets_median_add(self, rng):
        # Monte-Carlo bound from the solver contract: sigma = 1e-4 target
        # noise on a 0.2 m object keeps the median ADD below 2 mm.
        spec = small_scene_spec(seed=17, model_kind=o6.SphereModel(0.1), surface_sample_count=1000)
        model = o6.model_for_spec(spec)
        assert model.diameter == pytest.approx(0.2, abs=1e-12)
        adds = []
        for i in range(100):
            scene = o6.render_scene(spec, i, model=model)
            obs = scene.observation
            ref = o6.ref_mean_visible(obs.depth, obs.mask, obs.intrinsics)
            enc = o6.encode_input(obs, ref)
            tgt = o6.encode_targets(obs, ref)
            noisy = tgt.delta_abc + rng.normal(0, 1e-4, tgt.delta_abc.shape)
            report = o6.solve_from_constraints(enc, noisy)
            adds.append(o6.add(report.pose, obs.gt_pose, model))
            assert rotation_defect(report.pose.rotation) <= 1e-9
        assert np.median(adds) < 2e-3

    def test_translation_error_scales_with_target_noise(self, rng):
        # The noisy targets stay out of every design matrix, so the
        # translation error grows in line with sigma; a solve that regressed
        # on them would grow about 40x from 1e-3 to 1e-2 with a 0.1 m median.
        spec = small_scene_spec(seed=17, model_kind=o6.SphereModel(0.1), surface_sample_count=1000)
        model = o6.model_for_spec(spec)
        scenes = []
        for i in range(100):
            obs = o6.render_scene(spec, i, model=model).observation
            ref = o6.ref_mean_visible(obs.depth, obs.mask, obs.intrinsics)
            scenes.append((obs.gt_pose, o6.encode_input(obs, ref), o6.encode_targets(obs, ref).delta_abc))
        medians = {}
        for sigma in (1e-3, 1e-2):
            errors = []
            for gt, enc, delta_abc in scenes:
                noisy = delta_abc + rng.normal(0, sigma, delta_abc.shape)
                report = o6.solve_from_constraints(enc, noisy)
                errors.append(np.linalg.norm(report.pose.translation - gt.translation))
            medians[sigma] = np.median(errors)
        assert medians[1e-2] < 0.05
        assert medians[1e-2] / medians[1e-3] < 15

    def test_residual_monotone_under_noise(self, rng):
        clean, noisy = [], []
        for i in range(100):
            scene, enc, tgt, ref = encoded_scene(i, seed=23)
            clean.append(o6.solve_from_constraints(enc, tgt.delta_abc).residual_rms)
            bumped = tgt.delta_abc + rng.normal(0, 1e-3, tgt.delta_abc.shape)
            noisy.append(o6.solve_from_constraints(enc, bumped).residual_rms)
        assert np.mean(clean) < np.mean(noisy)

    def test_refinement_does_not_hurt(self, rng):
        scene, enc, tgt, ref = encoded_scene(3, seed=29)
        noisy = tgt.delta_abc + rng.normal(0, 1e-3, tgt.delta_abc.shape)
        raw = o6.solve_from_constraints(enc, noisy)
        refined = o6.solve_from_constraints(enc, noisy, refine_iterations=3)
        assert refined.residual_rms <= raw.residual_rms * 1.01

    def test_report_fields(self):
        scene, enc, tgt, ref = encoded_scene(1)
        report = o6.solve_from_constraints(enc, tgt.delta_abc)
        assert report.point_count == len(enc)
        assert report.condition_flag is ConditionFlag.WELL_POSED


class TestSolveReport:
    @pytest.mark.parametrize("residual, count, message", [
        (np.nan, 6, "residual_rms must be a finite number >= 0, got nan"),
        (np.inf, 6, "residual_rms must be a finite number >= 0, got inf"),
        (-5.0, 6, "residual_rms must be a finite number >= 0, got -5.0"),
        (0.0, -1, "point_count must be >= 0, got -1"),
    ])
    def test_refuses_what_no_solve_reports(self, residual, count, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            o6.SolveReport(o6.RigidPose.identity(), residual, count, ConditionFlag.WELL_POSED)


class TestGeodesicError:
    def test_zero_for_same_pose(self, rng):
        pose = random_pose(rng)
        assert o6.rotation_geodesic_error(pose, pose) == 0.0

    def test_quarter_turn(self):
        a = o6.RigidPose.identity()
        b = o6.RigidPose.from_axis_angle([0, 0, 1], np.pi / 2)
        assert o6.rotation_geodesic_error(a, b) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_large_angle_branch(self):
        a = o6.RigidPose.identity()
        b = o6.RigidPose.from_axis_angle([0, 1, 0], 3.0)
        assert o6.rotation_geodesic_error(a, b) == pytest.approx(3.0, abs=1e-12)

    def test_symmetry(self, rng):
        for _ in range(100):
            a, b = random_pose(rng), random_pose(rng)
            assert abs(o6.rotation_geodesic_error(a, b) - o6.rotation_geodesic_error(b, a)) < 1e-12


def constraint_cost(lhs, w, targets, rotation) -> float:
    """``J(R) = |P - L R - w s(R)^T|^2`` with the best ``s(R) = (P - L R)^T w / w^T w``."""
    fitted = targets - lhs @ rotation
    return float(np.sum((fitted - np.outer(w, fitted.T @ w / (w @ w))) ** 2))


def small_rotation(v) -> np.ndarray:
    """``exp([v]x)``: the rotation by ``|v|`` radians about ``v``."""
    angle = np.linalg.norm(v)
    w, x, y, z = np.concatenate([[np.cos(angle / 2)], np.sin(angle / 2) * v / angle])
    return o6.RigidPose.from_quaternion(w, x, y, z).rotation


class TestLeastSquaresOptimum:
    """The closed-form solve returns the minimum over SO(3) of the constraint
    cost J: on perturbed targets, no rotation 1e-4 rad away costs less."""

    @pytest.mark.parametrize("kind", [
        o6.BoxModel(0.08, 0.06, 0.1), o6.SphereModel(0.05), o6.CylinderModel(0.03, 0.1),
    ], ids=["box", "sphere", "cylinder"])
    def test_no_nearby_rotation_costs_less(self, kind):
        spec = small_scene_spec(seed=37, model_kind=kind, surface_sample_count=200)
        model = o6.model_for_spec(spec)
        draws = np.random.default_rng(41)
        for index in range(20):
            obs = o6.render_scene(spec, index, model=model).observation
            ref = o6.make_reference(obs, o6.RefStrategy.CENTER_MEAN_DEPTH)
            enc = o6.encode_input(obs, ref)
            lhs, w = camera_side(enc)
            clean = o6.encode_targets(obs, ref).delta_abc
            for sigma in (1e-4, 1e-3, 1e-2):
                targets = clean + o6.synth.perturbation_rng(spec.seed, index).normal(0.0, sigma, clean.shape)
                rotation = o6.solve_from_constraints(enc, targets).pose.rotation
                best = constraint_cost(lhs, w, targets, rotation)
                for axis in draws.normal(size=(10, 3)):
                    nearby = rotation @ small_rotation(1e-4 * axis / np.linalg.norm(axis))
                    assert best <= constraint_cost(lhs, w, targets, nearby)


def _random_spec(rng: np.random.Generator) -> o6.SceneSpec:
    """A valid spec from the space the toolkit is meant for: a primitive of
    1-30 cm, a 24-200 px image with an off-centre principal point, f from 50
    to 600, a depth of 0.2-5 m and 50-800 surface samples."""
    a, b, c = (float(size) for size in rng.uniform(0.01, 0.30, 3))
    model_kind = (o6.SphereModel(a / 2), o6.BoxModel(a, b, c), o6.CylinderModel(a / 2, b))[rng.integers(3)]
    width, height = (int(n) for n in rng.integers(24, 201, 2))
    fx, fy = (float(f) for f in rng.uniform(50.0, 600.0, 2))
    cx, cy = float(rng.uniform(0.3, 0.7) * width), float(rng.uniform(0.3, 0.7) * height)
    z = float(rng.uniform(0.2, 5.0))
    return o6.SceneSpec(
        model_kind=model_kind,
        surface_sample_count=int(rng.integers(50, 801)),
        image_size=(width, height),
        intrinsics=o6.CameraIntrinsics(fx, fy, cx, cy),
        translation_dist=o6.BoxVolume(center=(0.0, 0.0, z), half_widths=(0.05 * z, 0.05 * z, 0.1 * z)),
        seed=int(rng.integers(2**63)),
    )


class TestSpecSpace:
    def test_every_clean_scene_is_exact_or_names_why_not(self):
        # Each spec and reference strategy either meets the exact gates (the
        # corrected residual and the clean solve) or raises a toolkit error:
        # too few visible pixels, say.  A rank-deficient system is one whose
        # visible points lie in a plane holding the reference point: one box
        # face under mean-visible, or a sphere seen in pixels of one image
        # row, whose plane passes through the camera centre.
        rng = np.random.default_rng(20261020)
        outcomes = Counter()
        for _ in range(120):
            spec = _random_spec(rng)
            try:
                obs = o6.render_scene(spec, 0).observation
            except o6.EmptyObjectError:  # the object missed the image, or only grazed it
                outcomes["EmptyObjectError"] += 1
                continue
            for strategy in o6.RefStrategy:
                try:
                    ref = o6.make_reference(obs, strategy)
                    enc, tgt = o6.encode_input(obs, ref), o6.encode_targets(obs, ref)
                    report = o6.solve_from_constraints(enc, tgt.delta_abc)
                except o6.Offset6DError as exc:
                    if "rank deficient" in str(exc):
                        points = obs.visible[2]
                        centroid = points.mean(axis=0)
                        _, s, vt = np.linalg.svd(points - centroid, full_matrices=False)
                        assert s[2] / s[0] < 1e-9, spec
                        assert abs((ref.as_array() - centroid) @ vt[2]) < 1e-9, spec
                        outcomes["rank deficient"] += 1
                    outcomes[type(exc).__name__] += 1
                    continue
                residual = o6.constraint_residual(enc, tgt, obs.gt_pose)
                assert np.linalg.norm(residual, axis=1).max() < 1e-9, spec
                assert o6.rotation_geodesic_error(report.pose, obs.gt_pose) < 1e-6, spec
                assert np.linalg.norm(report.pose.translation - obs.gt_pose.translation) < 1e-8, spec
                outcomes["exact"] += 1
        assert outcomes["exact"] >= 0.75 * 3 * 120, outcomes
        assert outcomes["rank deficient"] == 4, outcomes  # the box face and the sphere's one row, three times
