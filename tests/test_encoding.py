"""Constraint encodings, targets, and residual forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import offset6d as o6
from offset6d import record
from offset6d.encoding import ConstraintForm, InputMode, TargetMode
from offset6d.errors import EmptyObjectError, MissingPoseError, ModeMismatchError

from conftest import default_intrinsics, random_pose, random_rotation, small_scene_spec

K = default_intrinsics()


def obs_from_pixels(pixels: dict[tuple[int, int], float], k=K, gt_pose=None, shape=(20, 20)):
    depth = np.zeros(shape)
    mask = np.zeros(shape, dtype=bool)
    for (r, c), d in pixels.items():
        depth[r, c] = d
        mask[r, c] = True
    return o6.SceneObservation(depth=depth, mask=mask, intrinsics=k, gt_pose=gt_pose)


def random_obs(rng, gt_pose=None, n_px=40, shape=(30, 30)):
    depth = np.zeros(shape)
    mask = np.zeros(shape, dtype=bool)
    idx = rng.choice(shape[0] * shape[1], size=n_px, replace=False)
    rows, cols = np.unravel_index(idx, shape)
    depth[rows, cols] = rng.uniform(0.3, 3.0, n_px)
    mask[rows, cols] = True
    return o6.SceneObservation(depth=depth, mask=mask, intrinsics=K, gt_pose=gt_pose)


def manual_ref(x0, y0, d0):
    return o6.ReferencePoint(x0, y0, d0, o6.RefStrategy.MEAN_VISIBLE)


class TestEncodeInput:
    def test_self_reference_pixel_gives_zeros(self):
        # Reference equal to the pixel's own lifted point: all offsets vanish.
        k = o6.CameraIntrinsics(fx=100.0, fy=100.0, cx=10.0, cy=10.0)
        obs = obs_from_pixels({(10, 15): 2.0}, k=k)
        # Pixel (u, v) = (15, 10) at depth 2 lifts to ((15 - cx) / fx * 2, (10 - cy) / fy * 2, 2).
        ref = manual_ref((15 - k.cx) / k.fx * 2.0, (10 - k.cy) / k.fy * 2.0, 2.0)
        enc = o6.encode_input(obs, ref, InputMode.GEOMETRIC)
        assert enc.delta_x[0] == 0.0 and enc.delta_y[0] == 0.0 and enc.delta_d[0] == 0.0

    def test_hand_computed_channels(self):
        # Pixel lifting to (0.1, 0, 2) with reference (0, 0, 1):
        #   dx = 0.1/2 - 0 = 0.05, dd = 1.0, d*d0 = 2.0, t0/(d*d0) = (0,0,0.5)
        k = o6.CameraIntrinsics(fx=100.0, fy=100.0, cx=10.0, cy=10.0)
        obs = obs_from_pixels({(10, 15): 2.0}, k=k)  # x = (15-10)/100*2 = 0.1
        ref = manual_ref(0.0, 0.0, 1.0)
        enc = o6.encode_input(obs, ref, InputMode.GEOMETRIC)
        assert enc.delta_x[0] == 0.05
        assert enc.delta_y[0] == 0.0
        assert enc.delta_d[0] == 1.0
        assert enc.dd0[0] == 2.0
        np.testing.assert_array_equal(enc.t0_over_dd0[0], [0.0, 0.0, 0.5])

    def test_offset_mode_channels(self):
        k = o6.CameraIntrinsics(fx=100.0, fy=100.0, cx=10.0, cy=10.0)
        obs = obs_from_pixels({(10, 15): 2.0}, k=k)
        ref = manual_ref(0.0, 0.0, 1.0)
        enc = o6.encode_input(obs, ref, InputMode.OFFSET_XYD)
        assert (enc.delta_x[0], enc.delta_y[0], enc.delta_d[0]) == (0.1, 0.0, 1.0)
        assert enc.dd0 is None and enc.t0_over_dd0 is None

    def test_absolute_mode_channels(self):
        k = o6.CameraIntrinsics(fx=100.0, fy=100.0, cx=10.0, cy=10.0)
        obs = obs_from_pixels({(10, 15): 2.0}, k=k)
        enc = o6.encode_input(obs, manual_ref(0.0, 0.0, 1.0), InputMode.ABSOLUTE_XYD)
        assert (enc.delta_x[0], enc.delta_y[0], enc.delta_d[0]) == (0.1, 0.0, 2.0)

    def test_modes_are_distinct(self, rng):
        obs = random_obs(rng)
        ref = o6.ref_mean_visible(obs.depth, obs.mask, K)
        encs = {m: o6.encode_input(obs, ref, m) for m in InputMode}
        a = encs[InputMode.ABSOLUTE_XYD]
        off = encs[InputMode.OFFSET_XYD]
        geo = encs[InputMode.GEOMETRIC]
        assert not np.array_equal(a.delta_x, off.delta_x)
        assert not np.array_equal(off.delta_x, geo.delta_x)
        assert not np.array_equal(a.delta_x, geo.delta_x)

    def test_row_major_ordering_and_exclusions(self):
        obs = obs_from_pixels({(5, 7): 1.0, (2, 3): 1.5, (5, 1): 2.0})
        # one masked pixel with sub-epsilon depth must be dropped
        depth = obs.depth.copy()
        mask = obs.mask.copy()
        depth[9, 9] = 1e-9
        mask[9, 9] = True
        obs = o6.SceneObservation(depth, mask, K)
        enc = o6.encode_input(obs, manual_ref(0.0, 0.0, 1.0), InputMode.GEOMETRIC)
        assert list(zip(enc.vs, enc.us)) == [(2, 3), (5, 1), (5, 7)]

    def test_empty_object(self):
        obs = obs_from_pixels({})
        with pytest.raises(EmptyObjectError):
            o6.encode_input(obs, manual_ref(0.0, 0.0, 1.0))


class TestEncodeTargets:
    def test_identity_pose_hand_case(self):
        # Identity pose, reference (0,0,1), pixel lifting to (0,0,1):
        # object coords equal camera coords, so all relative offsets vanish
        # and delta_t = t - t0 = -t0.
        obs = obs_from_pixels({(int(K.cy), int(K.cx)): 1.0}, gt_pose=o6.RigidPose.identity(), shape=(100, 100))
        ref = manual_ref(0.0, 0.0, 1.0)
        tgt = o6.encode_targets(obs, ref, TargetMode.RELATIVE_OFFSET)
        np.testing.assert_array_equal(tgt.delta_abc[0], [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(tgt.delta_t, [0.0, 0.0, -1.0])

    def test_absolute_mode_returns_object_coordinates(self, rng):
        pose = random_pose(rng)
        obs = random_obs(rng, gt_pose=pose)
        ref = o6.ref_mean_visible(obs.depth, obs.mask, K)
        tgt = o6.encode_targets(obs, ref, TargetMode.ABSOLUTE)
        cam = o6.backproject_pixels(tgt.us, tgt.vs, obs.depth[tgt.vs, tgt.us], K)
        np.testing.assert_allclose(tgt.delta_abc, o6.inverse_transform_points(pose, cam), atol=1e-14)

    def test_offset_mode(self, rng):
        pose = random_pose(rng)
        obs = random_obs(rng, gt_pose=pose)
        ref = o6.ref_mean_visible(obs.depth, obs.mask, K)
        abs_t = o6.encode_targets(obs, ref, TargetMode.ABSOLUTE)
        off_t = o6.encode_targets(obs, ref, TargetMode.OFFSET)
        p0 = pose.rotation.T @ (ref.as_array() - pose.translation)
        np.testing.assert_allclose(off_t.delta_abc, abs_t.delta_abc - p0, atol=1e-14)

    def test_delta_t_definition_exact(self, rng):
        for _ in range(100):
            pose = random_pose(rng)
            obs = random_obs(rng, gt_pose=pose, n_px=10)
            ref = o6.ref_mean_visible(obs.depth, obs.mask, K)
            tgt = o6.encode_targets(obs, ref)
            np.testing.assert_array_equal(tgt.delta_t + ref.as_array() - pose.translation,
                                          (pose.translation - ref.as_array()) + ref.as_array() - pose.translation)

    def test_missing_pose(self, rng):
        obs = random_obs(rng, gt_pose=None)
        with pytest.raises(MissingPoseError):
            o6.encode_targets(obs, manual_ref(0.0, 0.0, 1.0))

    def test_pixel_set_matches_encode_input(self, rng):
        pose = random_pose(rng)
        obs = random_obs(rng, gt_pose=pose)
        ref = o6.ref_mean_visible(obs.depth, obs.mask, K)
        enc = o6.encode_input(obs, ref)
        tgt = o6.encode_targets(obs, ref)
        np.testing.assert_array_equal(enc.us, tgt.us)
        np.testing.assert_array_equal(enc.vs, tgt.vs)


class TestChannelShapes:
    """Every per-pixel array has the encoding's pixel count, and each misfit
    is refused naming its field, before a residual can broadcast over it."""

    @pytest.fixture
    def pair(self, rng):
        obs = random_obs(rng, gt_pose=random_pose(rng), n_px=5)
        ref = o6.ref_mean_visible(obs.depth, obs.mask, K)
        return o6.encode_input(obs, ref), o6.encode_targets(obs, ref)

    def test_dd0_of_another_length(self, pair):
        enc, _ = pair
        assert len(enc) == 5
        with pytest.raises(ValueError, match=r"^dd0 has shape \(1,\), expected \(5,\)$"):
            record.replace(enc, dd0=enc.dd0[:1])
        with pytest.raises(ValueError, match="^t0_over_dd0 has shape"):
            record.replace(enc, t0_over_dd0=enc.t0_over_dd0[:, :2])
        with pytest.raises(ValueError, match="^delta_d has shape"):
            record.replace(enc, delta_d=enc.delta_d[:, None])

    def test_pixel_indices_of_another_length(self, pair):
        _, tgt = pair
        with pytest.raises(ValueError, match=r"^us has shape \(3,\), expected \(5,\)$"):
            record.replace(tgt, us=tgt.us[:3], vs=tgt.vs[:3])
        with pytest.raises(ValueError, match="^vs has shape"):
            record.replace(tgt, vs=tgt.vs[:3])

    def test_delta_t_not_a_3_vector(self, pair):
        _, tgt = pair
        with pytest.raises(ValueError, match=r"^delta_t has shape \(1, 3\), expected \(3,\)$"):
            record.replace(tgt, delta_t=tgt.delta_t[None, :])
        with pytest.raises(ValueError, match="^delta_abc has shape"):
            record.replace(tgt, delta_abc=tgt.delta_abc[:, :1])


class TestDecodeTranslation:
    def test_zero_offset(self):
        ref = manual_ref(1.0, 2.0, 3.0)
        np.testing.assert_array_equal(o6.decode_translation(np.zeros(3), ref), [1.0, 2.0, 3.0])

    def test_cancellation(self):
        ref = manual_ref(1.0, 2.0, 3.0)
        np.testing.assert_array_equal(o6.decode_translation([-1.0, -2.0, -3.0], ref), [0.0, 0.0, 0.0])

    def test_round_trip_1000_random_scenes(self, rng):
        for _ in range(1000):
            pose = random_pose(rng)
            obs = random_obs(rng, gt_pose=pose, n_px=5)
            ref = o6.ref_mean_visible(obs.depth, obs.mask, K)
            tgt = o6.encode_targets(obs, ref)
            decoded = o6.decode_translation(tgt.delta_t, ref)
            np.testing.assert_allclose(decoded, pose.translation, atol=1e-12)


class TestConstraintResidual:
    def test_reference_pixel(self):
        # Pixel = reference point: every delta vanishes, so the corrected
        # residual is exactly zero.  The unscaled anchor term of the
        # as-printed variant survives (that term is the whole discrepancy),
        # leaving exactly (dd - 1) t0 / (d d0) = -t0 here.
        pose = o6.RigidPose.identity()
        obs = obs_from_pixels({(int(K.cy), int(K.cx)): 1.0}, gt_pose=pose, shape=(100, 100))
        ref = manual_ref(0.0, 0.0, 1.0)
        enc = o6.encode_input(obs, ref)
        tgt = o6.encode_targets(obs, ref)
        res_c = o6.constraint_residual(enc, tgt, pose, ConstraintForm.CORRECTED)
        np.testing.assert_array_equal(res_c, np.zeros((1, 3)))
        res_p = o6.constraint_residual(enc, tgt, pose, ConstraintForm.AS_PRINTED)
        np.testing.assert_array_equal(res_p, [[0.0, 0.0, -1.0]])

    def test_corrected_zero_on_random_scenes(self, rng):
        for _ in range(200):
            pose = random_pose(rng)
            obs = random_obs(rng, gt_pose=pose, n_px=15)
            ref = o6.ref_mean_visible(obs.depth, obs.mask, K)
            enc = o6.encode_input(obs, ref)
            tgt = o6.encode_targets(obs, ref)
            res = o6.constraint_residual(enc, tgt, pose, ConstraintForm.CORRECTED)
            scale = np.linalg.norm(ref.as_array()) / enc.dd0.min()
            assert np.linalg.norm(res, axis=1).max() < 1e-12 * max(1.0, scale)

    def test_as_printed_equals_corrected_plus_closed_form(self, rng):
        for _ in range(200):
            pose = random_pose(rng)
            obs = random_obs(rng, gt_pose=pose, n_px=15)
            ref = o6.ref_mean_visible(obs.depth, obs.mask, K)
            enc = o6.encode_input(obs, ref)
            tgt = o6.encode_targets(obs, ref)
            corrected = o6.constraint_residual(enc, tgt, pose, ConstraintForm.CORRECTED)
            printed = o6.constraint_residual(enc, tgt, pose, ConstraintForm.AS_PRINTED)
            gap = (enc.delta_d - 1.0)[:, None] * ref.as_array()[None, :] / enc.dd0[:, None]
            np.testing.assert_allclose(printed, corrected + gap, atol=1e-12)

    def test_as_printed_norm_closed_form(self):
        # Single pixel: |residual| = |1 - dd| * |t0| / (d d0) when data is exact.
        k = o6.CameraIntrinsics(fx=100.0, fy=100.0, cx=10.0, cy=10.0)
        pose = o6.RigidPose.from_axis_angle([1, 1, 0], 0.7, translation=(0.05, -0.02, 1.1))
        obs = obs_from_pixels({(13, 6): 2.0}, k=k, gt_pose=pose)
        ref = manual_ref(0.04, -0.03, 0.9)
        enc = o6.encode_input(obs, ref)
        tgt = o6.encode_targets(obs, ref)
        res = o6.constraint_residual(enc, tgt, pose, ConstraintForm.AS_PRINTED)
        dd = 2.0 - 0.9
        expected = abs(1 - dd) * np.linalg.norm(ref.as_array()) / (2.0 * 0.9)
        assert np.linalg.norm(res[0]) == pytest.approx(expected, rel=1e-9)

    def test_mode_errors(self, rng):
        pose = random_pose(rng)
        obs = random_obs(rng, gt_pose=pose)
        ref = o6.ref_mean_visible(obs.depth, obs.mask, K)
        enc = o6.encode_input(obs, ref, InputMode.GEOMETRIC)
        for bad_mode in (TargetMode.ABSOLUTE, TargetMode.OFFSET):
            tgt = o6.encode_targets(obs, ref, bad_mode)
            with pytest.raises(ModeMismatchError):
                o6.constraint_residual(enc, tgt, pose)
        tgt = o6.encode_targets(obs, ref, TargetMode.RELATIVE_OFFSET)
        for bad_input in (InputMode.ABSOLUTE_XYD, InputMode.OFFSET_XYD):
            enc_bad = o6.encode_input(obs, ref, bad_input)
            with pytest.raises(ModeMismatchError):
                o6.constraint_residual(enc_bad, tgt, pose)

    def test_third_component_identity_exact(self, rng):
        # d/d - d0/d0 is exactly zero in floats, for every pixel.
        depths = rng.uniform(0.3, 3.0, 10_000)
        d0 = rng.uniform(0.3, 3.0)
        assert np.all(depths / depths - d0 / d0 == 0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.one_of(
            st.builds(o6.SphereModel, st.floats(0.03, 0.12)),
            st.builds(o6.CylinderModel, st.floats(0.02, 0.08), st.floats(0.05, 0.2)),
            st.builds(o6.BoxModel, st.floats(0.04, 0.2), st.floats(0.04, 0.2), st.floats(0.04, 0.2)),
        ),
        z=st.floats(0.3, 5.0),
        seed=st.integers(0, 2**32 - 1),
        index=st.integers(0, 1000),
        strategy=st.sampled_from(list(o6.RefStrategy)),
    )
    def test_corrected_form_identity_on_rendered_scenes(self, kind, z, seed, index, strategy):
        # The paper's printed anchor term t0/(d d0) lacks the dd factor: on
        # exact data CORRECTED vanishes and AS_PRINTED is off by exactly
        # (dd - 1) t0 / (d d0), from 0.3 m to 5 m and for every anchor.
        spec = small_scene_spec(
            seed=seed, model_kind=kind, surface_sample_count=50,
            translation_dist=o6.BoxVolume((0.0, 0.0, z), (0.05, 0.05, 0.05)),
        )
        obs = o6.render_scene(spec, index).observation
        ref = o6.make_reference(obs, strategy)
        enc = o6.encode_input(obs, ref)
        tgt = o6.encode_targets(obs, ref)
        corrected = o6.constraint_residual(enc, tgt, obs.gt_pose, ConstraintForm.CORRECTED)
        printed = o6.constraint_residual(enc, tgt, obs.gt_pose, ConstraintForm.AS_PRINTED)
        t0 = ref.as_array()
        tol = 1e-12 * max(1.0, np.linalg.norm(t0) / enc.dd0.min())
        assert np.abs(corrected).max() < tol
        gap = (enc.delta_d - 1.0)[:, None] * t0[None, :] / enc.dd0[:, None]
        np.testing.assert_allclose(printed - corrected, gap, rtol=0, atol=tol)


class TestNaiveOffsetResidual:
    def _consistent(self, rng, n=30):
        rotation = random_rotation(rng)
        t = rng.uniform(-5, 5, 3)
        obj = rng.uniform(-0.1, 0.1, (n, 3))
        obj0 = obj.mean(axis=0)
        cam = obj @ rotation.T + t
        cam0 = rotation @ obj0 + t
        return cam, obj, cam0, obj0, rotation, t

    def test_zero_on_consistent_data(self, rng):
        for _ in range(200):
            cam, obj, cam0, obj0, rotation, _ = self._consistent(rng)
            res = o6.naive_offset_residual(cam, obj, cam0, obj0, rotation)
            assert np.abs(res).max() < 1e-12

    def test_translation_perturbation_leaves_residual_unchanged(self, rng):
        # Grid-snapped regeneration makes every +t exact, so the residual is
        # provably free of t, bit for bit.
        grid = 2.0 ** -26
        for _ in range(100):
            rotation = random_rotation(rng)
            obj = rng.uniform(-0.1, 0.1, (20, 3))
            obj0 = obj.mean(axis=0)
            v = np.round(obj @ rotation.T / grid) * grid
            v0 = np.round(rotation @ obj0 / grid) * grid
            t1 = np.round(rng.uniform(-50, 50, 3) / grid) * grid
            t2 = np.round(rng.uniform(-50, 50, 3) / grid) * grid
            res1 = o6.naive_offset_residual(v + t1, obj, v0 + t1, obj0, rotation)
            res2 = o6.naive_offset_residual(v + t2, obj, v0 + t2, obj0, rotation)
            np.testing.assert_array_equal(res1, res2)

    def test_rotation_perturbation_is_visible(self, rng):
        cam, obj, cam0, obj0, rotation, _ = self._consistent(rng)
        bumped = o6.nearest_rotation(rotation @ o6.RigidPose.from_axis_angle([0, 0, 1], 1e-3).rotation)
        res = o6.naive_offset_residual(cam, obj, cam0, obj0, bumped)
        assert np.linalg.norm(res, axis=1).max() > 1e-6

    def test_length_mismatch(self, rng):
        cam, obj, cam0, obj0, rotation, _ = self._consistent(rng)
        with pytest.raises(ValueError):
            o6.naive_offset_residual(cam[:-1], obj, cam0, obj0, rotation)


class TestDeltaTBound:
    def test_delta_t_within_half_diameter(self):
        # Mean-visible anchor on ray-cast scenes of a centered model.
        spec = small_scene_spec(seed=5)
        model = o6.model_for_spec(spec)
        for i in range(40):
            scene = o6.render_scene(spec, i, model=model)
            obs = scene.observation
            ref = o6.ref_mean_visible(obs.depth, obs.mask, obs.intrinsics)
            delta_t = obs.gt_pose.translation - ref.as_array()
            assert np.linalg.norm(delta_t) <= model.diameter / 2 + 1e-9
