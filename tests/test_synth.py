"""Synthetic scenes: models, sampling, rendering, distribution report."""

import math

import numpy as np
import pytest

import offset6d as o6
from offset6d import formats
from offset6d.errors import EmptyObjectError
from offset6d.geometry import rotation_defect
from offset6d.synth import model_rng, scene_digest, scene_rng

from conftest import default_intrinsics, small_scene_spec

K = default_intrinsics()


def surface_distance(kind, points: np.ndarray) -> np.ndarray:
    """Independent point-to-surface distance for the analytic primitives."""
    pts = np.asarray(points)
    if isinstance(kind, o6.SphereModel):
        return np.abs(np.linalg.norm(pts, axis=1) - kind.radius)
    if isinstance(kind, o6.BoxModel):
        half = kind.half_extents
        q = np.abs(pts) - half
        outside = np.linalg.norm(np.clip(q, 0, None), axis=1)
        inside = -np.clip(q.max(axis=1), None, 0)
        # exactly one of the two is nonzero per point
        return np.where(q.max(axis=1) > 0, outside, inside)
    if isinstance(kind, o6.CylinderModel):
        radial = np.hypot(pts[:, 0], pts[:, 1]) - kind.radius
        axial = np.abs(pts[:, 2]) - kind.height / 2
        outside = np.hypot(np.clip(radial, 0, None), np.clip(axial, 0, None))
        inside = -np.minimum(np.clip(-radial, 0, None), np.clip(-axial, 0, None))
        return np.where((radial > 0) | (axial > 0), outside, np.abs(inside))
    raise TypeError(kind)


def lifted_object_points(scene):
    obs = scene.observation
    valid = obs.mask.values & (obs.depth.values > 0)
    rows, cols = np.nonzero(valid)
    cam = o6.backproject_pixels(cols, rows, obs.depth.values[rows, cols], obs.intrinsics)
    return o6.inverse_transform_points(obs.gt_pose, cam)


class TestRotationSampling:
    def test_draws_are_valid_rotations(self):
        rng = np.random.default_rng(3)
        for _ in range(10_000):
            r = o6.sample_rotation_uniform(rng)
            assert rotation_defect(r) <= 1e-9

    def test_trace_mean_matches_haar(self):
        # E[R] = 0 under the invariant measure, hence E[trace] = 0.
        rng = np.random.default_rng(4)
        total = 0.0
        n = 100_000
        for _ in range(n):
            total += np.trace(o6.sample_rotation_uniform(rng))
        assert abs(total / n) < 0.02

    def test_fixed_seed_bit_identical(self):
        a = [o6.sample_rotation_uniform(np.random.default_rng(9)) for _ in range(5)]
        b = [o6.sample_rotation_uniform(np.random.default_rng(9)) for _ in range(5)]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


class TestMakeModel:
    def test_sphere_diameter_exact(self):
        model = o6.make_model(o6.SphereModel(0.05), 500, model_rng(small_scene_spec()))
        assert model.diameter == pytest.approx(0.1, rel=1e-12)
        assert model.symmetric

    def test_box_diameter_is_diagonal(self):
        model = o6.make_model(o6.BoxModel(0.1, 0.1, 0.1), 500, model_rng(small_scene_spec()))
        assert model.diameter == pytest.approx(0.1 * math.sqrt(3), rel=1e-12)
        assert not model.symmetric

    def test_cylinder_diameter(self):
        model = o6.make_model(o6.CylinderModel(0.04, 0.12), 500, model_rng(small_scene_spec()))
        assert model.diameter == pytest.approx(math.sqrt(4 * 0.04**2 + 0.12**2), rel=1e-12)
        assert model.symmetric

    def test_centroid_exactly_zero(self):
        for kind in (o6.SphereModel(0.05), o6.BoxModel(0.1, 0.06, 0.08), o6.CylinderModel(0.04, 0.1)):
            model = o6.make_model(kind, 401, model_rng(small_scene_spec()))
            assert model.point_count >= 401
            for axis in range(3):
                assert math.fsum(model.points[:, axis].tolist()) == 0.0

    def test_points_lie_on_surface(self):
        for kind in (o6.SphereModel(0.05), o6.BoxModel(0.1, 0.06, 0.08), o6.CylinderModel(0.04, 0.1)):
            model = o6.make_model(kind, 600, model_rng(small_scene_spec()))
            assert surface_distance(kind, model.points).max() < 1e-12

    def test_point_norm_bounded_by_half_diameter(self):
        for kind in (o6.SphereModel(0.05), o6.BoxModel(0.1, 0.06, 0.08), o6.CylinderModel(0.04, 0.1)):
            model = o6.make_model(kind, 600, model_rng(small_scene_spec()))
            assert np.linalg.norm(model.points, axis=1).max() <= model.diameter / 2 + 1e-12


class TestRenderScene:
    @pytest.mark.parametrize(
        "kind",
        [o6.BoxModel(0.08, 0.06, 0.1), o6.SphereModel(0.05), o6.CylinderModel(0.04, 0.1)],
    )
    def test_lifted_pixels_lie_on_surface(self, kind):
        spec = small_scene_spec(seed=31, model_kind=kind)
        for i in range(10):
            scene = o6.render_scene(spec, i)
            obj = lifted_object_points(scene)
            assert len(obj) > 20
            assert surface_distance(kind, obj).max() < 1e-9

    def test_noise_stays_within_three_sigma_of_surface(self):
        sigma = 5e-4
        spec = small_scene_spec(seed=33, depth_noise_sigma=sigma)
        for i in range(10):
            scene = o6.render_scene(spec, i)
            obj = lifted_object_points(scene)
            # truncated noise moves a lifted point along its ray by <= 3 sigma
            # in depth; the 3D step is that times the ray norm (<= ~1.3 at
            # this field of view)
            dist = surface_distance(spec.model_kind, obj)
            assert dist.max() <= 3 * sigma * 1.5 + 1e-9

    def test_full_occlusion_raises(self):
        spec = small_scene_spec(seed=35, occlusion_fraction=1.0)
        with pytest.raises(EmptyObjectError):
            o6.render_scene(spec, 0)

    def test_partial_occlusion_removes_top_rows(self):
        base = small_scene_spec(seed=37)
        occluded = small_scene_spec(seed=37, occlusion_fraction=0.5)
        full = o6.render_scene(base, 0).observation
        part = o6.render_scene(occluded, 0).observation
        assert part.mask.values.sum() < full.mask.values.sum()
        full_rows = np.nonzero(full.mask.values.any(axis=1))[0]
        part_rows = np.nonzero(part.mask.values.any(axis=1))[0]
        assert part_rows.min() > full_rows.min()

    def test_dropout_keeps_mask_but_zeroes_depth(self):
        spec = small_scene_spec(seed=39, pixel_dropout=0.3)
        obs = o6.render_scene(spec, 0).observation
        holes = obs.mask.values & (obs.depth.values == 0)
        assert holes.sum() > 0

    def test_determinism_byte_identical(self):
        spec = small_scene_spec(seed=41)
        a = o6.render_scene(spec, 2)
        b = o6.render_scene(spec, 2)
        assert a.observation.depth.values.tobytes() == b.observation.depth.values.tobytes()
        assert a.observation.mask.values.tobytes() == b.observation.mask.values.tobytes()
        assert a.spec_digest == b.spec_digest
        c = o6.render_scene(spec, 3)
        assert c.observation.depth.values.tobytes() != a.observation.depth.values.tobytes()

    def test_digest_tracks_spec_and_index(self):
        spec = small_scene_spec(seed=43)
        other = small_scene_spec(seed=44)
        assert scene_digest(spec, 0) != scene_digest(spec, 1)
        assert scene_digest(spec, 0) != scene_digest(other, 0)

    def test_gt_pose_draw_matches_stream(self):
        spec = small_scene_spec(seed=45)
        scene = o6.render_scene(spec, 7)
        rng = scene_rng(spec, 7)
        rotation = o6.sample_rotation_uniform(rng)
        np.testing.assert_array_equal(scene.observation.gt_pose.rotation, rotation)

    def test_gaussian_translations_match_spec(self):
        mean, sigma = np.array([0.05, -0.05, 1.0]), np.array([0.1, 0.08, 0.1])
        spec = small_scene_spec(
            seed=71,
            model_kind=o6.SphereModel(0.15),
            surface_sample_count=50,
            image_size=(32, 32),
            intrinsics=o6.CameraIntrinsics(fx=16.0, fy=16.0, cx=16.0, cy=16.0),
            translation_dist=o6.GaussianVolume(mean=tuple(mean), sigma=tuple(sigma)),
        )
        model = o6.model_for_spec(spec)
        n = 400
        draws = np.array([o6.render_scene(spec, i, model=model).observation.gt_pose.translation for i in range(n)])
        # Within 4.5 standard errors: sigma/sqrt(n) for the mean, about
        # sigma/sqrt(2n) for the sample standard deviation.
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 4.5 * sigma / np.sqrt(n))
        assert np.all(np.abs(draws.std(axis=0, ddof=1) - sigma) < 4.5 * sigma / np.sqrt(2 * n))
        again = [o6.render_scene(spec, i, model=model).observation.gt_pose.translation for i in range(20)]
        assert np.array_equal(np.array(again), draws[:20])

    def test_object_behind_camera(self):
        spec = small_scene_spec(
            seed=47,
            translation_dist=o6.BoxVolume(center=(0.0, 0.0, 0.05), half_widths=(0.01, 0.01, 0.01)),
        )
        with pytest.raises(EmptyObjectError):
            o6.render_scene(spec, 0)

    def test_ray_depth_matches_independent_sphere_intersection(self):
        # Independent re-derivation of each stored depth for a sphere scene.
        spec = small_scene_spec(seed=49, model_kind=o6.SphereModel(0.05))
        scene = o6.render_scene(spec, 1)
        obs = scene.observation
        pose = obs.gt_pose
        rows, cols = np.nonzero(obs.mask.values)
        center = pose.translation  # sphere center in camera frame
        for r, c in list(zip(rows, cols))[::7]:
            ray = np.array([(c - K.cx) / K.fx, (r - K.cy) / K.fy, 1.0])
            # |s*ray - center|^2 = radius^2, smallest positive root
            a = ray @ ray
            b = -2.0 * ray @ center
            cc = center @ center - 0.05**2
            disc = b * b - 4 * a * cc
            assert disc >= 0
            s = (-b - math.sqrt(disc)) / (2 * a)
            assert obs.depth.values[r, c] == pytest.approx(s, abs=1e-12)


class TestFileModelSplatting:
    def test_round_trip_render(self, tmp_path, rng):
        # Splat a saved point model and verify the z-buffer min property
        # exactly: each masked pixel depth is the min z of points landing on it.
        from offset6d import formats

        base = o6.make_model(o6.BoxModel(0.08, 0.06, 0.1), 400, np.random.default_rng(1))
        path = tmp_path / "model.ply"
        formats.write_model(path, base)
        spec = small_scene_spec(seed=51, model_kind=o6.FileModel(str(path)), surface_sample_count=400)
        scene = o6.render_scene(spec, 0)
        obs = scene.observation
        pose = obs.gt_pose

        cam = o6.transform_points(pose, scene.model.points)
        us = np.rint(K.fx * cam[:, 0] / cam[:, 2] + K.cx).astype(int)
        vs = np.rint(K.fy * cam[:, 1] / cam[:, 2] + K.cy).astype(int)
        expected = {}
        for u, v, z in zip(us, vs, cam[:, 2]):
            if 0 <= u < 160 and 0 <= v < 160:
                expected[(v, u)] = min(expected.get((v, u), np.inf), z)
        rows, cols = np.nonzero(obs.mask.values)
        assert set(zip(rows.tolist(), cols.tolist())) == set(expected)
        for (v, u), z in expected.items():
            assert obs.depth.values[v, u] == z

    def test_file_symmetric_flag_priority(self, tmp_path):
        from offset6d import formats

        base = o6.make_model(o6.CylinderModel(0.04, 0.1), 100, np.random.default_rng(2))
        path = tmp_path / "model.ply"
        formats.write_model(path, base)  # stores symmetric=True
        model = o6.make_model(o6.FileModel(str(path), symmetric=False), 100, np.random.default_rng(3))
        assert model.symmetric  # file comment wins


class TestDistributionReport:
    def test_identical_poses_zero_variance(self):
        spec = small_scene_spec(seed=53)
        scene = o6.render_scene(spec, 0)
        report = o6.distribution_report([scene, scene, scene], o6.RefStrategy.MEAN_VISIBLE)
        np.testing.assert_array_equal(report.raw_variance, np.zeros(3))
        np.testing.assert_array_equal(report.delta_variance, np.zeros(3))

    def test_compaction_on_small_sweep(self):
        spec = small_scene_spec(seed=55, translation_dist=o6.BoxVolume((0, 0, 1.0), (0.3, 0.3, 0.3)))
        model = o6.model_for_spec(spec)
        scenes = [o6.render_scene(spec, i, model=model) for i in range(60)]
        report = o6.distribution_report(scenes, o6.RefStrategy.MEAN_VISIBLE)
        assert report.scene_count == 60
        assert np.all(report.variance_ratio > 10)

    def test_delta_ranges_bounded_by_half_diameter_plus_noise(self):
        sigma = 5e-4
        spec = small_scene_spec(seed=57, depth_noise_sigma=sigma)
        model = o6.model_for_spec(spec)
        scenes = [o6.render_scene(spec, i, model=model) for i in range(40)]
        report = o6.distribution_report(scenes, o6.RefStrategy.MEAN_VISIBLE)
        bound = model.diameter / 2 + 3 * sigma
        assert np.all(report.delta_min >= -bound - 1e-9)
        assert np.all(report.delta_max <= bound + 1e-9)

    def test_rows_structure(self):
        spec = small_scene_spec(seed=59)
        scenes = [o6.render_scene(spec, i) for i in range(3)]
        report = o6.distribution_report(scenes, o6.RefStrategy.CENTER_MEAN_DEPTH)
        rows = report.rows()
        assert len(rows) == 6
        assert {r["quantity"] for r in rows} == {"raw_t", "delta_t"}
        assert all(r["variance_ratio"] is None for r in rows if r["quantity"] == "raw_t")

    def test_needs_two_scenes(self):
        spec = small_scene_spec(seed=61)
        with pytest.raises(ValueError):
            o6.distribution_report([o6.render_scene(spec, 0)], o6.RefStrategy.MEAN_VISIBLE)


class TestSpecText:
    KINDS = [o6.BoxModel(0.08, 0.06, 0.1), o6.CylinderModel(0.04, 0.1), o6.SphereModel(0.05),
             o6.FileModel("models/part.ply", symmetric=True)]
    VOLUMES = [o6.BoxVolume((0.0, 0.0, 1.0), (0.25, 0.25, 0.25)),
               o6.GaussianVolume((0.0, 0.1, 1.2), (0.05, 0.05, 0.1))]

    def test_pairs_round_trip_and_digests_differ(self):
        specs = [
            small_scene_spec(seed=73, model_kind=kind, translation_dist=volume)
            for kind in self.KINDS for volume in self.VOLUMES
        ]
        digests = set()
        for spec in specs:
            assert formats.pairs_to_spec(dict(formats.spec_to_pairs(spec))) == spec
            digests |= {scene_digest(spec, 0), scene_digest(spec, 1)}
        assert len(digests) == 2 * len(specs)


class TestSpecValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            small_scene_spec(surface_sample_count=0)
        with pytest.raises(ValueError):
            small_scene_spec(pixel_dropout=1.0)
        with pytest.raises(ValueError):
            small_scene_spec(depth_noise_sigma=-1.0)
        with pytest.raises(ValueError):
            small_scene_spec(rotation_dist="euler-gimbal")
        with pytest.raises(ValueError):
            o6.BoxVolume((0, 0, 1), (0.1, 0.0, 0.1))
