"""Synthetic scenes: models, sampling, rendering, distribution report."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import offset6d as o6
from offset6d import formats, synth
from offset6d.errors import EmptyObjectError
from offset6d.geometry import rotation_defect
from offset6d.synth import model_rng, scene_digest, scene_rng

from conftest import default_intrinsics, random_rotation, small_scene_spec

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


def intersect_box_table(origin: np.ndarray, dirs: np.ndarray, half: np.ndarray) -> np.ndarray:
    """The slab method over per-axis ``(n, 3)`` tables: the oracle for ``_intersect_box``."""
    n = dirs.shape[0]
    near = np.full((n, 3), -np.inf)
    far = np.full((n, 3), np.inf)
    for j in range(3):
        dj = dirs[:, j]
        moving = np.abs(dj) > 0
        t1 = np.where(moving, (-half[j] - origin[j]) / np.where(moving, dj, 1.0), 0.0)
        t2 = np.where(moving, (half[j] - origin[j]) / np.where(moving, dj, 1.0), 0.0)
        near[:, j] = np.where(moving, np.minimum(t1, t2), near[:, j])
        far[:, j] = np.where(moving, np.maximum(t1, t2), far[:, j])
        # Ray parallel to this slab: inside keeps (-inf, inf), outside misses.
        parallel_out = ~moving & (np.abs(origin[j]) > half[j])
        near[parallel_out, j] = np.inf
        far[parallel_out, j] = -np.inf
    tmin = near.max(axis=1)
    tmax = far.min(axis=1)
    s = np.full(n, np.inf)
    hit = (tmax >= tmin) & (tmin > 0)
    s[hit] = tmin[hit]
    return s


# The 24 rotations that map each axis onto an axis: their ray directions keep
# the exact zeros of the rays through the principal point.
_AXIS_ROTATIONS = [
    m
    for perm in itertools.permutations(np.eye(3))
    for signs in itertools.product((1.0, -1.0), repeat=3)
    if np.linalg.det(m := np.array(perm) * np.array(signs)[:, None]) > 0
]


@st.composite
def _box_rays(draw):
    """``(origin, dirs, half)`` as ``_render_depth`` casts them at a box.

    The principal point lies on a pixel centre, so under the identity or an
    axis rotation some direction components are exactly zero; each origin
    component may be put exactly on a face, or inside or outside its slab.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    half = draw(st.sampled_from([1e-3, 0.05, 0.1, 1.0])) * rng.uniform(0.2, 1.0, 3)
    rotation = draw(st.sampled_from(["random", "identity", "axes"]))
    if rotation == "random":
        r = random_rotation(rng)
    else:
        r = np.eye(3) if rotation == "identity" else _AXIS_ROTATIONS[rng.integers(24)]
    width, height = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    f = draw(st.sampled_from([0.5, 1.0, 4.0])) * max(width, height)
    us, vs = np.meshgrid(np.arange(width), np.arange(height))
    dirs_cam = np.stack(
        [(us.ravel() - width // 2) / f, (vs.ravel() - height // 2) / f, np.ones(us.size)], axis=1
    )
    # From the camera inside the box, through just in front of it, to far.
    t = half.max() * np.array([*rng.uniform(-1, 1, 2), 0.0])
    t[:2] *= draw(st.sampled_from([0.0, 1.0, 3.0]))
    t[2] = draw(st.sampled_from([1e-6, 0.5, 1.1, 1.5, 3.0, 10.0])) * half.max()
    origin = -(r.T @ t)
    for j in range(3):
        where = draw(st.sampled_from(["posed", "posed", "face", "inside", "outside"]))
        sign = rng.choice([-1.0, 1.0])
        if where == "face":
            origin[j] = sign * half[j]
        elif where == "inside":
            origin[j] = half[j] * rng.uniform(-1, 1)
        elif where == "outside":
            origin[j] = sign * half[j] * rng.uniform(1.001, 3.0)
    return origin, dirs_cam @ r, half


def dense_pixels_spec(seed: int) -> o6.SceneSpec:
    """The benchmark's dense-pixels scenes: a box over about 5,400 pixels."""
    return small_scene_spec(
        seed=seed,
        model_kind=o6.BoxModel(0.16, 0.12, 0.2),
        surface_sample_count=200,
        image_size=(320, 240),
        intrinsics=o6.CameraIntrinsics(fx=300.0, fy=300.0, cx=160.0, cy=120.0),
        translation_dist=o6.BoxVolume(center=(0.0, 0.0, 0.8), half_widths=(0.1, 0.1, 0.15)),
    )


class TestBoxRayCastExactness:
    """The one-pass box intersector against the per-axis table, by bytes."""

    @settings(max_examples=300, deadline=None)
    @given(_box_rays())
    def test_equals_table_bit_for_bit(self, rays):
        origin, dirs, half = rays
        assert synth._intersect_box(origin, dirs, half).tobytes() == intersect_box_table(origin, dirs, half).tobytes()

    def test_parallel_rays_on_and_off_each_face(self):
        # Identity pose, principal point on a pixel centre: the middle row
        # and column have zero direction components.  Each origin component
        # sits inside, on a face of, or outside its slab.
        half = np.array([0.04, 0.03, 0.05])
        us, vs = np.meshgrid(np.arange(-4, 5), np.arange(-4, 5))
        dirs = np.stack([us.ravel() / 100.0, vs.ravel() / 100.0, np.ones(us.size)], axis=1)
        assert np.count_nonzero(dirs == 0) == 18
        for ox, oy in itertools.product([0.0, 0.04, -0.04, 0.05, 0.01], [0.0, 0.03, -0.03, -0.07, 0.02]):
            for oz in (-1.0, -0.05, 0.05):
                origin = np.array([ox, oy, oz])
                assert synth._intersect_box(origin, dirs, half).tobytes() == intersect_box_table(origin, dirs, half).tobytes()

    def test_box_scenes_render_as_with_the_table(self, monkeypatch):
        spec = dense_pixels_spec(seed=57)
        model = o6.model_for_spec(spec)
        depths = [o6.render_scene(spec, i, model=model).observation.depth.values for i in range(24)]
        assert all(np.count_nonzero(d) > 1000 for d in depths)
        monkeypatch.setattr(synth, "_intersect_box", intersect_box_table)
        for i, depth in enumerate(depths):
            assert o6.render_scene(spec, i, model=model).observation.depth.values.tobytes() == depth.tobytes()


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

    def test_ray_depth_matches_independent_box_intersection(self):
        # Scalar slab test in plain Python, in the box's own frame.
        spec = dense_pixels_spec(seed=59)
        kind = spec.model_kind
        k = spec.intrinsics
        obs = o6.render_scene(spec, 3).observation
        rot = obs.gt_pose.rotation.tolist()
        t = obs.gt_pose.translation.tolist()
        half = [kind.width / 2, kind.height / 2, kind.length / 2]
        origin = [-sum(rot[i][j] * t[i] for i in range(3)) for j in range(3)]

        def slab(r, c):
            ray = [(c - k.cx) / k.fx, (r - k.cy) / k.fy, 1.0]
            d = [sum(rot[i][j] * ray[i] for i in range(3)) for j in range(3)]
            lo, hi = -math.inf, math.inf
            for o, dj, h in zip(origin, d, half):
                if dj == 0:
                    if abs(o) > h:
                        return None
                    continue
                a, b = (-h - o) / dj, (h - o) / dj
                lo, hi = max(lo, min(a, b)), min(hi, max(a, b))
            return lo, hi

        height, width = obs.depth.values.shape
        checked = 0
        for r in range(0, height, 3):
            for c in range(0, width, 3):
                span = slab(r, c)
                if obs.mask.values[r, c]:
                    lo, hi = span
                    assert 0 < lo <= hi
                    assert obs.depth.values[r, c] == pytest.approx(lo, abs=1e-12)
                    checked += 1
                else:  # a miss, or at most a graze along an edge
                    assert span is None or span[1] - span[0] < 1e-9
        assert checked > 300


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
