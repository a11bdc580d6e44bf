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
from offset6d.synth import model_rng, scene_rng

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
    valid = obs.mask & (obs.depth > 0)
    rows, cols = np.nonzero(valid)
    cam = o6.backproject_pixels(cols, rows, obs.depth[rows, cols], obs.intrinsics)
    return o6.inverse_transform_points(obs.gt_pose, cam)


def intersect_box_table(origin: np.ndarray, dirs: np.ndarray, half: np.ndarray) -> np.ndarray:
    """The slab method over per-axis ``(n, 3)`` tables: the oracle for ``BoxModel.intersect``."""
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


def box_of(half: np.ndarray) -> o6.BoxModel:
    """The box whose ``half_extents`` are exactly ``half``."""
    box = o6.BoxModel(*(2 * half))
    assert box.half_extents.tobytes() == np.asarray(half, dtype=float).tobytes()
    return box


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
        assert box_of(half).intersect(origin, dirs).tobytes() == intersect_box_table(origin, dirs, half).tobytes()

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
                assert box_of(half).intersect(origin, dirs).tobytes() == intersect_box_table(origin, dirs, half).tobytes()

    def test_box_scenes_render_as_with_the_table(self, monkeypatch):
        spec = dense_pixels_spec(seed=57)
        model = o6.model_for_spec(spec)
        depths = [o6.render_scene(spec, i, model=model).observation.depth for i in range(24)]
        assert all(np.count_nonzero(d) > 1000 for d in depths)
        monkeypatch.setattr(o6.BoxModel, "intersect",
                            lambda box, origin, dirs: intersect_box_table(origin, dirs, box.half_extents))
        for i, depth in enumerate(depths):
            assert o6.render_scene(spec, i, model=model).observation.depth.tobytes() == depth.tobytes()


class TestBandedRayCast:
    """The ray cast's band size changes no depth bit."""

    @pytest.mark.parametrize("spec", [
        dense_pixels_spec(seed=61),
        small_scene_spec(seed=62),
        small_scene_spec(seed=63, model_kind=o6.SphereModel(0.1)),
        small_scene_spec(seed=64, model_kind=o6.CylinderModel(0.06, 0.15)),
    ], ids=["dense-pixels", "box", "sphere", "cylinder"])
    def test_depth_bytes_do_not_depend_on_the_band(self, spec, monkeypatch):
        model = o6.model_for_spec(spec)
        r_bound = float(np.max(np.linalg.norm(model.points, axis=1)))  # the render's own bound

        def render(index, band_rays):
            monkeypatch.setattr(synth, "_BAND_RAYS", band_rays)
            return o6.render_scene(spec, index, model=model).observation

        for index in range(6):
            whole = render(index, spec.image_size[0] * spec.image_size[1])  # one band
            u0, u1, v0, _ = synth._pixel_bbox(spec, whole.gt_pose.translation, r_bound)
            rows = np.flatnonzero(whole.depth.any(axis=1))
            middle = (rows[0] + rows[-1]) // 2
            assert rows[0] < middle < rows[-1]
            # The first band ends on the object's middle row.
            split = render(index, (u1 - u0 + 1) * (middle - v0 + 1))
            one_row = render(index, 1)
            assert one_row.depth.tobytes() == split.depth.tobytes() == whole.depth.tobytes()


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

    @pytest.mark.parametrize("kind", [
        o6.BoxModel(0.1, 0.06, 0.08), o6.BoxModel(2.0, 0.003, 0.5), o6.BoxModel(1e-3, 1e-3, 1e-3),
        o6.CylinderModel(0.04, 0.1), o6.CylinderModel(1.5, 0.02), o6.CylinderModel(0.001, 3.0),
        o6.SphereModel(0.05), o6.SphereModel(7.0), o6.SphereModel(1e-4),
    ], ids=repr)
    @pytest.mark.parametrize("count", [2, 9, 200, 1001])
    def test_largest_point_norm_is_the_analytic_radius(self, kind, count):
        # The render bounds a primitive by its points' largest norm: the
        # extreme pairs put that on the surface's analytic bounding radius.
        if isinstance(kind, o6.BoxModel):
            radius = float(np.linalg.norm(kind.half_extents))
        elif isinstance(kind, o6.CylinderModel):
            radius = math.hypot(kind.radius, kind.height / 2)
        else:
            radius = kind.radius
        model = o6.make_model(kind, count, model_rng(small_scene_spec(seed=count)))
        largest = np.linalg.norm(model.points, axis=1).max()
        assert abs(largest - radius) <= 1e-15 * radius


def choice_box_surface(rng, half, n):
    """The box sampler with its face axes from ``Generator.choice``: the oracle."""
    areas = np.array([half[1] * half[2], half[0] * half[2], half[0] * half[1]])
    axes = rng.choice(3, size=n, p=areas / areas.sum())
    signs = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    uv = rng.uniform(-1.0, 1.0, size=(n, 2))
    pts = np.empty((n, 3))
    for axis in range(3):
        sel = axes == axis
        others = [i for i in range(3) if i != axis]
        pts[sel, axis] = signs[sel] * half[axis]
        pts[np.ix_(sel, others)] = uv[sel] * half[others]
    return pts


class _NoChoiceGenerator(np.random.Generator):
    def choice(self, *args, **kwargs):
        raise AssertionError("Generator.choice called")


class TestBoxSampler:
    @pytest.mark.parametrize("half", [(0.04, 0.03, 0.05), (1.0, 1.0, 1.0), (1e-3, 2.0, 0.5), (5.0, 1e-4, 1e-4)])
    def test_inverse_cdf_axes_equal_choice(self, half):
        half = np.array(half)
        for seed in range(120):
            ours, oracle = synth._stream(seed, 7), synth._stream(seed, 7)
            np.testing.assert_array_equal(box_of(half).sample_surface(ours, 50 + seed),
                                          choice_box_surface(oracle, half, 50 + seed))
            assert ours.integers(2**63, size=4).tolist() == oracle.integers(2**63, size=4).tolist()  # same stream use

    def test_box_renders_without_choice_or_det(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.det called")

        monkeypatch.setattr(np.random, "Generator", _NoChoiceGenerator)
        monkeypatch.setattr(np.linalg, "det", refuse)
        spec = small_scene_spec(seed=43)
        model = o6.model_for_spec(spec)
        assert model.diameter == pytest.approx(math.sqrt(0.08**2 + 0.06**2 + 0.1**2), rel=1e-12)
        assert o6.render_scene(spec, 0, model=model).observation.mask.any()
        assert o6.nearest_rotation(np.diag([1.0, 1.0, -1.0]))[2, 2] == 1.0  # the sign fix, no LAPACK det

    @pytest.mark.parametrize("size", [1e200, 1e-200])  # face areas overflow / underflow to 0
    def test_box_without_finite_face_areas_is_refused(self, size):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError):
            o6.make_model(o6.BoxModel(size, size, size), 100, model_rng(small_scene_spec()))


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
        # A 1 cm box spans two rows here; a strip of ceil(0.9 * 2) rows covers it.
        tiny = o6.BoxModel(0.01, 0.01, 0.01)
        assert o6.render_scene(small_scene_spec(seed=35, model_kind=tiny), 0).observation.mask.any()
        spec = small_scene_spec(seed=35, model_kind=tiny, occlusion_fraction=0.9)
        with pytest.raises(EmptyObjectError, match="fully occluded"):
            o6.render_scene(spec, 0)

    def test_partial_occlusion_removes_top_rows(self):
        base = small_scene_spec(seed=37)
        occluded = small_scene_spec(seed=37, occlusion_fraction=0.5)
        full = o6.render_scene(base, 0).observation
        part = o6.render_scene(occluded, 0).observation
        assert part.mask.sum() < full.mask.sum()
        full_rows = np.nonzero(full.mask.any(axis=1))[0]
        part_rows = np.nonzero(part.mask.any(axis=1))[0]
        assert part_rows.min() > full_rows.min()

    def test_dropout_keeps_mask_but_zeroes_depth(self):
        spec = small_scene_spec(seed=39, pixel_dropout=0.3)
        obs = o6.render_scene(spec, 0).observation
        holes = obs.mask & (obs.depth == 0)
        assert holes.sum() > 0

    def test_determinism_byte_identical(self):
        spec = small_scene_spec(seed=41)
        a = o6.render_scene(spec, 2)
        b = o6.render_scene(spec, 2)
        assert a.observation.depth.tobytes() == b.observation.depth.tobytes()
        assert a.observation.mask.tobytes() == b.observation.mask.tobytes()
        c = o6.render_scene(spec, 3)
        assert c.observation.depth.tobytes() != a.observation.depth.tobytes()

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
        rows, cols = np.nonzero(obs.mask)
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
            assert obs.depth[r, c] == pytest.approx(s, abs=1e-12)

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

        height, width = obs.depth.shape
        checked = 0
        for r in range(0, height, 3):
            for c in range(0, width, 3):
                span = slab(r, c)
                if obs.mask[r, c]:
                    lo, hi = span
                    assert 0 < lo <= hi
                    assert obs.depth[r, c] == pytest.approx(lo, abs=1e-12)
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
        rows, cols = np.nonzero(obs.mask)
        assert set(zip(rows.tolist(), cols.tolist())) == set(expected)
        for (v, u), z in expected.items():
            assert obs.depth[v, u] == z

    def test_file_symmetric_flag_priority(self, tmp_path):
        from offset6d import formats

        base = o6.make_model(o6.CylinderModel(0.04, 0.1), 100, np.random.default_rng(2))
        path = tmp_path / "model.ply"
        formats.write_model(path, base)  # stores symmetric=True
        model = o6.make_model(o6.FileModel(str(path), symmetric=False), 100, np.random.default_rng(3))
        assert model.symmetric  # file comment wins

    @pytest.mark.parametrize("points, detail", [
        ([[0.1, 0.1, 0.1]] * 4, "all points coincide"),
        ([[0.0, 0.0, 0.0], [0.1, 0.0, 0.0], [1e300, 0.0, 0.0]], "diameter is not finite"),
        ([[1.7e308, 0.0, 0.0], [1.7e308, 0.1, 0.0]], "must be finite"),  # the re-centering sum overflows
    ], ids=["coincident", "huge-diameter", "huge-mean"])
    def test_file_that_makes_no_model_names_it(self, tmp_path, points, detail):
        from offset6d import formats

        path = tmp_path / "model.ply"
        formats.write_ply(path, np.array(points))
        with pytest.raises(o6.FormatError, match=detail) as err:
            o6.make_model(o6.FileModel(str(path)), 100, np.random.default_rng(3))
        assert str(path) in str(err.value)


def offsets(observations, strategy=o6.RefStrategy.MEAN_VISIBLE):
    """Each observation's ``(t, t - t0)`` pair, as ``dist-report`` makes it."""
    for obs in observations:
        t = obs.gt_pose.translation
        yield t, t - o6.make_reference(obs, strategy).as_array()


class TestDistributionReport:
    def test_identical_poses_zero_variance(self):
        spec = small_scene_spec(seed=53)
        pairs = list(offsets([o6.render_scene(spec, 0).observation] * 3))
        # The ratio would be 0/0: refused naming the offset component, under any error state.
        for state in ("ignore", "raise"):
            with np.errstate(invalid=state), pytest.raises(o6.Offset6DError, match="delta_t x: zero variance over 3 scenes"):
                o6.distribution_report(pairs)

    def test_compaction_on_small_sweep(self):
        spec = small_scene_spec(seed=55, translation_dist=o6.BoxVolume((0, 0, 1.0), (0.3, 0.3, 0.3)))
        model = o6.model_for_spec(spec)
        scenes = [o6.render_scene(spec, i, model=model).observation for i in range(60)]
        rows = o6.distribution_report(offsets(scenes))
        assert all(row[5] > 10 for row in rows[3:])

    def test_delta_ranges_bounded_by_half_diameter_plus_noise(self):
        sigma = 5e-4
        spec = small_scene_spec(seed=57, depth_noise_sigma=sigma)
        model = o6.model_for_spec(spec)
        scenes = [o6.render_scene(spec, i, model=model).observation for i in range(40)]
        rows = o6.distribution_report(offsets(scenes))
        bound = model.diameter / 2 + 3 * sigma
        for _, _, _, lo, hi, _ in rows[3:]:
            assert -bound - 1e-9 <= lo <= hi <= bound + 1e-9

    def test_rows_structure(self):
        spec = small_scene_spec(seed=59)
        scenes = [o6.render_scene(spec, i).observation for i in range(3)]
        rows = o6.distribution_report(offsets(scenes, o6.RefStrategy.CENTER_MEAN_DEPTH))
        assert [row[:2] for row in rows] == [[q, c] for q in ("raw_t", "delta_t") for c in "xyz"]
        assert all(row[5] is None for row in rows[:3])
        assert all(isinstance(row[5], float) for row in rows[3:])

    def test_needs_two_scenes(self):
        spec = small_scene_spec(seed=61)
        with pytest.raises(o6.EmptyInputError, match="at least two scenes, got 1"):
            o6.distribution_report(offsets([o6.render_scene(spec, 0).observation]))


class TestSpecText:
    KINDS = [o6.BoxModel(0.08, 0.06, 0.1), o6.CylinderModel(0.04, 0.1), o6.SphereModel(0.05),
             o6.FileModel("models/part.ply", symmetric=True)]
    VOLUMES = [o6.BoxVolume((0.0, 0.0, 1.0), (0.25, 0.25, 0.25)),
               o6.GaussianVolume((0.0, 0.1, 1.2), (0.05, 0.05, 0.1))]

    def test_pairs_round_trip_and_texts_differ(self):
        specs = [
            small_scene_spec(seed=73, model_kind=kind, translation_dist=volume)
            for kind in self.KINDS for volume in self.VOLUMES
        ]
        texts = set()
        for spec in specs:
            assert formats.pairs_to_spec(dict(formats.spec_to_pairs(spec))) == spec
            texts.add(formats.format_keyvalue(formats.spec_to_pairs(spec)))
        texts.add(formats.format_keyvalue(formats.spec_to_pairs(small_scene_spec(seed=74))))
        assert len(texts) == len(specs) + 1


class TestSpecValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            small_scene_spec(surface_sample_count=0)
        with pytest.raises(ValueError):
            small_scene_spec(pixel_dropout=1.0)
        with pytest.raises(ValueError, match=r"'occlusion_fraction' must be in \[0, 1\), got 1.0"):
            small_scene_spec(occlusion_fraction=1.0)  # the strip would cover every row
        small_scene_spec(occlusion_fraction=0.999)
        with pytest.raises(ValueError):
            small_scene_spec(depth_noise_sigma=-1.0)
        with pytest.raises(ValueError, match="'depth_noise_sigma' .* 65.535 m PGM depth range"):
            small_scene_spec(depth_noise_sigma=21.85)  # a 3-sigma clip of 65.55 m
        small_scene_spec(depth_noise_sigma=21.845)  # a clip of exactly the range
        with pytest.raises(ValueError):
            small_scene_spec(rotation_dist="euler-gimbal")
        with pytest.raises(ValueError):
            o6.BoxVolume((0, 0, 1), (0.1, 0.0, 0.1))
