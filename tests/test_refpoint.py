"""Reference-point strategies over depth + mask."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import offset6d as o6
from offset6d.errors import EmptyObjectError
from offset6d.refpoint import DEPTH_EPSILON

from conftest import default_intrinsics

K = default_intrinsics()


def make_maps(depths: dict[tuple[int, int], float], shape=(20, 20)):
    """Depth/mask pair with the given {(row, col): depth} foreground."""
    depth = np.zeros(shape)
    mask = np.zeros(shape, dtype=bool)
    for (r, c), d in depths.items():
        depth[r, c] = d
        mask[r, c] = True
    return depth, mask


def lift(u, v, d, k=K):
    """The pin-hole formula in Python floats: (x, y, d) of pixel (u, v)."""
    return ((u - k.cx) / k.fx * d, (v - k.cy) / k.fy * d, d)


def reference(depth, mask, strategy, k=K):
    """``make_reference`` on the observation of ``depth`` and ``mask``."""
    return o6.make_reference(o6.SceneObservation(depth, mask, k), strategy)


NEAREST = o6.RefStrategy.CENTER_NEAREST_DEPTH
MEAN_DEPTH = o6.RefStrategy.CENTER_MEAN_DEPTH


class TestCenterNearest:
    def test_singleton_equals_backprojection(self):
        depth, mask = make_maps({(7, 5): 0.8})
        ref = reference(depth, mask, NEAREST)
        assert (ref.x0, ref.y0, ref.d0) == lift(5, 7, 0.8)
        assert all(type(c) is float for c in (ref.x0, ref.y0, ref.d0))
        assert ref.strategy is NEAREST

    def test_min_over_masked_depths(self):
        depth, mask = make_maps({(3, 3): 1.2, (10, 12): 0.8})
        ref = reference(depth, mask, NEAREST)
        assert ref.d0 == 0.8
        # (x0, y0) from the box center, rounded down, not from the nearest pixel.
        assert (ref.x0, ref.y0) == lift((3 + 12) // 2, (3 + 10) // 2, 0.8)[:2]

    def test_all_invalid_depths(self):
        depth, mask = make_maps({})
        mask[5, 5] = True  # masked but depth 0 (missing)
        with pytest.raises(EmptyObjectError):
            reference(depth, mask, NEAREST)

    def test_box_is_the_masks_own(self):
        # A masked pixel with missing depth widens the box, though it is not visible.
        depth, mask = make_maps({(10, 12): 1.0})
        mask[2, 2] = True
        ref = reference(depth, mask, NEAREST)
        assert (ref.x0, ref.y0) == lift((2 + 12) // 2, (2 + 10) // 2, 1.0)[:2]

    def test_background_roi_center_is_used_as_given(self):
        # Occlusion can push the box center off the object; no snapping.
        depth, mask = make_maps({(2, 2): 1.0, (28, 28): 1.0}, shape=(30, 30))
        ref = reference(depth, mask, NEAREST)
        assert not mask[15, 15]
        assert (ref.x0, ref.y0) == lift(15, 15, 1.0)[:2]


class TestCenterMeanDepth:
    def test_mean_of_two(self):
        depth, mask = make_maps({(3, 3): 0.8, (10, 12): 1.2})
        ref = reference(depth, mask, MEAN_DEPTH)
        assert ref.d0 == 1.0

    def test_singleton_coincides_with_nearest(self):
        depth, mask = make_maps({(7, 5): 0.8})
        a = reference(depth, mask, NEAREST)
        b = reference(depth, mask, MEAN_DEPTH)
        assert (a.x0, a.y0, a.d0) == (b.x0, b.y0, b.d0)

    def test_weighted_scene(self):
        depth, mask = make_maps({(1, 1): 1.0, (1, 2): 1.0, (2, 1): 1.0, (2, 2): 2.0})
        ref = reference(depth, mask, MEAN_DEPTH)
        assert ref.d0 == 1.25


class TestMeanVisible:
    def test_singleton(self):
        depth, mask = make_maps({(7, 5): 0.8})
        ref = o6.ref_mean_visible(depth, mask, K)
        assert (ref.x0, ref.y0, ref.d0) == lift(5, 7, 0.8)

    def test_midpoint_of_two(self):
        # Two pixels lifting to (0, 0, 1) and (2, 0, 1): u = cx and u = cx + 2 fx.
        k = o6.CameraIntrinsics(fx=10.0, fy=10.0, cx=4.0, cy=6.0)
        depth, mask = make_maps({(6, 4): 1.0, (6, 24): 1.0}, shape=(30, 30))
        ref = o6.ref_mean_visible(depth, mask, k)
        np.testing.assert_allclose([ref.x0, ref.y0, ref.d0], [1.0, 0.0, 1.0], atol=1e-15)

    def test_matches_exact_rational_mean(self, rng):
        # ~1000-pixel patch against an exact-arithmetic mean oracle.
        shape = (40, 40)
        depth = np.zeros(shape)
        mask = rng.random(shape) < 0.7
        depth[mask] = rng.uniform(0.3, 3.0, int(mask.sum()))
        ref = o6.ref_mean_visible(depth, mask, K)

        rows, cols = np.nonzero(mask & (depth > 0))
        exact = [Fraction(0)] * 3
        for r, c, in zip(rows, cols):
            d = Fraction(depth[r, c])
            x = (Fraction(float(c)) - Fraction(K.cx)) / Fraction(K.fx) * d
            y = (Fraction(float(r)) - Fraction(K.cy)) / Fraction(K.fy) * d
            exact[0] += x
            exact[1] += y
            exact[2] += d
        n = len(rows)
        oracle = [float(v / n) for v in exact]
        np.testing.assert_allclose([ref.x0, ref.y0, ref.d0], oracle, rtol=1e-12)

    def test_empty(self):
        depth, mask = make_maps({})
        with pytest.raises(EmptyObjectError):
            o6.ref_mean_visible(depth, mask, K)


class TestStrategyInvariants:
    def _random_scene(self, rng):
        shape = (30, 30)
        depth = np.zeros(shape)
        mask = rng.random(shape) < 0.4
        depth[mask] = rng.uniform(0.3, 3.0, int(mask.sum()))
        # a few masked-but-missing pixels
        holes = mask & (rng.random(shape) < 0.1)
        depth[holes] = 0.0
        return depth, mask

    def test_d0_within_valid_depth_range(self, rng):
        for _ in range(50):
            depth, mask = self._random_scene(rng)
            valid = mask & (depth > 0)
            if not valid.any():
                continue
            lo, hi = depth[valid].min(), depth[valid].max()
            for strategy in o6.RefStrategy:
                assert lo <= reference(depth, mask, strategy).d0 <= hi

    def test_bit_stable_across_runs(self, rng):
        depth, mask = self._random_scene(rng)
        a = o6.ref_mean_visible(depth, mask, K)
        b = o6.ref_mean_visible(depth.copy(), mask.copy(), K)
        assert (a.x0, a.y0, a.d0) == (b.x0, b.y0, b.d0)

    def test_planar_patch_all_strategies_agree(self):
        # Fronto-parallel plane: every strategy must report the plane depth.
        shape = (20, 20)
        depth = np.zeros(shape)
        mask = np.zeros(shape, dtype=bool)
        depth[5:15, 5:15] = 1.37
        mask[5:15, 5:15] = True
        for strategy in o6.RefStrategy:
            assert abs(reference(depth, mask, strategy).d0 - 1.37) <= 1e-12


class TestTypes:
    def test_depth_map_rejects_negative(self):
        with pytest.raises(ValueError, match=">= 0"):
            o6.SceneObservation(np.full((4, 4), -1.0), np.ones((4, 4), dtype=bool), K)

    def test_depth_map_rejects_non_finite(self):
        bad = np.zeros((4, 4))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            o6.SceneObservation(bad, np.ones((4, 4), dtype=bool), K)

    def test_depth_map_must_be_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            o6.SceneObservation(np.ones(4), np.ones(4, dtype=bool), K)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes differ"):
            o6.ref_mean_visible(np.ones((4, 4)), np.ones((5, 4), dtype=bool), K)

    @pytest.mark.parametrize("field, dtype", [("depth", np.float64), ("mask", bool)])
    def test_owned_read_only_array_is_taken_anything_else_copied(self, field, dtype):
        def held(array):
            """The array the observation keeps for ``field`` when given ``array``."""
            arrays = {"depth": np.ones((4, 5)), "mask": np.ones((4, 5), dtype=bool), field: array}
            return getattr(o6.SceneObservation(arrays["depth"], arrays["mask"], K), field)

        # A caller's writable array stays writable and unshared.
        writable = np.ones((4, 5), dtype=dtype)
        values = held(writable)
        assert writable.flags.writeable and not values.flags.writeable
        assert not np.shares_memory(values, writable)
        # A read-only array that owns its memory changes owner, no copy.
        owned = np.ones((4, 5), dtype=dtype)
        owned.flags.writeable = False
        assert held(owned) is owned
        # A read-only view of a writable base, or another dtype, is copied.
        view = np.ones((4, 5), dtype=dtype)[:]
        view.flags.writeable = False
        other = np.ones((4, 5), dtype=np.float32 if dtype is bool else bool)
        other.flags.writeable = False
        for array in (view, other):
            values = held(array)
            assert values.dtype == dtype and not values.flags.writeable
            assert not np.shares_memory(values, array)

    def test_reference_point_needs_positive_depth(self):
        with pytest.raises(ValueError):
            o6.ReferencePoint(0.0, 0.0, 0.0, o6.RefStrategy.MEAN_VISIBLE)

    @pytest.mark.parametrize("name", ["x0", "y0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_reference_point_needs_finite_coordinates(self, name, value):
        coordinates = {"x0": 0.0, "y0": 0.0, name: value}
        with pytest.raises(ValueError, match=f"reference {name!r} must be finite"):
            o6.ReferencePoint(**coordinates, d0=1.0, strategy=o6.RefStrategy.MEAN_VISIBLE)

    def test_roi_from_mask_center(self):
        mask = np.zeros((10, 10), dtype=bool)
        mask[2:5, 3:9] = True  # rows 2..4, cols 3..8
        ref = reference(np.where(mask, 1.0, 0.0), mask, NEAREST)
        assert (ref.x0, ref.y0) == lift((3 + 8) // 2, (2 + 4) // 2, 1.0)[:2]


@st.composite
def masked_depth_maps(draw):
    """A small depth map mixing missing (0), tiny (0, DEPTH_EPSILON] and
    ordinary depths, under a random mask of the same shape."""
    shape = draw(hnp.array_shapes(min_dims=2, max_dims=2, max_side=5))
    depth = draw(hnp.arrays(np.float64, shape, elements=st.one_of(
        st.just(0.0),
        st.floats(0.0, DEPTH_EPSILON, exclude_min=True),
        st.floats(0.3, 3.0),
    )))
    return depth, draw(hnp.arrays(bool, shape))


class TestOnePixelSet:
    """The reference point, the channels and the targets are all built from
    the masked pixels with depth above DEPTH_EPSILON."""

    def test_observation_keeps_one_read_only_set(self):
        depth, mask = make_maps({(3, 3): 0.8, (10, 12): 1.2})
        obs = o6.SceneObservation(depth, mask, K)
        assert obs.visible is obs.visible
        assert not any(array.flags.writeable for array in obs.visible)
        # Its owned read-only arrays are handed over; the cached set is not a field.
        again = o6.SceneObservation(obs.depth, obs.mask, K)
        assert again.depth is obs.depth and again.mask is obs.mask
        # Equality compares the arrays' values, not their identity or flags.
        assert obs == o6.SceneObservation(depth.copy(), mask.copy(), K)

    @settings(max_examples=200, deadline=None)
    @given(maps=masked_depth_maps())
    def test_reference_channels_and_targets_agree(self, maps):
        depth, mask = maps
        obs = o6.SceneObservation(depth=depth, mask=mask, intrinsics=K, gt_pose=o6.RigidPose.identity())
        rows, cols = np.nonzero(mask & (depth > DEPTH_EPSILON))
        if rows.size == 0:
            ref = o6.ReferencePoint(0.0, 0.0, 1.0, o6.RefStrategy.MEAN_VISIBLE)
            for build in (
                lambda: o6.ref_mean_visible(depth, mask, K),
                lambda: o6.make_reference(obs, NEAREST),
                lambda: o6.encode_input(obs, ref),
                lambda: o6.encode_targets(obs, ref),
            ):
                with pytest.raises(EmptyObjectError):
                    build()
            return
        depths = depth[rows, cols]
        points = [lift(int(u), int(v), float(d)) for u, v, d in zip(cols, rows, depths)]
        ref = o6.ref_mean_visible(depth, mask, K)
        assert (ref.x0, ref.y0, ref.d0) == tuple(math.fsum(c) / len(points) for c in zip(*points))
        nearest = o6.make_reference(obs, NEAREST)
        assert nearest.d0 == depths.min()
        for selected in (o6.encode_input(obs, ref), o6.encode_targets(obs, ref)):
            assert np.array_equal(selected.us, cols) and np.array_equal(selected.vs, rows)
