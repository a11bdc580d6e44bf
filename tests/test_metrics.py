"""Distance metrics, threshold accuracy, AUC, and the loss decomposition."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import offset6d as o6
from offset6d import metrics
from offset6d.errors import EmptyInputError
from offset6d.geometry import transform_points

from conftest import random_pose, random_rotation


def ball_model(rng, n=40, radius=0.1, symmetric=False) -> o6.ObjectModel:
    """Random point model with exactly-zero centroid (antipodal pairs)."""
    half = rng.normal(size=(n // 2, 3))
    half = half / np.linalg.norm(half, axis=1)[:, None] * radius * rng.uniform(0.3, 1.0, (n // 2, 1))
    pts = np.empty((2 * (n // 2), 3))
    pts[0::2] = half
    pts[1::2] = -half
    return o6.ObjectModel.from_points(pts, symmetric)


def brute_force_add(pred, gt, points):
    total = 0.0
    for p in points:
        a = pred.rotation @ p + pred.translation
        b = gt.rotation @ p + gt.translation
        total += math.sqrt((a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2)
    return total / len(points)


def brute_force_add_s(pred, gt, points):
    # Transform as ``add_s`` does: ``R @ p + t`` per point can round
    # differently in the last bit, so the per-pair loop alone is the oracle.
    return per_pair_add_s(transform_points(pred, points), transform_points(gt, points))


def per_pair_add_s(a_pts, b_pts):
    """Mean over ``a_pts`` of the closest ``b_pts`` distance, pair by pair."""
    mins = np.empty(len(a_pts))
    for i, a in enumerate(a_pts):
        best = np.inf
        for b in b_pts:
            d0 = a[0] - b[0]
            d1 = a[1] - b[1]
            d2 = a[2] - b[2]
            best = min(best, math.sqrt(d0 * d0 + d1 * d1 + d2 * d2))
        mins[i] = best
    return float(np.mean(mins))


class TestObjectModel:
    def test_diameter_must_match(self, rng):
        pts = rng.uniform(-1, 1, (10, 3))
        with pytest.raises(ValueError):
            o6.ObjectModel(pts, diameter=1e9, symmetric=False)
        with pytest.raises(ValueError):
            o6.ObjectModel(pts, diameter=math.nan, symmetric=False)

    def test_diameter_computed_once(self, rng, monkeypatch):
        calls = []
        original = metrics.max_pairwise_distance
        monkeypatch.setattr(metrics, "max_pairwise_distance", lambda pts: calls.append(1) or original(pts))
        o6.ObjectModel.from_points(rng.uniform(-1, 1, (10, 3)), False)
        assert len(calls) == 1

    def test_from_points_computes_true_diameter(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        model = o6.ObjectModel.from_points(pts, False)
        assert model.diameter == pytest.approx(math.sqrt(5), abs=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            o6.ObjectModel.from_points(np.zeros((1, 3)), False)


class TestAdd:
    def test_equal_poses(self, rng):
        model = ball_model(rng)
        pose = random_pose(rng)
        assert o6.add(pose, pose, model) == 0.0

    def test_pure_translation_is_exact(self, rng):
        model = ball_model(rng)
        gt = random_pose(rng)
        pred = o6.RigidPose(gt.rotation, gt.translation + [0.01, 0.0, 0.0])
        assert o6.add(pred, gt, model) == pytest.approx(0.01, abs=1e-15)

    def test_matches_brute_force(self, rng):
        for _ in range(20):
            model = ball_model(rng, n=10)
            pred, gt = random_pose(rng), random_pose(rng)
            assert o6.add(pred, gt, model) == pytest.approx(
                brute_force_add(pred, gt, model.points), rel=1e-12
            )


class TestAddS:
    def test_equal_poses(self, rng):
        model = ball_model(rng)
        pose = random_pose(rng)
        assert o6.add_s(pose, pose, model) == 0.0

    def test_two_point_symmetric_flip(self):
        # Model {(r,0,0), (-r,0,0)} rotated half a turn about z: matched
        # pairing sees 2r per point, nearest-point pairing sees 0.
        r = 0.05
        model = o6.ObjectModel.from_points([[r, 0, 0], [-r, 0, 0]], symmetric=True)
        gt = o6.RigidPose.identity()
        pred = o6.RigidPose.from_axis_angle([0, 0, 1], np.pi)
        assert o6.add(pred, gt, model) == pytest.approx(2 * r, abs=1e-15)
        assert o6.add_s(pred, gt, model) == pytest.approx(0.0, abs=1e-15)

    def test_never_exceeds_add(self, rng):
        for _ in range(1000):
            model = ball_model(rng, n=8)
            pred, gt = random_pose(rng), random_pose(rng)
            assert o6.add_s(pred, gt, model) <= o6.add(pred, gt, model)

    def test_equals_exhaustive_evaluation_exactly(self, rng):
        for _ in range(10):
            model = ball_model(rng, n=20)
            pred, gt = random_pose(rng), random_pose(rng)
            assert o6.add_s(pred, gt, model) == brute_force_add_s(pred, gt, model.points)

    @pytest.mark.parametrize("m", [257, 300])
    def test_exact_across_row_blocks(self, rng, m):
        # Synth sphere models sized past a row-block boundary.
        sphere = o6.make_model(o6.SphereModel(0.05), m, rng)
        model = o6.ObjectModel.from_points(sphere.points[:m], symmetric=True)
        assert model.point_count == m
        for _ in range(2):
            pred, gt = random_pose(rng), random_pose(rng)
            assert o6.add_s(pred, gt, model) == brute_force_add_s(pred, gt, model.points)


# Point scales from squared separations that underflow to 0 (2**-540) or are
# subnormal (1e-160) up to 1e3 m; offsets from the origin from 0 and 1e-12 m
# up to 1e3 m.
_SCALES = [2.0**-540, 1e-160, 1e-12, 1e-6, 1e-3, 0.05, 1.0, 1e3]
_OFFSETS = [0.0, 1e-12, 1e-6, 1e-3, 1.0, 1e3]


def _cloud(rng, m, scale, offset, ties):
    """m points: small integers (exact ties, duplicates) or normals, scaled."""
    base = rng.integers(-3, 4, (m, 3)).astype(np.float64) if ties else rng.normal(size=(m, 3))
    return offset * rng.choice([-1.0, 1.0], 3) + scale * base


@st.composite
def _query_sets(draw):
    """(a, b): equal-length point sets, ``a`` derived from ``b`` as a pose
    pair's transformed models would be, or drawn on its own."""
    m = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale, offset = draw(st.sampled_from(_SCALES)), draw(st.sampled_from(_OFFSETS))
    b = _cloud(rng, m, scale, offset, draw(st.booleans()))
    if draw(st.booleans()):
        b = b[rng.integers(0, m, m)]  # duplicated points
    kind = draw(st.sampled_from(["equal", "permuted", "perturbed", "independent"]))
    if kind == "equal":  # every matched pair at distance 0
        a = b.copy()
    elif kind == "permuted":  # a symmetry of the point set: loose matched bound
        a = b[rng.permutation(m)]
    elif kind == "perturbed":
        a = b + draw(st.sampled_from(_SCALES)) * rng.normal(size=(m, 3))
    else:
        a = _cloud(rng, m, scale, offset, draw(st.booleans()))
    return a, b


@st.composite
def _symmetric_poses(draw):
    """(pred, gt, model): a synth sphere or cylinder with ``pred`` rotated
    from ``gt`` by a symmetry of its surface, plus optional noise."""
    m = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.sampled_from([1e-3, 0.05, 1.0]))
    sphere = draw(st.booleans())
    kind = o6.SphereModel(size) if sphere else o6.CylinderModel(size, 2 * size)
    model = o6.ObjectModel.from_points(o6.make_model(kind, m, rng).points[:m], symmetric=True)
    gt = o6.RigidPose(random_rotation(rng), draw(st.sampled_from(_OFFSETS)) * rng.uniform(-1, 1, 3))
    if sphere:
        symmetry = random_rotation(rng)
    else:  # a turn about the axis, possibly with a half turn about x
        flip = o6.RigidPose.from_axis_angle([1.0, 0.0, 0.0], np.pi if draw(st.booleans()) else 0.0)
        symmetry = o6.RigidPose.from_axis_angle([0.0, 0.0, 1.0], rng.uniform(0, 2 * np.pi)).rotation @ flip.rotation
    sigma = draw(st.sampled_from([0.0, 1e-12, 1e-4, 1e-2])) * size
    noise = o6.RigidPose.from_axis_angle(rng.normal(size=3), sigma / size * rng.normal())
    pred = o6.RigidPose(noise.rotation @ gt.rotation @ symmetry, gt.translation + sigma * rng.normal(size=3))
    return (gt if draw(st.booleans()) and sigma == 0 else pred), gt, model


class TestWindowedAddS:
    """The windowed nearest-neighbour search against the all-pairs scan."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_query_sets())
    def test_minima_equal_scan_bit_for_bit(self, pair):
        a, b = pair
        windowed = metrics._nearest_squared_distances(a, b)
        assert windowed.tobytes() == metrics._reduce_squared_distances(a, b, np.minimum).tobytes()

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_symmetric_poses())
    def test_add_s_equals_per_pair_loop_under_symmetries(self, case):
        pred, gt, model = case
        assert o6.add_s(pred, gt, model) == brute_force_add_s(pred, gt, model.points)

    def test_window_holds_pair_lost_to_rounding(self):
        # Query 0's only pair within reach is b_0: fl(1 - (-1e-17)) = 1 is
        # shorter than the true x-difference, so a window of exactly
        # sqrt(ub) = 1 would start at 0 > b_0x and hold no point at all.
        b = np.array([[-1e-17, 0.0, 0.0]] + [[10.0 * k, 0.0, 0.0] for k in range(1, 8)])
        a = b.copy()
        a[0, 0] = 1.0
        windowed = metrics._nearest_squared_distances(a, b)
        assert windowed.tobytes() == metrics._reduce_squared_distances(a, b, np.minimum).tobytes()
        assert windowed[0] == 1.0

    @pytest.mark.parametrize("rotated, scans", [(False, 0), (True, 1)])
    def test_each_branch(self, rng, monkeypatch, rotated, scans):
        # Near poses take the window; a random rotation of the whole sphere
        # leaves windows of more than m^2/4 pairs and takes the scan.
        model = o6.ObjectModel.from_points(o6.make_model(o6.SphereModel(0.05), 300, rng).points, True)
        gt = random_pose(rng)
        if rotated:
            pred = o6.RigidPose(random_rotation(rng), gt.translation)
        else:
            pred = o6.RigidPose(gt.rotation, gt.translation + [1e-4, -2e-4, 5e-5])
        calls = []
        scan = metrics._reduce_squared_distances
        monkeypatch.setattr(metrics, "_reduce_squared_distances", lambda *args: calls.append(1) or scan(*args))
        assert o6.add_s(pred, gt, model) == brute_force_add_s(pred, gt, model.points)
        assert len(calls) == scans


class TestDiameter:
    def test_equals_per_pair_maximum_exactly(self, rng):
        point_sets = [
            o6.make_model(o6.BoxModel(0.08, 0.06, 0.1), 300, rng).points,
            o6.make_model(o6.CylinderModel(0.03, 0.1), 257, rng).points,
            rng.normal(size=(131, 3)),
        ]
        for pts in point_sets:
            best = 0.0
            for a in pts.tolist():
                for b in pts.tolist():
                    dx, dy, dz = a[0] - b[0], a[1] - b[1], a[2] - b[2]
                    best = max(best, math.sqrt(dx * dx + dy * dy + dz * dz))
            assert metrics.max_pairwise_distance(pts) == best


class TestAddSelective:
    def test_branches(self, rng):
        pred, gt = random_pose(rng), random_pose(rng)
        sym = ball_model(rng, symmetric=True)
        asym = o6.ObjectModel(sym.points, sym.diameter, symmetric=False)
        assert o6.add_selective(pred, gt, sym) == o6.add_s(pred, gt, sym)
        assert o6.add_selective(pred, gt, asym) == o6.add(pred, gt, asym)


class TestAccuracy:
    def test_all_zero(self, rng):
        model = ball_model(rng)
        assert o6.accuracy_at_threshold([0.0, 0.0, 0.0], model) == 1.0

    def test_direct_count(self):
        model = o6.ObjectModel.from_points([[0, 0, 0], [0.1, 0, 0]], False)  # diameter 0.1
        cfg = o6.MetricConfig()  # threshold 0.01
        assert o6.accuracy_at_threshold([0.005, 0.02], model, cfg) == 0.5

    def test_all_above(self):
        model = o6.ObjectModel.from_points([[0, 0, 0], [0.1, 0, 0]], False)
        assert o6.accuracy_at_threshold([0.5, 1.0], model) == 0.0

    def test_threshold_is_strict(self):
        model = o6.ObjectModel.from_points([[0, 0, 0], [0.1, 0, 0]], False)
        thr = 0.1 * model.diameter
        assert o6.accuracy_at_threshold([thr], model) == 0.0

    def test_empty_errors(self, rng):
        with pytest.raises(EmptyInputError):
            o6.accuracy_at_threshold([], ball_model(rng))


class TestAuc:
    def test_all_zero(self):
        assert o6.auc([0.0, 0.0]) == 1.0

    def test_single_midpoint_error(self):
        # Step accuracy curve: 0 for thresholds below 0.05, 1 above -> area
        # over [0, 0.1] is half.
        assert o6.auc([0.05]) == 0.5

    def test_mixed_errors(self):
        # 0.05 contributes 0.5, 0.2 is beyond the cap and contributes 0.
        assert o6.auc([0.05, 0.2]) == 0.25

    def test_empty_errors(self):
        with pytest.raises(EmptyInputError):
            o6.auc([])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            o6.auc([-0.1])

    def test_monotone_and_bounded(self, rng):
        errors = rng.uniform(0, 0.2, 50)
        base = o6.auc(errors)
        assert 0.0 <= base <= 1.0
        for i in range(0, 50, 7):
            bumped = errors.copy()
            bumped[i] += 0.01
            assert o6.auc(bumped) <= base + 1e-15


class TestAddLoss:
    def test_equal_poses(self, rng):
        model = ball_model(rng)
        pose = random_pose(rng)
        assert o6.add_loss(pose, pose, model) == 0.0

    def test_pure_translation_squared(self, rng):
        model = ball_model(rng)
        gt = random_pose(rng)
        delta = np.array([0.02, -0.01, 0.005])
        pred = o6.RigidPose(gt.rotation, gt.translation + delta)
        expected = delta[0] ** 2 + delta[1] ** 2 + delta[2] ** 2
        assert o6.add_loss(pred, gt, model) == pytest.approx(expected, rel=1e-12)

    def test_squared_not_plain(self, rng):
        model = ball_model(rng)
        gt = random_pose(rng)
        pred = o6.RigidPose(gt.rotation, gt.translation + [0.01, 0.0, 0.0])
        assert o6.add_loss(pred, gt, model) == pytest.approx(1e-4, rel=1e-12)
        assert o6.add(pred, gt, model) == pytest.approx(1e-2, rel=1e-12)


class TestDecomposition:
    def test_equal_poses_all_zero(self, rng):
        model = ball_model(rng)
        pose = random_pose(rng)
        parts = o6.decompose_add_loss(pose, pose, model)
        assert parts.total == parts.rotation_part == parts.translation_part == parts.cross_term == 0.0

    def test_cross_term_exactly_zero_for_paired_model(self, rng):
        # Antipodal pairing sums to exactly zero, so the cross term is 0.0.
        for _ in range(50):
            model = ball_model(rng)
            parts = o6.decompose_add_loss(random_pose(rng), random_pose(rng), model)
            assert parts.cross_term == 0.0
            assert parts.total == parts.rotation_part + parts.translation_part

    def test_total_is_exact_sum_of_parts(self, rng):
        model = ball_model(rng)
        parts = o6.decompose_add_loss(random_pose(rng), random_pose(rng), model)
        assert parts.total == parts.rotation_part + parts.cross_term + parts.translation_part

    def test_total_matches_loss_off_center_model(self, rng):
        # Shifted models exercise the cross term; the identity still holds.
        for _ in range(200):
            model = ball_model(rng, n=12)
            shifted = o6.ObjectModel.from_points(model.points + rng.uniform(-0.2, 0.2, 3), False)
            pred, gt = random_pose(rng), random_pose(rng)
            loss = o6.add_loss(pred, gt, shifted)
            parts = o6.decompose_add_loss(pred, gt, shifted)
            assert parts.total == pytest.approx(loss, rel=1e-12)
            assert parts.cross_term != 0.0 or loss == 0.0

    def test_cross_term_bound(self, rng):
        # |cross| <= 2 |sum p / m| |dR|_F |dt|
        for _ in range(200):
            model = ball_model(rng, n=12)
            shifted = o6.ObjectModel.from_points(model.points + rng.uniform(-0.2, 0.2, 3), False)
            pred, gt = random_pose(rng), random_pose(rng)
            parts = o6.decompose_add_loss(pred, gt, shifted)
            centroid = shifted.points.mean(axis=0)
            d_rot = pred.rotation - gt.rotation
            d_t = pred.translation - gt.translation
            bound = 2 * np.linalg.norm(centroid) * np.linalg.norm(d_rot) * np.linalg.norm(d_t)
            assert abs(parts.cross_term) <= bound + 1e-12

    def test_rotation_part_bounded_by_diameter_squared(self, rng):
        # Centered ball-bounded model: |dR p| <= 2 |p| <= d.
        for _ in range(200):
            model = ball_model(rng)
            parts = o6.decompose_add_loss(random_pose(rng), random_pose(rng), model)
            assert parts.rotation_part <= model.diameter**2 + 1e-12


class TestBalancePremise:
    def test_translation_part_bounded_for_anchored_predictions(self, rng):
        # Any two anchored translation offsets from valid encodings have norm
        # <= d/2 each, so a pose pair built from them has translation part
        # <= d^2: the compact target range is what keeps the loss balanced.
        from conftest import small_scene_spec

        spec = small_scene_spec(seed=71)
        model = o6.model_for_spec(spec)
        offsets = []
        for i in range(12):
            obs = o6.render_scene(spec, i, model=model).observation
            ref = o6.ref_mean_visible(obs.depth, obs.mask, obs.intrinsics)
            tgt = o6.encode_targets(obs, ref)
            offsets.append(tgt.delta_t)
            assert np.linalg.norm(tgt.delta_t) <= model.diameter / 2 + 1e-9
        for a in offsets:
            for b in offsets:
                pred = o6.RigidPose(random_pose(rng).rotation, a)
                gt = o6.RigidPose(random_pose(rng).rotation, b)
                parts = o6.decompose_add_loss(pred, gt, model)
                assert parts.translation_part <= model.diameter**2 + 1e-12


class TestWeightedLoss:
    def test_unit_weights_match_total(self, rng):
        model = ball_model(rng)
        pred, gt = random_pose(rng), random_pose(rng)
        parts = o6.decompose_add_loss(pred, gt, model)
        assert o6.weighted_add_loss(pred, gt, model, 1.0, 1.0) == pytest.approx(parts.total, rel=1e-15)

    def test_scaled_rotation_weight(self, rng):
        model = ball_model(rng)  # centered: cross term 0
        pred, gt = random_pose(rng), random_pose(rng)
        parts = o6.decompose_add_loss(pred, gt, model)
        weighted = o6.weighted_add_loss(pred, gt, model, 4.0, 1.0)
        assert weighted == pytest.approx(4 * parts.rotation_part + parts.translation_part, rel=1e-12)

    def test_pure_translation_with_zero_rotation_weight(self, rng):
        model = ball_model(rng)
        gt = random_pose(rng)
        pred = o6.RigidPose(gt.rotation, gt.translation + [0.01, 0.0, 0.0])
        parts = o6.decompose_add_loss(pred, gt, model)
        assert o6.weighted_add_loss(pred, gt, model, 0.0, 1.0) == pytest.approx(
            parts.translation_part, rel=1e-12
        )

    def test_rejects_negative_weights(self, rng):
        model = ball_model(rng)
        pose = random_pose(rng)
        with pytest.raises(ValueError):
            o6.weighted_add_loss(pose, pose, model, -1.0, 1.0)
