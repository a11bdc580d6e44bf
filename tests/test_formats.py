"""File format round trips and malformed-input diagnostics."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import offset6d as o6
from offset6d import formats
from offset6d.encoding import ConstraintForm, GeoEncoding, GeoTargets, InputMode, TargetMode
from offset6d.errors import ConfigError, FormatError

from conftest import default_intrinsics, random_pose, small_scene_spec

K = default_intrinsics()


class TestPly:
    def test_round_trip_identical(self, tmp_path, rng):
        pts = rng.uniform(-1, 1, (4, 3))
        path = tmp_path / "pts.ply"
        formats.write_ply(path, pts)
        back, symmetric = formats.read_ply(path)
        np.testing.assert_array_equal(back, pts)
        assert symmetric is None

    def test_symmetric_comment(self, tmp_path, rng):
        path = tmp_path / "pts.ply"
        formats.write_ply(path, rng.uniform(-1, 1, (3, 3)), symmetric=True)
        _, symmetric = formats.read_ply(path)
        assert symmetric is True

    def test_model_round_trip(self, tmp_path, rng):
        pts = rng.uniform(-0.05, 0.05, (30, 3))
        model = o6.ObjectModel.from_points(pts, symmetric=True)
        path = tmp_path / "model.ply"
        formats.write_model(path, model)
        back = formats.read_model(path)
        np.testing.assert_array_equal(back.points, model.points)
        assert back.diameter == model.diameter
        assert back.symmetric

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text("plyx\nformat ascii 1.0\nend_header\n")
        with pytest.raises(FormatError) as err:
            formats.read_ply(path)
        assert err.value.offset == 0

    def test_vertex_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property double x\nproperty double y\nproperty double z\n"
            "end_header\n0 0 0\n1 1 1\n"
        )
        with pytest.raises(FormatError):
            formats.read_ply(path)

    def test_bad_vertex_row_names_offset(self, tmp_path):
        text = (
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property double x\nproperty double y\nproperty double z\n"
            "end_header\n0 zero 0\n"
        )
        path = tmp_path / "bad.ply"
        path.write_text(text)
        with pytest.raises(FormatError) as err:
            formats.read_ply(path)
        assert err.value.offset == text.index("0 zero")

    @pytest.mark.parametrize("flag", ["yes", "True", "", "true false"])
    def test_symmetric_flag_must_be_true_or_false(self, tmp_path, rng, flag):
        path = tmp_path / "pts.ply"
        formats.write_ply(path, rng.uniform(-1, 1, (3, 3)), symmetric=True)
        text = path.read_text().replace("comment symmetric true", f"comment symmetric {flag}")
        path.write_text(text)
        with pytest.raises(FormatError, match="symmetric flag must be true or false") as err:
            formats.read_ply(path)
        assert str(err.value).startswith(f"{path}: ")
        assert err.value.offset == text.index("comment symmetric")

    @pytest.mark.parametrize("line", ["element", "element vertex", "element vertex -3", "element face 2"])
    def test_malformed_element_line_names_file(self, tmp_path, line):
        path = tmp_path / "bad.ply"
        path.write_text(f"ply\nformat ascii 1.0\n{line}\nproperty double x\nend_header\n")
        with pytest.raises(FormatError, match="element") as err:
            formats.read_ply(path)
        assert str(err.value).startswith(f"{path}: ")

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        points=hnp.arrays(np.float64, st.tuples(st.integers(0, 12), st.just(3)),
                          elements=st.floats(allow_nan=False, allow_infinity=False)),
        symmetric=st.sampled_from([True, False, None]),
    )
    def test_round_trip_property(self, tmp_path, points, symmetric):
        path = tmp_path / "pts.ply"
        formats.write_ply(path, points, symmetric=symmetric)
        back, back_symmetric = formats.read_ply(path)
        assert back.shape == points.shape and back.tobytes() == points.tobytes()
        assert back_symmetric is symmetric


class TestDepthPgm:
    def test_quantization_round_trip(self, tmp_path, rng):
        depth = np.zeros((8, 10))
        depth[2:6, 3:9] = rng.uniform(0.3, 3.0, (4, 6))
        path = tmp_path / "depth.pgm"
        formats.write_depth_pgm(path, depth)
        back = formats.read_depth_pgm(path)
        assert back.shape == depth.shape
        assert np.abs(back - depth).max() <= 0.0005 + 1e-12
        assert np.all(back[depth == 0] == 0)

    def test_round_half_even(self, tmp_path):
        # 1.2345 m -> 1234.5 mm -> 1234 (ties to even), documented contract.
        path = tmp_path / "depth.pgm"
        formats.write_depth_pgm(path, np.array([[1.2345]]))
        back = formats.read_depth_pgm(path)
        assert back[0, 0] == pytest.approx(1.234, abs=1e-12)

    def test_big_endian_16bit(self, tmp_path):
        path = tmp_path / "depth.pgm"
        formats.write_depth_pgm(path, np.array([[0.258]]))  # 258 mm = 0x0102
        raw = path.read_bytes()
        assert raw.endswith(b"\x01\x02")

    def test_truncated_data(self, tmp_path):
        path = tmp_path / "depth.pgm"
        formats.write_depth_pgm(path, np.ones((4, 4)))
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError) as err:
            formats.read_depth_pgm(path)
        assert err.value.offset is not None

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "depth.pgm"
        formats.write_depth_pgm(path, np.ones((4, 4)))
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(FormatError):
            formats.read_depth_pgm(path)

    def test_out_of_range_write(self, tmp_path):
        with pytest.raises(ValueError):
            formats.write_depth_pgm(tmp_path / "d.pgm", np.array([[70.0]]))  # 70 m > 16 bit mm

    def test_rejects_wrong_maxval(self, tmp_path):
        path = tmp_path / "d.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes(4))
        with pytest.raises(FormatError):
            formats.read_depth_pgm(path)


class TestMaskPgm:
    def test_round_trip(self, tmp_path, rng):
        mask = rng.random((6, 7)) < 0.5
        path = tmp_path / "mask.pgm"
        formats.write_mask_pgm(path, mask)
        np.testing.assert_array_equal(formats.read_mask_pgm(path), mask)

    def test_rejects_intermediate_values(self, tmp_path):
        path = tmp_path / "mask.pgm"
        path.write_bytes(b"P5\n2 1\n255\n\xff\x80")
        with pytest.raises(FormatError) as err:
            formats.read_mask_pgm(path)
        assert err.value.offset == len(b"P5\n2 1\n255\n") + 1


class TestKeyValueFiles:
    def test_pose_round_trip_exact(self, tmp_path, rng):
        pose = random_pose(rng)
        path = tmp_path / "pose.txt"
        formats.write_pose(path, pose)
        back = formats.read_pose(path)
        np.testing.assert_array_equal(back.rotation, pose.rotation)
        np.testing.assert_array_equal(back.translation, pose.translation)

    def test_intrinsics_round_trip_exact(self, tmp_path):
        k = o6.CameraIntrinsics(fx=321.125, fy=240.5, cx=160.25, cy=120.75)
        path = tmp_path / "k.txt"
        formats.write_intrinsics(path, k)
        assert formats.read_intrinsics(path) == k

    def test_unknown_key_rejected(self, tmp_path, rng):
        path = tmp_path / "pose.txt"
        formats.write_pose(path, random_pose(rng))
        path.write_text(path.read_text() + "color = blue\n")
        with pytest.raises(FormatError):
            formats.read_pose(path)

    def test_wrong_format_rejected(self, tmp_path, rng):
        path = tmp_path / "pose.txt"
        formats.write_pose(path, random_pose(rng))
        other = tmp_path / "k.txt"
        formats.write_intrinsics(other, K)
        with pytest.raises(FormatError):
            formats.read_pose(other)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "kv.txt"
        path.write_text("a = 1\na = 2\n")
        with pytest.raises(FormatError):
            formats.read_keyvalue(path)


def _example_encoding(rng, mode=InputMode.GEOMETRIC, uv=False, strategy=o6.RefStrategy.MEAN_VISIBLE):
    spec = small_scene_spec(seed=63)
    scene = o6.render_scene(spec, 0)
    obs = scene.observation
    ref = o6.make_reference(obs.depth, obs.mask, obs.intrinsics, strategy)
    enc = o6.encode_input(obs, ref, mode, include_uv_offsets=uv)
    tgt = o6.encode_targets(obs, ref)
    return enc, tgt


class TestEncodingFiles:
    @pytest.mark.parametrize("mode", list(InputMode))
    def test_encoding_round_trip_exact(self, tmp_path, rng, mode):
        # A non-default strategy, so a reader that assumed mean-visible would fail.
        enc, _ = _example_encoding(rng, mode=mode, strategy=o6.RefStrategy.CENTER_MEAN_DEPTH)
        path = tmp_path / "encoding.txt"
        formats.write_encoding(path, enc, ConstraintForm.AS_PRINTED)
        back, form = formats.read_encoding(path)
        assert form is ConstraintForm.AS_PRINTED
        assert back.mode is mode
        np.testing.assert_array_equal(back.us, enc.us)
        np.testing.assert_array_equal(back.vs, enc.vs)
        np.testing.assert_array_equal(back.delta_x, enc.delta_x)
        np.testing.assert_array_equal(back.delta_y, enc.delta_y)
        np.testing.assert_array_equal(back.delta_d, enc.delta_d)
        if mode is InputMode.GEOMETRIC:
            np.testing.assert_array_equal(back.dd0, enc.dd0)
            np.testing.assert_array_equal(back.t0_over_dd0, enc.t0_over_dd0)
        assert (back.ref.x0, back.ref.y0, back.ref.d0) == (enc.ref.x0, enc.ref.y0, enc.ref.d0)
        assert back.ref.strategy is enc.ref.strategy is o6.RefStrategy.CENTER_MEAN_DEPTH

    def test_uv_channels_round_trip(self, tmp_path, rng):
        enc, _ = _example_encoding(rng, uv=True)
        path = tmp_path / "encoding.txt"
        formats.write_encoding(path, enc)
        back, _ = formats.read_encoding(path)
        np.testing.assert_array_equal(back.delta_u, enc.delta_u)
        np.testing.assert_array_equal(back.delta_v, enc.delta_v)

    def test_targets_round_trip_exact(self, tmp_path, rng):
        _, tgt = _example_encoding(rng)
        path = tmp_path / "targets.txt"
        formats.write_targets(path, tgt)
        back = formats.read_targets(path)
        assert back.mode is TargetMode.RELATIVE_OFFSET
        np.testing.assert_array_equal(back.delta_t, tgt.delta_t)
        np.testing.assert_array_equal(back.delta_abc, tgt.delta_abc)
        np.testing.assert_array_equal(back.us, tgt.us)

    def test_row_count_mismatch_rejected(self, tmp_path, rng):
        enc, _ = _example_encoding(rng)
        path = tmp_path / "encoding.txt"
        formats.write_encoding(path, enc)
        raw = path.read_bytes()
        path.write_bytes(raw + np.arange(9, dtype="<f8").tobytes())  # one more geometric row
        with pytest.raises(FormatError) as err:
            formats.read_encoding(path)
        assert "trailing bytes" in str(err.value)
        assert err.value.offset == len(raw)

    def test_truncated_payload_rejected(self, tmp_path, rng):
        _, tgt = _example_encoding(rng)
        path = tmp_path / "targets.txt"
        formats.write_targets(path, tgt)
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(FormatError) as err:
            formats.read_targets(path)
        payload = len(tgt) * 5 * 8
        assert f"expected {payload} data bytes, found {payload - 8}" in str(err.value)
        assert err.value.offset == len(raw) - 8

    def test_text_table_of_version_1_rejected_by_format(self, tmp_path):
        path = tmp_path / "encoding.txt"
        path.write_text(
            "format = encoding/v1\nmode = offset\nconstraint_form = corrected\n"
            "x0 = 0.0\ny0 = 0.0\nd0 = 1.0\nstrategy = mean-visible\n"
            "count = 1\ncolumns = u v delta_x delta_y delta_d\ndata:\n3 4 0.5 0.25 0.125\n"
        )
        with pytest.raises(FormatError, match="expected format 'encoding/v2', found 'encoding/v1'"):
            formats.read_encoding(path)

    def test_zero_row_table_is_its_text_header(self, tmp_path):
        empty = np.empty(0)
        ref = o6.ReferencePoint(0.0, 0.0, 1.0, o6.RefStrategy.MEAN_VISIBLE)
        enc = GeoEncoding(empty.astype(np.int64), empty.astype(np.int64), empty, empty, empty,
                          dd0=empty, t0_over_dd0=np.empty((0, 3)), ref=ref, mode=InputMode.GEOMETRIC)
        path = tmp_path / "encoding.txt"
        formats.write_encoding(path, enc)
        header = path.read_text()
        assert header.startswith("format = encoding/v2\n")
        assert header.endswith("count = 0\ncolumns = u v delta_x delta_y delta_d dd0 t0dd0_x t0dd0_y t0dd0_z\ndata:\n")
        back, _ = formats.read_encoding(path)
        assert len(back) == 0 and back.t0_over_dd0.shape == (0, 3)

    def test_non_positive_dd0_rejected(self, tmp_path, rng):
        enc, _ = _example_encoding(rng)
        path = tmp_path / "encoding.txt"
        formats.write_encoding(path, enc)
        raw = bytearray(path.read_bytes())
        dd0 = raw.index(b"\ndata:\n") + len(b"\ndata:\n") + 5 * 8  # row 0, column dd0
        raw[dd0 : dd0 + 8] = np.array([-1.0], dtype="<f8").tobytes()
        path.write_bytes(raw)
        with pytest.raises(FormatError, match="dd0 must be positive"):
            formats.read_encoding(path)

    def test_header_that_is_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "targets.txt"
        path.write_bytes(b"format = targets/v2\nmode = \xff\ncount = 0\ncolumns = u\ndata:\n")
        with pytest.raises(FormatError, match="not UTF-8") as err:
            formats.read_targets(path)
        assert err.value.offset == len(b"format = targets/v2\nmode = ")

    def test_duplicate_header_key_rejected(self, tmp_path, rng):
        enc, _ = _example_encoding(rng)
        path = tmp_path / "encoding.txt"
        formats.write_encoding(path, enc)
        raw = path.read_bytes()
        first_line = raw.index(b"\n") + 1
        path.write_bytes(raw[:first_line] + b"mode = offset\n" + raw[first_line:])
        with pytest.raises(FormatError, match="duplicate key 'mode'") as err:
            formats.read_encoding(path)
        assert err.value.offset == raw.index(b"mode = ") + len(b"mode = offset\n")


# Every float64 class: signed zeros, subnormals, infinities and NaN.
_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, math.inf, -math.inf, math.nan]
_VALUES = st.one_of(st.sampled_from(_SPECIAL), st.floats())
# dd0 must not be <= 0 (GeoEncoding's own check); NaN passes it.
_POSITIVE = st.one_of(st.sampled_from([5e-324, 1e-310, math.inf, math.nan]), st.floats(min_value=0.0, exclude_min=True))
# Header scalars are repr text, so NaN payloads would not survive; table values are raw bits.
_HEADER_FLOATS = st.floats(allow_nan=False)
_ROWS = st.integers(0, 12)
_PIXELS = st.integers(0, 2**53)

_refs = st.builds(
    o6.ReferencePoint,
    x0=_HEADER_FLOATS,
    y0=_HEADER_FLOATS,
    d0=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    strategy=st.sampled_from(list(o6.RefStrategy)),
)


@st.composite
def _encodings(draw):
    n = draw(_ROWS)
    mode = draw(st.sampled_from(list(InputMode)))
    geometric = mode is InputMode.GEOMETRIC
    uv = draw(st.booleans())

    def column(elements=_VALUES, shape=n):
        return draw(hnp.arrays(np.float64, shape, elements=elements))

    return GeoEncoding(
        us=draw(hnp.arrays(np.int64, n, elements=_PIXELS)),
        vs=draw(hnp.arrays(np.int64, n, elements=_PIXELS)),
        delta_x=column(),
        delta_y=column(),
        delta_d=column(),
        dd0=column(_POSITIVE) if geometric else None,
        t0_over_dd0=column(shape=(n, 3)) if geometric else None,
        ref=draw(_refs),
        mode=mode,
        delta_u=column() if uv else None,
        delta_v=column() if uv else None,
    )


@st.composite
def _targets(draw):
    n = draw(_ROWS)
    return GeoTargets(
        delta_t=draw(hnp.arrays(np.float64, 3, elements=_HEADER_FLOATS)),
        delta_abc=draw(hnp.arrays(np.float64, (n, 3), elements=_VALUES)),
        mode=draw(st.sampled_from(list(TargetMode))),
        ref=draw(_refs),
        us=draw(hnp.arrays(np.int64, n, elements=_PIXELS)),
        vs=draw(hnp.arrays(np.int64, n, elements=_PIXELS)),
    )


def _same_bits(a, b):
    if a is None or b is None:
        assert a is None and b is None
        return
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


def _same_ref(a, b):
    assert a.strategy is b.strategy
    _same_bits(np.array([a.x0, a.y0, a.d0]), np.array([b.x0, b.y0, b.d0]))


_PROPERTY = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestTableRoundTripProperty:
    @_PROPERTY
    @given(enc=_encodings(), form=st.sampled_from(list(ConstraintForm)))
    def test_encoding_round_trip_bit_exact(self, tmp_path, enc, form):
        path = tmp_path / "encoding.txt"
        formats.write_encoding(path, enc, form)
        back, back_form = formats.read_encoding(path)
        assert back_form is form and back.mode is enc.mode
        for name in ("us", "vs", "delta_x", "delta_y", "delta_d", "dd0", "t0_over_dd0", "delta_u", "delta_v"):
            _same_bits(getattr(back, name), getattr(enc, name))
        _same_ref(back.ref, enc.ref)

    @_PROPERTY
    @given(tgt=_targets())
    def test_targets_round_trip_bit_exact(self, tmp_path, tgt):
        path = tmp_path / "targets.txt"
        formats.write_targets(path, tgt)
        back = formats.read_targets(path)
        assert back.mode is tgt.mode
        for name in ("us", "vs", "delta_abc", "delta_t"):
            _same_bits(getattr(back, name), getattr(tgt, name))
        _same_ref(back.ref, tgt.ref)


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "rows.csv"
        formats.write_csv(path, "results/v1", ["a", "b"], [["x", 1.5], ["y", None]])
        header, rows = formats.read_csv(path, "results/v1")
        assert header == ["a", "b"]
        assert rows == [["x", "1.5"], ["y", ""]]

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "rows.csv"
        formats.write_csv(path, "results/v2", ["a"], [["x"]])
        with pytest.raises(FormatError):
            formats.read_csv(path, "results/v1")

    def test_byte_identical_rewrites(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        rows = [["s", 0.1], ["t", 0.2]]
        formats.write_csv(a, "results/v1", ["n", "v"], rows)
        formats.write_csv(b, "results/v1", ["n", "v"], rows)
        assert a.read_bytes() == b.read_bytes()

    def test_stamp_breaks_identity_but_parses(self, tmp_path):
        a = tmp_path / "a.csv"
        formats.write_csv(a, "results/v1", ["n"], [["x"]], stamp="2026-08-09T00:00:00")
        header, rows = formats.read_csv(a, "results/v1")
        assert rows == [["x"]]
        assert b"2026-08-09" in a.read_bytes()


class TestSceneDir:
    def test_round_trip(self, tmp_path, rng):
        spec = small_scene_spec(seed=65)
        obs = o6.render_scene(spec, 0).observation
        formats.write_scene_dir(tmp_path / "scene_00000", obs)
        back = formats.read_scene_dir(tmp_path / "scene_00000")
        np.testing.assert_array_equal(back.mask.values, obs.mask.values)
        assert np.abs(back.depth.values - obs.depth.values).max() <= 0.0005 + 1e-12
        np.testing.assert_array_equal(back.gt_pose.rotation, obs.gt_pose.rotation)
        np.testing.assert_array_equal(back.gt_pose.translation, obs.gt_pose.translation)
        assert back.intrinsics == obs.intrinsics

    def test_rewrite_without_pose_removes_old_pose(self, tmp_path):
        obs = o6.render_scene(small_scene_spec(seed=66), 0).observation
        formats.write_scene_dir(tmp_path / "scene_00000", obs)
        formats.write_scene_dir(tmp_path / "scene_00000", dataclasses.replace(obs, gt_pose=None))
        assert not (tmp_path / "scene_00000" / "pose.txt").exists()
        assert formats.read_scene_dir(tmp_path / "scene_00000").gt_pose is None


class TestManifestAndConfig:
    def test_manifest_round_trip(self, tmp_path):
        spec = small_scene_spec(seed=67, occlusion_fraction=0.25, depth_noise_sigma=0.001)
        path = tmp_path / "manifest.txt"
        formats.write_manifest(path, spec, 12)
        back_spec, count = formats.read_manifest(path)
        assert count == 12
        assert back_spec == spec

    def test_manifest_rejects_unknown_keys(self, tmp_path):
        spec = small_scene_spec(seed=69)
        path = tmp_path / "manifest.txt"
        formats.write_manifest(path, spec, 3)
        path.write_text(path.read_text() + "banana = yes\n")
        with pytest.raises(ConfigError):
            formats.read_manifest(path)

    def test_experiment_config_schema(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text(
            "format = experiment/v1\nseed = 1\nscene_count = 2\n"
            "image_width = 64\nimage_height = 64\n"
            "fx = 60.0\nfy = 60.0\ncx = 32.0\ncy = 32.0\n"
            "model_kind = sphere\nmodel_params = 0.05\n"
            "surface_sample_count = 100\n"
            "translation_dist = box\ntranslation_center = 0 0 1\n"
            "translation_half_widths = 0.1 0.1 0.1\n"
        )
        kv = formats.read_experiment_config(path)
        spec = formats.pairs_to_spec(kv, path)
        assert spec.seed == 1 and spec.image_size == (64, 64)

    def test_experiment_config_unknown_key(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("format = experiment/v1\nnonsense = 1\n")
        with pytest.raises(ConfigError):
            formats.read_experiment_config(path)

    def test_model_symmetric_must_be_true_or_false(self):
        kv = dict(formats.spec_to_pairs(small_scene_spec(model_kind=o6.FileModel("part.ply", symmetric=True))))
        assert formats.pairs_to_spec(kv, "config.txt").model_kind.symmetric
        kv["model_symmetric"] = "yes"
        with pytest.raises(ConfigError, match="config.txt: key 'model_symmetric'"):
            formats.pairs_to_spec(kv, "config.txt")

    def test_config_missing_key_message(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("format = experiment/v1\nmodel_kind = sphere\n")
        kv = formats.read_experiment_config(path)
        with pytest.raises(ConfigError):
            formats.pairs_to_spec(kv, path)
