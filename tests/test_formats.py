"""File format round trips and malformed-input diagnostics."""

import math
import os
import stat

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import offset6d as o6
from offset6d import formats, record
from offset6d.encoding import ConstraintForm, GeoEncoding, GeoTargets, InputMode, TargetMode, geometric_products
from offset6d.errors import ConfigError, FormatError

from conftest import default_intrinsics, random_pose, random_rotation, small_scene_spec

K = default_intrinsics()


class TestAtomicWrite:
    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_mode_is_what_a_plain_open_gives(self, tmp_path, umask):
        # The temp file behind each atomic write is created 0o600; the
        # artifact must not keep that mode.
        old = os.umask(umask)
        try:
            (tmp_path / "plain.txt").write_text("a = 1\n")
            formats.write_keyvalue(tmp_path / "kv.txt", [("a", "1")])
            formats.write_depth_pgm(tmp_path / "depth.pgm", np.ones((2, 3)))
        finally:
            os.umask(old)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
        assert modes == {"plain.txt": 0o666 & ~umask, "kv.txt": 0o666 & ~umask, "depth.pgm": 0o666 & ~umask}


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


class TestPgmRoundTripProperty:
    SHAPES = st.tuples(st.integers(1, 12), st.integers(1, 12))

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), shape=SHAPES)
    def test_depth_within_half_millimetre(self, tmp_path, data, shape):
        # Depths anywhere in the 16-bit millimetre range, with holes (0).
        depth = data.draw(hnp.arrays(np.float64, shape, elements=st.one_of(
            st.just(0.0), st.floats(0.0, formats.MAX_DEPTH_MM * formats.DEPTH_UNIT),
        )))
        path = tmp_path / "depth.pgm"
        formats.write_depth_pgm(path, depth)
        back = formats.read_depth_pgm(path)
        assert back.shape == depth.shape
        assert np.abs(back - depth).max() <= 0.0005 + 1e-12
        assert np.all(back[depth == 0] == 0)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), shape=SHAPES)
    def test_mask_exact(self, tmp_path, data, shape):
        mask = data.draw(hnp.arrays(bool, shape))
        path = tmp_path / "mask.pgm"
        formats.write_mask_pgm(path, mask)
        back = formats.read_mask_pgm(path)
        assert back.dtype == bool and back.shape == mask.shape
        np.testing.assert_array_equal(back, mask)


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

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        seed=st.integers(0, 2**64 - 1),
        translation=hnp.arrays(np.float64, 3, elements=st.floats(allow_nan=False, allow_infinity=False)),
    )
    def test_pose_round_trip_property(self, tmp_path, seed, translation):
        pose = o6.RigidPose(random_rotation(np.random.default_rng(seed)), translation)
        path = tmp_path / "pose.txt"
        formats.write_pose(path, pose)
        back = formats.read_pose(path)
        assert back.rotation.tobytes() == pose.rotation.tobytes()
        assert back.translation.tobytes() == pose.translation.tobytes()

    def test_unknown_key_rejected(self, tmp_path, rng):
        path = tmp_path / "pose.txt"
        formats.write_pose(path, random_pose(rng))
        path.write_text(path.read_text() + "color = blue\n")
        with pytest.raises(FormatError):
            formats.read_pose(path)

    def test_wrong_format_rejected(self, tmp_path):
        other = tmp_path / "verify.txt"
        formats.write_keyvalue(other, [("format", "verify/v1"), ("rotation", "1 0 0 0 1 0 0 0 1")])
        with pytest.raises(FormatError, match="expected format 'pose/v1', found 'verify/v1'"):
            formats.read_pose(other)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "kv.txt"
        path.write_text("a = 1\na = 2\n")
        with pytest.raises(FormatError):
            formats.read_keyvalue(path)


def _example_encoding(rng, mode=InputMode.GEOMETRIC, strategy=o6.RefStrategy.MEAN_VISIBLE):
    spec = small_scene_spec(seed=63)
    scene = o6.render_scene(spec, 0)
    obs = scene.observation
    ref = o6.make_reference(obs.depth, obs.mask, obs.intrinsics, strategy)
    enc = o6.encode_input(obs, ref, mode)
    tgt = o6.encode_targets(obs, ref)
    return enc, tgt


class TestEncodingFiles:
    @pytest.mark.parametrize("mode", list(InputMode))
    def test_encoding_round_trip_exact(self, tmp_path, rng, mode):
        # A non-default strategy, so a reader that assumed mean-visible would fail.
        enc, _ = _example_encoding(rng, mode=mode, strategy=o6.RefStrategy.CENTER_MEAN_DEPTH)
        path = tmp_path / "encoding.txt"
        formats.write_encoding(path, enc)
        back, form = formats.read_encoding(path)
        assert form is ConstraintForm.CORRECTED
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

    @pytest.mark.parametrize("mode", list(InputMode))
    def test_one_column_layout_for_every_mode(self, tmp_path, rng, mode):
        enc, _ = _example_encoding(rng, mode=mode)
        path = tmp_path / "encoding.txt"
        formats.write_encoding(path, enc)
        header = path.read_bytes().partition(b"\ndata:\n")[0].decode()
        assert header.startswith("format = encoding/v3\n")
        assert header.endswith(f"count = {len(enc)}\ncolumns = u v delta_x delta_y delta_d")
        assert path.stat().st_size == len(header) + len(b"\ndata:\n") + len(enc) * 5 * 8

    @pytest.mark.parametrize("field", ["dd0", "t0_over_dd0"])
    def test_inconsistent_geometric_products_refused(self, tmp_path, rng, field):
        enc, _ = _example_encoding(rng)
        channel = getattr(enc, field).copy()
        channel.flat[0] = np.nextafter(channel.flat[0], np.inf)  # one ulp off
        path = tmp_path / "encoding.txt"
        with pytest.raises(ValueError, match="differ from the products of delta_d"):
            formats.write_encoding(path, record.replace(enc, **{field: channel}))
        assert not path.exists()

    @pytest.mark.parametrize("columns", [
        "u v delta_x delta_y delta_d dd0 t0dd0_x t0dd0_y t0dd0_z",
        "u v delta_x delta_y",
        "v u delta_x delta_y delta_d",
    ])
    def test_other_column_list_rejected(self, tmp_path, columns):
        path = tmp_path / "encoding.txt"
        path.write_text(
            "format = encoding/v3\nmode = offset\nconstraint_form = corrected\n"
            "x0 = 0.0\ny0 = 0.0\nd0 = 1.0\nstrategy = mean-visible\n"
            f"count = 0\ncolumns = {columns}\ndata:\n"
        )
        with pytest.raises(FormatError, match=f"expected columns 'u v delta_x delta_y delta_d', found '{columns}'"):
            formats.read_encoding(path)

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
        path.write_bytes(raw + np.arange(5, dtype="<f8").tobytes())  # one more row
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
        with pytest.raises(FormatError, match="expected format 'encoding/v3', found 'encoding/v1'"):
            formats.read_encoding(path)

    def test_table_of_version_2_rejected_by_format(self, tmp_path):
        # Re-encoding is the migration path; there is no v2 reader.
        path = tmp_path / "encoding.txt"
        path.write_bytes(
            b"format = encoding/v2\nmode = geometric\nconstraint_form = corrected\n"
            b"x0 = 0.0\ny0 = 0.0\nd0 = 1.0\nstrategy = mean-visible\n"
            b"count = 1\ncolumns = u v delta_x delta_y delta_d dd0 t0dd0_x t0dd0_y t0dd0_z\ndata:\n"
            + np.array([3, 4, 0.5, 0.25, 1.0, 2.0, 0.0, 0.0, 0.5], dtype="<f8").tobytes()
        )
        with pytest.raises(FormatError, match="expected format 'encoding/v3', found 'encoding/v2'"):
            formats.read_encoding(path)

    def test_zero_row_table_is_its_text_header(self, tmp_path):
        empty = np.empty(0)
        ref = o6.ReferencePoint(0.0, 0.0, 1.0, o6.RefStrategy.MEAN_VISIBLE)
        enc = GeoEncoding(empty.astype(np.int64), empty.astype(np.int64), empty, empty, empty,
                          dd0=empty, t0_over_dd0=np.empty((0, 3)), ref=ref, mode=InputMode.GEOMETRIC)
        path = tmp_path / "encoding.txt"
        formats.write_encoding(path, enc)
        header = path.read_text()
        assert header.startswith("format = encoding/v3\n")
        assert header.endswith("count = 0\ncolumns = u v delta_x delta_y delta_d\ndata:\n")
        back, _ = formats.read_encoding(path)
        assert len(back) == 0 and back.t0_over_dd0.shape == (0, 3)

    def test_non_positive_dd0_rejected(self, tmp_path, rng):
        enc, _ = _example_encoding(rng)
        path = tmp_path / "encoding.txt"
        formats.write_encoding(path, enc)
        raw = bytearray(path.read_bytes())
        delta_d = raw.index(b"\ndata:\n") + len(b"\ndata:\n") + 4 * 8  # row 0, column delta_d
        raw[delta_d : delta_d + 8] = np.array([-2 * enc.ref.d0], dtype="<f8").tobytes()  # d = -d0
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
# Header scalars are repr text, so NaN payloads would not survive; table values are raw bits.
_HEADER_FLOATS = st.floats(allow_nan=False)
_ROWS = st.integers(0, 12)
_PIXELS = st.integers(0, 2**53)
# From d0 >= 2**-500 and delta_d > -d0, dd0 = (delta_d + d0) * d0 >= d0**2 * 2**-53
# cannot round to 0, so GeoEncoding's "dd0 must be positive" check holds.
_GEOMETRIC_D0 = st.floats(min_value=2.0**-500, allow_infinity=False)


def _refs(d0=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)):
    return st.builds(
        o6.ReferencePoint,
        x0=_HEADER_FLOATS,
        y0=_HEADER_FLOATS,
        d0=d0,
        strategy=st.sampled_from(list(o6.RefStrategy)),
    )


@st.composite
def _encodings(draw):
    """Encodings with arbitrary channel bits; a GEOMETRIC one takes its
    products from ``geometric_products``, as ``encode_input`` does."""
    n = draw(_ROWS)
    mode = draw(st.sampled_from(list(InputMode)))
    geometric = mode is InputMode.GEOMETRIC
    ref = draw(_refs(_GEOMETRIC_D0) if geometric else _refs())

    def column(elements=_VALUES):
        return draw(hnp.arrays(np.float64, n, elements=elements))

    above_minus_d0 = st.floats(min_value=-ref.d0, exclude_min=True)
    delta_d = column(st.one_of(st.sampled_from([v for v in _SPECIAL if not v <= -ref.d0]), above_minus_d0)
                     if geometric else _VALUES)
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN products are stored bits too
        dd0, t0_over_dd0 = geometric_products(delta_d, ref) if geometric else (None, None)
    return GeoEncoding(
        us=draw(hnp.arrays(np.int64, n, elements=_PIXELS)),
        vs=draw(hnp.arrays(np.int64, n, elements=_PIXELS)),
        delta_x=column(),
        delta_y=column(),
        delta_d=delta_d,
        dd0=dd0,
        t0_over_dd0=t0_over_dd0,
        ref=ref,
        mode=mode,
    )


@st.composite
def _targets(draw):
    n = draw(_ROWS)
    return GeoTargets(
        delta_t=draw(hnp.arrays(np.float64, 3, elements=_HEADER_FLOATS)),
        delta_abc=draw(hnp.arrays(np.float64, (n, 3), elements=_VALUES)),
        mode=draw(st.sampled_from(list(TargetMode))),
        ref=draw(_refs()),
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
    @given(enc=_encodings())
    def test_encoding_round_trip_bit_exact(self, tmp_path, enc):
        path = tmp_path / "encoding.txt"
        with np.errstate(over="ignore", invalid="ignore"):
            formats.write_encoding(path, enc)
            back, back_form = formats.read_encoding(path)
        assert back_form is ConstraintForm.CORRECTED and back.mode is enc.mode
        for name in ("us", "vs", "delta_x", "delta_y", "delta_d", "dd0", "t0_over_dd0"):
            _same_bits(getattr(back, name), getattr(enc, name))
        _same_ref(back.ref, enc.ref)

    @_PROPERTY
    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(1, 8)),
        data=st.data(),
        d0=st.floats(min_value=1e-4, max_value=1e4),
        x0=st.floats(-1e3, 1e3),
        y0=st.floats(-1e3, 1e3),
    )
    def test_encode_input_products_read_back_bit_exact(self, tmp_path, shape, data, d0, x0, y0):
        # Depths over eight decades, most far outside [d0/2, 2 d0]: d*d0
        # computed from d differs in bits from (delta_d + d0)*d0 on some of
        # them, so the encoder and the reader must derive the products alike.
        depth = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(min_value=1e-4, max_value=1e4)))
        mask = data.draw(hnp.arrays(np.bool_, shape)) | (np.arange(depth.size) == 0).reshape(shape)
        obs = o6.SceneObservation(o6.DepthMap(depth), o6.InstanceMask(mask), o6.CameraIntrinsics(500.0, 450.0, 3.5, 2.5))
        enc = o6.encode_input(obs, o6.ReferencePoint(x0, y0, d0, o6.RefStrategy.MEAN_VISIBLE))
        path = tmp_path / "encoding.txt"
        formats.write_encoding(path, enc)
        back, _ = formats.read_encoding(path)
        _same_bits(back.dd0, enc.dd0)
        _same_bits(back.t0_over_dd0, enc.t0_over_dd0)

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

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.lists(
        st.one_of(
            st.none(),
            st.integers(),
            st.floats(),
            # Any text but NUL, which the csv reader of Python 3.10 rejects;
            # the second strategy draws often from '#', quotes and line breaks.
            st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")),
            st.text(alphabet="#\r\n\",x "),
        ),
        min_size=3, max_size=3,
    ), max_size=8))
    def test_round_trip_property(self, tmp_path, rows):
        path = tmp_path / "rows.csv"
        formats.write_csv(path, "results/v1", ["a", "b", "c"], rows)
        header, back = formats.read_csv(path, "results/v1")
        assert header == ["a", "b", "c"] and len(back) == len(rows)
        for row, cells in zip(rows, back):
            assert len(cells) == len(row)
            for value, cell in zip(row, cells):
                if value is None:
                    assert cell == ""
                elif isinstance(value, float):
                    assert math.isnan(value) and math.isnan(float(cell)) or (
                        np.float64(float(cell)).tobytes() == np.float64(value).tobytes()
                    )
                else:
                    assert cell == str(value)

    def test_comment_like_cells_and_line_breaks_survive(self, tmp_path):
        path = tmp_path / "rows.csv"
        rows = [["#x", 1.0], ["y", "two\nlines"], ["cr\r", "crlf\r\n"]]
        formats.write_csv(path, "results/v1", ["#a", "b"], rows)
        header, back = formats.read_csv(path, "results/v1")
        assert header == ["#a", "b"]
        assert back == [["#x", "1.0"], ["y", "two\nlines"], ["cr\r", "crlf\r\n"]]

    def test_plain_rows_are_not_quoted(self, tmp_path):
        path = tmp_path / "rows.csv"
        formats.write_csv(path, "results/v1", ["n", "v"], [["x#", 1.5], ["y", None]])
        assert path.read_bytes() == b"# results/v1\nn,v\nx#,1.5\ny,\n"

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


class TestSceneDir:
    def test_round_trip(self, tmp_path, rng):
        spec = small_scene_spec(seed=65)
        obs = o6.render_scene(spec, 0).observation
        formats.write_scene_dir(tmp_path / "scene_00000", obs)
        back = formats.read_scene_dir(tmp_path / "scene_00000", spec.intrinsics)
        np.testing.assert_array_equal(back.mask.values, obs.mask.values)
        assert np.abs(back.depth.values - obs.depth.values).max() <= 0.0005 + 1e-12
        np.testing.assert_array_equal(back.gt_pose.rotation, obs.gt_pose.rotation)
        np.testing.assert_array_equal(back.gt_pose.translation, obs.gt_pose.translation)
        assert back.intrinsics == obs.intrinsics

    def test_rewrite_without_pose_removes_old_pose(self, tmp_path):
        obs = o6.render_scene(small_scene_spec(seed=66), 0).observation
        formats.write_scene_dir(tmp_path / "scene_00000", obs)
        formats.write_scene_dir(tmp_path / "scene_00000", record.replace(obs, gt_pose=None))
        assert not (tmp_path / "scene_00000" / "pose.txt").exists()
        assert formats.read_scene_dir(tmp_path / "scene_00000", K).gt_pose is None


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
