"""File format round trips and malformed-input diagnostics."""

import io
import math
import os
import re
import stat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import offset6d as o6
from offset6d import formats, record
from offset6d.encoding import ConstraintForm, GeoEncoding, GeoTargets, InputMode, TargetMode, geometric_products
from offset6d.errors import FormatError

from conftest import random_pose, random_rotation, small_scene_spec


class TestAtomicWrite:
    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_mode_is_what_a_plain_open_gives(self, tmp_path, umask):
        # The temp file behind each atomic write is opened like a plain file,
        # so the artifact gets the mode the process umask gives it.
        old = os.umask(umask)
        try:
            (tmp_path / "plain.txt").write_text("a = 1\n")
            formats.write_keyvalue(tmp_path / "kv.txt", [("a", "1")])
            formats.write_depth_pgm(tmp_path / "depth.pgm", np.ones((2, 3)))
        finally:
            os.umask(old)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
        assert modes == {"plain.txt": 0o666 & ~umask, "kv.txt": 0o666 & ~umask, "depth.pgm": 0o666 & ~umask}

    def test_writers_leave_the_umask_alone(self, tmp_path, monkeypatch):
        # Setting the umask to read it would make files other threads create
        # meanwhile world-writable; no writer may call os.umask.
        def refuse(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", refuse)
        rng = np.random.default_rng(3)
        spec = small_scene_spec(seed=3)
        obs = o6.render_scene(spec, 0).observation
        ref = o6.make_reference(obs, o6.RefStrategy.MEAN_VISIBLE)
        formats.write_keyvalue(tmp_path / "kv.txt", [("a", "1")])
        formats.write_pose(tmp_path / "pose.txt", random_pose(rng))
        formats.write_ply(tmp_path / "points.ply", rng.uniform(-1, 1, (4, 3)), symmetric=True)
        formats.write_scene_dir(tmp_path / "scene", obs)
        formats.write_encoding(tmp_path / "encoding.txt", o6.encode_input(obs, ref))
        formats.write_targets(tmp_path / "targets.txt", o6.encode_targets(obs, ref))
        formats.write_csv(tmp_path / "rows.csv", "rows/v1", ["a"], [[1.0]])
        formats.write_manifest(tmp_path / "manifest.txt", spec, 1)
        written = sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*") if p.is_file())
        assert written == ["encoding.txt", "kv.txt", "manifest.txt", "points.ply", "pose.txt", "rows.csv",
                           "scene/depth.pgm", "scene/mask.pgm", "scene/pose.txt", "targets.txt"]


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

    # Each was once read back: the last of two lines won, a list passed as
    # the scalar it names, and a row's extra values were dropped.
    @pytest.mark.parametrize("old, new, detail", [
        ("comment symmetric true\n", "comment symmetric true\ncomment symmetric false\n", "a second symmetric comment"),
        ("element vertex 2\n", "element vertex 5\nelement vertex 2\n", "a second element line"),
        ("property double x\n", "property list uchar int x\n", "unsupported PLY property"),
        ("end_header\n0.0 0.0 0.0\n", "end_header\n0 0 0 7 8\n", "vertex row needs 3 values"),
    ], ids=["two-symmetric-comments", "two-element-lines", "list-property", "long-vertex-row"])
    def test_contradictory_line_names_file_and_offset(self, tmp_path, old, new, detail):
        path = tmp_path / "pts.ply"
        formats.write_ply(path, np.zeros((2, 3)), symmetric=True)
        text = path.read_text().replace(old, new)
        path.write_text(text)
        with pytest.raises(FormatError, match=detail) as err:
            formats.read_ply(path)
        assert str(err.value).startswith(f"{path}: ")
        assert err.value.offset == text.index(new.rstrip("\n").split("\n")[-1])

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_write_refused(self, tmp_path, bad):
        # NaN would otherwise cast to 0 and read back as a missing pixel.
        with pytest.raises(ValueError):
            formats.write_depth_pgm(tmp_path / "d.pgm", np.array([[bad, 1.0]]))
        assert list(tmp_path.iterdir()) == []

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
        assert formats.read_pose(path) == pose

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        seed=st.integers(0, 2**64 - 1),
        translation=hnp.arrays(np.float64, 3, elements=st.floats(allow_nan=False, allow_infinity=False)),
    )
    def test_pose_round_trip_property(self, tmp_path, seed, translation):
        pose = o6.RigidPose(random_rotation(np.random.default_rng(seed)), translation)
        path = tmp_path / "pose.txt"
        formats.write_pose(path, pose)
        assert formats.read_pose(path) == pose

    def test_unknown_key_rejected(self, tmp_path, rng):
        path = tmp_path / "pose.txt"
        formats.write_pose(path, random_pose(rng))
        path.write_text(path.read_text() + "color = blue\n")
        with pytest.raises(FormatError):
            formats.read_pose(path)

    # A header's keys are the ones its reader reads: a stray key and an empty value are refused by name.
    @pytest.mark.parametrize("name", ["pose.txt", "encoding.txt", "targets.txt"])
    @pytest.mark.parametrize("line, detail", [
        ("stray = 1", "unknown keys ['stray']"),
        ("{key} =", "key '{key}': empty value"),
    ], ids=["unread", "empty"])
    def test_header_keys_are_the_readers_reads(self, tmp_path, rng, name, line, detail):
        enc, tgt = _example_encoding(rng)
        path = tmp_path / name
        write, read, key = {
            "pose.txt": (lambda: formats.write_pose(path, random_pose(rng)), formats.read_pose, "translation"),
            "encoding.txt": (lambda: formats.write_encoding(path, enc), formats.read_encoding, "strategy"),
            "targets.txt": (lambda: formats.write_targets(path, tgt), formats.read_targets, "delta_t"),
        }[name]
        write()
        header, mark, payload = path.read_bytes().partition(b"\ndata:\n")
        line = line.format(key=key)  # in place of the key's own line, if the file has one
        lines = [x for x in header.decode().split("\n") if x.split(" =")[0] != line.split(" =")[0]]
        path.write_bytes("\n".join([*lines, line]).encode() + (mark or b"\n") + payload)
        with pytest.raises(FormatError, match=re.escape(f"{path}: {detail.format(key=key)}")):
            read(path)

    def test_wrong_format_rejected(self, tmp_path):
        other = tmp_path / "verify.txt"
        formats.write_keyvalue(other, [("format", "verify/v1"), ("rotation", "1 0 0 0 1 0 0 0 1")])
        with pytest.raises(FormatError, match="key 'format': expected 'pose/v1', found 'verify/v1'"):
            formats.read_pose(other)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "kv.txt"
        path.write_text("a = 1\na = 2\n")
        with pytest.raises(FormatError):
            formats.read_keyvalue(path)


def _example_encoding(rng, strategy=o6.RefStrategy.MEAN_VISIBLE):
    spec = small_scene_spec(seed=63)
    scene = o6.render_scene(spec, 0)
    obs = scene.observation
    ref = o6.make_reference(obs, strategy)
    enc = o6.encode_input(obs, ref)
    tgt = o6.encode_targets(obs, ref)
    return enc, tgt


class TestEncodingFiles:
    def test_encoding_round_trip_exact(self, tmp_path, rng):
        # A non-default strategy, so a reader that assumed mean-visible would fail.
        enc, _ = _example_encoding(rng, strategy=o6.RefStrategy.CENTER_MEAN_DEPTH)
        path = tmp_path / "encoding.txt"
        formats.write_encoding(path, enc)
        back, form = formats.read_encoding(path)
        assert form is ConstraintForm.CORRECTED
        assert back.mode is InputMode.GEOMETRIC
        np.testing.assert_array_equal(back.us, enc.us)
        np.testing.assert_array_equal(back.vs, enc.vs)
        np.testing.assert_array_equal(back.delta_x, enc.delta_x)
        np.testing.assert_array_equal(back.delta_y, enc.delta_y)
        np.testing.assert_array_equal(back.delta_d, enc.delta_d)
        np.testing.assert_array_equal(back.dd0, enc.dd0)
        np.testing.assert_array_equal(back.t0_over_dd0, enc.t0_over_dd0)
        assert (back.ref.x0, back.ref.y0, back.ref.d0) == (enc.ref.x0, enc.ref.y0, enc.ref.d0)
        assert back.ref.strategy is enc.ref.strategy is o6.RefStrategy.CENTER_MEAN_DEPTH

    @pytest.mark.parametrize("mode", [InputMode.ABSOLUTE_XYD, InputMode.OFFSET_XYD,
                                      TargetMode.ABSOLUTE, TargetMode.OFFSET], ids=lambda m: m.name)
    def test_other_mode_refused_and_no_file_left(self, tmp_path, mode):
        # The files hold the pipeline's one encoding; the library keeps the other modes in memory.
        obs = o6.render_scene(small_scene_spec(seed=63), 0).observation
        ref = o6.make_reference(obs, o6.RefStrategy.MEAN_VISIBLE)
        if isinstance(mode, InputMode):
            path, write, made = tmp_path / "encoding.txt", formats.write_encoding, o6.encode_input(obs, ref, mode)
        else:
            path, write, made = tmp_path / "targets.txt", formats.write_targets, o6.encode_targets(obs, ref, mode)
        with pytest.raises(o6.ModeMismatchError, match=f"{re.escape(str(path))}: .* not '{mode.value}'"):
            write(path, made)
        assert list(tmp_path.iterdir()) == []

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
            "format = encoding/v3\nmode = geometric\nconstraint_form = corrected\n"
            "x0 = 0.0\ny0 = 0.0\nd0 = 1.0\nstrategy = mean-visible\n"
            f"count = 0\ncolumns = {columns}\ndata:\n"
        )
        with pytest.raises(FormatError, match=f"expected columns 'u v delta_x delta_y delta_d', found '{columns}'"):
            formats.read_encoding(path)

    def test_targets_round_trip_exact(self, tmp_path, rng):
        _, tgt = _example_encoding(rng)
        path = tmp_path / "targets.txt"
        formats.write_targets(path, tgt)
        # The same table under a '#' line longer than the reader's first read of the header.
        commented = tmp_path / "commented.txt"
        commented.write_bytes(b"# " + b"x" * 3 * io.DEFAULT_BUFFER_SIZE + b"\n" + path.read_bytes())
        for back in map(formats.read_targets, (path, commented)):
            assert back.mode is TargetMode.RELATIVE_OFFSET
            assert back == tgt

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
        with pytest.raises(FormatError, match="key 'format': expected 'encoding/v3', found 'encoding/v1'"):
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
        with pytest.raises(FormatError, match="key 'format': expected 'encoding/v3', found 'encoding/v2'"):
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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, 0.5, 2.0**53 + 2, 1e300])
    @pytest.mark.parametrize("name, column", [("encoding.txt", 0), ("targets.txt", 1)])
    def test_pixel_column_checked_before_the_cast(self, tmp_path, rng, name, column, value):
        # Once cast to int64 unchecked: numpy's "invalid value encountered in
        # cast" warning, or a fraction truncated into another pixel.
        enc, tgt = _example_encoding(rng)
        path = tmp_path / name
        write, read = {"encoding.txt": (formats.write_encoding, formats.read_encoding),
                       "targets.txt": (formats.write_targets, formats.read_targets)}[name]
        write(path, enc if name == "encoding.txt" else tgt)
        raw = bytearray(path.read_bytes())
        at = raw.index(b"\ndata:\n") + len(b"\ndata:\n") + 3 * 5 * 8 + column * 8  # row 3
        raw[at : at + 8] = np.array([value], dtype="<f8").tobytes()
        path.write_bytes(raw)
        with pytest.raises(FormatError, match=f"column '{'uv'[column]}', row 3: .* is not a pixel index") as err:
            read(path)
        assert str(path) in str(err.value) and err.value.offset == at

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
    finite = st.floats(allow_nan=False, allow_infinity=False)  # a ReferencePoint refuses others
    return st.builds(
        o6.ReferencePoint,
        x0=finite,
        y0=finite,
        d0=d0,
        strategy=st.sampled_from(list(o6.RefStrategy)),
    )


@st.composite
def _encodings(draw):
    """GEOMETRIC encodings, the one mode a file holds, with arbitrary channel
    bits; the products come from ``geometric_products``, as in ``encode_input``."""
    n = draw(_ROWS)
    ref = draw(_refs(_GEOMETRIC_D0))

    def column(elements=_VALUES):
        return draw(hnp.arrays(np.float64, n, elements=elements))

    above_minus_d0 = st.floats(min_value=-ref.d0, exclude_min=True)
    delta_d = column(st.one_of(st.sampled_from([v for v in _SPECIAL if not v <= -ref.d0]), above_minus_d0))
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN products are stored bits too
        dd0, t0_over_dd0 = geometric_products(delta_d, ref)
    return GeoEncoding(
        us=draw(hnp.arrays(np.int64, n, elements=_PIXELS)),
        vs=draw(hnp.arrays(np.int64, n, elements=_PIXELS)),
        delta_x=column(),
        delta_y=column(),
        delta_d=delta_d,
        dd0=dd0,
        t0_over_dd0=t0_over_dd0,
        ref=ref,
        mode=InputMode.GEOMETRIC,
    )


@st.composite
def _targets(draw):
    n = draw(_ROWS)
    return GeoTargets(
        delta_t=draw(hnp.arrays(np.float64, 3, elements=_HEADER_FLOATS)),
        delta_abc=draw(hnp.arrays(np.float64, (n, 3), elements=_VALUES)),
        mode=TargetMode.RELATIVE_OFFSET,
        ref=draw(_refs()),
        us=draw(hnp.arrays(np.int64, n, elements=_PIXELS)),
        vs=draw(hnp.arrays(np.int64, n, elements=_PIXELS)),
    )


def _same_ref(a, b):
    """``==`` on the reference's floats does not tell -0.0 from 0.0; this does."""
    assert a.strategy is b.strategy
    assert record.same_value(np.array([a.x0, a.y0, a.d0]), np.array([b.x0, b.y0, b.d0]))


_PROPERTY = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestTableRoundTripProperty:
    @_PROPERTY
    @given(enc=_encodings())
    def test_encoding_round_trip_bit_exact(self, tmp_path, enc):
        path = tmp_path / "encoding.txt"
        with np.errstate(over="ignore", invalid="ignore"):
            formats.write_encoding(path, enc)
            back, back_form = formats.read_encoding(path)
        assert back_form is ConstraintForm.CORRECTED
        assert back == enc
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
        obs = o6.SceneObservation(depth, mask, o6.CameraIntrinsics(500.0, 450.0, 3.5, 2.5))
        enc = o6.encode_input(obs, o6.ReferencePoint(x0, y0, d0, o6.RefStrategy.MEAN_VISIBLE))
        path = tmp_path / "encoding.txt"
        formats.write_encoding(path, enc)
        back, _ = formats.read_encoding(path)
        assert back == enc

    @_PROPERTY
    @given(tgt=_targets())
    def test_targets_round_trip_bit_exact(self, tmp_path, tgt):
        path = tmp_path / "targets.txt"
        formats.write_targets(path, tgt)
        back = formats.read_targets(path)
        assert back == tgt
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


class TestTextDecoding:
    """Every text reader decodes through one strict UTF-8 path."""

    @pytest.mark.parametrize("name, text, read", [
        ("pose.txt", b"format = pose/v1\nrotation = \xff\n", formats.read_pose),
        ("manifest.txt", b"format = dataset/v2\n\xff\n", formats.read_manifest),
        ("config.txt", b"# \xff\nformat = experiment/v1\n", formats.read_experiment_config),
        ("model.ply", b"ply\ncomment \xff\n", formats.read_model),  # once silently replaced
        ("solves.csv", b"# solves/v1\nscene,\xff\n", lambda path: formats.read_csv(path, "solves/v1")),
    ], ids=["pose", "manifest", "config", "ply-comment", "csv"])
    def test_byte_that_is_not_utf8_names_file_and_offset(self, tmp_path, name, text, read):
        path = tmp_path / name
        path.write_bytes(text)
        with pytest.raises(FormatError, match="not UTF-8 text") as err:
            read(path)
        assert str(path) in str(err.value) and err.value.offset == text.index(b"\xff")

    def test_non_ascii_text_reads_as_written(self, tmp_path, rng):
        ply, csv_path = tmp_path / "model.ply", tmp_path / "notes.csv"
        formats.write_ply(ply, rng.uniform(-1, 1, (3, 3)))
        ply.write_bytes(ply.read_bytes().replace(b"ply\n", "ply\ncomment modèle\n".encode(), 1))
        assert formats.read_ply(ply)[0].shape == (3, 3)
        formats.write_csv(csv_path, "notes/v1", ["name"], [["modèle\r\nµ"]])
        assert formats.read_csv(csv_path, "notes/v1") == (["name"], [["modèle\r\nµ"]])

    def test_offsets_count_bytes_not_characters(self, tmp_path):
        path = tmp_path / "pose.txt"
        path.write_bytes("# é\nnot a pair\n".encode())
        with pytest.raises(FormatError, match="expected 'key = value'") as err:
            formats.read_pose(path)
        assert err.value.offset == len("# é\n".encode())

    def test_unquoted_carriage_return_in_csv_refused(self, tmp_path):
        # write_csv quotes every cell holding a "\r"; a bare one is not its output.
        path = tmp_path / "solves.csv"
        path.write_bytes(b"# solves/v1\nscene\rname\n")
        with pytest.raises(FormatError, match="not CSV"):
            formats.read_csv(path, "solves/v1")


class TestSceneDir:
    def test_round_trip(self, tmp_path, rng):
        spec = small_scene_spec(seed=65)
        obs = o6.render_scene(spec, 0).observation
        formats.write_scene_dir(tmp_path / "scene_00000", obs)
        back = formats.read_scene_dir(tmp_path / "scene_00000", spec)
        np.testing.assert_array_equal(back.mask, obs.mask)
        assert np.abs(back.depth - obs.depth).max() <= 0.0005 + 1e-12
        np.testing.assert_array_equal(back.gt_pose.rotation, obs.gt_pose.rotation)
        np.testing.assert_array_equal(back.gt_pose.translation, obs.gt_pose.translation)
        assert back.intrinsics == obs.intrinsics

    def test_rewrite_without_pose_removes_old_pose(self, tmp_path):
        obs = o6.render_scene(small_scene_spec(seed=66), 0).observation
        formats.write_scene_dir(tmp_path / "scene_00000", obs)
        formats.write_scene_dir(tmp_path / "scene_00000", record.replace(obs, gt_pose=None))
        assert not (tmp_path / "scene_00000" / "pose.txt").exists()
        assert formats.read_scene_dir(tmp_path / "scene_00000", small_scene_spec()).gt_pose is None

    def test_depth_of_another_size_than_the_spec_names_the_file(self, tmp_path):
        obs = o6.render_scene(small_scene_spec(seed=67), 0).observation
        formats.write_scene_dir(tmp_path / "scene_00000", obs)
        with pytest.raises(FormatError, match=r"depth\.pgm: 160x160 image, but the manifest's is 160x120"):
            formats.read_scene_dir(tmp_path / "scene_00000", small_scene_spec(image_size=(160, 120)))


# Every analytic kind under every translation volume, and a point-set file.
SPECS = [
    small_scene_spec(seed=67, model_kind=kind, translation_dist=volume, occlusion_fraction=0.25, depth_noise_sigma=0.001)
    for kind in (o6.BoxModel(0.08, 0.06, 0.1), o6.CylinderModel(0.06, 0.15), o6.SphereModel(0.1),
                 o6.FileModel("models/part.ply", symmetric=True))
    for volume in (o6.BoxVolume((0.0, 0.0, 1.0), (0.25, 0.25, 0.25)),
                   o6.GaussianVolume((0.01, -0.02, 1.0), (0.05, 0.05, 0.1)))
]


class TestManifestAndConfig:
    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.model_kind.config_name}-{s.translation_dist.config_name}")
    def test_manifest_round_trip(self, tmp_path, spec):
        pairs = dict(formats.spec_to_pairs(spec))
        assert (pairs["model_kind"], pairs["translation_dist"]) == (spec.model_kind.config_name,
                                                                    spec.translation_dist.config_name)
        assert formats.pairs_to_spec(pairs) == spec
        path = tmp_path / "manifest.txt"
        formats.write_manifest(path, spec, 12)
        back_spec, count = formats.read_manifest(path)
        assert count == 12
        assert back_spec == spec

    def test_config_names_are_distinct(self):
        kinds, volumes = (*o6.spec.PRIMITIVES, o6.FileModel), o6.spec.VOLUMES
        assert {type(s.model_kind) for s in SPECS} == set(kinds)
        assert {type(s.translation_dist) for s in SPECS} == set(volumes)
        for classes in (kinds, volumes):
            assert len({cls.config_name for cls in classes}) == len(classes)

    def test_manifest_rejects_unknown_keys(self, tmp_path):
        spec = small_scene_spec(seed=69)
        path = tmp_path / "manifest.txt"
        formats.write_manifest(path, spec, 3)
        path.write_text(path.read_text() + "banana = yes\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}: unknown keys ['banana']")):
            formats.read_manifest(path)

    @pytest.mark.parametrize("line, found", [
        ("rng_algorithm = mt19937\n", "found 'mt19937'"),
        ("", "missing key 'rng_algorithm'"),
    ], ids=["other", "missing"])
    def test_manifest_names_its_rng_algorithm(self, tmp_path, line, found):
        # Scenes drawn by another generator are other scenes.
        path = tmp_path / "manifest.txt"
        formats.write_manifest(path, small_scene_spec(seed=69), 3)
        text = path.read_text()
        assert f"rng_algorithm = {o6.spec.RNG_ALGORITHM}\n" in text
        path.write_text(text.replace(f"rng_algorithm = {o6.spec.RNG_ALGORITHM}\n", line))
        with pytest.raises(FormatError, match=f"{path}: .*'rng_algorithm'") as info:
            formats.read_manifest(path)
        assert found in str(info.value)

    CONFIG = (
        "format = experiment/v1\nseed = 1\nscene_count = 2\n"
        "image_width = 64\nimage_height = 64\n"
        "fx = 60.0\nfy = 60.0\ncx = 32.0\ncy = 32.0\n"
        "model_kind = sphere\nmodel_params = 0.05\n"
        "surface_sample_count = 100\n"
        "translation_dist = box\ntranslation_center = 0 0 1\n"
        "translation_half_widths = 0.1 0.1 0.1\n"
    )

    def test_experiment_config_schema(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text(self.CONFIG)
        spec, count, output_dir = formats.read_experiment_config(path)
        assert spec.seed == 1 and spec.image_size == (64, 64)
        assert count == 2 and output_dir is None
        path.write_text(self.CONFIG + "output_dir = out/data\n")
        assert formats.read_experiment_config(path)[2] == Path("out/data")

    def test_experiment_config_unknown_key(self, tmp_path):
        # A complete config, so the key is refused for being unknown and not for another missing.
        path = tmp_path / "config.txt"
        path.write_text(self.CONFIG + "nonsense = 1\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}: unknown keys ['nonsense']")):
            formats.read_experiment_config(path)

    def test_pairs_to_spec_leaves_the_callers_pairs(self):
        kv = dict(formats.spec_to_pairs(small_scene_spec(seed=70)))
        before = dict(kv)
        formats.pairs_to_spec(kv)
        kv["translation_mean"] = "0 0 1"
        with pytest.raises(FormatError, match=re.escape("<config>: unknown keys ['translation_mean']")):
            formats.pairs_to_spec(kv)
        assert kv == {**before, "translation_mean": "0 0 1"}

    def test_model_symmetric_must_be_true_or_false(self):
        kv = dict(formats.spec_to_pairs(small_scene_spec(model_kind=o6.FileModel("part.ply", symmetric=True))))
        assert formats.pairs_to_spec(kv, "config.txt").model_kind.symmetric
        kv["model_symmetric"] = "yes"
        with pytest.raises(FormatError, match="config.txt: key 'model_symmetric'"):
            formats.pairs_to_spec(kv, "config.txt")

    def test_config_missing_key_message(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text(self.CONFIG.replace("model_params = 0.05\n", ""))
        with pytest.raises(FormatError, match=re.escape(f"{path}: missing key 'model_params'")):
            formats.read_experiment_config(path)
