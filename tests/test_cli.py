"""Command-line pipeline: generation, encoding, verification, solving,
evaluation, distribution and loss reports."""

import functools
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

import offset6d as o6
from offset6d import cli, formats, metrics, record, refpoint
from offset6d.cli import SOLVES_HEADER, SOLVES_VERSION, _each, _Scenes, main

from conftest import default_intrinsics, small_scene_spec

K = default_intrinsics()

CONFIG = """\
format = experiment/v1
seed = 7
scene_count = 6
image_width = 160
image_height = 160
fx = 140.0
fy = 140.0
cx = 80.0
cy = 80.0
model_kind = box
model_params = 0.08 0.06 0.1
surface_sample_count = 500
translation_dist = box
translation_center = 0.0 0.0 1.0
translation_half_widths = 0.25 0.25 0.25
depth_noise_sigma = 0.0
pixel_dropout = 0.0
output_dir = dataset
"""


def run(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    return result


def frame_filling_config(scene_count: int) -> str:
    """``CONFIG`` with a 0.5 m box filling a 640x480 frame: about 290k
    visible pixels per scene."""
    return (CONFIG.replace("scene_count = 6", f"scene_count = {scene_count}")
            .replace("image_width = 160", "image_width = 640").replace("image_height = 160", "image_height = 480")
            .replace("fx = 140.0", "fx = 960.0").replace("fy = 140.0", "fy = 960.0")
            .replace("cx = 80.0", "cx = 320.0").replace("cy = 80.0", "cy = 240.0")
            .replace("model_params = 0.08 0.06 0.1", "model_params = 0.5 0.5 0.5")
            .replace("translation_half_widths = 0.25 0.25 0.25", "translation_half_widths = 0.01 0.01 0.01"))


def traced_peak(args) -> tuple[click.testing.Result, int]:
    """The result of a command and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        r = run(CliRunner(), [str(arg) for arg in args])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return r, peak


def tree(root: Path) -> dict[str, bytes]:
    """Every file under ``root``, by relative path, and its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def set_header(path: Path, key: str, value: str) -> None:
    """Rewrite the ``key`` line of a table's header to read ``value``."""
    header, mark, payload = path.read_bytes().partition(b"\ndata:\n")
    lines = [f"{key} = {value}" if line.startswith(f"{key} = ") else line for line in header.decode().split("\n")]
    assert f"{key} = {value}" in lines
    path.write_bytes("\n".join(lines).encode() + mark + payload)


def assert_one_error_line(result, *names) -> None:
    """Exit 1 with a single ``Error:`` line that names each of ``names``."""
    assert result.exit_code == 1, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    [error] = [line for line in result.output.splitlines() if line.startswith("Error:")]
    for name in names:
        assert name in error, error


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One generated+encoded dataset shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    runner = CliRunner()
    (root / "config.txt").write_text(CONFIG)
    r = run(runner, ["synth-gen", "-c", str(root / "config.txt"), "--out", str(root / "dataset")])
    assert r.exit_code == 0, r.output
    r = run(runner, ["encode", "--dataset", str(root / "dataset"), "--out", str(root / "enc")])
    assert r.exit_code == 0, r.output
    r = run(runner, ["solve", "--encodings", str(root / "enc"), "--out", str(root / "solves.csv")])
    assert r.exit_code == 0, r.output
    return root


@pytest.fixture(scope="module")
def three_scene_dir(pipeline_dir, tmp_path_factory):
    """The first three scenes of ``pipeline_dir``'s dataset, generated and
    encoded on their own."""
    root = tmp_path_factory.mktemp("cli3")
    runner = CliRunner()
    (root / "config.txt").write_text(CONFIG.replace("scene_count = 6", "scene_count = 3"))
    r = run(runner, ["synth-gen", "-c", str(root / "config.txt"), "--out", str(root / "dataset")])
    assert r.exit_code == 0, r.output
    r = run(runner, ["encode", "--dataset", str(root / "dataset"), "--out", str(root / "enc")])
    assert r.exit_code == 0, r.output
    return root


class TestSynthGen:
    def test_dataset_layout(self, pipeline_dir):
        dataset = pipeline_dir / "dataset"
        assert (dataset / "manifest.txt").exists()
        assert (dataset / "model.ply").exists()
        assert formats.read_keyvalue(dataset / "manifest.txt")["format"] == "dataset/v2"
        for i in range(6):
            scene = dataset / formats.scene_name(i)
            assert sorted(p.name for p in scene.iterdir()) == ["depth.pgm", "mask.pgm", "pose.txt"]

    def test_config_seed_changes_scenes(self, tmp_path):
        runner = CliRunner()
        for seed, out in ((7, "a"), (7, "b"), (123, "c")):
            config = tmp_path / f"{out}.txt"
            config.write_text(CONFIG.replace("seed = 7", f"seed = {seed}").replace("scene_count = 6", "scene_count = 2"))
            assert run(runner, ["synth-gen", "-c", str(config), "--out", str(tmp_path / out)]).exit_code == 0
        depth = lambda d: (tmp_path / d / "scene_00000" / "depth.pgm").read_bytes()
        assert depth("a") == depth("b")  # same seed: byte identical
        assert depth("a") != depth("c")  # another seed: different

    def test_rerun_writes_identical_tree(self, tmp_path):
        # Every file of the dataset, not only the depth maps: manifest,
        # model and poses must repeat byte for byte too.
        (tmp_path / "config.txt").write_text(CONFIG.replace("scene_count = 6", "scene_count = 3"))
        trees = []
        for out in ("a", "b"):
            args = ["synth-gen", "-c", str(tmp_path / "config.txt"), "--out", str(tmp_path / out)]
            assert run(CliRunner(), args).exit_code == 0
            trees.append(tree(tmp_path / out))
        assert trees[0] == trees[1]
        assert {"manifest.txt", "model.ply", "scene_00002/pose.txt", "scene_00002/mask.pgm"} <= set(trees[0])

    def test_largest_seed_accepted(self, tmp_path):
        (tmp_path / "config.txt").write_text(
            CONFIG.replace("seed = 7", f"seed = {2**128 - 1}").replace("scene_count = 6", "scene_count = 1"))
        args = ["synth-gen", "-c", str(tmp_path / "config.txt"), "--out", str(tmp_path / "x")]
        assert run(CliRunner(), args).exit_code == 0
        assert formats.read_manifest(tmp_path / "x" / "manifest.txt")[0].seed == 2**128 - 1

    # input_mode was once accepted and then ignored by every command.
    @pytest.mark.parametrize("key", ["mystery_knob", "input_mode"])
    def test_bad_config_key_fails(self, tmp_path, key):
        runner = CliRunner()
        (tmp_path / "config.txt").write_text(CONFIG + f"{key} = offset\n")
        r = runner.invoke(main, ["synth-gen", "-c", str(tmp_path / "config.txt"), "--out", str(tmp_path / "x")])
        assert r.exit_code != 0
        assert key in r.output

    @pytest.mark.parametrize("line, detail", [
        ("", "missing key 'output_dir'"),
        ("output_dir =\n", "key 'output_dir': empty value"),
    ], ids=["absent", "empty"])
    def test_missing_output_dir_fails(self, tmp_path, monkeypatch, line, detail):
        # Once: with neither --out nor output_dir, or with an empty one, the
        # scenes went into the working directory.
        (tmp_path / "config.txt").write_text(CONFIG.replace("output_dir = dataset\n", line))
        monkeypatch.chdir(tmp_path)
        r = CliRunner().invoke(main, ["synth-gen", "-c", "config.txt"])
        assert_one_error_line(r, f"config.txt: {detail}")
        assert [p.name for p in tmp_path.iterdir()] == ["config.txt"]

    def test_empty_model_path_names_config_and_key(self, tmp_path):
        # Once read as the working directory: "Error: [Errno 21] Is a directory: '.'".
        config = tmp_path / "config.txt"
        config.write_text(CONFIG.replace("model_kind = box\nmodel_params = 0.08 0.06 0.1\n",
                                         "model_kind = file\nmodel_path =\n"))
        r = CliRunner().invoke(main, ["synth-gen", "-c", str(config), "--out", str(tmp_path / "out")])
        assert_one_error_line(r, f"{config}: key 'model_path': empty value")
        assert not (tmp_path / "out").exists()

    def test_missing_count_fails(self, tmp_path):
        runner = CliRunner()
        (tmp_path / "config.txt").write_text(CONFIG.replace("scene_count = 6\n", ""))
        r = runner.invoke(main, ["synth-gen", "-c", str(tmp_path / "config.txt"), "--out", str(tmp_path / "x")])
        assert r.exit_code != 0

    def test_failed_run_leaves_no_manifest(self, tmp_path):
        # A Gaussian translation draw behind the camera fails partway; the
        # manifest of an earlier complete run in the same directory goes too.
        runner = CliRunner()
        out = tmp_path / "dataset"
        (tmp_path / "config.txt").write_text(CONFIG)
        assert run(runner, ["synth-gen", "-c", str(tmp_path / "config.txt"), "--out", str(out)]).exit_code == 0
        gaussian = CONFIG.replace(
            "translation_dist = box\ntranslation_center = 0.0 0.0 1.0\ntranslation_half_widths = 0.25 0.25 0.25\n",
            "translation_dist = gaussian\ntranslation_mean = 0.0 0.0 0.4\ntranslation_sigma = 0.05 0.05 0.3\n",
        ).replace("scene_count = 6", "scene_count = 40")
        (tmp_path / "gaussian.txt").write_text(gaussian)
        r = runner.invoke(main, ["synth-gen", "-c", str(tmp_path / "gaussian.txt"), "--out", str(out)])
        assert r.exit_code == 1, r.output
        assert r.exception is None or isinstance(r.exception, SystemExit)
        assert "in front of the camera" in r.output
        assert (out / formats.scene_name(0)).is_dir() and not (out / "manifest.txt").exists()

    def test_manifest_says_what_model_ply_says(self, tmp_path):
        # The PLY's symmetric comment wins over model_symmetric; the manifest,
        # and the copy encode makes of it, must not contradict model.ply.
        ply = tmp_path / "part.ply"
        formats.write_ply(ply, o6.make_model(o6.BoxModel(0.08, 0.06, 0.1), 100, np.random.default_rng(5)).points,
                          symmetric=False)
        config = tmp_path / "config.txt"
        config.write_text(CONFIG.replace("model_kind = box\nmodel_params = 0.08 0.06 0.1\n",
                                         f"model_kind = file\nmodel_path = {ply}\nmodel_symmetric = true\n")
                          .replace("scene_count = 6", "scene_count = 1"))
        out, enc = tmp_path / "dataset", tmp_path / "enc"
        assert run(CliRunner(), ["synth-gen", "-c", str(config), "--out", str(out)]).exit_code == 0
        assert run(CliRunner(), ["encode", "--dataset", str(out), "--out", str(enc)]).exit_code == 0
        assert formats.read_model(out / "model.ply").symmetric is False
        for manifest in (out / "manifest.txt", enc / "manifest.txt"):
            assert formats.read_keyvalue(manifest)["model_symmetric"] == "false"

    def test_memory_is_bounded_by_the_image_not_the_object(self, tmp_path):
        # A box filling a 640x480 frame: the ray cast runs in bands of a fixed
        # number of rays, the observation takes the rendered arrays without a
        # copy and the PGMs are written a band at a time, so the peak is the
        # depth map, its mask and a few band-sized arrays (16.2x the depth
        # map when the cast was unbanded, 2.4x with copies and full-image
        # write temporaries; 1.28x measured).
        (tmp_path / "config.txt").write_text(frame_filling_config(1))
        out = tmp_path / "dataset"
        r, peak = traced_peak(["synth-gen", "-c", tmp_path / "config.txt", "--out", out])
        assert r.exit_code == 0, r.output
        depth = formats.read_depth_pgm(out / formats.scene_name(0) / "depth.pgm")
        assert np.count_nonzero(depth) > 0.8 * depth.size
        assert peak < 1.45 * depth.nbytes, peak / depth.nbytes


@pytest.fixture(scope="module")
def frame_filling_dir(tmp_path_factory):
    """Two frame-filling 640x480 scenes, generated and encoded."""
    root = tmp_path_factory.mktemp("frame")
    (root / "config.txt").write_text(frame_filling_config(2))
    runner = CliRunner()
    assert run(runner, ["synth-gen", "-c", str(root / "config.txt"), "--out", str(root / "dataset")]).exit_code == 0
    assert run(runner, ["encode", "--dataset", str(root / "dataset"), "--out", str(root / "enc")]).exit_code == 0
    return root


class TestMemoryPerPixel:
    """Each stage holds its per-pixel arrays once: the traced peak stays under
    ``k`` float64 values per visible pixel of the largest scene, with ``k``
    about 10% above the peak measured on this dataset (encode 18.2, verify
    21.0, solve 22.1 and 25.1 when perturbed, dist-report 7.2; 26.2, 29.0,
    39.0, 42.0 and 11.2 with the copies that were removed)."""

    @pytest.mark.parametrize("command, k", [
        ("encode", 20), ("verify", 23), ("solve", 24), ("solve-perturbed", 27.5), ("dist-report", 8),
    ])
    def test_peak_per_visible_pixel(self, frame_filling_dir, tmp_path, command, k):
        dataset, enc = frame_filling_dir / "dataset", frame_filling_dir / "enc"
        args = {
            "encode": ["encode", "--dataset", dataset, "--out", tmp_path / "enc"],
            "verify": ["verify", "--dataset", dataset, "--encodings", enc],
            "solve": ["solve", "--encodings", enc, "--out", tmp_path / "solves.csv"],
            "solve-perturbed": ["solve", "--encodings", enc, "--out", tmp_path / "solves.csv",
                                "--perturb-sigma", "1e-4"],
            "dist-report": ["dist-report", "--dataset", dataset, "--out", tmp_path / "dist.csv"],
        }[command]
        r, peak = traced_peak(args)
        assert r.exit_code == 0, r.output
        spec, count = formats.read_manifest(dataset / "manifest.txt")
        visible = max(len(formats.read_scene_dir(dataset / formats.scene_name(i), spec).visible[0])
                      for i in range(count))
        assert visible > 0.8 * 640 * 480
        assert peak < k * 8 * visible, peak / (8 * visible)


class TestEncode:
    @pytest.mark.parametrize("strategy", ["mean-visible", "center-nearest"])
    def test_each_scene_selects_its_pixels_once(self, three_scene_dir, tmp_path, monkeypatch, strategy):
        # The reference point, the channels and the targets share one pixel set per scene.
        calls = []
        select = refpoint.SceneObservation.visible.func

        def counted(obs):
            calls.append(obs)
            return select(obs)

        visible = functools.cached_property(counted)
        visible.__set_name__(refpoint.SceneObservation, "visible")
        monkeypatch.setattr(refpoint.SceneObservation, "visible", visible)
        args = ["encode", "--dataset", str(three_scene_dir / "dataset"), "--out", str(tmp_path / "enc"),
                "--strategy", strategy]
        assert run(CliRunner(), args).exit_code == 0
        assert len(calls) == 3


class TestVerify:
    def test_corrected_form_passes_on_clean_data(self, pipeline_dir):
        runner = CliRunner()
        r = run(runner, [
            "verify", "--dataset", str(pipeline_dir / "dataset"),
            "--encodings", str(pipeline_dir / "enc"),
            "--tolerance", "1e-9",
        ])
        assert r.exit_code == 0, r.output
        assert "corrected: max residual" in r.output

    def test_as_printed_reports_nonzero(self, pipeline_dir):
        runner = CliRunner()
        r = run(runner, [
            "verify", "--dataset", str(pipeline_dir / "dataset"),
            "--encodings", str(pipeline_dir / "enc"),
        ])
        assert r.exit_code == 0
        printed_max = float(r.output.split("as-printed: max residual")[1].split(",")[0])
        assert printed_max > 1e-3

    def test_tight_tolerance_fails(self, pipeline_dir):
        runner = CliRunner()
        r = runner.invoke(main, [
            "verify", "--dataset", str(pipeline_dir / "dataset"),
            "--encodings", str(pipeline_dir / "enc"), "--tolerance", "1e-30",
        ])
        assert_one_error_line(r, "corrected-form max residual", "exceeds tolerance 1.000e-30")

    def test_stats_file(self, pipeline_dir, tmp_path):
        runner = CliRunner()
        out = tmp_path / "verify.txt"
        r = run(runner, [
            "verify", "--dataset", str(pipeline_dir / "dataset"),
            "--encodings", str(pipeline_dir / "enc"), "--out", str(out),
        ])
        assert r.exit_code == 0
        kv = formats.read_keyvalue(out)
        assert float(kv["corrected_max"]) < 1e-9
        assert float(kv["as_printed_max"]) > 1e-3

    def test_subset_encodings_name_missing_scenes(self, pipeline_dir, tmp_path):
        enc = tmp_path / "enc"
        for i in (2, 3):
            shutil.copytree(pipeline_dir / "enc" / formats.scene_name(i), enc / formats.scene_name(i))
        shutil.copy(pipeline_dir / "enc" / "manifest.txt", enc / "manifest.txt")
        r = CliRunner().invoke(main, ["verify", "--dataset", str(pipeline_dir / "dataset"), "--encodings", str(enc)])
        assert r.exit_code == 1, r.output
        assert r.exception is None or isinstance(r.exception, SystemExit)
        assert "residual" not in r.output
        for i in (0, 1, 4, 5):
            assert formats.scene_name(i) in r.output
        for i in (2, 3):
            assert formats.scene_name(i) not in r.output

    @pytest.mark.parametrize("dataset, encodings", [("six", "three"), ("three", "six")])
    def test_encodings_of_another_scene_count_refused(self, pipeline_dir, three_scene_dir, dataset, encodings):
        # Every scene directory the dataset names is there either way; only
        # the manifests tell the two datasets apart.
        roots = {"six": pipeline_dir, "three": three_scene_dir}
        r = CliRunner().invoke(main, [
            "verify", "--dataset", str(roots[dataset] / "dataset"), "--encodings", str(roots[encodings] / "enc"),
        ])
        assert_one_error_line(r, str(roots[encodings] / "enc"), "another dataset")
        assert "residual" not in r.output

    def test_nan_channel_fails_naming_scene(self, pipeline_dir, tmp_path):
        # max() skips a NaN, so only a finite check fails it at 1e-9.
        enc = tmp_path / "enc"
        shutil.copytree(pipeline_dir / "enc", enc)
        path = enc / formats.scene_name(2) / "encoding.txt"
        geo, _ = formats.read_encoding(path)
        delta_x = geo.delta_x.copy()
        delta_x[0] = np.nan
        formats.write_encoding(path, record.replace(geo, delta_x=delta_x))
        r = CliRunner().invoke(main, [
            "verify", "--dataset", str(pipeline_dir / "dataset"), "--encodings", str(enc), "--tolerance", "1e-9",
        ])
        assert_one_error_line(r, formats.scene_name(2), "non-finite")
        assert "max residual" not in r.output

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1e-9"])
    def test_bad_tolerance_rejected(self, pipeline_dir, tolerance):
        r = CliRunner().invoke(main, [
            "verify", "--dataset", str(pipeline_dir / "dataset"),
            "--encodings", str(pipeline_dir / "enc"), "--tolerance", tolerance,
        ])
        assert r.exit_code == 2, r.output
        assert "--tolerance" in r.output and "Traceback" not in r.output
        assert "max residual" not in r.output


class TestSolveEval:
    def test_solves_recover_ground_truth(self, pipeline_dir):
        header, rows = formats.read_csv(pipeline_dir / "solves.csv", SOLVES_VERSION)
        assert header == SOLVES_HEADER
        assert len(rows) == 6
        for row in rows:
            assert row[-1] == "well-posed"
            pose = o6.RigidPose(
                np.array([float(v) for v in row[1:10]]).reshape(3, 3),
                np.array([float(v) for v in row[10:13]]),
            )
            gt = formats.read_pose(pipeline_dir / "dataset" / row[0] / "pose.txt")
            assert o6.rotation_geodesic_error(pose, gt) < 1e-6
            assert np.linalg.norm(pose.translation - gt.translation) < 1e-8

    def test_eval_summary_and_rows(self, pipeline_dir, tmp_path):
        runner = CliRunner()
        out = tmp_path / "results.csv"
        summary = tmp_path / "summary.txt"
        r = run(runner, [
            "eval", "--dataset", str(pipeline_dir / "dataset"),
            "--pred", str(pipeline_dir / "solves.csv"),
            "--out", str(out), "--summary-out", str(summary),
        ])
        assert r.exit_code == 0, r.output
        header, rows = formats.read_csv(out, "results/v1")
        assert len(rows) == 6 and all(row[-1] == "ok" for row in rows)
        kv = formats.read_keyvalue(summary)
        assert float(kv["auc"]) > 0.999
        assert float(kv["accuracy_at_threshold"]) == 1.0

    def test_eval_exact_gt_predictions_give_unit_scores(self, pipeline_dir, tmp_path):
        # Predictions copied from the ground truth: AUC and accuracy exactly 1.
        rows = []
        for i in range(6):
            name = formats.scene_name(i)
            pose = formats.read_pose(pipeline_dir / "dataset" / name / "pose.txt")
            rows.append(
                [name]
                + [float(v) for v in pose.rotation.ravel()]
                + [float(v) for v in pose.translation]
                + [0.0, 100, "well-posed"]
            )
        pred = tmp_path / "gt_solves.csv"
        formats.write_csv(pred, SOLVES_VERSION, SOLVES_HEADER, rows)
        runner = CliRunner()
        summary = tmp_path / "summary.txt"
        r = run(runner, [
            "eval", "--dataset", str(pipeline_dir / "dataset"), "--pred", str(pred),
            "--out", str(tmp_path / "results.csv"), "--summary-out", str(summary),
        ])
        assert r.exit_code == 0, r.output
        kv = formats.read_keyvalue(summary)
        assert float(kv["auc"]) == 1.0
        assert float(kv["accuracy_at_threshold"]) == 1.0
        assert float(kv["mean_add_selective"]) == 0.0

    def test_encode_outputs_byte_identical(self, pipeline_dir, tmp_path):
        runner = CliRunner()
        r = run(runner, ["encode", "--dataset", str(pipeline_dir / "dataset"), "--out", str(tmp_path / "enc2")])
        assert r.exit_code == 0
        for name in ("encoding.txt", "targets.txt"):
            a = (pipeline_dir / "enc" / "scene_00000" / name).read_bytes()
            b = (tmp_path / "enc2" / "scene_00000" / name).read_bytes()
            assert a == b

    def test_solve_outputs_byte_identical(self, pipeline_dir, tmp_path):
        runner = CliRunner()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            r = run(runner, ["solve", "--encodings", str(pipeline_dir / "enc"), "--out", str(out)])
            assert r.exit_code == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() == (pipeline_dir / "solves.csv").read_bytes()

    def test_perturbed_solve_reproducible_and_noisy(self, pipeline_dir, tmp_path):
        runner = CliRunner()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            r = run(runner, [
                "solve", "--encodings", str(pipeline_dir / "enc"), "--out", str(out),
                "--perturb-sigma", "1e-4", "--seed", "3",
            ])
            assert r.exit_code == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != (pipeline_dir / "solves.csv").read_bytes()

    def test_refined_solve_reproducible_and_distinct(self, pipeline_dir, tmp_path):
        # The noisy-sweep path: perturbed targets, then --refine's point re-fits.
        outs = {}
        for name, refine in (("a", "2"), ("b", "2"), ("plain", "0")):
            outs[name] = tmp_path / f"{name}.csv"
            r = run(CliRunner(), [
                "solve", "--encodings", str(pipeline_dir / "enc"), "--out", str(outs[name]),
                "--perturb-sigma", "1e-3", "--refine", refine,
            ])
            assert r.exit_code == 0, r.output
        assert outs["a"].read_bytes() == outs["b"].read_bytes()
        _, refined = formats.read_csv(outs["a"], SOLVES_VERSION)
        _, plain = formats.read_csv(outs["plain"], SOLVES_VERSION)
        assert [row[-1] for row in refined] == ["well-posed"] * 6
        assert [row[0] for row in refined] == [row[0] for row in plain]
        assert all(a[1:13] != b[1:13] for a, b in zip(refined, plain))

    def test_perturbed_solve_of_subset_matches_full_run(self, pipeline_dir, three_scene_dir, tmp_path):
        # The noise stream is keyed by scene index, not by list position.
        runs = {}
        for name, encodings in (("full", pipeline_dir / "enc"), ("subset", three_scene_dir / "enc")):
            out = tmp_path / f"{name}.csv"
            r = run(CliRunner(), [
                "solve", "--encodings", str(encodings), "--out", str(out), "--perturb-sigma", "1e-3", "--seed", "3",
            ])
            assert r.exit_code == 0, r.output
            runs[name] = {row[0]: row for row in formats.read_csv(out, SOLVES_VERSION)[1]}
        assert list(runs["subset"]) == [formats.scene_name(i) for i in range(3)]
        assert runs["subset"][formats.scene_name(2)] == runs["full"][formats.scene_name(2)]

    def test_solve_follows_the_manifest_of_a_reencoded_directory(self, pipeline_dir, three_scene_dir, tmp_path):
        # Re-encoding three scenes over six leaves scene_00003..5 on disk;
        # solve handles only the scenes enc/manifest.txt claims.
        enc, out = tmp_path / "enc", tmp_path / "solves.csv"
        for dataset in (pipeline_dir / "dataset", three_scene_dir / "dataset"):
            assert run(CliRunner(), ["encode", "--dataset", str(dataset), "--out", str(enc)]).exit_code == 0
        assert (enc / formats.scene_name(5)).is_dir()
        r = run(CliRunner(), ["solve", "--encodings", str(enc), "--out", str(out)])
        assert r.exit_code == 0, r.output
        _, rows = formats.read_csv(out, SOLVES_VERSION)
        assert [row[0] for row in rows] == [formats.scene_name(i) for i in range(3)]

    def test_degenerate_scene_is_flagged(self, tmp_path):
        # Hand-built fronto-parallel plane: constant depth, unobservable dt.
        depth = np.zeros((40, 40))
        mask = np.zeros((40, 40), dtype=bool)
        depth[10:30, 10:30] = 1.0
        mask[10:30, 10:30] = True
        obs = o6.SceneObservation(depth, mask, K, gt_pose=o6.RigidPose.identity())
        ref = o6.ref_mean_visible(obs.depth, obs.mask, K)
        enc = o6.encode_input(obs, ref)
        tgt = o6.encode_targets(obs, ref)
        enc_dir = tmp_path / "enc" / "scene_00000"
        formats.write_encoding(enc_dir / "encoding.txt", enc)
        formats.write_targets(enc_dir / "targets.txt", tgt)
        formats.write_manifest(tmp_path / "enc" / "manifest.txt", small_scene_spec(), 1)
        runner = CliRunner()
        out = tmp_path / "solves.csv"
        r = run(runner, ["solve", "--encodings", str(tmp_path / "enc"), "--out", str(out)])
        assert r.exit_code == 0
        _, rows = formats.read_csv(out, SOLVES_VERSION)
        assert rows[0][-1] == "degenerate"
        assert rows[0][1] == ""


class TestPoseOnlyStages:
    def test_outputs_do_not_depend_on_depth_or_mask(self, pipeline_dir, tmp_path):
        # verify, eval and loss-decompose use each scene's pose alone: with
        # every depth.pgm and mask.pgm deleted they write the same bytes.
        dataset = tmp_path / "dataset"
        shutil.copytree(pipeline_dir / "dataset", dataset)
        for image in [*dataset.glob("scene_*/depth.pgm"), *dataset.glob("scene_*/mask.pgm")]:
            image.unlink()
        outputs = {}
        for label, root in (("intact", pipeline_dir / "dataset"), ("poses-only", dataset)):
            out = tmp_path / label
            pred = ["--pred", str(pipeline_dir / "solves.csv")]
            for args in (
                ["verify", "--encodings", str(pipeline_dir / "enc"), "--out", str(out / "verify.txt")],
                ["eval", *pred, "--out", str(out / "results.csv"), "--summary-out", str(out / "summary.txt")],
                ["loss-decompose", *pred, "--out", str(out / "loss.csv")],
            ):
                r = run(CliRunner(), [args[0], "--dataset", str(root), *args[1:]])
                assert r.exit_code == 0, r.output
            outputs[label] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert set(outputs["intact"]) == {"verify.txt", "results.csv", "summary.txt", "loss.csv"}
        assert outputs["poses-only"] == outputs["intact"]


class TestReports:
    def test_dist_report(self, pipeline_dir, tmp_path):
        runner = CliRunner()
        out = tmp_path / "dist.csv"
        r = run(runner, [
            "dist-report", "--dataset", str(pipeline_dir / "dataset"),
            "--strategy", "mean-visible", "--out", str(out),
        ])
        assert r.exit_code == 0, r.output
        header, rows = formats.read_csv(out, "dist/v1")
        assert len(rows) == 6
        ratios = [float(r[5]) for r in rows if r[0] == "delta_t"]
        assert all(v > 10 for v in ratios)

    def test_loss_decompose(self, pipeline_dir, tmp_path, monkeypatch):
        calls = []
        for module in (cli, metrics):  # where it is defined and where the CLI imported it
            original = module.decompose_add_loss
            monkeypatch.setattr(module, "decompose_add_loss",
                                lambda *args, original=original: calls.append(1) or original(*args))
        # One degenerate solve: its scene gets blank cells and no decomposition.
        _, solves = formats.read_csv(pipeline_dir / "solves.csv", SOLVES_VERSION)
        solves[2] = [solves[2][0]] + [None] * 14 + ["degenerate"]
        pred = tmp_path / "solves.csv"
        formats.write_csv(pred, SOLVES_VERSION, SOLVES_HEADER, solves)
        runner = CliRunner()
        out = tmp_path / "loss.csv"
        r = run(runner, [
            "loss-decompose", "--dataset", str(pipeline_dir / "dataset"), "--pred", str(pred), "--out", str(out),
        ])
        assert r.exit_code == 0, r.output
        header, rows = formats.read_csv(out, "loss/v2")
        assert header == ["scene", "total", "rotation_part", "cross_term", "translation_part"]
        assert rows.pop(2) == [formats.scene_name(2)] + [""] * 4
        assert len(calls) == len(rows) == 5  # one decomposition per scene
        for row in rows:
            total = float(row[1])
            parts = float(row[2]) + float(row[3]) + float(row[4])
            assert total == pytest.approx(parts, rel=1e-12, abs=1e-300)
            assert float(row[3]) == 0.0  # centered model: cross term exactly 0

    def test_dist_report_streams_scenes(self, tmp_path):
        # Peak traced memory stays near one scene's worth, not the dataset's.
        runner = CliRunner()
        (tmp_path / "config.txt").write_text(CONFIG.replace("scene_count = 6", "scene_count = 24"))
        dataset = tmp_path / "dataset"
        assert run(runner, ["synth-gen", "-c", str(tmp_path / "config.txt"), "--out", str(dataset)]).exit_code == 0
        depth_bytes = 160 * 160 * 8
        tracemalloc.start()
        try:
            r = run(runner, ["dist-report", "--dataset", str(dataset), "--out", str(tmp_path / "dist.csv")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert r.exit_code == 0, r.output
        assert peak < 6 * depth_bytes, peak


class TestErrors:
    def test_missing_manifest(self, tmp_path):
        runner = CliRunner()
        (tmp_path / "empty").mkdir()
        r = runner.invoke(main, ["encode", "--dataset", str(tmp_path / "empty"), "--out", str(tmp_path / "enc")])
        assert r.exit_code != 0
        assert "manifest" in r.output

    @pytest.mark.parametrize("command", ["eval", "loss-decompose"])
    def test_eval_missing_prediction_row(self, pipeline_dir, tmp_path, command):
        _, rows = formats.read_csv(pipeline_dir / "solves.csv", SOLVES_VERSION)
        pred = tmp_path / "short.csv"
        formats.write_csv(pred, SOLVES_VERSION, SOLVES_HEADER, rows[:2] + rows[4:])
        r = CliRunner().invoke(main, [
            command, "--dataset", str(pipeline_dir / "dataset"), "--pred", str(pred),
            "--out", str(tmp_path / "out.csv"),
        ])
        assert r.exit_code == 1, r.output
        assert formats.scene_name(2) in r.output and formats.scene_name(3) in r.output
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command", ["eval", "loss-decompose"])
    def test_duplicate_prediction_row_rejected(self, pipeline_dir, tmp_path, command):
        # scene_00000's pose appended again under scene_00001's name.
        _, rows = formats.read_csv(pipeline_dir / "solves.csv", SOLVES_VERSION)
        pred = tmp_path / "dup.csv"
        formats.write_csv(pred, SOLVES_VERSION, SOLVES_HEADER, rows + [[formats.scene_name(1)] + rows[0][1:]])
        r = CliRunner().invoke(main, [
            command, "--dataset", str(pipeline_dir / "dataset"), "--pred", str(pred),
            "--out", str(tmp_path / "out.csv"),
        ])
        assert r.exit_code == 1, r.output
        assert "duplicate" in r.output and formats.scene_name(1) in r.output

    @pytest.mark.parametrize("command", ["verify", "solve"])
    @pytest.mark.parametrize("damage", ["pixels", "reference"])
    def test_targets_from_another_encoding_rejected(self, pipeline_dir, tmp_path, command, damage):
        enc = tmp_path / "enc"
        shutil.copytree(pipeline_dir / "enc", enc)
        scene = enc / formats.scene_name(0)
        if damage == "pixels":  # another scene's targets: a different pixel set
            shutil.copy(enc / formats.scene_name(1) / "targets.txt", scene / "targets.txt")
        else:  # same pixels, encoded against another reference point
            other = tmp_path / "other"
            args = ["encode", "--dataset", str(pipeline_dir / "dataset"), "--out", str(other), "--strategy", "center-mean"]
            assert run(CliRunner(), args).exit_code == 0
            shutil.copy(other / scene.name / "encoding.txt", scene / "encoding.txt")
        if command == "verify":
            args = ["verify", "--dataset", str(pipeline_dir / "dataset"), "--encodings", str(enc)]
        else:
            args = ["solve", "--encodings", str(enc), "--out", str(tmp_path / "solves.csv")]
        r = CliRunner().invoke(main, args)
        assert r.exit_code == 1, r.output
        assert r.exception is None or isinstance(r.exception, SystemExit)
        assert f"{scene}: targets.txt and encoding.txt differ" in r.output

    @pytest.mark.parametrize("command", ["verify", "solve"])
    @pytest.mark.parametrize("name, key, value", [
        ("targets.txt", "mode", "absolute"),
        ("encoding.txt", "mode", "offset"),
        ("encoding.txt", "constraint_form", "as-printed"),
    ])
    def test_other_encoding_mode_refused(self, pipeline_dir, tmp_path, command, name, key, value):
        # Only geometric channels with relative-offset targets in the corrected
        # form constrain the pose: absolute targets solve to poses centimeters
        # off, yet well-posed.  A header that says otherwise was once read as
        # the corrected form.
        enc = tmp_path / "enc"
        shutil.copytree(pipeline_dir / "enc", enc)
        path = enc / formats.scene_name(2) / name
        set_header(path, key, value)
        out = tmp_path / "out.txt"
        if command == "verify":
            args = ["verify", "--dataset", str(pipeline_dir / "dataset"), "--encodings", str(enc), "--out", str(out)]
        else:
            args = ["solve", "--encodings", str(enc), "--out", str(out)]
        assert_one_error_line(CliRunner().invoke(main, args), f"{path}: key {key!r}", f"found {value!r}")
        assert not out.exists()

    def test_missing_targets_file_names_path(self, pipeline_dir, tmp_path):
        enc = tmp_path / "enc"
        shutil.copytree(pipeline_dir / "enc", enc)
        targets = enc / formats.scene_name(4) / "targets.txt"
        targets.unlink()
        r = CliRunner().invoke(main, ["solve", "--encodings", str(enc), "--out", str(tmp_path / "solves.csv")])
        assert r.exit_code == 1, r.output
        assert r.exception is None or isinstance(r.exception, SystemExit)
        assert str(targets) in r.output

    @pytest.mark.parametrize("command", ["eval", "loss-decompose"])
    @pytest.mark.parametrize("damage", ["short", "text", "flag", "nan-residual", "negative-residual",
                                        "text-count", "empty-count"])
    def test_malformed_solves_row_names_file_and_scene(self, pipeline_dir, tmp_path, command, damage):
        # A row solve could not have written: a residual that is not a finite
        # number >= 0, or a point count that is not a non-negative integer.
        header, rows = formats.read_csv(pipeline_dir / "solves.csv", SOLVES_VERSION)
        residual, count = SOLVES_HEADER.index("residual_rms"), SOLVES_HEADER.index("point_count")
        row = rows[2]
        bad = {"short": row[:12], "text": row[:11] + ["x"] + row[12:],
               "flag": row[:-1] + ["banana"],  # a flag is well-posed or degenerate, nothing else
               "nan-residual": row[:residual] + ["nan"] + row[residual + 1:],
               "negative-residual": row[:residual] + ["-5"] + row[residual + 1:],
               "text-count": row[:count] + ["banana"] + row[count + 1:],
               "empty-count": row[:count] + [""] + row[count + 1:]}[damage]
        pred = tmp_path / "bad.csv"
        formats.write_csv(pred, SOLVES_VERSION, header, rows[:2] + [bad] + rows[3:])
        out = tmp_path / "out.csv"
        r = CliRunner().invoke(main, [
            command, "--dataset", str(pipeline_dir / "dataset"), "--pred", str(pred), "--out", str(out),
        ])
        assert_one_error_line(r, str(pred), formats.scene_name(2))
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "loss-decompose"])
    def test_blank_solves_row_names_file(self, pipeline_dir, tmp_path, command):
        pred = tmp_path / "blank.csv"
        pred.write_bytes((pipeline_dir / "solves.csv").read_bytes() + b"\n")
        out = tmp_path / "out.csv"
        r = CliRunner().invoke(main, [command, "--dataset", str(pipeline_dir / "dataset"), "--pred", str(pred),
                                      "--out", str(out)])
        assert_one_error_line(r, str(pred), "blank row")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "loss-decompose"])
    def test_other_solves_header_names_file(self, pipeline_dir, tmp_path, command):
        pred = tmp_path / "header.csv"
        pred.write_bytes((pipeline_dir / "solves.csv").read_bytes().replace(b",flag\n", b",condition\n", 1))
        out = tmp_path / "out.csv"
        r = CliRunner().invoke(main, [command, "--dataset", str(pipeline_dir / "dataset"), "--pred", str(pred),
                                      "--out", str(out)])
        assert_one_error_line(r, f"{pred}: unexpected solves header", "'condition'")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "loss-decompose"])
    def test_solves_row_of_unclaimed_scene_rejected(self, pipeline_dir, three_scene_dir, tmp_path, command):
        # Six rows against a three-scene dataset: the join fails both ways.
        out = tmp_path / "out.csv"
        r = CliRunner().invoke(main, [command, "--dataset", str(three_scene_dir / "dataset"),
                                      "--pred", str(pipeline_dir / "solves.csv"), "--out", str(out)])
        assert_one_error_line(r, *(formats.scene_name(i) for i in (3, 4, 5)))
        assert formats.scene_name(2) not in r.output
        assert not out.exists()

    def test_failed_encode_leaves_no_manifest(self, pipeline_dir, tmp_path):
        # The manifest of an earlier complete encode goes too, so neither
        # solve nor verify can take the scenes encoded before the failure.
        dataset, enc = tmp_path / "dataset", tmp_path / "enc"
        shutil.copytree(pipeline_dir / "dataset", dataset)
        shutil.copytree(pipeline_dir / "enc", enc)
        mask = dataset / formats.scene_name(1) / "mask.pgm"
        formats.write_mask_pgm(mask, np.zeros_like(formats.read_mask_pgm(mask)))
        r = CliRunner().invoke(main, ["encode", "--dataset", str(dataset), "--out", str(enc)])
        assert_one_error_line(r, formats.scene_name(1))
        assert not (enc / "manifest.txt").exists()
        for args in (["solve", "--encodings", str(enc), "--out", str(tmp_path / "solves.csv")],
                     ["verify", "--dataset", str(pipeline_dir / "dataset"), "--encodings", str(enc)]):
            assert_one_error_line(CliRunner().invoke(main, args), str(enc / "manifest.txt"))
        assert not (tmp_path / "solves.csv").exists()

    def test_all_degenerate_eval_writes_no_results(self, pipeline_dir, tmp_path):
        _, rows = formats.read_csv(pipeline_dir / "solves.csv", SOLVES_VERSION)
        pred = tmp_path / "degenerate.csv"
        degenerate = [[row[0]] + [None] * 14 + ["degenerate"] for row in rows]
        formats.write_csv(pred, SOLVES_VERSION, SOLVES_HEADER, degenerate)
        out = tmp_path / "results.csv"
        r = CliRunner().invoke(main, ["eval", "--dataset", str(pipeline_dir / "dataset"), "--pred", str(pred),
                                      "--out", str(out)])
        assert_one_error_line(r, "no non-degenerate predictions", *(row[0] for row in rows))
        assert not out.exists()

    @pytest.mark.parametrize("name, key, value", [
        ("encoding.txt", "count", "many"),
        ("encoding.txt", "mode", "bogus"),
        ("encoding.txt", "mode", "offset"),
        ("encoding.txt", "constraint_form", "bogus"),
        ("encoding.txt", "constraint_form", "as-printed"),
        ("encoding.txt", "strategy", "bogus"),
        ("encoding.txt", "d0", "oops"),
        ("targets.txt", "mode", "bogus"),
        ("targets.txt", "mode", "absolute"),
        ("targets.txt", "x0", "oops"),
        ("targets.txt", "y0", "oops"),
        ("targets.txt", "x0", "nan"),  # NaN differs from itself: refused here, not blamed on the pair
        ("encoding.txt", "y0", "inf"),
        ("targets.txt", "delta_t", "0.1 oops 0.3"),
    ])
    def test_malformed_header_value_names_file_and_key(self, pipeline_dir, tmp_path, name, key, value):
        enc = tmp_path / "enc"
        shutil.copytree(pipeline_dir / "enc", enc)
        path = enc / formats.scene_name(3) / name
        set_header(path, key, value)
        r = CliRunner().invoke(main, ["solve", "--encodings", str(enc), "--out", str(tmp_path / "solves.csv")])
        assert_one_error_line(r, str(path), repr(key))

    @pytest.mark.parametrize("name, line, command, detail", [
        ("pose.txt", "rotation = 1.1 0.0 0.0 0.0 1.0 0.0 0.0 0.0 1.0", "eval", "orthonormal"),
        ("mask.pgm", None, "encode", "shapes differ"),
    ])
    def test_malformed_scene_file_names_file(self, pipeline_dir, tmp_path, name, line, command, detail):
        dataset = tmp_path / "dataset"
        shutil.copytree(pipeline_dir / "dataset", dataset)
        path = dataset / formats.scene_name(2) / name
        if line is None:  # a mask of another size than the depth map
            formats.write_mask_pgm(path, np.zeros((12, 10), dtype=bool))
        else:
            field = line.split(" = ")[0]
            lines = path.read_text().splitlines()
            path.write_text("".join((line if old.startswith(f"{field} = ") else old) + "\n" for old in lines))
        if command == "encode":
            args = ["encode", "--dataset", str(dataset), "--out", str(tmp_path / "enc")]
        else:
            args = ["eval", "--dataset", str(dataset), "--pred", str(pipeline_dir / "solves.csv"),
                    "--out", str(tmp_path / "results.csv")]
        assert_one_error_line(CliRunner().invoke(main, args), str(path), detail)

    @staticmethod
    def _run_with_spec_value(pipeline_dir, tmp_path, command, key, value):
        """Run ``command`` on a copy of the config (synth-gen) or of the
        dataset's manifest with ``key`` set to ``value``; returns the file
        and the result."""
        if command == "synth-gen":
            path = tmp_path / "config.txt"
            text = CONFIG
        else:
            shutil.copytree(pipeline_dir / "dataset", tmp_path / "dataset")
            path = tmp_path / "dataset" / "manifest.txt"
            text = path.read_text()
        lines = [f"{key} = {value}" if line.startswith(f"{key} = ") else line for line in text.splitlines()]
        if key == "occlusion_fraction":  # optional, and absent from both files
            lines.append(f"{key} = {value}")
        assert f"{key} = {value}" in lines
        path.write_text("\n".join(lines) + "\n")
        args = {
            "synth-gen": ["synth-gen", "-c", str(path), "--out", str(tmp_path / "out")],
            "eval": ["eval", "--dataset", str(tmp_path / "dataset"), "--pred", str(pipeline_dir / "solves.csv"),
                     "--out", str(tmp_path / "results.csv")],
            "encode": ["encode", "--dataset", str(tmp_path / "dataset"), "--out", str(tmp_path / "enc")],
        }[command]
        return path, CliRunner().invoke(main, args)

    @pytest.mark.parametrize("command, key, value", [
        ("synth-gen", "scene_count", "many"),
        ("synth-gen", "model_params", "0.16 -0.12 0.2"),
        ("synth-gen", "translation_half_widths", "0.1 0.0 0.15"),
        ("eval", "scene_count", "two"),
        ("encode", "model_params", "0.16 -0.12 0.2"),
        # Non-finite values: each once ended in a traceback or, for the noise, in a noiseless dataset.
        ("synth-gen", "occlusion_fraction", "nan"),
        ("synth-gen", "occlusion_fraction", "1.0"),  # once eight "fully occluded" scene errors
        ("synth-gen", "translation_center", "0 0 nan"),
        ("synth-gen", "translation_half_widths", "0.1 inf 0.15"),
        ("synth-gen", "model_params", "0.16 inf 0.2"),
        ("synth-gen", "depth_noise_sigma", "nan"),
        ("encode", "depth_noise_sigma", "inf"),
        ("eval", "translation_center", "0 0 inf"),
        # Once allocated before any check: 116 TiB of depth map and 373 GiB of model points.
        ("synth-gen", "image_width", "100000000000"),
        ("synth-gen", "surface_sample_count", "100000000000"),
        ("synth-gen", "image_height", "30000"),
        ("encode", "image_width", "30000"),
        ("encode", "surface_sample_count", str(2**17 + 1)),
    ])
    def test_bad_spec_value_names_file_and_key(self, pipeline_dir, tmp_path, command, key, value):
        path, result = self._run_with_spec_value(pipeline_dir, tmp_path, command, key, value)
        assert_one_error_line(result, str(path), repr(key))
        assert not (tmp_path / "out").exists()  # refused before anything is written

    # The camera is stored once, in the manifest; a check across keys names
    # the key in its own words.
    @pytest.mark.parametrize("command, key, value, detail", [
        ("encode", "fx", "oops", "'fx'"),
        ("encode", "fx", "-5.0", "fx=-5.0"),
        ("synth-gen", "seed", "-1", "seed must be in [0, 2**128)"),
        ("synth-gen", "seed", str(2**128), "seed must be in [0, 2**128)"),
        # Box face areas that overflow or underflow: once a bare numpy message naming no file.
        ("synth-gen", "model_params", "1e200 1e200 1e200", "model_params: overflow"),
        ("synth-gen", "model_params", "1e-200 1e-200 1e-200", "model_params: invalid value"),
        ("synth-gen", "scene_count", "", "key 'scene_count': empty value"),
        ("encode", "fx", "", "key 'fx': empty value"),
    ])
    def test_bad_spec_value_names_file_and_detail(self, pipeline_dir, tmp_path, command, key, value, detail):
        path, result = self._run_with_spec_value(pipeline_dir, tmp_path, command, key, value)
        assert_one_error_line(result, str(path), detail)

    @pytest.mark.parametrize("rows, detail", [
        (["0.01 0.0 0.0"] * 3, "model diameter must be positive (all points coincide?)"),
        (["0.01 0.0 0.0", "0 oops 0", "0.0 0.02 0.0"], "bad vertex row '0 oops 0' (byte offset {})"),
        # No vertices once printed two numpy "Mean of empty slice" warnings before the line.
        ([], "model needs >= 2 points, got shape (0, 3)"),
        (["0.01 0.0 0.0"], "model needs >= 2 points, got shape (1, 3)"),
    ], ids=["coincident", "bad-row", "no-vertices", "one-vertex"])
    def test_refused_model_file_named_once(self, tmp_path, rows, detail):
        # The PLY's reader names it; synth-gen adds no config key to the line.
        ply = tmp_path / "part.ply"
        header = (f"ply\nformat ascii 1.0\nelement vertex {len(rows)}\n"
                  "property double x\nproperty double y\nproperty double z\nend_header\n")
        ply.write_text(header + "".join(f"{row}\n" for row in rows))
        config = tmp_path / "config.txt"
        config.write_text(CONFIG.replace("model_kind = box\nmodel_params = 0.08 0.06 0.1\n",
                                         f"model_kind = file\nmodel_path = {ply}\n"))
        out = tmp_path / "out"
        result = CliRunner().invoke(main, ["synth-gen", "-c", str(config), "--out", str(out)])
        assert_one_error_line(result)
        [error] = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert error == f"Error: {ply}: " + detail.format(len(header) + len(rows[0]) + 1 if rows else 0)
        assert not (out / "manifest.txt").exists()

    @pytest.mark.parametrize("command", ["encode", "dist-report"])
    def test_image_size_other_than_the_manifests_names_each_scene(self, three_scene_dir, tmp_path, command):
        dataset = tmp_path / "dataset"
        shutil.copytree(three_scene_dir / "dataset", dataset)
        path = dataset / "manifest.txt"
        path.write_text(path.read_text().replace("image_width = 160\n", "image_width = 4097\n"))
        out = tmp_path / "out"
        r = CliRunner().invoke(main, [command, "--dataset", str(dataset), "--out", str(out)])
        depths = [str(dataset / formats.scene_name(i) / "depth.pgm") for i in range(3)]
        assert_one_error_line(r, *depths, "160x160 image, but the manifest's is 4097x160")
        assert not (out / "manifest.txt").exists() and not out.is_file()

    def test_manifest_of_version_1_refused(self, pipeline_dir, tmp_path):
        # dataset/v1 kept a copy of the camera in every scene; there is no v1 reader.
        shutil.copytree(pipeline_dir / "dataset", tmp_path / "dataset")
        path = tmp_path / "dataset" / "manifest.txt"
        path.write_text(path.read_text().replace("format = dataset/v2\n", "format = dataset/v1\n"))
        r = CliRunner().invoke(main, ["encode", "--dataset", str(tmp_path / "dataset"), "--out", str(tmp_path / "enc")])
        assert_one_error_line(r, str(path), "key 'format': expected 'dataset/v2', found 'dataset/v1'")
        assert not (tmp_path / "enc").exists()

    # Once read by no code, exit 0, and dropped from the manifest: another
    # model kind's or translation volume's keys.
    @pytest.mark.parametrize("command, lines, keys", [
        ("synth-gen", ["model_path = part.ply", "model_symmetric = true"], "['model_path', 'model_symmetric']"),
        ("synth-gen", ["translation_mean = 0.0 0.0 1.0"], "['translation_mean']"),
        ("encode", ["model_path = part.ply"], "['model_path']"),
        ("encode", ["translation_mean = 0.0 0.0 1.0", "translation_sigma = 0.1 0.1 0.1"],
         "['translation_mean', 'translation_sigma']"),
    ], ids=["config-file-model", "config-gaussian", "manifest-file-model", "manifest-gaussian"])
    def test_key_of_another_kind_refused(self, pipeline_dir, tmp_path, command, lines, keys):
        if command == "synth-gen":
            path = tmp_path / "config.txt"
            path.write_text(CONFIG)
            args = ["synth-gen", "-c", str(path), "--out", str(tmp_path / "out")]
        else:
            shutil.copytree(pipeline_dir / "dataset", tmp_path / "dataset")
            path = tmp_path / "dataset" / "manifest.txt"
            args = ["encode", "--dataset", str(tmp_path / "dataset"), "--out", str(tmp_path / "out")]
        path.write_text(path.read_text() + "".join(f"{line}\n" for line in lines))
        assert_one_error_line(CliRunner().invoke(main, args), f"{path}: unknown keys {keys}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["encode", "verify", "eval", "dist-report", "loss-decompose"])
    def test_manifest_of_no_scenes_refused(self, pipeline_dir, tmp_path, command):
        # synth-gen never writes one; a hand-edited count of 0 must not pass
        # as an empty success or divide by zero.
        dataset = tmp_path / "dataset"
        shutil.copytree(pipeline_dir / "dataset", dataset)
        path = dataset / "manifest.txt"
        path.write_text(path.read_text().replace("scene_count = 6\n", "scene_count = 0\n"))
        out = tmp_path / "out"
        args = [command, "--dataset", str(dataset), "--out", str(out)]
        if command == "verify":
            args += ["--encodings", str(pipeline_dir / "enc")]
        elif command in ("eval", "loss-decompose"):
            args += ["--pred", str(pipeline_dir / "solves.csv")]
        result = CliRunner().invoke(main, args)
        assert_one_error_line(result, f"{path}: key 'scene_count': must be an integer >= 1, got '0'")
        assert not out.exists()

    def test_reencode_without_pose_drops_stale_targets(self, pipeline_dir, tmp_path):
        dataset, enc = tmp_path / "dataset", tmp_path / "enc"
        shutil.copytree(pipeline_dir / "dataset", dataset)
        encode = ["encode", "--dataset", str(dataset), "--out", str(enc)]
        assert run(CliRunner(), encode).exit_code == 0
        (dataset / formats.scene_name(1) / "pose.txt").unlink()
        assert run(CliRunner(), encode).exit_code == 0
        targets = enc / formats.scene_name(1) / "targets.txt"
        assert not targets.exists()
        r = CliRunner().invoke(main, ["solve", "--encodings", str(enc), "--out", str(tmp_path / "solves.csv")])
        assert_one_error_line(r, str(targets))
        assert not (tmp_path / "solves.csv").exists()

    @pytest.mark.parametrize("command", ["verify", "eval", "loss-decompose", "dist-report"])
    def test_missing_pose_names_scene(self, pipeline_dir, tmp_path, command):
        dataset = tmp_path / "dataset"
        shutil.copytree(pipeline_dir / "dataset", dataset)
        pose = dataset / formats.scene_name(2) / "pose.txt"
        pose.unlink()
        args = [command, "--dataset", str(dataset), "--out", str(tmp_path / "out.csv")]
        if command == "verify":
            args += ["--encodings", str(pipeline_dir / "enc")]
        elif command != "dist-report":
            args += ["--pred", str(pipeline_dir / "solves.csv")]
        # verify, eval and loss-decompose read pose.txt alone and name it;
        # dist-report reads whole scenes and names the scene.
        detail = f"{formats.scene_name(2)}: no ground-truth pose" if command == "dist-report" else str(pose)
        assert_one_error_line(CliRunner().invoke(main, args), detail)
        assert not (tmp_path / "out.csv").exists()

    def test_dist_report_of_one_scene_fails(self, tmp_path):
        (tmp_path / "config.txt").write_text(CONFIG.replace("scene_count = 6", "scene_count = 1"))
        dataset = tmp_path / "dataset"
        assert run(CliRunner(), ["synth-gen", "-c", str(tmp_path / "config.txt"), "--out", str(dataset)]).exit_code == 0
        r = CliRunner().invoke(main, ["dist-report", "--dataset", str(dataset), "--out", str(tmp_path / "dist.csv")])
        assert_one_error_line(r, "at least two scenes, got 1")
        assert formats.scene_name(0) not in r.output  # the error comes after the last scene
        assert not (tmp_path / "dist.csv").exists()

    def test_dist_report_of_identical_scenes_fails(self, pipeline_dir, tmp_path):
        # Zero spread: the variance ratio would divide by a zero offset
        # variance, a fault of the spread over all scenes, not of one scene.
        dataset = tmp_path / "dataset"
        shutil.copytree(pipeline_dir / "dataset", dataset)
        for i in range(1, 6):
            shutil.rmtree(dataset / formats.scene_name(i))
            shutil.copytree(dataset / formats.scene_name(0), dataset / formats.scene_name(i))
        r = CliRunner().invoke(main, ["dist-report", "--dataset", str(dataset), "--out", str(tmp_path / "dist.csv")])
        assert_one_error_line(r, "delta_t x: zero variance over 6 scenes, so its variance_ratio is undefined")
        assert "scene_" not in r.output
        assert not (tmp_path / "dist.csv").exists()

    @pytest.mark.parametrize("command, strategy, detail", [
        ("encode", "mean-visible", "no masked pixel with valid depth"),
        ("dist-report", "mean-visible", "no masked pixel with valid depth"),
        ("dist-report", "center-mean", "no masked pixel with valid depth"),
    ])
    def test_scene_without_usable_pixel_named(self, pipeline_dir, tmp_path, command, strategy, detail):
        # The reference point raises the error and knows no scene; the command names it.
        dataset = tmp_path / "dataset"
        shutil.copytree(pipeline_dir / "dataset", dataset)
        mask = dataset / formats.scene_name(1) / "mask.pgm"
        formats.write_mask_pgm(mask, np.zeros_like(formats.read_mask_pgm(mask)))
        out = tmp_path / "out"
        r = CliRunner().invoke(main, [command, "--dataset", str(dataset), "--strategy", strategy, "--out", str(out)])
        assert_one_error_line(r, f"Error: {formats.scene_name(1)}: {detail}")
        assert not (out / formats.scene_name(1)).exists() and not out.is_file()

    @pytest.mark.parametrize("old, new, detail", [
        ("comment symmetric false", "comment symmetric yes", "symmetric flag must be true or false"),
        ("end_header", "end_header\noops 0.0 0.075", "bad vertex row 'oops 0.0 0.075'"),
        ("end_header", "end_header\nnan 0.0 0.075", "finite"),
        # Once allocated before any row was read: 21.8 TiB, and a numpy traceback.
        ("element vertex 500", "element vertex 1000000000000", "declared 1000000000000 vertices but found 500"),
    ], ids=["symmetric-yes", "bad-vertex-row", "nan-vertex", "huge-vertex-count"])
    def test_malformed_model_names_file(self, pipeline_dir, tmp_path, old, new, detail):
        dataset = tmp_path / "dataset"
        shutil.copytree(pipeline_dir / "dataset", dataset)
        path = dataset / "model.ply"
        lines = path.read_text().split("\n")
        if old == "end_header":  # the new row replaces the first vertex row
            del lines[lines.index(old) + 1]
        path.write_text("\n".join(new if line == old else line for line in lines))
        args = ["eval", "--dataset", str(dataset), "--pred", str(pipeline_dir / "solves.csv"),
                "--out", str(tmp_path / "results.csv")]
        assert_one_error_line(CliRunner().invoke(main, args), str(path), detail)
        assert not (tmp_path / "results.csv").exists()

    @pytest.mark.parametrize("command, target, damage", [
        ("synth-gen", "config.txt", "not-utf8"),
        ("encode", "dataset/manifest.txt", "not-utf8"),
        ("verify", "dataset/scene_00001/pose.txt", "not-utf8"),
        ("solve", "enc/scene_00001/encoding.txt", "nan-u"),
        ("eval", "solves.csv", "not-utf8"),
        ("dist-report", "dataset/scene_00001/pose.txt", "not-utf8"),
        ("loss-decompose", "dataset/model.ply", "huge-vertex"),
        ("verify", "enc/scene_00001/encoding.txt", "huge-delta-x"),
        ("eval", "solves.csv", "huge-tx"),
        ("loss-decompose", "solves.csv", "huge-tx"),
        ("eval", "dataset/scene_00001/pose.txt", "huge-gt"),
        ("dist-report", "dataset/scene_00001/pose.txt", "huge-gt"),
        ("synth-gen", "config.txt", "huge-model"),
        ("synth-gen", "config.txt", "huge-noise"),
    ])
    def test_corrupted_input_is_one_error_line(self, pipeline_dir, tmp_path, command, target, damage):
        # One bad input per command: a byte that is not UTF-8, a NaN pixel
        # column, a finite vertex or primitive whose diameter overflows, a
        # finite channel or pose whose square overflows, a depth noise that
        # leaves the PGM range.  Each once ended in a traceback or a numpy
        # warning.
        for name in ("config.txt", "dataset", "enc", "solves.csv"):
            copy = shutil.copytree if (pipeline_dir / name).is_dir() else shutil.copy
            copy(pipeline_dir / name, tmp_path / name)
        path = tmp_path / target
        raw = path.read_bytes()
        if damage == "not-utf8":
            raw += b"\xff"
        elif damage == "nan-u":
            raw = first_row_set(raw, "u", np.nan)
        elif damage == "huge-delta-x":
            raw = first_row_set(raw, "delta_x", 1e300)
        elif damage == "huge-tx":
            raw = huge_tx(raw)
        elif damage in HUGE_VALUES:
            line = HUGE_VALUES[damage]
            start = raw.index(line.split(b"= ")[0] + b"= ")
            raw = raw[:start] + line + raw[raw.index(b"\n", start):]
        else:
            header_end = raw.index(b"end_header\n") + len(b"end_header\n")
            raw = raw[:header_end] + b"1e300 0 0" + raw[raw.index(b"\n", header_end):]
        path.write_bytes(raw)
        dataset, enc, out = tmp_path / "dataset", tmp_path / "enc", tmp_path / "out"
        args = {
            "synth-gen": ["-c", tmp_path / "config.txt", "--out", out],
            "encode": ["--dataset", dataset, "--out", out],
            "verify": ["--dataset", dataset, "--encodings", enc],
            "solve": ["--encodings", enc, "--out", out],
            "eval": ["--dataset", dataset, "--pred", tmp_path / "solves.csv", "--out", out],
            "dist-report": ["--dataset", dataset, "--out", out],
            "loss-decompose": ["--dataset", dataset, "--pred", tmp_path / "solves.csv", "--out", out],
        }[command]
        r = CliRunner().invoke(main, [command, *map(str, args)])
        if damage in ("not-utf8", "nan-u", "huge-vertex"):
            named = [str(path)]
        elif damage == "huge-model":
            named = [f"{path}: model_params: model diameter is not finite"]
        elif damage == "huge-noise":  # refused with the config, before anything is written
            named = [f"{path}: 'depth_noise_sigma'", "PGM depth range"]
        else:  # a numeric fault names its scene
            named = [formats.scene_name(1)]
        assert_one_error_line(r, *named)
        assert "Warning" not in r.output
        assert not out.exists()

    @pytest.mark.parametrize("command, option, value", [
        ("solve", "--perturb-sigma", "-1"),
        ("solve", "--perturb-sigma", "nan"),
        ("solve", "--refine", "-2"),
        ("solve", "--seed", "-1"),
        ("solve", "--seed", str(2**128)),
    ])
    def test_bad_option_value_rejected(self, pipeline_dir, tmp_path, command, option, value):
        # Click refuses each (exit 2) before any file is read: none may reach
        # a ValueError traceback or a silent no-op.
        out = tmp_path / "out.csv"
        args = [command, "--encodings", str(pipeline_dir / "enc")]
        r = CliRunner().invoke(main, args + ["--out", str(out), option, value])
        assert r.exit_code == 2, r.output
        assert isinstance(r.exception, SystemExit)
        assert option in r.output and "Traceback" not in r.output
        assert not out.exists()

    def test_scene_without_pixels(self, pipeline_dir, tmp_path):
        # Both tables of one scene hold no rows: verify once ended in numpy's
        # "zero-size array to reduction operation maximum" traceback.
        enc = tmp_path / "enc"
        shutil.copytree(pipeline_dir / "enc", enc)
        for name in ("encoding.txt", "targets.txt"):
            path = enc / formats.scene_name(1) / name
            header, mark, _ = path.read_bytes().partition(b"\ndata:\n")
            path.write_bytes(re.sub(rb"(?m)^count = \d+$", b"count = 0", header) + mark)
        out = tmp_path / "verify.txt"
        r = CliRunner().invoke(main, ["verify", "--dataset", str(pipeline_dir / "dataset"), "--encodings", str(enc),
                                      "--out", str(out)])
        assert_one_error_line(r, f"Error: {formats.scene_name(1)}: the encoding holds no pixels")
        assert not out.exists()
        solves = tmp_path / "solves.csv"
        assert run(CliRunner(), ["solve", "--encodings", str(enc), "--out", str(solves)]).exit_code == 0
        _, rows = formats.read_csv(solves, SOLVES_VERSION)
        assert [row[-1] for row in rows] == ["well-posed", "degenerate"] + ["well-posed"] * 4

    @pytest.mark.parametrize("damage", ["nan-target", "huge-delta-d"])
    def test_numeric_fault_flags_scene_degenerate(self, pipeline_dir, tmp_path, damage):
        # A NaN target, or a finite delta_d whose residual squares past the
        # float range: once a well-posed row with residual_rms = inf.
        enc = tmp_path / "enc"
        shutil.copytree(pipeline_dir / "enc", enc)
        if damage == "nan-target":
            targets = enc / formats.scene_name(1) / "targets.txt"
            tgt = formats.read_targets(targets)
            delta_abc = tgt.delta_abc.copy()
            delta_abc[0, 0] = np.nan
            formats.write_targets(targets, record.replace(tgt, delta_abc=delta_abc))
        else:
            path = enc / formats.scene_name(1) / "encoding.txt"
            path.write_bytes(first_row_set(path.read_bytes(), "delta_d", 1e300))
        out = tmp_path / "solves.csv"
        r = run(CliRunner(), ["solve", "--encodings", str(enc), "--out", str(out)])
        assert r.exit_code == 0, r.output
        assert r.output == f"solved 6 scenes -> {out}\n"  # stdout and stderr: no warning
        _, rows = formats.read_csv(out, SOLVES_VERSION)
        assert [row[-1] for row in rows] == ["well-posed", "degenerate"] + ["well-posed"] * 4


# A finite but huge value for one ``key = value`` line of a file.
HUGE_VALUES = {
    "huge-gt": b"translation = 1e300 0.0 1.0",
    "huge-model": b"model_params = 1e300 0.06 0.1",
    "huge-noise": b"depth_noise_sigma = 1e300",
}


def first_row_set(table: bytes, column: str, value: float) -> bytes:
    """An ``encoding.txt``'s bytes with ``column`` of its first row set to ``value``."""
    at = table.index(b"\ndata:\n") + len(b"\ndata:\n") + 8 * formats._ENCODING_COLUMNS.index(column)
    return table[:at] + np.array([value], dtype="<f8").tobytes() + table[at + 8:]


def huge_tx(solves: bytes) -> bytes:
    """``solves`` with the ``tx`` of scene_00001's row set to ``1e300``."""
    start = solves.index(b"\nscene_00001,") + 1
    end = solves.index(b"\n", start)
    cells = solves[start:end].split(b",")
    cells[SOLVES_HEADER.index("tx")] = b"1e300"
    return solves[:start] + b",".join(cells) + solves[end:]


def _break_two_scenes(command, pipeline_dir, tmp_path):
    """A copy of ``pipeline_dir``'s inputs with two scenes broken for
    ``command``; returns the arguments, the output it must not write and what
    the error line must hold for each broken scene."""
    dataset, enc, out = tmp_path / "dataset", tmp_path / "enc", tmp_path / "out"
    shutil.copytree(pipeline_dir / "dataset", dataset)
    shutil.copytree(pipeline_dir / "enc", enc)
    def scene(root, i):
        return root / formats.scene_name(i)

    def zero_mask(i):
        mask = scene(dataset, i) / "mask.pgm"
        formats.write_mask_pgm(mask, np.zeros_like(formats.read_mask_pgm(mask)))

    empty = "no masked pixel with valid depth"
    if command == "synth-gen":  # z ~ N(0.15, 0.1): scenes 1 and 2 fall behind the camera
        config = tmp_path / "gaussian.txt"
        config.write_text(CONFIG.replace(
            "translation_dist = box\ntranslation_center = 0.0 0.0 1.0\ntranslation_half_widths = 0.25 0.25 0.25\n",
            "translation_dist = gaussian\ntranslation_mean = 0.0 0.0 0.15\ntranslation_sigma = 0.05 0.05 0.1\n"))
        behind = "translation sample does not keep the whole object in front of the camera"
        return (["synth-gen", "-c", str(config), "--out", str(out)], out / "manifest.txt",
                [f"{formats.scene_name(1)}: {behind}", f"{formats.scene_name(2)}: {behind}"])
    if command == "encode":
        zero_mask(1)
        zero_mask(4)
        return (["encode", "--dataset", str(dataset), "--out", str(out)], out / "manifest.txt",
                [f"{formats.scene_name(1)}: {empty}", f"{formats.scene_name(4)}: {empty}"])
    if command == "verify":  # a NaN channel and a missing targets.txt
        path = scene(enc, 1) / "encoding.txt"
        geo, _ = formats.read_encoding(path)
        delta_x = geo.delta_x.copy()
        delta_x[0] = np.nan
        formats.write_encoding(path, record.replace(geo, delta_x=delta_x))
        (scene(enc, 3) / "targets.txt").unlink()
        return (["verify", "--dataset", str(dataset), "--encodings", str(enc), "--out", str(out)], out,
                [f"{formats.scene_name(1)}: non-finite constraint residuals", str(scene(enc, 3) / "targets.txt")])
    if command == "solve":  # another scene's targets and another target mode
        shutil.copy(scene(enc, 1) / "targets.txt", scene(enc, 0) / "targets.txt")
        set_header(scene(enc, 5) / "targets.txt", "mode", "absolute")
        return (["solve", "--encodings", str(enc), "--out", str(out)], out,
                [f"{scene(enc, 0)}: targets.txt and encoding.txt differ", f"{scene(enc, 5) / 'targets.txt'}: key 'mode'"])
    if command in ("eval", "loss-decompose"):  # a missing and a malformed pose.txt
        (scene(dataset, 2) / "pose.txt").unlink()
        pose = scene(dataset, 3) / "pose.txt"
        pose.write_text(pose.read_text().replace("rotation = ", "rotation = 1.1 ", 1))
        return ([command, "--dataset", str(dataset), "--pred", str(pipeline_dir / "solves.csv"), "--out", str(out)],
                out, [str(scene(dataset, 2) / "pose.txt"), str(pose)])
    # dist-report: named by scene, not by position among the scenes that did not fail
    zero_mask(1)
    (scene(dataset, 3) / "pose.txt").unlink()
    return (["dist-report", "--dataset", str(dataset), "--out", str(out)], out,
            [f"{formats.scene_name(1)}: {empty}", f"{formats.scene_name(3)}: no ground-truth pose"])


class TestEveryScene:
    """A batch command tries every scene: one that fails stops no other, and
    the command exits 1 with one line that names each failed scene."""

    @pytest.mark.parametrize("command", ["synth-gen", "encode", "verify", "solve", "eval", "loss-decompose",
                                         "dist-report"])
    def test_two_broken_scenes_both_named(self, pipeline_dir, tmp_path, command):
        args, output, details = _break_two_scenes(command, pipeline_dir, tmp_path)
        r = CliRunner().invoke(main, args)
        assert_one_error_line(r, *details)
        assert "; " in r.output  # one line, the failures side by side
        assert not output.exists()
        if command in ("synth-gen", "encode"):  # the good scenes were still written
            written = [p.name for p in sorted(output.parent.iterdir()) if p.is_dir()]
            broken = {"synth-gen": (1, 2), "encode": (1, 4)}[command]
            assert written == [formats.scene_name(i) for i in range(6) if i not in broken]

    def test_failure_line_names_ten_scenes_and_the_total(self, tmp_path):
        def fail(index, scene_dir):
            raise o6.EmptyObjectError("no masked pixel with valid depth")

        names = [formats.scene_name(i) for i in range(25)]
        with pytest.raises(click.ClickException) as caught:
            list(_each(tmp_path, names, fail))
        message = caught.value.message
        assert message.count("no masked pixel") == 10 and message.endswith("(25 in all)")
        assert names[9] in message and names[10] not in message

    def test_numeric_fault_fails_its_scene_and_a_value_error_escapes(self, tmp_path):
        # A FloatingPointError is a fault of the input; a ValueError is a bug.
        def handle(index, scene_dir):
            if scene_dir.name == names[1]:
                raise FloatingPointError("overflow encountered in multiply")
            raise ValueError("a bug")

        names = [formats.scene_name(i) for i in range(2)]
        with pytest.raises(click.ClickException, match=f"^{names[1]}: overflow encountered in multiply$"):
            list(_each(tmp_path, names[1:], handle))
        with pytest.raises(ValueError):
            list(_each(tmp_path, names, handle))

    def test_scenes_are_not_iterable(self, pipeline_dir):
        # Every command reaches its scenes through each(); there is no loop around it.
        with pytest.raises(TypeError):
            iter(_Scenes(str(pipeline_dir / "dataset")))

    def test_huge_scene_count_is_named_briefly(self, pipeline_dir, tmp_path):
        # Once: every claimed name built and stat'ed, and a 2.9 MB error line.
        dataset = tmp_path / "dataset"
        shutil.copytree(pipeline_dir / "dataset", dataset)
        path = dataset / "manifest.txt"
        path.write_text(path.read_text().replace("scene_count = 6\n", "scene_count = 200000\n"))
        r = CliRunner().invoke(main, ["verify", "--dataset", str(dataset), "--encodings", str(pipeline_dir / "enc")])
        assert_one_error_line(r, formats.scene_name(6), formats.scene_name(15), "(199994 in all)")
        assert len(r.output) < 1024 and formats.scene_name(16) not in r.output

    @pytest.mark.parametrize("spelling", ["same", "dotted", "inside"])
    def test_encode_into_the_dataset_refused(self, pipeline_dir, tmp_path, spelling):
        # Once: the dataset's manifest was unlinked before the first scene,
        # so every later command refused the dataset.
        dataset = tmp_path / "dataset"
        shutil.copytree(pipeline_dir / "dataset", dataset)
        before = tree(dataset)
        out = {"same": dataset, "dotted": tmp_path / "dataset" / ".." / "dataset", "inside": dataset / "enc"}[spelling]
        r = CliRunner().invoke(main, ["encode", "--dataset", str(dataset), "--out", str(out)])
        assert_one_error_line(r, "--out", "is inside --dataset" if spelling == "inside" else "is --dataset")
        assert tree(dataset) == before

    @pytest.mark.parametrize("case", ["verify-manifest", "dist-report-manifest", "eval-model", "solve-manifest",
                                      "loss-decompose-pred", "eval-summary-out"])
    def test_output_over_an_input_refused(self, pipeline_dir, tmp_path, case):
        # Once each exited 0: the first four replaced a file of the dataset or
        # encodings they read, so every later command refused the directory;
        # loss-decompose overwrote its solves, and eval kept only the summary.
        shutil.copytree(pipeline_dir / "dataset", tmp_path / "dataset")
        shutil.copytree(pipeline_dir / "enc", tmp_path / "enc")
        shutil.copy(pipeline_dir / "solves.csv", tmp_path / "solves.csv")
        (tmp_path / "results.csv").write_text("an earlier run's results\n")
        dataset, enc, pred, results = (str(tmp_path / name) for name in ("dataset", "enc", "solves.csv", "results.csv"))
        scored = ["--dataset", dataset, "--pred", pred]
        args, named = {
            "verify-manifest": (["verify", "--dataset", dataset, "--encodings", enc,
                                 "--out", f"{dataset}/manifest.txt"], ["--out", "is inside --dataset"]),
            "dist-report-manifest": (["dist-report", "--dataset", dataset, "--out", f"{enc}/../dataset/manifest.txt"],
                                     ["--out", "is inside --dataset"]),
            "eval-model": (["eval", *scored, "--out", f"{dataset}/model.ply"], ["--out", "is inside --dataset"]),
            "solve-manifest": (["solve", "--encodings", enc, "--out", f"{enc}/manifest.txt"],
                               ["--out", "is inside --encodings"]),
            "loss-decompose-pred": (["loss-decompose", *scored, "--out", pred], ["--out", "is --pred"]),
            "eval-summary-out": (["eval", *scored, "--out", results, "--summary-out", results],
                                 ["--summary-out", "is --out"]),
        }[case]
        before = tree(tmp_path)
        assert_one_error_line(CliRunner().invoke(main, args), *named)
        assert tree(tmp_path) == before


def python_prints(code: str) -> str:
    """What ``code`` prints in a fresh interpreter that imports this package."""
    src = Path(o6.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    return done.stdout.strip()


def test_cli_import_leaves_scipy_unloaded():
    # Start-up cost: every CLI launch pays for what offset6d.cli imports.
    # numpy.random (about 14 ms) serves only synth-gen and a perturbed solve;
    # numpy 1.24 imports it eagerly, so the baseline is numpy and click's own.
    loaded = ("; import sys; print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
              " or m.startswith('numpy.random') or m == 'secrets')))")
    baseline = set(python_prints("import numpy, click" + loaded).split())
    cli = set(python_prints("import offset6d.cli" + loaded).split())
    assert not {m for m in cli if m.split(".")[0] == "scipy"}
    assert cli <= baseline, sorted(cli - baseline)


def test_only_the_cli_import_freezes_the_heap():
    # Frozen, the import-time heap is skipped by every collection, the ones
    # at interpreter exit included; a library import leaves the caller's
    # collector as it was.
    state = "; import gc; print(gc.isenabled(), gc.get_freeze_count() > 0)"
    assert python_prints("import offset6d.cli" + state) == "True True"
    assert python_prints("import offset6d; import gc; print(gc.get_freeze_count())") == "0"


def test_the_numeric_error_state_stays_inside_the_cli(pipeline_dir, tmp_path):
    # Library callers keep numpy's defaults: the import sets nothing, and a
    # command that passes or fails gives the caller's state back.
    state = "; import numpy; print(sorted(numpy.geterr().items()))"
    assert python_prints("import offset6d.cli" + state) == python_prints("import numpy" + state)
    before = np.geterr()
    huge = tmp_path / "huge.csv"
    huge.write_bytes(huge_tx((pipeline_dir / "solves.csv").read_bytes()))
    args = ["eval", "--dataset", str(pipeline_dir / "dataset"), "--out", str(tmp_path / "results.csv"), "--pred"]
    r = CliRunner().invoke(main, [*args, str(pipeline_dir / "solves.csv")])
    assert r.exit_code == 0, r.output
    assert np.geterr() == before
    r = CliRunner().invoke(main, [*args, str(huge)])
    assert_one_error_line(r, formats.scene_name(1))
    assert np.geterr() == before


def _random_config(rng: np.random.Generator) -> tuple[str, str]:
    """A 3-scene experiment config and an anchor strategy drawn from the spec
    space: a primitive of 1-30 cm, an image of 24-96 px a side with an
    off-centre principal point, f from 40 to 300, a depth of 0.2-3 m with a
    spread of up to a tenth of it, and, each half the time, depth noise,
    pixel dropout and occlusion."""
    a, b, c = (float(size) for size in rng.uniform(0.01, 0.30, 3))
    kind, params = [("sphere", [a / 2]), ("box", [a, b, c]), ("cylinder", [a / 2, b])][rng.integers(3)]
    width, height = (int(n) for n in rng.integers(24, 97, 2))
    z = float(rng.uniform(0.2, 3.0))
    floats = lambda values: " ".join(repr(float(v)) for v in values)
    lines = [
        "format = experiment/v1", f"seed = {rng.integers(2**63)}", "scene_count = 3",
        f"image_width = {width}", f"image_height = {height}",
        *(f"{key} = {float(f)!r}" for key, f in zip(("fx", "fy"), rng.uniform(40.0, 300.0, 2))),
        f"cx = {rng.uniform(0.3, 0.7) * width!r}", f"cy = {rng.uniform(0.3, 0.7) * height!r}",
        f"model_kind = {kind}", f"model_params = {floats(params)}",
        f"surface_sample_count = {rng.integers(50, 401)}", "translation_dist = box",
        f"translation_center = {floats([*rng.uniform(-0.05, 0.05, 2) * z, z])}",
        f"translation_half_widths = {floats(rng.uniform(0.0, 0.1, 3) * z)}",
        f"depth_noise_sigma = {rng.uniform(0.0, 0.003) if rng.random() < 0.5 else 0.0!r}",
        f"pixel_dropout = {rng.uniform(0.0, 0.5) if rng.random() < 0.5 else 0.0!r}",
    ]
    if rng.random() < 0.5:
        lines.append(f"occlusion_fraction = {rng.uniform(0.0, 0.6)!r}")
    return "\n".join(lines) + "\n", sorted(cli._STRATEGIES)[rng.integers(3)]


def _spec_space(count: int) -> list[tuple[str, str]]:
    # The first seed from 20261020 on whose 12 draws meet every outcome: a
    # scene synth-gen refuses, an eval with every scene degenerate, a run
    # with one degenerate scene, and runs where every scene solves.
    rng = np.random.default_rng(20261055)
    return [_random_config(rng) for _ in range(count)]


class TestSpecSpace:
    @pytest.mark.parametrize("config, strategy", _spec_space(12), ids=[f"config{i}" for i in range(12)])
    def test_pipeline_writes_every_output_or_names_each_failed_scene(self, tmp_path, config, strategy):
        # The CLI twin of tests/test_solver.py::TestSpecSpace.  A stage that
        # exits 1 names exactly the scenes it could not handle: those whose
        # files synth-gen or encode did not write, and for eval the scenes
        # solve flagged degenerate.  No scene may fail verify or solve.
        (tmp_path / "config.txt").write_text(config)
        data, enc, solves = tmp_path / "data", tmp_path / "enc", tmp_path / "solves.csv"
        verified, results, summary = tmp_path / "verify.txt", tmp_path / "results.csv", tmp_path / "summary.txt"
        names = [formats.scene_name(i) for i in range(3)]
        scene_files = {data: ["depth.pgm", "mask.pgm", "pose.txt"], enc: ["encoding.txt", "targets.txt"]}

        def missing(root: Path) -> set[str]:
            return {name for name in names if not all((root / name / f).is_file() for f in scene_files[root])}

        def degenerate() -> set[str]:
            return {row[0] for row in formats.read_csv(solves, SOLVES_VERSION)[1] if row[-1] == "degenerate"}

        stages = [  # a stage's arguments, the files it writes last, and the scenes it failed
            (["synth-gen", "-c", tmp_path / "config.txt", "--out", data], [data / "manifest.txt"],
             lambda: missing(data)),
            (["encode", "--dataset", data, "--out", enc, "--strategy", strategy], [enc / "manifest.txt"],
             lambda: missing(enc)),
            (["verify", "--dataset", data, "--encodings", enc, "--out", verified], [verified], set),
            (["solve", "--encodings", enc, "--out", solves], [solves], set),
            (["eval", "--dataset", data, "--pred", solves, "--out", results, "--summary-out", summary],
             [results, summary], degenerate),
        ]
        for args, last, failed in stages:
            r = CliRunner().invoke(main, [str(arg) for arg in args])
            if r.exit_code == 0:
                assert all(path.is_file() for path in last), args[0]
                assert args[0] == "eval" or not failed(), args[0]
                continue
            assert_one_error_line(r)
            [error] = [line for line in r.output.splitlines() if line.startswith("Error:")]
            assert set(re.findall(r"scene_\d{5}", error)) == failed() != set(), (args[0], error)
            assert not any(path.exists() for path in last), args[0]
            return
        assert len(formats.read_csv(results, cli.RESULTS_VERSION)[1]) == 3


# Each command's options, each with its caller outside the tests: a new
# option is a reviewed change to this table.
CALLED_OPTIONS = {
    "synth-gen": {
        "--config",  # every recipe
        "--out",  # bench/run.py and CI; the README recipe sets output_dir instead
    },
    "encode": {
        "--dataset", "--out",  # every recipe
        "--strategy",  # the paper's anchor choice, which dist-report reports on
    },
    "verify": {
        "--dataset", "--encodings",  # every recipe
        "--tolerance",  # bench/run.py and the README recipe
        "--out",  # a sidecar: the max and RMS residual of each constraint form
    },
    "solve": {
        "--encodings", "--out",  # every recipe
        "--perturb-sigma", "--seed", "--refine",  # bench/run.py's three solve settings
    },
    "eval": {
        "--dataset", "--pred", "--out",  # every recipe
        "--summary-out",  # a sidecar: the summary eval prints
    },
    "dist-report": {
        "--dataset", "--out",  # every recipe
        "--strategy",  # bench/run.py and the README recipe
    },
    "loss-decompose": {
        "--dataset", "--pred", "--out",  # every recipe
    },
}


def test_each_option_has_a_caller():
    found = {name: {max(param.opts, key=len) for param in command.params} for name, command in main.commands.items()}
    assert found == CALLED_OPTIONS
