"""Command-line pipeline: generation, encoding, verification, solving,
evaluation, distribution and loss reports."""

import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import offset6d as o6
from offset6d import formats, record
from offset6d.cli import SOLVES_HEADER, SOLVES_VERSION, main

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
    r = run(runner, ["synth-gen", "-c", str(pipeline_dir / "config.txt"), "--out", str(root / "dataset"),
                     "--count", "3"])
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

    def test_seed_override_changes_scenes(self, tmp_path):
        runner = CliRunner()
        (tmp_path / "config.txt").write_text(CONFIG)
        for seed, out in ((None, "a"), (None, "b"), (123, "c")):
            args = ["synth-gen", "-c", str(tmp_path / "config.txt"), "--out", str(tmp_path / out), "--count", "2"]
            if seed is not None:
                args += ["--seed", str(seed)]
            assert run(runner, args).exit_code == 0
        depth = lambda d: (tmp_path / d / "scene_00000" / "depth.pgm").read_bytes()
        assert depth("a") == depth("b")  # same seed: byte identical
        assert depth("a") != depth("c")  # overridden seed: different

    def test_rerun_writes_identical_tree(self, tmp_path):
        # Every file of the dataset, not only the depth maps: manifest,
        # model and poses must repeat byte for byte too.
        (tmp_path / "config.txt").write_text(CONFIG)
        trees = []
        for out in ("a", "b"):
            args = ["synth-gen", "-c", str(tmp_path / "config.txt"), "--out", str(tmp_path / out), "--count", "3"]
            assert run(CliRunner(), args).exit_code == 0
            root = tmp_path / out
            trees.append({str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()})
        assert trees[0] == trees[1]
        assert {"manifest.txt", "model.ply", "scene_00002/pose.txt", "scene_00002/mask.pgm"} <= set(trees[0])

    @pytest.mark.parametrize("seed", ["-1", str(2**128)])
    def test_out_of_range_seed_option_rejected(self, tmp_path, seed):
        (tmp_path / "config.txt").write_text(CONFIG)
        args = ["synth-gen", "-c", str(tmp_path / "config.txt"), "--out", str(tmp_path / "x"), "--seed", seed]
        r = CliRunner().invoke(main, args)
        assert r.exit_code == 2, r.output
        assert "--seed" in r.output and "Traceback" not in r.output
        assert not (tmp_path / "x").exists()

    def test_largest_seed_accepted(self, tmp_path):
        (tmp_path / "config.txt").write_text(CONFIG)
        args = ["synth-gen", "-c", str(tmp_path / "config.txt"), "--out", str(tmp_path / "x"), "--count", "1",
                "--seed", str(2**128 - 1)]
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
        assert r.exit_code == 1

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
        # The noisy-sweep path: perturbed targets polished by --refine.
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
        obs = o6.SceneObservation(
            o6.DepthMap(depth), o6.InstanceMask(mask), K, gt_pose=o6.RigidPose.identity()
        )
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

    def test_loss_decompose(self, pipeline_dir, tmp_path):
        runner = CliRunner()
        out = tmp_path / "loss.csv"
        r = run(runner, [
            "loss-decompose", "--dataset", str(pipeline_dir / "dataset"),
            "--pred", str(pipeline_dir / "solves.csv"), "--out", str(out),
        ])
        assert r.exit_code == 0, r.output
        header, rows = formats.read_csv(out, "loss/v1")
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
    @pytest.mark.parametrize("name, mode", [("targets.txt", "absolute"), ("encoding.txt", "offset")])
    def test_other_encoding_mode_refused(self, pipeline_dir, tmp_path, command, name, mode):
        # Only geometric channels with relative-offset targets constrain the
        # pose: absolute targets solve to poses centimeters off, yet well-posed.
        enc = tmp_path / "enc"
        shutil.copytree(pipeline_dir / "enc", enc)
        scene = enc / formats.scene_name(2)
        obs = formats.read_scene_dir(pipeline_dir / "dataset" / scene.name, K)
        ref = formats.read_targets(scene / "targets.txt").ref
        if name == "targets.txt":
            formats.write_targets(scene / name, o6.encode_targets(obs, ref, o6.TargetMode(mode)))
        else:
            formats.write_encoding(scene / name, o6.encode_input(obs, ref, o6.InputMode(mode)))
        out = tmp_path / "out.txt"
        if command == "verify":
            args = ["verify", "--dataset", str(pipeline_dir / "dataset"), "--encodings", str(enc), "--out", str(out)]
        else:
            args = ["solve", "--encodings", str(enc), "--out", str(out)]
        assert_one_error_line(CliRunner().invoke(main, args), str(scene), mode)
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
    @pytest.mark.parametrize("damage", ["short", "text"])
    def test_malformed_solves_row_names_file_and_scene(self, pipeline_dir, tmp_path, command, damage):
        header, rows = formats.read_csv(pipeline_dir / "solves.csv", SOLVES_VERSION)
        bad = rows[2][:12] if damage == "short" else rows[2][:11] + ["x"] + rows[2][12:]
        pred = tmp_path / "bad.csv"
        formats.write_csv(pred, SOLVES_VERSION, header, rows[:2] + [bad] + rows[3:])
        r = CliRunner().invoke(main, [
            command, "--dataset", str(pipeline_dir / "dataset"), "--pred", str(pred),
            "--out", str(tmp_path / "out.csv"),
        ])
        assert r.exit_code == 1, r.output
        assert r.exception is None or isinstance(r.exception, SystemExit)
        assert str(pred) in r.output and formats.scene_name(2) in r.output

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
        assert r.exit_code == 1, r.output
        assert "no non-degenerate predictions" in r.output
        assert not out.exists()

    @pytest.mark.parametrize("name, key, value", [
        ("encoding.txt", "count", "many"),
        ("encoding.txt", "mode", "bogus"),
        ("encoding.txt", "constraint_form", "bogus"),
        ("encoding.txt", "strategy", "bogus"),
        ("encoding.txt", "d0", "oops"),
        ("targets.txt", "mode", "bogus"),
        ("targets.txt", "x0", "oops"),
        ("targets.txt", "y0", "oops"),
        ("targets.txt", "delta_t", "0.1 oops 0.3"),
    ])
    def test_malformed_header_value_names_file_and_key(self, pipeline_dir, tmp_path, name, key, value):
        enc = tmp_path / "enc"
        shutil.copytree(pipeline_dir / "enc", enc)
        path = enc / formats.scene_name(3) / name
        header, mark, payload = path.read_bytes().partition(b"\ndata:\n")
        lines = header.decode().split("\n")
        lines = [f"{key} = {value}" if line.startswith(f"{key} = ") else line for line in lines]
        assert f"{key} = {value}" in lines
        path.write_bytes("\n".join(lines).encode() + mark + payload)
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
    ])
    def test_bad_spec_value_names_file_and_key(self, pipeline_dir, tmp_path, command, key, value):
        path, result = self._run_with_spec_value(pipeline_dir, tmp_path, command, key, value)
        assert_one_error_line(result, str(path), repr(key))

    # The camera is stored once, in the manifest; a check across keys names
    # the key in its own words.
    @pytest.mark.parametrize("command, key, value, detail", [
        ("encode", "fx", "oops", "'fx'"),
        ("encode", "fx", "-5.0", "fx=-5.0"),
        ("synth-gen", "seed", "-1", "seed must be in [0, 2**128)"),
        ("synth-gen", "seed", str(2**128), "seed must be in [0, 2**128)"),
    ])
    def test_bad_spec_value_names_file_and_detail(self, pipeline_dir, tmp_path, command, key, value, detail):
        path, result = self._run_with_spec_value(pipeline_dir, tmp_path, command, key, value)
        assert_one_error_line(result, str(path), detail)

    def test_manifest_of_version_1_refused(self, pipeline_dir, tmp_path):
        # dataset/v1 kept a copy of the camera in every scene; there is no v1 reader.
        shutil.copytree(pipeline_dir / "dataset", tmp_path / "dataset")
        path = tmp_path / "dataset" / "manifest.txt"
        path.write_text(path.read_text().replace("format = dataset/v2\n", "format = dataset/v1\n"))
        r = CliRunner().invoke(main, ["encode", "--dataset", str(tmp_path / "dataset"), "--out", str(tmp_path / "enc")])
        assert_one_error_line(r, str(path), "expected format 'dataset/v2', found 'dataset/v1'")
        assert not (tmp_path / "enc").exists()

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
        assert_one_error_line(CliRunner().invoke(main, args), str(path), "scene_count = 0")
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
        # dist-report reads whole scenes and names the scene's index.
        assert_one_error_line(CliRunner().invoke(main, args), "scene 2" if command == "dist-report" else str(pose))
        assert not (tmp_path / "out.csv").exists()

    def test_dist_report_of_one_scene_fails(self, tmp_path):
        (tmp_path / "config.txt").write_text(CONFIG.replace("scene_count = 6", "scene_count = 1"))
        dataset = tmp_path / "dataset"
        assert run(CliRunner(), ["synth-gen", "-c", str(tmp_path / "config.txt"), "--out", str(dataset)]).exit_code == 0
        r = CliRunner().invoke(main, ["dist-report", "--dataset", str(dataset), "--out", str(tmp_path / "dist.csv")])
        assert_one_error_line(r, "at least two scenes, got 1")
        assert formats.scene_name(0) not in r.output  # the error comes after the last scene
        assert not (tmp_path / "dist.csv").exists()

    @pytest.mark.parametrize("command, strategy, detail", [
        ("encode", "mean-visible", "no masked pixel with valid depth"),
        ("dist-report", "mean-visible", "no masked pixel with valid depth"),
        ("dist-report", "center-mean", "mask has no foreground pixel"),
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
    ], ids=["symmetric-yes", "bad-vertex-row", "nan-vertex"])
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

    @pytest.mark.parametrize("command, option, value", [
        ("eval", "--auc-max", "-1"),
        ("eval", "--auc-max", "0"),
        ("eval", "--auc-max", "nan"),
        ("eval", "--threshold-fraction", "inf"),
        ("loss-decompose", "--w-rot", "-1"),
        ("loss-decompose", "--w-trans", "nan"),
        ("solve", "--perturb-sigma", "-1"),
        ("solve", "--perturb-sigma", "nan"),
        ("solve", "--refine", "-2"),
        ("solve", "--seed", "-1"),
        ("solve", "--seed", str(2**128)),
        ("synth-gen", "--count", "-5"),
        ("synth-gen", "--count", "0"),
    ])
    def test_bad_option_value_rejected(self, pipeline_dir, tmp_path, command, option, value):
        # Click refuses each (exit 2) before any file is read: none may reach
        # a ValueError traceback, a NaN summary or a silent no-op.
        out = tmp_path / "out.csv"
        if command == "solve":
            args = ["solve", "--encodings", str(pipeline_dir / "enc")]
        elif command == "synth-gen":
            args = ["synth-gen", "-c", str(pipeline_dir / "config.txt")]
        else:
            args = [command, "--dataset", str(pipeline_dir / "dataset"), "--pred", str(pipeline_dir / "solves.csv")]
        r = CliRunner().invoke(main, args + ["--out", str(out), option, value])
        assert r.exit_code == 2, r.output
        assert isinstance(r.exception, SystemExit)
        assert option in r.output and "Traceback" not in r.output
        assert not out.exists()

    def test_nan_target_flags_scene_degenerate(self, pipeline_dir, tmp_path):
        enc = tmp_path / "enc"
        shutil.copytree(pipeline_dir / "enc", enc)
        targets = enc / formats.scene_name(1) / "targets.txt"
        tgt = formats.read_targets(targets)
        delta_abc = tgt.delta_abc.copy()
        delta_abc[0, 0] = np.nan
        formats.write_targets(targets, record.replace(tgt, delta_abc=delta_abc))
        r = run(CliRunner(), ["solve", "--encodings", str(enc), "--out", str(tmp_path / "solves.csv")])
        assert r.exit_code == 0, r.output
        _, rows = formats.read_csv(tmp_path / "solves.csv", SOLVES_VERSION)
        assert [row[-1] for row in rows] == ["well-posed", "degenerate"] + ["well-posed"] * 4


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
