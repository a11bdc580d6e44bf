"""Command-line surface: dataset generation, encoding, verification, solving,
evaluation, and the distribution experiment.

Dataset layout (one directory per dataset)::

    manifest.txt                 # dataset/v2 key-value: spec echo (camera included) + count
    model.ply                    # sampled object model (meters)
    scene_00000/
        depth.pgm                # 16-bit, millimeters, 0 = invalid
        mask.pgm                 # 8-bit, 255 = foreground
        pose.txt                 # ground truth, object -> camera

``synth-gen`` writes ``manifest.txt`` last, so a failed run leaves none.
``verify``, ``eval`` and ``loss-decompose`` read only each scene's
``pose.txt``; ``encode`` and ``dist-report`` read the whole scene.
Encodings mirror the scene directories (encoding.txt + targets.txt each),
and ``encode`` writes ``enc/manifest.txt``, a copy of the dataset's
manifest, last, so a failed or interrupted encode leaves none; every batch
command takes its scenes from a manifest (``_Scenes``).  Each table is
a ``key = value`` text header ending in ``data:``, then the rows as raw
little-endian float64 (``<f8``), so ``head encoding.txt`` shows the header.
``encode`` writes the geometric channels and relative-offset targets, the
one encoding ``verify`` and ``solve`` accept.  Every ``encoding.txt`` holds
the columns ``u v delta_x delta_y delta_d``; the geometric ``d*d0`` and
``t0/(d*d0)`` are derived from ``delta_d`` when the file is read.
Inputs are joined by scene name, never by position: a missing encoding or
solves row, a solves row for a scene the dataset does not claim, a
duplicated row, or targets that do not match their encoding fail the
command and name the scene; ``verify`` refuses encodings whose manifest
differs from the dataset's, and ``solve`` keys its noise by the manifest's
scene index.  All commands are deterministic for fixed inputs and seed, and
their outputs are byte-identical across reruns.  Any toolkit or file error
exits 1 with a one-line diagnostic; ``eval`` with no non-degenerate
prediction writes no ``results.csv``.
"""

from __future__ import annotations

import gc
import math
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import click
import numpy as np

from . import formats, synth
from .encoding import (
    ConstraintForm,
    GeoEncoding,
    GeoTargets,
    InputMode,
    TargetMode,
    constraint_residual,
    encode_input,
    encode_targets,
)
from .errors import DegenerateConfigurationError, Offset6DError
from .geometry import RigidPose
from .metrics import (
    MetricConfig,
    ObjectModel,
    add,
    add_s,
    accuracy_at_threshold,
    auc,
    decompose_add_loss,
    weighted_add_loss,
)
from .record import replace
from .refpoint import RefStrategy, make_reference
from .solver import ConditionFlag, rotation_geodesic_error, solve_from_constraints
from .spec import SEED_LIMIT
from .synth import perturbation_rng

_STRATEGIES = {s.value: s for s in RefStrategy}
_SEED = click.IntRange(0, SEED_LIMIT - 1)  # the Philox key range

SOLVES_VERSION = "solves/v1"
RESULTS_VERSION = "results/v1"
DIST_VERSION = "dist/v1"
LOSS_VERSION = "loss/v1"

SOLVES_HEADER = [
    "scene", "r00", "r01", "r02", "r10", "r11", "r12", "r20", "r21", "r22",
    "tx", "ty", "tz", "residual_rms", "point_count", "flag",
]
RESULTS_HEADER = [
    "scene", "add", "add_s", "add_selective", "rotation_error_rad",
    "translation_error_m", "solver_residual_rms", "flag",
]
DIST_HEADER = ["quantity", "component", "variance", "min", "max", "variance_ratio"]
LOSS_HEADER = ["scene", "total", "rotation_part", "cross_term", "translation_part", "weighted_total"]


class _Main(click.Group):
    """The error boundary: toolkit and file-system errors from any command
    become a one-line diagnostic and exit status 1, never a traceback."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (Offset6DError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc


def _finite(ctx: click.Context, param: click.Parameter, value: float) -> float:
    """Option callback: NaN and infinity pass a ``FloatRange`` but no gate."""
    if not math.isfinite(value):
        raise click.BadParameter(f"{value} is not a finite number.")
    return value


class _Scenes:
    """The scenes a directory's ``manifest.txt`` claims: a dataset's, or the
    copy ``encode`` writes into its encodings.  Iterating yields
    ``(index, scene_dir)`` in manifest order; within ``naming()``, a toolkit
    error raised while a scene is read or handled names that scene, so
    ``_Main.invoke`` stays the one error boundary."""

    def __init__(self, directory: str):
        self.root = Path(directory)
        manifest = self.root / "manifest.txt"
        if not manifest.exists():
            raise click.ClickException(f"{manifest} not found; is {directory} a dataset or encodings directory?")
        self.spec, count = formats.read_manifest(manifest)
        if count == 0:
            raise click.ClickException(f"{manifest} claims no scenes (scene_count = 0)")
        self.names = [formats.scene_name(i) for i in range(count)]
        missing = [name for name in self.names if not (self.root / name).is_dir()]
        if missing:
            raise click.ClickException(f"{self.root} is missing scene directories: {', '.join(missing)}")
        self.current: str | None = None

    def __iter__(self) -> Iterator[tuple[int, Path]]:
        for index, name in enumerate(self.names):
            self.current = name
            yield index, self.root / name
        self.current = None  # an error after the last scene belongs to none

    @contextmanager
    def naming(self) -> Iterator[None]:
        try:
            yield
        except Offset6DError as exc:
            if self.current is None or self.current in str(exc):  # a file error names its path
                raise
            raise Offset6DError(f"{self.current}: {exc}") from exc


def _read_encoded(enc_dir: Path) -> tuple[GeoEncoding, GeoTargets]:
    """One scene's encoding and targets: the geometric channels and
    relative-offset targets ``encode`` writes, sharing pixels and reference."""
    enc, _ = formats.read_encoding(enc_dir / "encoding.txt")
    tgt = formats.read_targets(enc_dir / "targets.txt")
    if enc.mode is not InputMode.GEOMETRIC or tgt.mode is not TargetMode.RELATIVE_OFFSET:
        raise click.ClickException(
            f"{enc_dir}: expected {InputMode.GEOMETRIC.value} channels and {TargetMode.RELATIVE_OFFSET.value} "
            f"targets, found {enc.mode.value} and {tgt.mode.value}"
        )
    if tgt.ref != enc.ref or not (np.array_equal(tgt.us, enc.us) and np.array_equal(tgt.vs, enc.vs)):
        raise click.ClickException(f"{enc_dir}: targets.txt and encoding.txt differ in pixels or reference point")
    return enc, tgt


@click.group(cls=_Main)
def main() -> None:
    """Relative-offset 6D pose toolkit."""


@main.command("synth-gen")
@click.option("--config", "-c", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(file_okay=False), default=None, help="Overrides output_dir from the config.")
@click.option("--count", type=click.IntRange(min=1), default=None, help="Overrides scene_count from the config.")
@click.option("--seed", type=_SEED, default=None, help="Overrides the config seed.")
def synth_gen(config_path: str, out: str | None, count: int | None, seed: int | None) -> None:
    """Generate a synthetic dataset directory."""
    kv = formats.read_experiment_config(config_path)
    spec = formats.pairs_to_spec(kv, config_path)
    if seed is not None:
        spec = replace(spec, seed=seed)
    config_count = formats.scene_count(kv, config_path, default="0")
    n = count if count is not None else config_count
    if n <= 0:
        raise click.ClickException("scene count must be positive (set scene_count or --count)")
    out_dir = Path(out or kv.get("output_dir", ""))
    if not str(out_dir):
        raise click.ClickException("no output directory (set output_dir or --out)")

    model = synth.model_for_spec(spec)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.txt").unlink(missing_ok=True)
    formats.write_model(out_dir / "model.ply", model)
    for index in range(n):
        scene = synth.render_scene(spec, index, model=model)
        formats.write_scene_dir(out_dir / formats.scene_name(index), scene.observation)
    formats.write_manifest(out_dir / "manifest.txt", spec, n)  # last: marks the dataset complete
    click.echo(f"wrote {n} scenes to {out_dir}")


@main.command("encode")
@click.option("--dataset", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--out", required=True, type=click.Path(file_okay=False))
@click.option("--strategy", type=click.Choice(sorted(_STRATEGIES)), default=RefStrategy.MEAN_VISIBLE.value)
def encode_cmd(dataset: str, out: str, strategy: str) -> None:
    """Encode every scene of a dataset into input channels and targets."""
    scenes = _Scenes(dataset)
    out_dir = Path(out)
    (out_dir / "manifest.txt").unlink(missing_ok=True)
    with scenes.naming():
        for _, scene_dir in scenes:
            obs = formats.read_scene_dir(scene_dir, scenes.spec.intrinsics)
            ref = make_reference(obs.depth, obs.mask, obs.intrinsics, _STRATEGIES[strategy])
            enc_dir = out_dir / scene_dir.name
            enc = encode_input(obs, ref)
            formats.write_encoding(enc_dir / "encoding.txt", enc)
            if obs.gt_pose is None:  # as write_scene_dir does for pose.txt
                (enc_dir / "targets.txt").unlink(missing_ok=True)
            else:
                tgt = encode_targets(obs, ref)
                formats.write_targets(enc_dir / "targets.txt", tgt)
    formats.write_manifest(out_dir / "manifest.txt", scenes.spec, len(scenes.names))  # last: marks enc/ complete
    click.echo(f"encoded {len(scenes.names)} scenes to {out_dir}")


@main.command("verify")
@click.option("--dataset", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--encodings", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--tolerance", type=click.FloatRange(min=0.0), callback=_finite, default=1e-9, show_default=True,
              help="Exit nonzero when the corrected-form max residual exceeds this.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def verify_cmd(dataset: str, encodings: str, tolerance: float, out: str | None) -> None:
    """Check constraint residuals of encodings against ground-truth poses,
    in both constraint forms; the corrected form is the gate."""
    scenes, encoded = _Scenes(dataset), _Scenes(encodings)
    if encoded.names != scenes.names or formats.spec_to_pairs(encoded.spec) != formats.spec_to_pairs(scenes.spec):
        raise click.ClickException(
            f"{encoded.root} holds {len(encoded.names)} scenes encoded from another dataset than {scenes.root} "
            f"({len(scenes.names)} scenes); re-encode it"
        )
    stats = {f: {"max": 0.0, "sq_sum": 0.0, "n": 0} for f in ConstraintForm}
    nonfinite = []
    for _, scene_dir in scenes:
        gt_pose = formats.read_pose(scene_dir / "pose.txt")
        enc, tgt = _read_encoded(encoded.root / scene_dir.name)
        for f in ConstraintForm:
            residual = constraint_residual(enc, tgt, gt_pose, f)
            norms = np.linalg.norm(residual, axis=1)
            if not np.all(np.isfinite(norms)):  # max() would skip a NaN
                nonfinite.append(scene_dir.name)
                break
            stats[f]["max"] = max(stats[f]["max"], float(norms.max()))
            stats[f]["sq_sum"] += float(np.sum(norms**2))
            stats[f]["n"] += norms.size
    if nonfinite:
        raise click.ClickException(f"non-finite constraint residuals in {', '.join(nonfinite)}")
    pairs: list[tuple[str, str]] = [("format", "verify/v1")]
    for f in ConstraintForm:
        rms = (stats[f]["sq_sum"] / stats[f]["n"]) ** 0.5
        click.echo(f"{f.value}: max residual {stats[f]['max']:.3e}, rms {rms:.3e}")
        pairs.append((f"{f.value.replace('-', '_')}_max", formats.format_float(stats[f]["max"])))
        pairs.append((f"{f.value.replace('-', '_')}_rms", formats.format_float(rms)))
    if out:
        formats.write_keyvalue(out, pairs)
    gate = stats[ConstraintForm.CORRECTED]["max"]
    if gate > tolerance:
        click.echo(
            f"corrected-form max residual {gate:.3e} exceeds tolerance {tolerance:.3e}",
            err=True,
        )
        sys.exit(1)


@main.command("solve")
@click.option("--encodings", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--perturb-sigma", type=click.FloatRange(min=0.0), callback=_finite, default=0.0, show_default=True,
              help="Gaussian noise added to the object-frame targets before solving.")
@click.option("--seed", type=_SEED, default=0, show_default=True, help="Seed for the perturbation stream.")
@click.option("--refine", type=click.IntRange(min=0), default=0, show_default=True, help="Refinement iterations.")
def solve_cmd(encodings: str, out: str, perturb_sigma: float, seed: int, refine: int) -> None:
    """Recover poses from encodings (optionally with perturbed targets)."""
    rows = []
    for index, enc_dir in _Scenes(encodings):
        enc, tgt = _read_encoded(enc_dir)
        delta_abc = tgt.delta_abc
        if perturb_sigma > 0:
            rng = perturbation_rng(seed, index)
            delta_abc = delta_abc + rng.normal(0.0, perturb_sigma, delta_abc.shape)
        try:
            report = solve_from_constraints(enc, delta_abc, refine_iterations=refine)
        except DegenerateConfigurationError:
            rows.append([enc_dir.name] + [None] * 14 + [ConditionFlag.DEGENERATE.value])
            continue
        pose = report.pose
        rows.append(
            [enc_dir.name]
            + [float(v) for v in pose.rotation.ravel()]
            + [float(v) for v in pose.translation]
            + [report.residual_rms, report.point_count, report.condition_flag.value]
        )
    formats.write_csv(out, SOLVES_VERSION, SOLVES_HEADER, rows)
    click.echo(f"solved {len(rows)} scenes -> {out}")


def _predicted(dataset: str, pred: str) -> tuple[ObjectModel, Iterator[tuple]]:
    """The dataset's model, and every dataset scene joined by name to its one
    solves row as ``(name, gt_pose, pose, residual)``; pose and residual are
    None for a degenerate row.  A missing or duplicated row fails before any
    scene is read."""
    scenes = _Scenes(dataset)
    model = formats.read_model(scenes.root / "model.ply")
    header, rows = formats.read_csv(pred, SOLVES_VERSION)
    if header != SOLVES_HEADER:
        raise click.ClickException(f"{pred}: unexpected solves header {header}")
    predictions: dict[str, tuple[RigidPose | None, float | None]] = {}
    for row in rows:
        if len(row) != len(SOLVES_HEADER):
            what = f"row for {row[0]}" if row else "a blank row"
            raise click.ClickException(f"{pred}: {what} has {len(row)} fields, expected {len(SOLVES_HEADER)}")
        name = row[0]
        if name in predictions:
            raise click.ClickException(f"{pred}: duplicate row for {name}")
        if row[-1] == ConditionFlag.DEGENERATE.value:
            predictions[name] = (None, None)
            continue
        try:
            values = [float(v) for v in row[1:14]]
            pose = RigidPose(np.reshape(values[:9], (3, 3)), np.array(values[9:12]))
        except ValueError as exc:
            raise click.ClickException(f"{pred}: bad row for {name}: {exc}") from exc
        predictions[name] = (pose, values[12])
    missing = [name for name in scenes.names if name not in predictions]
    if missing:
        raise click.ClickException(f"{pred} has no row for {', '.join(missing)}")
    extra = predictions.keys() - set(scenes.names)
    if extra:
        raise click.ClickException(f"{pred} has rows for scenes {scenes.root} does not claim: {', '.join(sorted(extra))}")
    joined = (
        (scene_dir.name, formats.read_pose(scene_dir / "pose.txt"), *predictions[scene_dir.name])
        for _, scene_dir in scenes
    )
    return model, joined


@main.command("eval")
@click.option("--dataset", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--pred", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--auc-max", type=click.FloatRange(min=0.0, min_open=True), callback=_finite, default=0.1,
              show_default=True)
@click.option("--threshold-fraction", type=click.FloatRange(min=0.0, min_open=True), callback=_finite, default=0.1,
              show_default=True)
@click.option("--summary-out", type=click.Path(dir_okay=False), default=None)
def eval_cmd(dataset: str, pred: str, out: str, auc_max: float, threshold_fraction: float,
             summary_out: str | None) -> None:
    """Score predicted poses against ground truth."""
    cfg = MetricConfig(auc_max_threshold=auc_max, threshold_fraction=threshold_fraction)
    model, predicted = _predicted(dataset, pred)
    rows = []
    selective_errors = []
    for name, gt, pose, residual in predicted:
        if pose is None:
            rows.append([name] + [None] * 6 + [ConditionFlag.DEGENERATE.value])
            continue
        err_add = add(pose, gt, model)
        err_add_s = add_s(pose, gt, model)
        err_sel = err_add_s if model.symmetric else err_add  # add_selective, without a second ADD-S
        selective_errors.append(err_sel)
        rows.append(
            [
                name,
                err_add,
                err_add_s,
                err_sel,
                rotation_geodesic_error(pose, gt),
                float(np.linalg.norm(pose.translation - gt.translation)),
                residual,
                "ok",
            ]
        )
    if not selective_errors:
        raise click.ClickException("no non-degenerate predictions to summarize")
    formats.write_csv(out, RESULTS_VERSION, RESULTS_HEADER, rows)
    summary = [
        ("format", "summary/v1"),
        ("scene_count", str(len(rows))),
        ("mean_add_selective", formats.format_float(float(np.mean(selective_errors)))),
        ("accuracy_at_threshold", formats.format_float(accuracy_at_threshold(selective_errors, model, cfg))),
        ("auc", formats.format_float(auc(selective_errors, cfg))),
    ]
    for key, value in summary[1:]:
        click.echo(f"{key} = {value}")
    if summary_out:
        formats.write_keyvalue(summary_out, summary)


@main.command("dist-report")
@click.option("--dataset", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--strategy", type=click.Choice(sorted(_STRATEGIES)), default=RefStrategy.MEAN_VISIBLE.value)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def dist_report_cmd(dataset: str, strategy: str, out: str) -> None:
    """Translation-spread table: raw ground truth vs anchored offsets."""
    scenes = _Scenes(dataset)
    with scenes.naming():
        observations = (formats.read_scene_dir(scene_dir, scenes.spec.intrinsics) for _, scene_dir in scenes)
        report = synth.distribution_report(observations, _STRATEGIES[strategy])
    rows = [
        [r["quantity"], r["component"], r["variance"], r["min"], r["max"], r["variance_ratio"]]
        for r in report.rows()
    ]
    formats.write_csv(out, DIST_VERSION, DIST_HEADER, rows)
    for r in report.rows():
        ratio = "" if r["variance_ratio"] is None else f"  ratio {r['variance_ratio']:.1f}"
        click.echo(
            f"{r['quantity']:8s} {r['component']}: var {r['variance']:.3e} "
            f"range ({r['min']:.4f}, {r['max']:.4f}){ratio}"
        )


@main.command("loss-decompose")
@click.option("--dataset", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--pred", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--w-rot", type=click.FloatRange(min=0.0), callback=_finite, default=1.0, show_default=True)
@click.option("--w-trans", type=click.FloatRange(min=0.0), callback=_finite, default=1.0, show_default=True)
def loss_decompose_cmd(dataset: str, pred: str, out: str, w_rot: float, w_trans: float) -> None:
    """Split the squared pose loss into rotation/cross/translation parts."""
    model, predicted = _predicted(dataset, pred)
    rows = []
    for name, gt, pose, _ in predicted:
        if pose is None:
            rows.append([name] + [None] * 5)
            continue
        parts = decompose_add_loss(pose, gt, model)
        rows.append(
            [
                name,
                parts.total,
                parts.rotation_part,
                parts.cross_term,
                parts.translation_part,
                weighted_add_loss(pose, gt, model, w_rot, w_trans),
            ]
        )
    formats.write_csv(out, LOSS_VERSION, LOSS_HEADER, rows)
    click.echo(f"decomposed {len(rows)} scenes -> {out}")


# Everything made above lives until exit: frozen, no collection rescans it, the ones at exit included.
gc.freeze()

if __name__ == "__main__":
    main()
