"""Command-line surface: dataset generation, encoding, verification, solving,
evaluation, and the distribution experiment.

Dataset layout (one directory per dataset)::

    manifest.txt                 # dataset/v2 key-value: spec echo (camera included) + count
    model.ply                    # sampled object model (meters)
    scene_00000/
        depth.pgm                # 16-bit, millimeters, 0 = invalid
        mask.pgm                 # 8-bit, 255 = foreground
        pose.txt                 # ground truth, object -> camera

``synth-gen`` writes ``manifest.txt`` last, so a failed run leaves none.  A
model file's ``comment symmetric`` line wins over ``model_symmetric``, in
``model.ply`` and the manifest alike.
``verify``, ``eval`` and ``loss-decompose`` read only each scene's
``pose.txt``; ``encode`` and ``dist-report`` read the whole scene.
Encodings mirror the scene directories (encoding.txt + targets.txt each),
and ``encode`` writes ``enc/manifest.txt``, a copy of the dataset's
manifest, last, so a failed or interrupted encode leaves none.  The tables'
layout, and the one encoding they hold, are set out in :mod:`offset6d.formats`.
Inputs are joined by scene name, never by position: a missing encoding or
solves row, a solves row for a scene the dataset does not claim, a
duplicated row, or targets that do not match their encoding fail the
command and name the scene; ``verify`` refuses encodings whose manifest
differs from the dataset's, and ``solve`` keys its noise by the manifest's
scene index.  All commands are deterministic for fixed inputs and seed, and
their outputs are byte-identical across reruns.  Every batch command runs
the scenes its manifest claims through one loop (``_each``): a failed scene
stops no other; after the last, one line names each failed scene and the
command exits 1 without writing its manifest, CSV or ``--out`` file.  An
output file that would replace an input or another output is refused first
(``_outputs_apart``).  Any other toolkit or file error, and a failed
``verify`` gate, exits 1 with a one-line diagnostic too.  Every command runs
with numpy's overflow, invalid and divide-by-zero faults raised: a numeric
fault (a finite but huge pose or channel) fails its scene like any other
fault, and in ``solve`` it gives the scene a ``degenerate`` row.
"""

from __future__ import annotations

import gc
import math
import operator
import os
from functools import reduce
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator

import click
import numpy as np

from . import formats, synth
from .encoding import ConstraintForm, constraint_residuals, encode_input, encode_targets
from .errors import DegenerateConfigurationError, EmptyInputError, MissingPoseError, Offset6DError
from .geometry import RigidPose
from .metrics import ObjectModel, accuracy_at_threshold, add, add_s, auc, decompose_add_loss
from .record import replace
from .refpoint import RefStrategy, make_reference
from .solver import ConditionFlag, SolveReport, rotation_geodesic_error, solve_from_constraints
from .spec import SEED_LIMIT, FileModel
from .synth import perturbation_rng

_STRATEGIES = {s.value: s for s in RefStrategy}
_NAMED = 10  # an error line names at most this many scenes, then their total

SOLVES_VERSION = "solves/v1"
RESULTS_VERSION = "results/v1"
DIST_VERSION = "dist/v1"
LOSS_VERSION = "loss/v2"

SOLVES_HEADER = [
    "scene", "r00", "r01", "r02", "r10", "r11", "r12", "r20", "r21", "r22",
    "tx", "ty", "tz", "residual_rms", "point_count", "flag",
]
RESULTS_HEADER = [
    "scene", "add", "add_s", "add_selective", "rotation_error_rad",
    "translation_error_m", "solver_residual_rms", "flag",
]
DIST_HEADER = ["quantity", "component", "variance", "min", "max", "variance_ratio"]
LOSS_HEADER = ["scene", "total", "rotation_part", "cross_term", "translation_part"]


# What fails a scene, or a command outside the scene loop: a toolkit error, a
# file error, or a numeric fault raised under ``_Main``'s error state.
_FAULTS = (Offset6DError, OSError, FloatingPointError)


class _Main(click.Group):
    """The error boundary: every command runs with numpy's overflow, invalid
    and divide-by-zero faults raised (the caller's state comes back on exit),
    and a fault from any command becomes a one-line diagnostic and exit
    status 1, never a warning or a traceback."""

    def invoke(self, ctx: click.Context):
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                return super().invoke(ctx)
        except _FAULTS as exc:
            raise click.ClickException(str(exc)) from exc


def _finite(ctx: click.Context, param: click.Parameter, value: float) -> float:
    """Option callback: NaN and infinity pass a ``FloatRange`` but no gate."""
    if not math.isfinite(value):
        raise click.BadParameter(f"{value} is not a finite number.")
    return value


def _capped(names: list[str], total: int, sep: str) -> str:
    """The first ``_NAMED`` of ``names``, and the ``total`` if that is more."""
    shown = sep.join(names[:_NAMED])
    return shown if total <= _NAMED else f"{shown}{sep}... ({total} in all)"


def _each(root: Path, names: Iterable[str], handle: Callable[[int, Path], object]) -> Iterator:
    """``handle(index, root / name)`` for each name in order, lazily.  A toolkit
    or file error or a numeric fault fails its scene alone; after the last, one
    line names each failed scene (unless the reason does, as a path does) and
    its reason."""
    failures, failed = [], 0
    for index, name in enumerate(names):
        try:
            yield handle(index, root / name)
        except _FAULTS as exc:
            failed += 1
            if failed <= _NAMED:
                failures.append(str(exc) if name in str(exc) else f"{name}: {exc}")
    if failed:
        raise click.ClickException(_capped(failures, failed, "; "))


def _outputs_apart(outputs: dict[str, str | None], inputs: dict[str, str]) -> None:
    """Refuse, before anything is read, an output (option: path) that is an
    input, lies inside an input directory or is another output."""
    taken = {f"{option} {path}": Path(path).resolve() for option, path in inputs.items()}
    for option, out in outputs.items():
        if out is None:
            continue
        target = Path(out).resolve()
        for other, path in taken.items():
            if path in (target, *target.parents):
                where = "" if path == target else "inside "
                raise click.ClickException(f"{option} {out} is {where}{other}; write it elsewhere")
        taken[f"{option} {out}"] = target


class _Scenes:
    """The scenes a directory's ``manifest.txt`` claims: a dataset's, or the
    copy ``encode`` writes into its encodings.  Not iterable: every command
    runs them through ``each``, in manifest order."""

    def __init__(self, directory: str):
        self.root = Path(directory)
        manifest = self.root / "manifest.txt"
        if not manifest.exists():
            raise click.ClickException(f"{manifest} not found; is {directory} a dataset or encodings directory?")
        self.spec, count = formats.read_manifest(manifest)
        # The claim is checked against one listing before a list of its
        # length is built: a hand-edited count costs no time or memory.
        with os.scandir(self.root) as entries:
            present = {entry.name for entry in entries if entry.name.startswith("scene_") and entry.is_dir()}
        claimed = map(formats.scene_name, range(count))
        missing = list(islice((name for name in claimed if name not in present), _NAMED))
        if missing:
            suffixes = (name.removeprefix("scene_") for name in present)
            indices = {int(suffix) for suffix in suffixes if suffix.isdecimal()}
            found = sum(1 for i in indices if i < count and formats.scene_name(i) in present)
            missing_text = _capped(missing, count - found, ", ")
            raise click.ClickException(f"{self.root} is missing scene directories: {missing_text}")
        self.names = [formats.scene_name(i) for i in range(count)]

    def each(self, handle: Callable[[int, Path], object]) -> Iterator:
        return _each(self.root, self.names, handle)


@click.group(cls=_Main)
def main() -> None:
    """Relative-offset 6D pose toolkit."""


@main.command("synth-gen")
@click.option("--config", "-c", "config_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(file_okay=False), default=None, help="Overrides output_dir from the config.")
def synth_gen(config_path: str, out: str | None) -> None:
    """Generate a synthetic dataset directory: the config's scene_count scenes, from its seed."""
    spec, n, out_dir = formats.read_experiment_config(config_path)
    out_dir = Path(out) if out else out_dir
    if out_dir is None:
        raise click.ClickException(f"{config_path}: missing key 'output_dir', and no --out")

    # A primitive whose face areas or diameter are not finite; a model file is named by its reader.
    model = formats._built(f"{config_path}: model_params", synth.model_for_spec, spec)
    if isinstance(spec.model_kind, FileModel):  # the PLY's symmetric comment wins, in the manifest too
        spec = replace(spec, model_kind=replace(spec.model_kind, symmetric=model.symmetric))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "manifest.txt").unlink(missing_ok=True)
    formats.write_model(out_dir / "model.ply", model)

    def render(index: int, scene_dir: Path) -> None:
        formats.write_scene_dir(scene_dir, synth.render_scene(spec, index, model=model).observation)

    list(_each(out_dir, map(formats.scene_name, range(n)), render))
    formats.write_manifest(out_dir / "manifest.txt", spec, n)  # last: marks the dataset complete
    click.echo(f"wrote {n} scenes to {out_dir}")


@main.command("encode")
@click.option("--dataset", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--out", required=True, type=click.Path(file_okay=False))
@click.option("--strategy", type=click.Choice(sorted(_STRATEGIES)), default=RefStrategy.MEAN_VISIBLE.value)
def encode_cmd(dataset: str, out: str, strategy: str) -> None:
    """Encode every scene of a dataset into input channels and targets."""
    _outputs_apart({"--out": out}, {"--dataset": dataset})
    scenes, out_dir = _Scenes(dataset), Path(out)
    (out_dir / "manifest.txt").unlink(missing_ok=True)

    def encode_scene(_: int, scene_dir: Path) -> None:
        obs = formats.read_scene_dir(scene_dir, scenes.spec)
        ref = make_reference(obs, _STRATEGIES[strategy])
        enc_dir = out_dir / scene_dir.name
        formats.write_encoding(enc_dir / "encoding.txt", encode_input(obs, ref))
        if obs.gt_pose is None:  # as write_scene_dir does for pose.txt
            (enc_dir / "targets.txt").unlink(missing_ok=True)
        else:
            formats.write_targets(enc_dir / "targets.txt", encode_targets(obs, ref))

    list(scenes.each(encode_scene))
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
    _outputs_apart({"--out": out}, {"--dataset": dataset, "--encodings": encodings})
    scenes, encoded = _Scenes(dataset), _Scenes(encodings)
    if encoded.names != scenes.names or encoded.spec != scenes.spec:
        raise click.ClickException(
            f"{encoded.root} holds {len(encoded.names)} scenes encoded from another dataset than {scenes.root} "
            f"({len(scenes.names)} scenes); re-encode it"
        )

    def residual_stats(_: int, scene_dir: Path) -> dict[ConstraintForm, tuple[float, float, int]]:
        """Per form: the scene's max residual norm, its sum of squares and its pixel count."""
        gt_pose = formats.read_scene_pose(scene_dir)
        enc, tgt = formats.read_encoded_scene(encoded.root / scene_dir.name)
        if enc.us.size == 0:
            raise EmptyInputError("the encoding holds no pixels, so its residuals have no maximum")
        residuals = constraint_residuals(enc, tgt, gt_pose)
        # Each row's Euclidean norm, squared in place: the bits of np.linalg.norm(r, axis=1) without its copies.
        norms = {f: np.sqrt(np.square(r, out=r).sum(axis=1)) for f, r in residuals.items()}
        if not all(np.all(np.isfinite(n)) for n in norms.values()):  # max() would skip a NaN
            raise Offset6DError("non-finite constraint residuals")
        return {f: (float(n.max()), float(np.sum(n**2)), n.size) for f, n in norms.items()}

    per_scene = list(scenes.each(residual_stats))
    pairs: list[tuple[str, str]] = [("format", "verify/v1")]
    peaks = {}
    for f in ConstraintForm:
        scene_peaks, sq_sums, counts = zip(*(scene[f] for scene in per_scene))
        # Added in scene order: sum() of floats compensates its rounding from Python 3.12 on.
        peaks[f], rms = max(scene_peaks), (reduce(operator.add, sq_sums) / sum(counts)) ** 0.5
        click.echo(f"{f.value}: max residual {peaks[f]:.3e}, rms {rms:.3e}")
        pairs.append((f"{f.value.replace('-', '_')}_max", formats.format_float(peaks[f])))
        pairs.append((f"{f.value.replace('-', '_')}_rms", formats.format_float(rms)))
    if out:
        formats.write_keyvalue(out, pairs)
    gate = peaks[ConstraintForm.CORRECTED]
    if gate > tolerance:
        raise click.ClickException(f"corrected-form max residual {gate:.3e} exceeds tolerance {tolerance:.3e}")


@main.command("solve")
@click.option("--encodings", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--perturb-sigma", type=click.FloatRange(min=0.0), callback=_finite, default=0.0, show_default=True,
              help="Gaussian noise added to the object-frame targets before solving.")
@click.option("--seed", type=click.IntRange(0, SEED_LIMIT - 1), default=0, show_default=True,
              help="Seed for the perturbation stream, a Philox key.")
@click.option("--refine", type=click.IntRange(min=0), default=0, show_default=True,
              help="Re-fits of reconstructed 3D points. The closed form already minimises the constraint cost J; "
                   "a re-fit minimises another: 2 raised J in all 180 cases checked and failed 525 of 1,800 "
                   "rotation checks.")
def solve_cmd(encodings: str, out: str, perturb_sigma: float, seed: int, refine: int) -> None:
    """Recover poses from encodings (optionally with perturbed targets)."""
    _outputs_apart({"--out": out}, {"--encodings": encodings})

    def solve_scene(index: int, enc_dir: Path) -> list:
        enc, tgt = formats.read_encoded_scene(enc_dir)
        delta_abc = tgt.delta_abc
        if perturb_sigma > 0:
            rng = perturbation_rng(seed, index)
            noise = rng.normal(0.0, perturb_sigma, delta_abc.shape)
            delta_abc = np.add(noise, delta_abc, out=noise)
        try:
            report = solve_from_constraints(enc, delta_abc, refine_iterations=refine)
        except (DegenerateConfigurationError, FloatingPointError):  # a channel past the float range, say
            return [enc_dir.name] + [None] * 14 + [ConditionFlag.DEGENERATE.value]
        pose = report.pose
        return [enc_dir.name, *pose.rotation.ravel().tolist(), *pose.translation.tolist(),
                report.residual_rms, report.point_count, report.condition_flag.value]

    rows = list(_Scenes(encodings).each(solve_scene))
    formats.write_csv(out, SOLVES_VERSION, SOLVES_HEADER, rows)
    click.echo(f"solved {len(rows)} scenes -> {out}")


def _solve_report(row: list[str]) -> SolveReport | None:
    """The report ``solve`` wrote a solves row from; None for a degenerate row."""
    flag = ConditionFlag(row[-1])
    if flag is ConditionFlag.DEGENERATE:
        return None
    values = [float(v) for v in row[1:14]]
    return SolveReport(RigidPose(np.reshape(values[:9], (3, 3)), values[9:12]), values[12], int(row[14]), flag)


def _predicted(dataset: str, pred: str, score: Callable[..., list]) -> tuple[ObjectModel, list[list]]:
    """The dataset's model, and one row per dataset scene: its name, then
    ``score(model, gt_pose, report)`` of its one solves row, joined by name;
    the report is None for a degenerate row.  A missing, duplicated or
    malformed row (one ``solve`` could not have written) fails before any
    scene is read; a scene whose pose or score fails is named by the scene
    loop."""
    scenes = _Scenes(dataset)
    model = formats.read_model(scenes.root / "model.ply")
    header, rows = formats.read_csv(pred, SOLVES_VERSION)
    if header != SOLVES_HEADER:
        raise click.ClickException(f"{pred}: unexpected solves header {header}")
    predictions: dict[str, SolveReport | None] = {}
    for row in rows:
        if len(row) != len(SOLVES_HEADER):
            what = f"row for {row[0]}" if row else "a blank row"
            raise click.ClickException(f"{pred}: {what} has {len(row)} fields, expected {len(SOLVES_HEADER)}")
        name = row[0]
        if name in predictions:
            raise click.ClickException(f"{pred}: duplicate row for {name}")
        predictions[name] = formats._built(f"{pred}: bad row for {name}", _solve_report, row)
    missing = [name for name in scenes.names if name not in predictions]
    if missing:
        raise click.ClickException(f"{pred} has no row for {', '.join(missing)}")
    extra = predictions.keys() - set(scenes.names)
    if extra:
        raise click.ClickException(f"{pred} has rows for scenes {scenes.root} does not claim: {', '.join(sorted(extra))}")

    def scored(_: int, scene_dir: Path) -> list:
        gt = formats.read_scene_pose(scene_dir)
        return [scene_dir.name, *score(model, gt, predictions[scene_dir.name])]

    return model, list(scenes.each(scored))


@main.command("eval")
@click.option("--dataset", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--pred", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option("--summary-out", type=click.Path(dir_okay=False), default=None)
def eval_cmd(dataset: str, pred: str, out: str, summary_out: str | None) -> None:
    """Score predicted poses; the summary's accuracy is at a tenth of the diameter, its AUC up to 0.1 m."""
    _outputs_apart({"--out": out, "--summary-out": summary_out}, {"--dataset": dataset, "--pred": pred})

    def score(model: ObjectModel, gt: RigidPose, report: SolveReport | None) -> list:
        if report is None:
            return [None] * 6 + [ConditionFlag.DEGENERATE.value]
        pose = report.pose
        err_add = add(pose, gt, model)
        err_add_s = add_s(pose, gt, model)
        err_sel = err_add_s if model.symmetric else err_add  # add_selective, without a second ADD-S
        return [err_add, err_add_s, err_sel, rotation_geodesic_error(pose, gt),
                float(np.linalg.norm(pose.translation - gt.translation)), report.residual_rms, "ok"]

    model, rows = _predicted(dataset, pred, score)
    selective_errors = [row[RESULTS_HEADER.index("add_selective")] for row in rows if row[-1] == "ok"]
    if not selective_errors:  # every row is degenerate
        degenerate = _capped([row[0] for row in rows], len(rows), ", ")
        raise click.ClickException(f"no non-degenerate predictions to summarize: {degenerate}")
    summary = [  # before results.csv: a summary that fails leaves no CSV
        ("format", "summary/v1"),
        ("scene_count", str(len(rows))),
        ("mean_add_selective", formats.format_float(float(np.mean(selective_errors)))),
        ("accuracy_at_threshold", formats.format_float(accuracy_at_threshold(selective_errors, model))),
        ("auc", formats.format_float(auc(selective_errors))),
    ]
    formats.write_csv(out, RESULTS_VERSION, RESULTS_HEADER, rows)
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
    _outputs_apart({"--out": out}, {"--dataset": dataset})
    scenes = _Scenes(dataset)

    def offset(_: int, scene_dir: Path) -> tuple[np.ndarray, np.ndarray]:
        """The scene's ground-truth translation ``t`` and its offset ``t - t0``."""
        obs = formats.read_scene_dir(scene_dir, scenes.spec)
        if obs.gt_pose is None:
            raise MissingPoseError("no ground-truth pose; the distribution report needs one")
        t = obs.gt_pose.translation
        t * t  # a translation whose square overflows fails here, not in the spread over all scenes
        return t, t - make_reference(obs, _STRATEGIES[strategy]).as_array()

    rows = synth.distribution_report(scenes.each(offset))
    formats.write_csv(out, DIST_VERSION, DIST_HEADER, rows)
    for quantity, component, variance, lo, hi, ratio in rows:
        shown = "" if ratio is None else f"  ratio {ratio:.1f}"
        click.echo(f"{quantity:8s} {component}: var {variance:.3e} range ({lo:.4f}, {hi:.4f}){shown}")


@main.command("loss-decompose")
@click.option("--dataset", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--pred", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def loss_decompose_cmd(dataset: str, pred: str, out: str) -> None:
    """Split the squared pose loss into rotation/cross/translation parts."""
    _outputs_apart({"--out": out}, {"--dataset": dataset, "--pred": pred})

    def score(model: ObjectModel, gt: RigidPose, report: SolveReport | None) -> list:
        if report is None:
            return [None] * 4
        parts = decompose_add_loss(report.pose, gt, model)
        return [parts.total, parts.rotation_part, parts.cross_term, parts.translation_part]

    _, rows = _predicted(dataset, pred, score)
    formats.write_csv(out, LOSS_VERSION, LOSS_HEADER, rows)
    click.echo(f"decomposed {len(rows)} scenes -> {out}")


# Everything made above lives until exit: frozen, no collection rescans it, the ones at exit included.
gc.freeze()

if __name__ == "__main__":
    main()
