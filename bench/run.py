"""End-to-end benchmark of the seven-stage ``offset6d`` CLI pipeline.

    python3 bench/run.py --workload sym-eval --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``; nothing needs installing).  One client drives a closed loop: each
stage (``synth-gen -> encode -> verify -> solve -> eval -> dist-report ->
loss-decompose``) runs as its own process, the way the README recipe runs
it, and ``run.py`` waits for it before starting the next.  ``stage.py``
imports the package and calls the click command, as ``python3 -m
offset6d.cli`` does, and records when the command started.  Own processes
per stage keep a cache shared across stages from posing as a gain and make
interpreter start-up cost visible.  BLAS threads are capped at the CPU
count.

A run repeats the whole pipeline while another repetition still fits in
``--seconds`` (at least once) and reports medians over the repetitions (see
``end_to_end_metrics``).
The shared machine this was built on loses up to half its CPU time to other
guests of its host in some spells and runs up to twice as fast in others
from one second to the next.  So the steal time the kernel reports during
each part of a stage launch is taken off its wall time, and every stage
process runs ``calibrate.py``'s fixed reference work, which runs none of the
program, right before and right after its command; that stage's times are
scaled towards the speed of a reference machine (see ``speed_factor``).  The
per-launch times, reference times and steal are kept in the result file.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions; a traced one runs each stage with the
layer functions wrapped (one fresh interpreter per stage, as in the timed
runs) and reports the per-layer metrics of ``layers.py`` plus the tracing
overhead.  ``--smoke`` runs each workload on a few scenes, once.

Every repetition passes a correctness gate: every stage exits 0; ``verify``
passes at 1e-9; every clean-solve row is well-posed and its pose is within
1e-6 rad / 1e-8 m of ground truth; every scene has its row in every output;
and SHA-256 digests of the dataset and of the solves, results, dist and loss
CSVs agree across all repetitions of the run.  The digests, provenance and
all samples go to ``bench/results/``.  The last stdout line is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is
nonzero when the gate fails.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from calibrate import mark  # noqa: E402
from layers import PERCENTILE_SPANS, STAGE_STEM, STAGES, per_layer_units  # noqa: E402

SETUP_BEFORE = 2  # set-up launches before the first round; one more per round
# Median CPU time of ``calibrate.reference_work`` on the reference machine
# (2-core VM, Python 3.11.7).  End-to-end times are reported at that machine speed;
# see ``speed_factor``.
REFERENCE_S = 0.15
SPEED_EXPONENT = 0.8
VERIFY_TOLERANCE = "1e-9"
CLEAN_ROTATION_RAD = 1e-6
CLEAN_TRANSLATION_M = 1e-8
E2E_UNITS = {"pipeline_s": "s", **{f"{stem}_s": "s" for _, stem in STAGES},
             "setup_s": "s", "peak_rss_mb": "MB"}

# Workload configurations (experiment/v1 keys).  The seed is filled in per run.
SYM_EVAL = {  # the criterion-3 config
    "image_width": "160", "image_height": "160",
    "fx": "140.0", "fy": "140.0", "cx": "80.0", "cy": "80.0",
    "model_kind": "sphere", "model_params": "0.1", "surface_sample_count": "1000",
    "translation_dist": "box", "translation_center": "0.0 0.0 1.0",
    "translation_half_widths": "0.25 0.25 0.25",
    "depth_noise_sigma": "0.0", "pixel_dropout": "0.0",
}
DENSE_PIXELS = {
    "image_width": "320", "image_height": "240",
    "fx": "300.0", "fy": "300.0", "cx": "160.0", "cy": "120.0",
    "model_kind": "box", "model_params": "0.16 0.12 0.2", "surface_sample_count": "200",
    "translation_dist": "box", "translation_center": "0.0 0.0 0.8",
    "translation_half_widths": "0.1 0.1 0.15",
    "depth_noise_sigma": "0.0", "pixel_dropout": "0.0",
}
NOISY_SWEEP = {
    "image_width": "160", "image_height": "160",
    "fx": "140.0", "fy": "140.0", "cx": "80.0", "cy": "80.0",
    "model_kind": "cylinder", "model_params": "0.06 0.15", "surface_sample_count": "300",
    "translation_dist": "box", "translation_center": "0.0 0.0 1.0",
    "translation_half_widths": "0.2 0.2 0.2",
    "depth_noise_sigma": "0.001", "pixel_dropout": "0.1", "occlusion_fraction": "0.2",
}

# name -> (config, scenes per repetition, scenes in smoke mode, recipe)
WORKLOADS = {
    # Symmetric 1000-point model: eval runs the O(m^2) ADD-S twice per scene,
    # so the metrics layer dominates while I/O stays light (~630 px/scene).
    "sym-eval": (SYM_EVAL, 12, 3, "readme"),
    # ~5,400 px/scene on an asymmetric 200-point box: encoding text I/O,
    # rendering and the encode path dominate; eval does 1/25 of sym-eval's
    # point pairs, once per scene, so metrics optimisations are bypassed.
    "dense-pixels": (DENSE_PIXELS, 12, 3, "readme"),
    # Noise, dropout and occlusion rendering, three solve/eval settings (one
    # with refinement, the only Procrustes caller) and the ROI reference.
    # Each encoding is read four times per write; stages are short, so
    # start-up cost weighs most here.
    "noisy-sweep": (NOISY_SWEEP, 8, 3, "sweep"),
}


def derived_seed(seed: int, purpose: str) -> int:
    digest = hashlib.sha256(f"{seed}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:4], "big") % (2**31 - 1)


def config_text(config: dict[str, str], seed: int, scenes: int) -> str:
    lines = ["format = experiment/v1", f"seed = {seed}", f"scene_count = {scenes}"]
    lines += [f"{key} = {value}" for key, value in config.items()]
    return "\n".join(lines) + "\n"


class Step:
    """One CLI invocation of the pipeline and the rows its output must hold."""

    def __init__(self, args: list[str], check: str | None = None, out: str | None = None):
        self.args = args
        self.stage = args[0]
        self.check = check  # which row check applies to ``out``
        self.out = out


def recipe(kind: str, work: Path, seed: int) -> list[Step]:
    data, enc = str(work / "data"), str(work / "enc")
    steps = [
        Step(["synth-gen", "-c", str(work / "config.txt"), "--out", data], "scenes"),
        Step(["encode", "--dataset", data, "--out", enc], "encodings"),
        Step(["verify", "--dataset", data, "--encodings", enc, "--tolerance", VERIFY_TOLERANCE]),
    ]
    if kind == "readme":
        settings = [[]]
        strategy = "mean-visible"
    else:
        settings = [
            ["--seed", str(derived_seed(seed, "solve0"))],
            ["--perturb-sigma", "1e-4", "--seed", str(derived_seed(seed, "solve1"))],
            ["--perturb-sigma", "1e-3", "--refine", "2", "--seed", str(derived_seed(seed, "solve2"))],
        ]
        strategy = "center-nearest"
    for i, extra in enumerate(settings):
        solves, results = str(work / f"solves{i}.csv"), str(work / f"results{i}.csv")
        steps.append(Step(["solve", "--encodings", enc, "--out", solves] + extra, "solves", solves))
        steps.append(Step(["eval", "--dataset", data, "--pred", solves, "--out", results], "results", results))
    dist, loss = str(work / "dist.csv"), str(work / "loss.csv")
    steps.append(Step(["dist-report", "--dataset", data, "--strategy", strategy, "--out", dist], None, dist))
    steps.append(Step(["loss-decompose", "--dataset", data, "--pred", str(work / "solves0.csv"),
                       "--out", loss], "loss", loss))
    return steps


# ---------------------------------------------------------------------------
# running children


def child_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = str(threads)
    return env


def launch(argv: list[str], env: dict[str, str], cwd: Path, log: Path) -> tuple[tuple, tuple, int, float]:
    """Run one child to completion: (start, end, exit code, peak RSS in MB).

    Start and end are ``calibrate.mark`` readings: ``time.perf_counter``, on
    the system-wide monotonic clock the child's own readings use too, and
    steal time.
    """
    with open(log, "wb") as out:
        start = mark()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        end = mark()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, end, proc.returncode, usage.ru_maxrss / 1024.0


def stage_argv(record: Path, run_id: str, trace: bool, args: list[str]) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "stage.py"), str(record), run_id, "1" if trace else "0", *args]


def speed_factor(before: float, after: float) -> float:
    """Scale for the times of a launch whose reference work took ``before`` and ``after`` CPU seconds.

    While the machine holds one speed, stage times move in proportion to the
    reference time.  When its speed flips within a second, the reference
    work, a fraction of a second long, sees only the speed of its own moment
    and swings further than the stage around it, so scaling in full
    overcorrects.  Over 15 runs of the three workloads on the reference
    machine, in a spell without steal, the power 0.75 to 0.85 of the speed
    ratio left the least spread between runs; 1 left 1.5 times as much, no
    scaling 2 to 3 times.
    """
    return (REFERENCE_S / ((before + after) / 2)) ** SPEED_EXPONENT


def split_times(record: Path, start: tuple, end: tuple) -> tuple[float, float, float, float, float]:
    """(start-up, command, reference work before, after, steal) seconds of one stage launch.

    Start-up runs from the launch to the first reference work; the command
    from its start to its end, plus the interpreter exit after the second
    reference work.  The steal time within each part is taken off its wall
    time.  The reference work times are CPU times.
    """
    rec = json.loads(record.read_text())
    (t1, s1), (t2, s2), (t3, s3), (t4, s4) = rec["marks"]
    startup = (t1 - start[0]) - (s1 - start[1])
    command = (t3 - t2) + (end[0] - t4) - (s3 - s2) - (end[1] - s4)
    before, after = rec["reference_cpu_s"]
    return startup, command, before, after, end[1] - start[1]


def setup_sample(env: dict[str, str], work: Path, index: int) -> dict[str, float]:
    """One set-up launch (``--help``): wall time less the reference work and steal."""
    record, log = work / "records" / f"setup-{index:03d}.json", work / "setup.log"
    start, end, code, _ = launch(stage_argv(record, f"setup.{index}", False, ["--help"]), env, work, log)
    if code != 0 or not record.is_file():
        raise RuntimeError(f"set-up launch exited {code}; see {log}")
    startup, command, before, after, _ = split_times(record, start, end)
    return {"wall_s": startup + command, "scaled_s": (startup + command) * speed_factor(before, after)}


def read_rows(path: str) -> dict[str, list[str]]:
    """Rows of a versioned CSV keyed by their first column."""
    with open(path, newline="") as f:
        lines = [line for line in f if line.strip() and not line.startswith("#")]
    rows = list(csv.reader(lines))
    header = rows[0]
    return {row[0]: dict(zip(header, row)) for row in rows[1:]}


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def file_digest(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def step_failures(step: Step, work: Path, names: list[str], problems: list[str]) -> int:
    """Scene-operations of a stage that exited 0 but left a scene unhandled."""
    if step.check == "scenes":
        missing = [n for n in names if not (work / "data" / n / "pose.txt").is_file()]
    elif step.check == "encodings":
        missing = [n for n in names
                   if not all((work / "enc" / n / f).is_file() for f in ("encoding.txt", "targets.txt"))]
    elif step.check is None:
        return 0
    else:
        rows = read_rows(step.out)
        flag_ok = {"solves": lambda r: r["flag"] != "degenerate",
                   "results": lambda r: r["flag"] == "ok",
                   "loss": lambda r: r["total"] != ""}[step.check]
        missing = [n for n in names if n not in rows or not flag_ok(rows[n])]
    if missing:
        problems.append(f"{step.stage} -> {step.out or step.check}: {len(missing)} scene(s) "
                        f"missing or degenerate, e.g. {missing[:3]}")
    return len(missing)


def clean_solve_problems(work: Path, names: list[str]) -> list[str]:
    """The clean (unperturbed) solve must recover every pose exactly."""
    problems = []
    solves, results = read_rows(str(work / "solves0.csv")), read_rows(str(work / "results0.csv"))
    for n in names:
        if n not in solves or solves[n]["flag"] != "well-posed":
            problems.append(f"clean solve of {n} is not well-posed")
        elif n not in results:
            problems.append(f"clean eval has no row for {n}")
        else:
            rot = float(results[n]["rotation_error_rad"])
            trans = float(results[n]["translation_error_m"])
            if not (rot < CLEAN_ROTATION_RAD and trans < CLEAN_TRANSLATION_M):
                problems.append(f"clean solve of {n}: rotation {rot:.3e} rad, translation {trans:.3e} m")
    return problems


def run_pipeline(steps: list[Step], work: Path, scenes: int, env: dict[str, str],
                 trace: bool, iteration: int) -> dict:
    """One repetition of the whole pipeline, checked by the gate.

    Each stage's wall time, less steal, is split into ``startup``
    (interpreter start and package import, the same for every stage) and
    ``command`` (the command itself, then interpreter exit); the reference
    work is left out.  Both are also kept scaled to the reference machine speed by the
    stage's own reference work.
    """
    names = [f"scene_{i:05d}" for i in range(scenes)]
    for stale in ("data", "enc"):
        shutil.rmtree(work / stale, ignore_errors=True)
    for csv_file in work.glob("*.csv"):
        csv_file.unlink()
    logs, records = work / "logs", work / "records"
    logs.mkdir(exist_ok=True)
    records.mkdir(exist_ok=True)
    stage_s = {stem: 0.0 for _, stem in STAGES}
    command_s = {stem: 0.0 for _, stem in STAGES}
    scaled_command_s = {stem: 0.0 for _, stem in STAGES}
    startups: list[float] = []
    scaled_startups: list[float] = []
    launches: list[list] = []
    rss = 0.0
    attempted = failed = 0
    problems: list[str] = []
    record_files = []
    aborted = False
    for k, step in enumerate(steps):
        attempted += scenes
        if aborted:
            failed += scenes
            continue
        record = records / f"{iteration:03d}-{k:02d}.json"
        log = logs / f"{k:02d}-{step.stage}.log"
        start, end, code, peak = launch(stage_argv(record, f"{iteration}.{k}", trace, step.args), env, work, log)
        stem = STAGE_STEM[step.stage]
        rss = max(rss, peak)
        if code != 0 or not record.is_file():
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            problems.append(f"{step.stage} exited {code}: {' | '.join(tail)}")
            failed += scenes
            aborted = True
            continue
        record_files.append(record)
        startup, command, before, after, stolen = split_times(record, start, end)
        speed = speed_factor(before, after)
        stage_s[stem] += startup + command
        startups.append(startup)
        scaled_startups.append(startup * speed)
        command_s[stem] += command
        scaled_command_s[stem] += command * speed
        launches.append([stem, startup, command, before, after, stolen])
        failed += step_failures(step, work, names, problems)
    digests = {}
    if not aborted:
        problems += clean_solve_problems(work, names)
        digests["dataset"] = tree_digest(work / "data")
        for step in steps:
            if step.out:
                digests[Path(step.out).name] = file_digest(step.out)
    return {
        "stage_s": stage_s,
        "pipeline_s": sum(stage_s.values()),
        "command_s": command_s,
        "startup_s": startups,
        "launches": launches,
        "scaled_command_s": scaled_command_s,
        "scaled_startup_s": scaled_startups,
        "peak_rss_mb": rss,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "digests": digests,
        "record_files": [str(p) for p in record_files],
        "encoding_bytes": tree_bytes(work / "enc") if not aborted else 0,
        "dataset_bytes": tree_bytes(work / "data") if not aborted else 0,
    }


def end_to_end_metrics(rounds: list[dict], steps: list[Step], setup: list[dict]) -> dict[str, float]:
    """Stage wall times of a run, scaled to the reference machine speed.

    Every time is first scaled by the reference work of its own process.  A
    stage's wall time is then estimated as the median over rounds of its
    command time plus, per invocation, the median start-up time pooled over
    every stage launch of the run: start-up runs the same code for every
    stage, and pooling gives it ~30 samples instead of ~3.
    """
    startup = statistics.median(t for it in rounds for t in it["scaled_startup_s"])
    invocations = {stem: 0 for _, stem in STAGES}
    for step in steps:
        invocations[STAGE_STEM[step.stage]] += 1
    metrics = {f"{stem}_s": statistics.median(it["scaled_command_s"][stem] for it in rounds) + n * startup
               for stem, n in invocations.items()}
    metrics["pipeline_s"] = (statistics.median(sum(it["scaled_command_s"].values()) for it in rounds)
                             + len(steps) * startup)
    metrics["setup_s"] = statistics.median(s["scaled_s"] for s in setup)
    metrics["peak_rss_mb"] = max(it["peak_rss_mb"] for it in rounds)
    return metrics


# ---------------------------------------------------------------------------
# per-layer report from spans


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_table(iteration: dict) -> tuple[dict[str, float], dict[str, list[float]]]:
    """Per-layer values of one traced repetition, and span durations (ms) by name."""
    units = per_layer_units()
    table = {name: 0 if unit in ("count", "bytes") else 0.0 for name, unit in units.items()}
    durations: dict[str, list[float]] = {name: [] for name in PERCENTILE_SPANS}
    counts = {"encoding.pixels": 0, "solver.degenerate": 0, "metrics.add_s.point_pairs": 0,
              "metrics.add_s.distinct": 0, "metrics.models": 0}
    for path in iteration["record_files"]:
        payload = json.loads(Path(path).read_text())
        spans = payload["spans"]
        table["cli.import_s"] += payload["import_s"]
        for key in counts:
            counts[key] += payload["counts"][key]
        for (name, start, end, parent, _), own in zip(spans, self_times(spans)):
            if name.startswith("cli."):
                table[f"{name}.self_s"] += own
                table[f"{name}.inproc_s"] += end - start
                continue
            table[f"{name}.calls"] += 1
            table[f"{name}.self_s"] += own
            if name in durations:
                durations[name].append((end - start) * 1e3)
    table["encoding.pixels"] = counts["encoding.pixels"]
    table["solver.degenerate"] = counts["solver.degenerate"]
    table["metrics.add_s.point_pairs"] = counts["metrics.add_s.point_pairs"]
    add_s_calls = table["metrics.add_s.calls"]
    table["metrics.add_s.useful_ratio"] = counts["metrics.add_s.distinct"] / add_s_calls if add_s_calls else 1.0
    mpd_calls = table["metrics.max_pairwise_distance.calls"]
    table["metrics.diameter.useful_ratio"] = counts["metrics.models"] / mpd_calls if mpd_calls else 1.0
    table["formats.encoding_bytes"] = iteration["encoding_bytes"]
    table["formats.dataset_bytes"] = iteration["dataset_bytes"]
    return table, durations


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def per_layer_metrics(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    tables, pooled = [], {name: [] for name in PERCENTILE_SPANS}
    for iteration in traced:
        table, durations = layer_table(iteration)
        tables.append(table)
        for name in PERCENTILE_SPANS:
            pooled[name] += durations[name]
    metrics = {name: statistics.median(t[name] for t in tables) for name in tables[0]}
    for name in PERCENTILE_SPANS:
        metrics[f"{name}.p50_ms"] = percentile(pooled[name], 0.5)
        metrics[f"{name}.p90_ms"] = percentile(pooled[name], 0.9)
    # Traced minus untraced stage wall time, summed over the pipeline, from
    # each traced repetition and the untraced one just before it.  Only the
    # command part is compared: start-up jitter would swamp the difference.
    # Wrapping the functions at the end of start-up takes a few ms and is
    # left out.
    metrics["trace.overhead_s"] = statistics.median(
        sum(t["command_s"].values()) - sum(u["command_s"].values()) for u, t in zip(untraced, traced))
    return metrics


# ---------------------------------------------------------------------------
# provenance


def provenance(workload: str, seed: int, scenes: int, config_seed: int, threads: int) -> dict:
    versions = {}
    for package in ("numpy", "scipy", "click"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() if done.returncode == 0 else None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "offset6d").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        **versions,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "workload": workload,
        "workload_seed": seed,
        "config_seed": config_seed,
        "scene_count": scenes,
        "file_cache": "warm: one untimed CLI launch precedes timing; the cache is never dropped",
        "client": "closed loop, one client, one process per stage",
    }


# ---------------------------------------------------------------------------


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a few scenes, one repetition")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "offset6d" / "cli.py").is_file():
        print(f"no offset6d sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    config, full_scenes, smoke_scenes, kind = WORKLOADS[args.workload]
    scenes = smoke_scenes if args.smoke else full_scenes
    threads = len(os.sched_getaffinity(0))
    env = child_env(threads)
    config_seed = derived_seed(args.seed, args.workload)
    work = BENCH_DIR / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        (work / "config.txt").write_text(config_text(config, config_seed, scenes))
        steps = recipe(kind, work, args.seed)
        (work / "records").mkdir()
        setup_sample(env, work, 0)  # compiles bytecode, warms the file cache

        # Rounds repeat while the window lasts.  A round is one untraced
        # repetition (plus, when tracing, one traced repetition right after
        # it).  Untraced runs also launch set-up once per round.
        setup: list[dict] = []
        untraced: list[dict] = []
        traced: list[dict] = []
        start = time.perf_counter()
        while True:
            if not args.trace:
                for _ in range(1 if untraced else SETUP_BEFORE):
                    setup.append(setup_sample(env, work, len(setup) + 1))
            it = run_pipeline(steps, work, scenes, env, False, len(untraced) + len(traced))
            untraced.append(it)
            if args.trace and not it["problems"]:
                it = run_pipeline(steps, work, scenes, env, True, len(untraced) + len(traced))
                traced.append(it)
            # Stop unless another round of the same length still fits.
            elapsed = time.perf_counter() - start
            if args.smoke or it["problems"] or elapsed * (len(untraced) + 1) / len(untraced) > args.seconds:
                break
        runs = untraced + traced

        problems = [p for it in runs for p in it["problems"]]
        reference = runs[0]["digests"]
        for i, it in enumerate(runs[1:], start=1):
            if it["digests"] != reference:
                problems.append(f"repetition {i} output digests differ from repetition 0")
        attempted = sum(it["attempted"] for it in runs)
        failed = sum(it["failed"] for it in runs)
        correct = not problems

        if args.trace:
            metrics = per_layer_metrics(untraced, traced) if traced else {}
            units = per_layer_units()
        else:
            metrics = end_to_end_metrics(untraced, steps, setup)
            units = E2E_UNITS
        failure_rate = failed / attempted

        record = {
            "provenance": provenance(args.workload, args.seed, scenes, config_seed, threads),
            "trace": args.trace,
            "seconds": args.seconds,
            "repetitions": {"untraced": len(untraced), "traced": len(traced)},
            "correct": correct,
            "problems": problems,
            "attempted": attempted,
            "failed": failed,
            "failure_rate": failure_rate,
            "digests": reference,
            "setup_samples": setup,
            "samples": [{key: it[key] for key in ("stage_s", "pipeline_s", "command_s", "startup_s", "launches",
                                                 "scaled_command_s", "scaled_startup_s", "peak_rss_mb")}
                        | {"traced": traced_run}
                        for its, traced_run in ((untraced, False), (traced, True)) for it in its],
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
        }
        results = BENCH_DIR / "results"
        results.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
        (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    prov = record["provenance"]
    print(f"workload {args.workload}  seed {args.seed}  scenes {scenes}  "
          f"repetitions {len(untraced)} untraced + {len(traced)} traced")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, digest in reference.items():
        print(f"digest {name} {digest}")
    for name, entry in record["metrics"].items():
        print(f"{name:44s} {entry['value']:14.6g} {entry['unit']}")
    print(f"{'failure_rate':44s} {failure_rate:14.6g} ratio ({failed}/{attempted} scene-operations)")
    print("gate " + ("PASS" if correct else "FAIL"))
    for problem in problems[:20]:
        print(f"  {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
