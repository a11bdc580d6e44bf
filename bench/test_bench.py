"""Smoke test of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

Runs every workload in ``--smoke`` mode (a few scenes, one repetition) with
tracing off and on, and checks that every metric named in ``BENCHMARK.json``
is emitted with its unit, that the correctness gate runs and passes, and that
the gate rejects bad output.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stdout + done.stderr
    assert "gate PASS" in done.stdout
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_workloads_match_spec():
    assert sorted(WORKLOADS) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_end_to_end(workload):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke")
    metrics = result_of(done)["metrics"]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {k: v["unit"] for k, v in metrics.items()}
    assert all(v["value"] > 0 for v in metrics.values())
    assert "failure_rate" in done.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_per_layer(workload):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke")
    emitted = result_of(done)["metrics"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {k: v["unit"] for k, v in emitted.items()}
    metrics = {k: v["value"] for k, v in emitted.items()}
    # Layer self times plus the stages' own self times account for the
    # stages' in-process wall time.
    stems = [stem for _, stem in run.STAGES]
    inproc = sum(metrics[f"cli.{s}.inproc_s"] for s in stems)
    accounted = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert accounted == pytest.approx(inproc, rel=1e-9)
    assert (metrics["solver.solve_procrustes.calls"] > 0) == (workload == "noisy-sweep")
    assert metrics["metrics.add_s.calls"] > 0 and metrics["encoding.pixels"] > 0
    assert 0 < metrics["metrics.add_s.useful_ratio"] <= 1
    assert 0 < metrics["metrics.diameter.useful_ratio"] <= 1


def test_self_times_subtract_children():
    spans = [("cli.eval", 0.0, 10.0, -1, "r"), ("metrics.add_selective", 1.0, 5.0, 0, "r"),
             ("metrics.add_s", 2.0, 4.5, 1, "r"), ("formats.read_csv", 6.0, 7.0, 0, "r")]
    assert run.self_times(spans) == [5.0, 1.5, 2.5, 1.0]


def write_csv(path: Path, version: str, header: list[str], rows: list[list[str]]) -> None:
    lines = [f"# {version}", ",".join(header)] + [",".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n")


def test_gate_rejects_inexact_and_missing_rows(tmp_path):
    names = ["scene_00000", "scene_00001"]
    solves_header = ["scene"] + [f"c{i}" for i in range(14)] + ["flag"]
    write_csv(tmp_path / "solves0.csv", "solves/v1", solves_header,
              [[n] + ["0"] * 14 + ["well-posed"] for n in names])
    results_header = ["scene", "add", "add_s", "add_selective", "rotation_error_rad",
                      "translation_error_m", "solver_residual_rms", "flag"]
    write_csv(tmp_path / "results0.csv", "results/v1", results_header,
              [["scene_00000", "0", "0", "0", "1e-12", "1e-15", "0", "ok"],
               ["scene_00001", "0", "0", "0", "2e-6", "1e-15", "0", "ok"]])
    problems = run.clean_solve_problems(tmp_path, names)
    assert len(problems) == 1 and "scene_00001" in problems[0]

    step = run.Step(["eval"], "results", str(tmp_path / "results0.csv"))
    found: list[str] = []
    assert run.step_failures(step, tmp_path, names + ["scene_00002"], found) == 1
    assert found


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "results", "__pycache__"))
    done = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
