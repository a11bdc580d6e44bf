"""Summarise result files of ``run.py`` across seeds.

    python3 bench/summarize.py bench/results/*-trace0.json
    python3 bench/summarize.py --baseline bench/baseline.json bench/results/*.json

For each workload and end-to-end metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
interquartile distance as a share of the median, next to the metric's bound
in ``BENCHMARK.json``.  With ``--baseline`` it also writes those figures,
the output digests of every seed (so a later commit can show its outputs
are byte-identical) and one traced per-layer table per workload to the
given file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(records: list[dict]) -> dict:
    by_workload: dict[str, dict[str, list[float]]] = {}
    digests: dict[str, dict[int, dict]] = {}
    for record in records:
        workload = record["provenance"]["workload"]
        digests.setdefault(workload, {})[record["provenance"]["workload_seed"]] = record["digests"]
        for name, entry in record["metrics"].items():
            by_workload.setdefault(workload, {}).setdefault(name, []).append(entry["value"])
    table = {}
    for workload, metrics in sorted(by_workload.items()):
        rows = {}
        for name, values in metrics.items():
            q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
                          "runs": len(values)}
        table[workload] = {"seeds": sorted(digests[workload]), "metrics": rows,
                           "digests": dict(sorted(digests[workload].items()))}
    return table


def stress_shares(m: dict[str, float]) -> dict[str, float]:
    """Shares of in-process stage time that show what a workload stresses."""
    io = sum(m[f"formats.{op}_{what}.self_s"] for op in ("write", "read") for what in ("encoding", "targets"))
    return {
        "add_s_share_of_eval": m["metrics.add_s.self_s"] / m["cli.eval.inproc_s"],
        "encoding_io_share_of_encode_verify_solve": io / sum(
            m[f"cli.{stem}.inproc_s"] for stem in ("encode", "verify", "solve")),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="+", type=Path)
    parser.add_argument("--baseline", type=Path, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    records = [json.loads(p.read_text()) for p in args.results]
    untraced = [r for r in records if not r["trace"]]
    traced = [r for r in records if r["trace"]]
    table = summarize(untraced)
    worst = 0.0
    for workload, entry in table.items():
        print(f"{workload}  seeds {entry['seeds']}")
        for name, row in entry["metrics"].items():
            bound = bounds[name]
            flag = "" if row["spread"] < bound / 3 else "  <-- above bound/3"
            if name != "setup_s":
                worst = max(worst, row["spread"] / bound)
            print(f"  {name:18s} median {row['median']:10.4f}  q1 {row['q1']:10.4f}  q3 {row['q3']:10.4f}"
                  f"  spread {row['spread']:.3f}  bound {bound}{flag}")
    print(f"largest spread/bound (setup_s excluded): {worst:.2f}")
    if args.baseline:
        first = {}
        for record in traced:
            first.setdefault(record["provenance"]["workload"], record)
        baseline = {
            "provenance": {k: v for k, v in records[0]["provenance"].items()
                           if k not in ("workload", "workload_seed", "config_seed", "scene_count")},
            "run_seconds": spec["run_seconds"],
            "end_to_end": table,
            "per_layer": {
                workload: {"seed": r["provenance"]["workload_seed"], "repetitions": r["repetitions"],
                           "stress_shares": stress_shares({k: v["value"] for k, v in r["metrics"].items()}),
                           "metrics": {k: v["value"] for k, v in r["metrics"].items()}}
                for workload, r in sorted(first.items())
            },
        }
        args.baseline.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
