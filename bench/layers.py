"""The layers the traced run measures, and the per-layer metric names.

Layers are named after the ``offset6d`` modules.  Each listed function is
wrapped in the stage process (see ``stage.py``); each gets a
``<layer>.<function>.calls`` count and a ``<layer>.<function>.self_s``
self time, the span's duration minus the time its child spans cover.
"""

from __future__ import annotations

LAYER_FUNCTIONS: dict[str, tuple[str, ...]] = {
    "synth": ("render_scene", "model_for_spec", "distribution_report"),
    "formats": (
        "write_scene_dir", "read_scene_dir", "write_encoding", "read_encoding",
        "write_targets", "read_targets", "write_csv", "read_csv",
        "write_model", "read_model", "read_manifest",
    ),
    "refpoint": ("make_reference",),
    "encoding": ("encode_input", "encode_targets", "constraint_residual"),
    "solver": ("solve_from_constraints", "solve_procrustes", "rotation_geodesic_error"),
    "metrics": (
        "add", "add_s", "add_selective", "decompose_add_loss",
        "weighted_add_loss", "max_pairwise_distance",
    ),
    "geometry": ("backproject_pixels", "transform_points", "nearest_rotation"),
}

# Functions whose per-call latency (inclusive span duration) is reported as
# p50/p90 in milliseconds.
PERCENTILE_SPANS = (
    "synth.render_scene", "formats.write_encoding", "formats.read_encoding",
    "solver.solve_from_constraints", "metrics.add_s",
)

# CLI stages in pipeline order: (command name, metric stem).
STAGES = (
    ("synth-gen", "synth_gen"),
    ("encode", "encode"),
    ("verify", "verify"),
    ("solve", "solve"),
    ("eval", "eval"),
    ("dist-report", "dist_report"),
    ("loss-decompose", "loss_decompose"),
)
STAGE_STEM = dict(STAGES)

# Counts that repeat exactly for a given workload and seed.
COUNT_METRICS = {
    "encoding.pixels": "count",
    "formats.encoding_bytes": "bytes",
    "formats.dataset_bytes": "bytes",
    "solver.degenerate": "count",
    "metrics.add_s.point_pairs": "count",
    "metrics.add_s.useful_ratio": "ratio",
    "metrics.diameter.useful_ratio": "ratio",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name, in report order, with its unit."""
    units: dict[str, str] = {}
    for layer, fns in LAYER_FUNCTIONS.items():
        for fn in fns:
            units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.self_s"] = "s"
    for name in PERCENTILE_SPANS:
        units[f"{name}.p50_ms"] = "ms"
        units[f"{name}.p90_ms"] = "ms"
    for _, stem in STAGES:
        units[f"cli.{stem}.self_s"] = "s"
        units[f"cli.{stem}.inproc_s"] = "s"
    units["cli.import_s"] = "s"
    units.update(COUNT_METRICS)
    units["trace.overhead_s"] = "s"
    return units
