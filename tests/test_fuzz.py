"""Seeded mutation fuzz of every file reader: a corrupted file either reads
back or raises an ``Offset6DError``, never another exception and never a
numpy warning, so the CLI can report it as one ``Error:`` line."""

import re
import warnings

import numpy as np
import pytest

import offset6d as o6
from offset6d import formats, synth
from offset6d.cli import SOLVES_HEADER, SOLVES_VERSION
from offset6d.encoding import encode_input, encode_targets

from conftest import small_scene_spec

MUTATIONS = 300
SEED = 20261019

# Inserted, or put in place of one word: bytes that are not UTF-8, values a
# float parse accepts but no reader should (or that overflow later), and the
# separators of every text format.
TOKENS = [b"\xff", b"nan", b"inf", b"-inf", b"1e400", b"1e300", b"-1", b"0.5",
          b" ", b"\n", b"\r", b"=", b",", b"#", b'"', b"\x00"]
# Written over 8 bytes aligned to the end of the file, where a table's <f8
# payload ends: values that must not reach an integer cast.
FLOATS = [np.nan, np.inf, -np.inf, 1e300, -1.0, 0.5, 2.0**63]

READERS = {
    "manifest.txt": formats.read_manifest,
    "config.txt": lambda path: formats.pairs_to_spec(formats.read_experiment_config(path), path),
    "pose.txt": formats.read_pose,
    "depth.pgm": formats.read_depth_pgm,
    "mask.pgm": formats.read_mask_pgm,
    "model.ply": formats.read_model,
    "encoding.txt": formats.read_encoding,
    "targets.txt": formats.read_targets,
    "solves.csv": lambda path: formats.read_csv(path, SOLVES_VERSION),
}


def mutate(raw: bytes, rng: np.random.Generator) -> bytes:
    """One random corruption of ``raw``; half of them within its first 64
    bytes, where every format keeps its header."""
    at = int(rng.integers(min(len(raw), 64) + 1 if rng.random() < 0.5 else len(raw) + 1))
    kind = int(rng.integers(6))
    if kind == 0 and at < len(raw):  # flip one bit
        return raw[:at] + bytes([raw[at] ^ (1 << int(rng.integers(8)))]) + raw[at + 1:]
    if kind == 1:  # delete a run of bytes
        return raw[:at] + raw[at + int(rng.integers(1, 9)):]
    if kind == 2:  # truncate
        return raw[:at]
    token = TOKENS[int(rng.integers(len(TOKENS)))]
    if kind == 3:  # insert a token
        return raw[:at] + token + raw[at:]
    if kind == 4:  # replace one word by a token
        words = list(re.finditer(rb"[^\s=,]+", raw))
        word = words[int(rng.integers(len(words)))]
        return raw[: word.start()] + token + raw[word.end():]
    end = len(raw) - 8 * int(rng.integers(1, max(len(raw) // 8, 1) + 1))
    value = np.array([FLOATS[int(rng.integers(len(FLOATS)))]], dtype="<f8").tobytes()
    return raw[:end] + value + raw[end + 8:]


@pytest.fixture(scope="module")
def samples(tmp_path_factory):
    """One valid file per reader, from a rendered box scene."""
    root = tmp_path_factory.mktemp("fuzz")
    spec = small_scene_spec(image_size=(32, 24), intrinsics=o6.CameraIntrinsics(40.0, 40.0, 16.0, 12.0),
                            surface_sample_count=40,
                            translation_dist=o6.BoxVolume(center=(0.0, 0.0, 1.0), half_widths=(0.05, 0.05, 0.05)))
    model = synth.model_for_spec(spec)
    obs = synth.render_scene(spec, 0, model=model).observation
    formats.write_manifest(root / "manifest.txt", spec, 1)
    pairs = [("format", "experiment/v1"), ("scene_count", "1"), *formats.spec_to_pairs(spec)]
    formats.write_keyvalue(root / "config.txt", pairs)
    formats.write_scene_dir(root, obs)
    formats.write_model(root / "model.ply", model)
    ref = o6.make_reference(obs, o6.RefStrategy.MEAN_VISIBLE)
    enc, tgt = encode_input(obs, ref), encode_targets(obs, ref)
    formats.write_encoding(root / "encoding.txt", enc)
    formats.write_targets(root / "targets.txt", tgt)
    report = o6.solve_from_constraints(enc, tgt.delta_abc)
    row = ["scene_00000", *report.pose.rotation.ravel().tolist(), *report.pose.translation.tolist(),
           report.residual_rms, report.point_count, report.condition_flag.value]
    formats.write_csv(root / "solves.csv", SOLVES_VERSION, SOLVES_HEADER, [row])
    for name, read in READERS.items():
        read(root / name)  # every sample reads back as it is
    return root


@pytest.mark.parametrize("name", sorted(READERS))
def test_corrupted_file_raises_only_toolkit_errors(samples, tmp_path, name):
    raw = (samples / name).read_bytes()
    rng = np.random.default_rng([SEED, sorted(READERS).index(name)])
    path = tmp_path / name
    escaped = []
    for i in range(MUTATIONS):
        data = mutate(raw, rng)
        path.write_bytes(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                READERS[name](path)
            except o6.Offset6DError:
                pass
            except Exception as exc:  # what the fuzz looks for
                escaped.append(f"mutation {i}: {exc!r} from {data[:120]!r}")
    assert not escaped, f"{len(escaped)} of {MUTATIONS} escaped:\n" + "\n".join(escaped[:5])
