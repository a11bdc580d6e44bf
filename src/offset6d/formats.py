"""File formats: PLY point sets, PGM images, key/value text, versioned CSV.

Conventions:

  - Model points: ASCII PLY, ``property double`` coordinates in meters,
    written with shortest round-trip decimals so read-back is exact.  A
    ``comment symmetric true|false`` line carries the symmetry flag; any
    other value is an error.
  - Depth: 16-bit binary PGM (P5, maxval 65535, big-endian), value = depth
    in millimeters rounded half-even, 0 = invalid.
  - Mask: 8-bit binary PGM, 255 = foreground, anything else but 0 rejected.
  - Poses and manifests: line-oriented ``key = value`` text with
    repr-precision numbers (exact round trip).  :func:`spec_to_pairs` is the
    scene spec's one text form: the manifest's spec lines and the experiment
    config's keys.  The camera intrinsics are stored there only, once per
    dataset (``dataset/v2``); a scene directory holds no copy.
  - Encodings and targets: the same ``key = value`` text as a header, ending
    in a ``data:`` line, then ``count x len(columns)`` little-endian float64
    values (``<f8``, row-major), like a binary PGM.  ``head encoding.txt``
    still shows the header.  The library keeps every mode in memory; the
    files hold one, geometric channels in the corrected form and
    relative-offset targets, and the writers refuse the others.  Each table
    has one column list: ``u v delta_x delta_y delta_d`` for an encoding
    (``encoding/v3``; its reader derives ``dd0`` and ``t0/dd0`` with
    ``encoding.geometric_products``), ``u v da db dc`` for targets
    (``targets/v2``).
  - Results: CSV with a ``# name/vN`` version line; readers reject unknown
    versions.

Every text artifact (PLY, key/value text, table headers, CSV) is UTF-8,
written by ``str.encode`` and read through one strict decoder (``_lines``):
a byte that is not UTF-8 is a :class:`FormatError` naming the file and its
byte offset, a PLY comment included.  All writers go through a temp file
plus atomic rename, so an interrupted run never leaves a truncated artifact
behind; the file gets the mode a plain ``open`` would give it (``0o666``
less the umask).  Parse errors name the byte offset of the offending data
where it is meaningful.  ``_built`` is the one path from a refused value to
an error naming the file (and the key, through ``_value``), and
``_check_header`` the one rule for a header's fixed values (``format``, the
manifest's ``rng_algorithm``, a table's ``mode`` and ``constraint_form``).
A key/value file's keys are its reader's reads: ``_value`` takes each out,
refusing an empty value, and ``_refuse_unread`` names any key left over.
"""

from __future__ import annotations

import csv
import functools
import io
import os
from itertools import accumulate, chain
from pathlib import Path

import numpy as np

from .encoding import ConstraintForm, GeoEncoding, GeoTargets, InputMode, TargetMode, geometric_products
from .errors import FormatError, InvalidDepthError, ModeMismatchError, Offset6DError
from .geometry import CameraIntrinsics, RigidPose, as_points
from .metrics import ObjectModel
from .record import astuple, fields, replace, same_value
from .refpoint import ReferencePoint, RefStrategy, SceneObservation
from .spec import DEPTH_UNIT, MAX_DEPTH_MM, PRIMITIVES, RNG_ALGORITHM, VOLUMES, FileModel, SceneSpec

# Depth pixels quantized, or table rows read, at once: the conversion's
# temporaries stay this size, whatever the image or table.
_BAND = 4096


# ---------------------------------------------------------------------------
# atomic writing


def _atomic_write_bytes(path, chunks) -> None:
    """Write the iterable ``chunks`` (bytes, or contiguous arrays written as
    their raw bytes) one after another, each taken as it is written, so a
    generator streams; an error it raises leaves no file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    f = open(tmp, "xb")  # O_EXCL, so never another's file; the mode a plain open gives
    try:
        with f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _atomic_write_text(path, text: str) -> None:
    _atomic_write_bytes(path, [text.encode()])


# ---------------------------------------------------------------------------
# PLY


def write_ply(path, points: np.ndarray, symmetric: bool | None = None) -> None:
    pts = as_points(points, "points")
    lines = ["ply", "format ascii 1.0"]
    if symmetric is not None:
        lines.append(f"comment symmetric {'true' if symmetric else 'false'}")
    lines += [
        f"element vertex {pts.shape[0]}",
        "property double x",
        "property double y",
        "property double z",
        "end_header",
    ]
    for p in pts:
        lines.append(f"{format_float(p[0])} {format_float(p[1])} {format_float(p[2])}")
    _atomic_write_text(path, "\n".join(lines) + "\n")


def read_ply(path) -> tuple[np.ndarray, bool | None]:
    """Returns (points, symmetric-flag-or-None).

    A ``comment symmetric`` line must read ``true`` or ``false``.  Every
    error names the file.
    """
    raw = Path(path).read_bytes()
    it = _lines(raw, path)
    off, magic = next(it, (0, ""))
    if magic.strip() != "ply":
        raise FormatError(f"{path}: not a PLY file: first line {magic!r}", offset=off)
    vertex_count = None
    symmetric = None
    properties = []
    data_start = None
    for off, line in it:
        words = line.split()
        if not words:
            continue
        if words[0] == "comment":
            if words[1:2] == ["symmetric"]:
                if words[2:] not in (["true"], ["false"]):
                    raise FormatError(f"{path}: symmetric flag must be true or false, got {line!r}", offset=off)
                symmetric = words[2] == "true"
            continue
        if words[0] == "format":
            if words[1:] != ["ascii", "1.0"]:
                raise FormatError(f"{path}: unsupported PLY format {line!r}", offset=off)
        elif words[0] == "element":
            if words[1:2] != ["vertex"]:
                raise FormatError(f"{path}: unsupported PLY element {line!r}", offset=off)
            try:
                vertex_count = int(words[2])
            except (IndexError, ValueError):
                vertex_count = -1
            if vertex_count < 0:
                raise FormatError(f"{path}: bad element line {line!r}", offset=off)
        elif words[0] == "property":
            properties.append(words[-1])
        elif words[0] == "end_header":
            data_start = it
            break
        else:
            raise FormatError(f"{path}: unexpected header line {line!r}", offset=off)
    if data_start is None or vertex_count is None:
        raise FormatError(f"{path}: PLY header ended without end_header/element vertex", offset=len(raw))
    if properties[:3] != ["x", "y", "z"]:
        raise FormatError(f"{path}: expected x y z properties, got {properties}", offset=0)

    rows = [(off, line) for off, line in data_start if line.strip()]
    if len(rows) < vertex_count:  # checked before the declared count is allocated
        raise FormatError(
            f"{path}: declared {vertex_count} vertices but found {len(rows)}", offset=len(raw)
        )
    points = np.empty((vertex_count, 3))
    for filled, (off, line) in enumerate(rows):
        if filled >= vertex_count:
            raise FormatError(f"{path}: more vertex rows than declared", offset=off)
        words = line.split()
        if len(words) < 3:
            raise FormatError(f"{path}: vertex row needs 3 values, got {line!r}", offset=off)
        try:
            points[filled] = [float(words[0]), float(words[1]), float(words[2])]
        except ValueError:
            raise FormatError(f"{path}: bad vertex row {line!r}", offset=off) from None
    return points, symmetric


def write_model(path, model: ObjectModel) -> None:
    write_ply(path, model.points, symmetric=model.symmetric)


def read_model(path) -> ObjectModel:
    points, symmetric = read_ply(path)
    return _built(path, ObjectModel.from_points, points, bool(symmetric))


# ---------------------------------------------------------------------------
# PGM


def _parse_pgm_header(raw: bytes, path) -> tuple[int, int, int, int]:
    """Returns (width, height, maxval, data_offset)."""
    if raw[:2] != b"P5":
        raise FormatError(f"{path}: not a binary PGM (magic {raw[:2]!r})", offset=0)
    pos = 2
    fields = []
    while len(fields) < 3:
        if pos >= len(raw):
            raise FormatError(f"{path}: truncated PGM header", offset=pos)
        ch = raw[pos : pos + 1]
        if ch == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
        elif ch.isspace():
            pos += 1
        elif ch.isdigit():
            start = pos
            while pos < len(raw) and raw[pos : pos + 1].isdigit():
                pos += 1
            fields.append(int(raw[start:pos]))
        else:
            raise FormatError(f"{path}: unexpected header byte {ch!r}", offset=pos)
    if pos >= len(raw) or not raw[pos : pos + 1].isspace():
        raise FormatError(f"{path}: missing whitespace after maxval", offset=pos)
    pos += 1
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise FormatError(f"{path}: bad dimensions {width}x{height}", offset=2)
    return width, height, maxval, pos


def write_depth_pgm(path, depth_m: np.ndarray) -> None:
    """Quantize meters to whole millimeters (round half-even) and store as
    16-bit PGM, a band of rows at a time.  0 stays 0 (missing); a depth
    outside the 16-bit range, NaN or infinity raises
    :class:`InvalidDepthError` and leaves no file."""
    depth = np.asarray(depth_m, dtype=np.float64)
    if depth.ndim != 2:
        raise ValueError("depth must be 2-D")
    rows = max(1, _BAND // max(1, depth.shape[1]))

    def samples():
        for start in range(0, depth.shape[0], rows):
            mm = depth[start : start + rows] / DEPTH_UNIT
            np.rint(mm, out=mm)
            if not np.all((mm >= 0) & (mm <= MAX_DEPTH_MM)):  # NaN fails both
                raise InvalidDepthError(f"depth out of the PGM range [0, {MAX_DEPTH_MM}] mm")
            yield mm.astype(">u2")

    header = f"P5\n{depth.shape[1]} {depth.shape[0]}\n{MAX_DEPTH_MM}\n".encode()
    _atomic_write_bytes(path, chain([header], samples()))


def _pgm_samples(raw: bytes, path, maxval: int, dtype: str) -> tuple[np.ndarray, int]:
    """The ``(height, width)`` samples of a binary PGM whose maxval must be
    ``maxval``, and the payload's byte offset."""
    width, height, found, pos = _parse_pgm_header(raw, path)
    if found != maxval:
        kind = "depth" if maxval == MAX_DEPTH_MM else "mask"
        raise FormatError(f"{path}: {kind} PGM must have maxval {maxval}, got {found}", offset=2)
    _check_payload(len(raw), pos, width * height * np.dtype(dtype).itemsize, path, "pixel")
    samples = np.frombuffer(raw, dtype=dtype, count=width * height, offset=pos)
    return samples.reshape(height, width), pos


def _check_payload(size: int, pos: int, expected: int, path, what: str) -> None:
    """Exactly ``expected`` bytes must follow offset ``pos`` of a ``size``-byte file."""
    if size - pos < expected:
        raise FormatError(f"{path}: expected {expected} data bytes, found {size - pos}", offset=size)
    if size - pos > expected:
        raise FormatError(f"{path}: trailing bytes after {what} data", offset=pos + expected)


def read_depth_pgm(path) -> np.ndarray:
    mm, _ = _pgm_samples(Path(path).read_bytes(), path, MAX_DEPTH_MM, ">u2")
    return np.multiply(mm, DEPTH_UNIT, dtype=np.float64)  # no float64 copy before the product


def write_mask_pgm(path, mask: np.ndarray) -> None:
    m = np.asarray(mask, dtype=bool)
    if m.ndim != 2:
        raise ValueError("mask must be 2-D")
    header = f"P5\n{m.shape[1]} {m.shape[0]}\n255\n".encode()
    _atomic_write_bytes(path, [header, np.where(m, np.uint8(255), np.uint8(0))])


def read_mask_pgm(path) -> np.ndarray:
    values, pos = _pgm_samples(Path(path).read_bytes(), path, 255, "u1")
    bad = np.flatnonzero((values != 0) & (values != 255))
    if bad.size:
        raise FormatError(
            f"{path}: mask value {values.flat[bad[0]]} is neither 0 nor 255",
            offset=pos + int(bad[0]),
        )
    return values == 255


# ---------------------------------------------------------------------------
# key/value text


def format_float(x: float) -> str:
    return repr(float(x))


def format_floats(values) -> str:
    return " ".join(format_float(v) for v in np.asarray(values, dtype=np.float64).ravel())


def format_keyvalue(pairs: list[tuple[str, str]]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in pairs)


def write_keyvalue(path, pairs: list[tuple[str, str]]) -> None:
    _atomic_write_text(path, format_keyvalue(pairs))


def read_keyvalue(path) -> dict[str, str]:
    return _parse_keyvalue(Path(path).read_bytes(), path)


def _lines(raw: bytes, path):
    """``(byte offset, line)`` per ``\\n``-ended line of ``raw``, without its ``\\n``, decoded once as
    strict UTF-8; a byte that is not UTF-8 raises a :class:`FormatError` naming the file and its offset."""
    try:
        text = raw.decode()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text", offset=exc.start) from None
    offsets = accumulate(map(len, io.BytesIO(raw)), initial=0)  # both split after each "\n" only
    return zip(offsets, (line.removesuffix("\n") for line in io.StringIO(text, newline="\n")))


def _parse_keyvalue(raw: bytes, path) -> dict[str, str]:
    """``key = value`` lines; blank and ``#`` lines are skipped, a repeated
    key is an error."""
    out: dict[str, str] = {}
    for offset, line in _lines(raw, path):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            if "=" not in stripped:
                raise FormatError(f"{path}: expected 'key = value', got {line!r}", offset=offset)
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key in out:
                raise FormatError(f"{path}: duplicate key {key!r}", offset=offset)
            out[key] = value.strip()
    return out


def _value(kv: dict[str, str], path, key: str, parse=str, default: str | None = None):
    """``parse`` of ``key``'s value, taken out of ``kv``, or ``parse(default)``
    when the key is absent.  A missing key, an empty value and a ``ValueError``
    from ``parse`` (a value that does not parse, or that the type it builds
    rejects) raise a :class:`FormatError` naming the file and the key."""
    text = kv.pop(key, default)
    if text is None:
        raise FormatError(f"{path}: missing key {key!r}")
    if not text:
        raise FormatError(f"{path}: key {key!r}: empty value")
    return _built(f"{path}: key {key!r}", parse, text)


def _refuse_unread(kv: dict[str, str], path) -> None:
    """A key ``_value`` did not take out of ``kv`` is one its reader does not know."""
    if kv:
        raise FormatError(f"{path}: unknown keys {sorted(kv)}")


def _floats(n: int):
    """Parser for exactly ``n`` whitespace-separated floats, as a tuple."""

    def parse(text: str) -> tuple[float, ...]:
        parts = text.split()
        if len(parts) != n:
            raise ValueError(f"needs {n} values, got {len(parts)}")
        return tuple(float(p) for p in parts)

    return parse


def _count(text: str, least: int = 0) -> int:
    if not (text.isdecimal() and int(text) >= least):
        raise ValueError(f"must be an integer >= {least}, got {text!r}")
    return int(text)


def _flag(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"must be 'true' or 'false', got {text!r}")
    return text == "true"


def _built(path, make, *args, **kwargs):
    """``make(*args, **kwargs)``, with a ``ValueError`` (a value that does not
    parse or that a type refuses) or a numeric fault raised as a
    :class:`FormatError` naming ``path``; a toolkit error, named where it was
    raised, passes through."""
    try:
        return make(*args, **kwargs)
    except Offset6DError:
        raise
    except (ValueError, FloatingPointError) as exc:
        raise FormatError(f"{path}: {exc}") from None


def _check_header(kv: dict[str, str], path, fixed: dict[str, str]) -> None:
    """Each key of ``fixed`` must read its value there, or a :class:`FormatError` names it."""
    for key, expected in fixed.items():
        found = _value(kv, path, key)
        if found != expected:
            raise FormatError(f"{path}: key {key!r}: expected {expected!r}, found {found!r}")


def write_pose(path, pose: RigidPose) -> None:
    write_keyvalue(
        path,
        [
            ("format", "pose/v1"),
            ("rotation", format_floats(pose.rotation)),
            ("translation", format_floats(pose.translation)),
        ],
    )


def read_pose(path) -> RigidPose:
    kv = read_keyvalue(path)
    _check_header(kv, path, {"format": "pose/v1"})
    rotation = np.reshape(_value(kv, path, "rotation", _floats(9)), (3, 3))
    translation = np.array(_value(kv, path, "translation", _floats(3)))
    _refuse_unread(kv, path)
    return _built(path, RigidPose, rotation, translation)


# ---------------------------------------------------------------------------
# encodings and targets (key/value header + raw <f8 rows)

_DATA_MARK = b"\ndata:\n"


def _ref_pairs(ref: ReferencePoint) -> list[tuple[str, str]]:
    return [
        ("x0", format_float(ref.x0)),
        ("y0", format_float(ref.y0)),
        ("d0", format_float(ref.d0)),
        ("strategy", ref.strategy.value),
    ]


def _ref_from(kv: dict[str, str], path) -> ReferencePoint:
    x0, y0, d0 = (_value(kv, path, key, float) for key in ("x0", "y0", "d0"))
    return _built(path, ReferencePoint, x0=x0, y0=y0, d0=d0, strategy=_value(kv, path, "strategy", RefStrategy))


def _refuse_other_mode(path, fixed: dict[str, str], mode: InputMode | TargetMode) -> None:
    """A table file holds only the ``mode`` its ``fixed`` header names."""
    if mode.value != fixed["mode"]:
        raise ModeMismatchError(f"{path}: the file holds {fixed['mode']!r} mode only, not {mode.value!r}")


def _write_table(
    path, fixed: dict[str, str], pairs: list[tuple[str, str]], columns: tuple[str, ...], rows: np.ndarray
) -> None:
    pairs = [*fixed.items(), *pairs, ("count", str(rows.shape[0])), ("columns", " ".join(columns))]
    header = format_keyvalue(pairs) + "data:\n"
    _atomic_write_bytes(path, [header.encode(), np.ascontiguousarray(rows, dtype="<f8")])


def _read_table(
    path, fixed: dict[str, str], columns: tuple[str, ...]
) -> tuple[dict[str, str], np.ndarray, np.ndarray, np.ndarray]:
    """The header pairs left to read, the int64 pixel columns ``us`` and
    ``vs``, and the C-contiguous ``(count, len(columns) - 2)`` float64 rest,
    read a band of rows at a time.  The header holds the ``fixed`` values,
    ``count`` and exactly ``columns``, which start with ``u v``: whole numbers
    in ``[0, 2**53]``, where float64 holds every integer, checked before the
    cast, so a bad one names its column and byte offset."""
    with open(path, "rb") as f:
        head = f.read(io.DEFAULT_BUFFER_SIZE)
        while (split := head.find(_DATA_MARK)) < 0 and (more := f.read(len(head))):
            head += more
        if split < 0:
            raise FormatError(f"{path}: missing 'data:' section", offset=len(head))
        kv = _parse_keyvalue(head[:split], path)
        _check_header(kv, path, fixed)
        found = _value(kv, path, "columns")
        if found.split() != list(columns):
            raise FormatError(f"{path}: expected columns {' '.join(columns)!r}, found {found!r}")
        count = _value(kv, path, "count", _count)
        pos = split + len(_DATA_MARK)
        _check_payload(os.fstat(f.fileno()).st_size, pos, count * len(columns) * 8, path, "row")
        f.seek(pos)
        pixels = np.empty((2, count), dtype=np.int64)
        rest = np.empty((count, len(columns) - 2))
        band = np.empty((min(count, _BAND), len(columns)), dtype="<f8")
        for start in range(0, count, _BAND):
            rows = band[: count - start]  # the last band may be shorter
            part = slice(start, start + len(rows))
            f.readinto(memoryview(rows).cast("B"))
            uv = rows[:, :2]
            bad = np.flatnonzero(~((uv >= 0) & (uv <= 2.0**53) & (uv == np.trunc(uv))))  # NaN fails all
            if bad.size:
                row, column = divmod(int(bad[0]), 2)
                value, row = float(uv[row, column]), part.start + row
                raise FormatError(
                    f"{path}: column {columns[column]!r}, row {row}: {value!r} is not a pixel index",
                    offset=pos + 8 * (row * len(columns) + column),
                )
            pixels[:, part] = uv.T
            rest[part] = rows[:, 2:]
    return kv, pixels[0], pixels[1], rest


_ENCODING_FIXED = {"format": "encoding/v3", "mode": InputMode.GEOMETRIC.value,
                   "constraint_form": ConstraintForm.CORRECTED.value}
_ENCODING_COLUMNS = ("u", "v", "delta_x", "delta_y", "delta_d")


def write_encoding(path, enc: GeoEncoding) -> None:
    """Write a GEOMETRIC encoding's ``u v delta_x delta_y delta_d``; another
    mode raises :class:`ModeMismatchError`.  ``dd0`` and ``t0_over_dd0`` are
    not stored: they must equal, bit for bit,
    :func:`~offset6d.encoding.geometric_products` of its ``delta_d``, which
    :func:`read_encoding` derives, or this raises ``ValueError``."""
    _refuse_other_mode(path, _ENCODING_FIXED, enc.mode)
    if not all(map(same_value, (enc.dd0, enc.t0_over_dd0), geometric_products(enc.delta_d, enc.ref))):
        raise ValueError(
            f"{path}: dd0 and t0_over_dd0 differ from the products of delta_d and the "
            "reference point; the file keeps only those"
        )
    rows = np.stack([enc.us, enc.vs, enc.delta_x, enc.delta_y, enc.delta_d], axis=1, dtype=np.float64)
    _write_table(path, _ENCODING_FIXED, _ref_pairs(enc.ref), _ENCODING_COLUMNS, rows)


def read_encoding(path) -> tuple[GeoEncoding, ConstraintForm]:
    """The GEOMETRIC encoding in ``path`` and its constraint form, which the
    header fixes as CORRECTED."""
    kv, us, vs, rest = _read_table(path, _ENCODING_FIXED, _ENCODING_COLUMNS)
    ref = _ref_from(kv, path)
    _refuse_unread(kv, path)
    delta_x, delta_y, delta_d = rest.T
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # products past the float range read as inf
        dd0, t0_over_dd0 = geometric_products(delta_d, ref)
    enc = _built(
        path,
        GeoEncoding,
        us=us,
        vs=vs,
        delta_x=delta_x,
        delta_y=delta_y,
        delta_d=delta_d,
        dd0=dd0,
        t0_over_dd0=t0_over_dd0,
        ref=ref,
        mode=InputMode.GEOMETRIC,
    )
    return enc, ConstraintForm.CORRECTED


_TARGET_FIXED = {"format": "targets/v2", "mode": TargetMode.RELATIVE_OFFSET.value}
_TARGET_COLUMNS = ("u", "v", "da", "db", "dc")


def write_targets(path, tgt: GeoTargets) -> None:
    """Write RELATIVE_OFFSET targets; another mode raises :class:`ModeMismatchError`."""
    _refuse_other_mode(path, _TARGET_FIXED, tgt.mode)
    rows = np.concatenate([tgt.us[:, None], tgt.vs[:, None], tgt.delta_abc], axis=1, dtype=np.float64)
    header = [("delta_t", format_floats(tgt.delta_t)), *_ref_pairs(tgt.ref)]
    _write_table(path, _TARGET_FIXED, header, _TARGET_COLUMNS, rows)


def read_targets(path) -> GeoTargets:
    kv, us, vs, delta_abc = _read_table(path, _TARGET_FIXED, _TARGET_COLUMNS)
    ref = _ref_from(kv, path)
    delta_t = np.array(_value(kv, path, "delta_t", _floats(3)))
    _refuse_unread(kv, path)
    return GeoTargets(delta_t=delta_t, delta_abc=delta_abc, mode=TargetMode.RELATIVE_OFFSET, ref=ref, us=us, vs=vs)


# ---------------------------------------------------------------------------
# versioned CSV


def write_csv(path, version: str, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    buf.write(f"# {version}\n")
    minimal = csv.writer(buf, lineterminator="\n")
    # csv quotes a lone "\r" only when it is in the line terminator, so a row
    # holding one is quoted throughout or it would read back wrong.
    quoted = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL)
    for row in [header, *rows]:
        cells = ["" if v is None else (format_float(v) if isinstance(v, float) else v) for v in row]
        misread = any(isinstance(c, str) and "\r" in c for c in cells)
        (quoted if misread else minimal).writerow(cells)
    _atomic_write_text(path, buf.getvalue())


def read_csv(path, version: str) -> tuple[list[str], list[list[str]]]:
    """Header row and data rows of a :func:`write_csv` file.  Only the first
    line, the version, is a comment; the rest is CSV, so a cell may start
    with ``#`` or hold line breaks."""
    lines = _lines(Path(path).read_bytes(), path)
    _, first = next(lines, (0, ""))
    if not first.startswith("# "):
        raise FormatError(f"{path}: missing version line", offset=0)
    found = first[2:].strip()
    if found != version:
        raise FormatError(f"{path}: expected version {version!r}, found {found!r}", offset=0)
    try:
        rows = list(csv.reader(f"{line}\n" for _, line in lines))  # a quoted cell keeps its line breaks
    except csv.Error as exc:  # an unquoted "\r", a field past csv's size limit, a NUL before Python 3.11
        raise FormatError(f"{path}: not CSV: {exc}") from None
    if not rows:
        raise FormatError(f"{path}: missing CSV header row")
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# scene directories


def write_scene_dir(scene_dir, obs: SceneObservation) -> None:
    """``depth.pgm``, ``mask.pgm`` and ``pose.txt``; the camera is the manifest's."""
    scene_dir = Path(scene_dir)
    scene_dir.mkdir(parents=True, exist_ok=True)
    write_depth_pgm(scene_dir / "depth.pgm", obs.depth)
    write_mask_pgm(scene_dir / "mask.pgm", obs.mask)
    if obs.gt_pose is None:
        (scene_dir / "pose.txt").unlink(missing_ok=True)
    else:
        write_pose(scene_dir / "pose.txt", obs.gt_pose)


def read_scene_dir(scene_dir, spec: SceneSpec) -> SceneObservation:
    """The observation in ``scene_dir``, seen through the camera of ``spec``
    (the manifest's); ``gt_pose`` is None when there is no ``pose.txt``.  A
    depth map of another size than the spec's image raises a
    :class:`FormatError` naming ``depth.pgm``."""
    scene_dir = Path(scene_dir)
    depth_path = scene_dir / "depth.pgm"
    depth = read_depth_pgm(depth_path)
    width, height = spec.image_size
    if depth.shape != (height, width):
        raise FormatError(f"{depth_path}: {depth.shape[1]}x{depth.shape[0]} image, but the manifest's is {width}x{height}")
    mask = read_mask_pgm(scene_dir / "mask.pgm")
    depth.flags.writeable = mask.flags.writeable = False  # fresh arrays, handed over rather than copied
    gt_pose = read_scene_pose(scene_dir) if (scene_dir / "pose.txt").exists() else None
    # The mask is checked against the depth map, so a size mismatch names it.
    return _built(scene_dir / "mask.pgm", SceneObservation, depth=depth, mask=mask, intrinsics=spec.intrinsics, gt_pose=gt_pose)


def read_scene_pose(scene_dir) -> RigidPose:
    """The ground-truth pose in ``scene_dir``'s ``pose.txt``; without one, an
    ``OSError`` naming the file."""
    return read_pose(Path(scene_dir) / "pose.txt")


def read_encoded_scene(enc_dir) -> tuple[GeoEncoding, GeoTargets]:
    """One scene's encoding and targets, which must share pixels and reference."""
    enc_dir = Path(enc_dir)
    enc, _ = read_encoding(enc_dir / "encoding.txt")
    tgt = read_targets(enc_dir / "targets.txt")
    if tgt.ref != enc.ref or not (np.array_equal(tgt.us, enc.us) and np.array_equal(tgt.vs, enc.vs)):
        raise FormatError(f"{enc_dir}: targets.txt and encoding.txt differ in pixels or reference point")
    return enc, replace(tgt, us=enc.us, vs=enc.vs)  # one copy of the pixel indices


def scene_name(index: int) -> str:
    return f"scene_{index:05d}"


# ---------------------------------------------------------------------------
# experiment configuration / dataset manifest: the scene spec's text form

# Scenes drawn by another generator are other scenes.
_MANIFEST_FIXED = {"format": "dataset/v2", "rng_algorithm": RNG_ALGORITHM}

# ``model_params`` lists a primitive's fields in order; a volume's fields are
# stored under ``translation_<field>``.
_PRIMITIVES = {cls.config_name: cls for cls in PRIMITIVES}
_VOLUMES = {cls.config_name: cls for cls in VOLUMES}


def spec_to_pairs(spec: SceneSpec) -> list[tuple[str, str]]:
    """The spec's one text form: the manifest's spec lines and the experiment
    config's keys.  :func:`pairs_to_spec` reads it back exactly."""
    pairs: list[tuple[str, str]] = [
        ("seed", str(spec.seed)),
        ("image_width", str(spec.image_size[0])),
        ("image_height", str(spec.image_size[1])),
        ("fx", format_float(spec.intrinsics.fx)),
        ("fy", format_float(spec.intrinsics.fy)),
        ("cx", format_float(spec.intrinsics.cx)),
        ("cy", format_float(spec.intrinsics.cy)),
        ("surface_sample_count", str(spec.surface_sample_count)),
        ("rotation_dist", spec.rotation_dist),
    ]
    kind = spec.model_kind
    pairs.append(("model_kind", kind.config_name))
    if isinstance(kind, FileModel):
        pairs += [("model_path", kind.path), ("model_symmetric", "true" if kind.symmetric else "false")]
    else:
        pairs.append(("model_params", format_floats(astuple(kind))))
    dist = spec.translation_dist
    pairs.append(("translation_dist", dist.config_name))
    pairs += [(f"translation_{name}", format_floats(getattr(dist, name))) for name in fields(dist)]
    pairs += [
        ("depth_noise_sigma", format_float(spec.depth_noise_sigma)),
        ("pixel_dropout", format_float(spec.pixel_dropout)),
    ]
    if spec.occlusion_fraction is not None:
        pairs.append(("occlusion_fraction", format_float(spec.occlusion_fraction)))
    return pairs


def pairs_to_spec(kv: dict[str, str], path="<config>") -> SceneSpec:
    """The spec of an experiment config or a manifest, read from a copy of
    ``kv``.  A missing, empty, malformed or unread key (another model kind's,
    say) and a value the spec types reject raise a :class:`FormatError`
    naming the file (and the key, where one value is at fault)."""
    kv = dict(kv)
    value = functools.partial(_value, kv, path)

    kind_name = value("model_kind")
    if kind_name == FileModel.config_name:
        kind = FileModel(value("model_path"), value("model_symmetric", _flag, "false"))
    elif kind_name in _PRIMITIVES:
        primitive = _PRIMITIVES[kind_name]
        params = _floats(len(fields(primitive)))
        kind = value("model_params", lambda text: primitive(*params(text)))
    else:
        raise FormatError(f"{path}: unknown model_kind {kind_name!r}")

    dist_name = value("translation_dist")
    if dist_name not in _VOLUMES:
        raise FormatError(f"{path}: unknown translation_dist {dist_name!r}")
    volume = _VOLUMES[dist_name]
    location, spread = (f"translation_{name}" for name in fields(volume))
    # The spread is checked beside a zero location, then the location beside
    # the checked spread, so an error names the key at fault.
    spread_values = value(spread, lambda text: astuple(volume((0.0,) * 3, _floats(3)(text)))[1])
    dist = value(location, lambda text: volume(_floats(3)(text), spread_values))

    # A check across keys (focal lengths, image size, noise ranges) names the file.
    spec = _built(path, lambda: SceneSpec(
        model_kind=kind,
        surface_sample_count=value("surface_sample_count", int),
        image_size=(value("image_width", int), value("image_height", int)),
        intrinsics=CameraIntrinsics(*(value(key, float) for key in ("fx", "fy", "cx", "cy"))),
        translation_dist=dist,
        seed=value("seed", int),
        rotation_dist=value("rotation_dist", default="uniform-so3"),
        depth_noise_sigma=value("depth_noise_sigma", float, "0"),
        pixel_dropout=value("pixel_dropout", float, "0"),
        occlusion_fraction=value("occlusion_fraction", float) if "occlusion_fraction" in kv else None,
    ))
    _refuse_unread(kv, path)
    return spec


def write_manifest(path, spec: SceneSpec, scene_count: int) -> None:
    pairs = [("format", _MANIFEST_FIXED["format"]), ("scene_count", str(scene_count)),
             ("rng_algorithm", _MANIFEST_FIXED["rng_algorithm"])]
    pairs += spec_to_pairs(spec)
    write_keyvalue(path, pairs)


def read_manifest(path) -> tuple[SceneSpec, int]:
    """Returns (spec, scene_count); the count is positive."""
    kv = read_keyvalue(path)
    _check_header(kv, path, _MANIFEST_FIXED)
    count = _value(kv, path, "scene_count", functools.partial(_count, least=1))
    return pairs_to_spec(kv, path), count


def read_experiment_config(path) -> tuple[SceneSpec, int, Path | None]:
    """Returns (spec, scene_count, output_dir) like :func:`read_manifest`, with
    ``output_dir`` None when absent.  An unknown, missing, empty or malformed
    key raises a :class:`FormatError` naming the config (and the key)."""
    kv = read_keyvalue(path)
    _check_header(kv, path, {"format": "experiment/v1"})
    count = _value(kv, path, "scene_count", functools.partial(_count, least=1))
    output_dir = _value(kv, path, "output_dir", Path) if "output_dir" in kv else None
    return pairs_to_spec(kv, path), count, output_dir
