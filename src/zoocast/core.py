"""Series containers, instance normalization, window sampling, trimming,
metrics, CSV ingestion, and the weight initializer, JSON writer (stdlib
`json`), checked JSON reader (`orjson`) and file writer that every
artifact shares.

Everything here is a pure function over numpy arrays. A univariate series
is a 1-D float64 array; a multivariate series is a (T, C) float64 array
wrapped in MultivariateSeries together with optional channel names.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import reprlib
import stat
import sys
import types
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import orjson
from numpy.lib.stride_tricks import sliding_window_view

ZERO_STD_THRESHOLD = 1e-8
LOOK_BACK = 36  # the default window length of the extractor, the models and the harness
BLOCK_HORIZON = 12  # the default horizon of one forecaster block


@dataclass(frozen=True)
class NormStats:
    """Per-window mean/std; std is the value actually used for division."""

    mean: float
    std: float

    def __post_init__(self):
        if not (self.std > 0):
            raise ValueError("std must be positive (fallback applied before storage)")


@dataclass(frozen=True)
class MultivariateSeries:
    """A (T, C) matrix of observations, channels along columns."""

    values: np.ndarray
    channel_names: tuple = ()

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"expected (T, C) with T, C >= 1, got shape {arr.shape}")
        # one memory layout, so every window of a series is summed in the same order
        arr = np.ascontiguousarray(arr)
        if not np.isfinite(arr).all():
            raise ValueError("non-finite input")
        if self.channel_names and len(self.channel_names) != arr.shape[1]:
            raise ValueError("channel_names length does not match channel count")
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "channel_names", tuple(self.channel_names))

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def num_channels(self) -> int:
        return self.values.shape[1]

    def channel(self, c: int) -> np.ndarray:
        return self.values[:, c]


@dataclass(frozen=True)
class Dataset:
    series: MultivariateSeries
    name: str


def normalize_rows(x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Instance-normalize every row (last axis) of an array of any rank
    with population statistics; returns (normalized, means, stds).

    A row with population std below 1e-8 keeps its values centered but
    divides by 1.0, and that fallback std is what gets returned.

    The sums are the ones `ndarray.mean` and `ndarray.std` compute, without
    their per-call overhead, so a row's statistics equal theirs bit for bit.
    Rows are reduced C-contiguous: numpy sums a strided axis in another
    order, which would change the last bit.
    """
    arr = np.ascontiguousarray(x, dtype=np.float64)
    n = arr.shape[-1]
    mu = arr.sum(axis=-1, keepdims=True) / n
    centered = arr - mu
    sigma = np.sqrt((centered * centered).sum(axis=-1, keepdims=True) / n)  # population std (ddof=0)
    sigma[sigma < ZERO_STD_THRESHOLD] = 1.0
    return centered / sigma, mu[..., 0], sigma[..., 0]


def checked_normalize_rows(x, where) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`normalize_rows` without numpy warnings; a ValueError names `where`
    when a row's values overflow its mean or std. `where` is a string, or
    a function that names the first such row from its (flat) index."""
    with np.errstate(over="ignore", invalid="ignore"):
        normalized, mu, sigma = normalize_rows(x)
    overflowed = ~np.isfinite(sigma)  # an overflowed mean leaves a non-finite std too
    if overflowed.any():
        name = where(int(np.argmax(overflowed))) if callable(where) else where
        raise ValueError(f"{name}: values overflow instance normalization")
    return normalized, mu, sigma


def normalize(x) -> tuple[np.ndarray, NormStats]:
    """Instance-normalize one univariate series, a 1-D, nonempty, finite
    float64 array; see `normalize_rows`. Values whose mean or std overflow
    float64 raise a ValueError."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected 1-D series, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("empty series")
    if not np.isfinite(arr).all():
        raise ValueError("non-finite input")
    norm, mu, sigma = normalize_rows(arr)
    if not math.isfinite(sigma):  # an overflowed mean leaves a non-finite std too
        raise ValueError("values overflow instance normalization")
    return norm, NormStats(mean=float(mu), std=float(sigma))


def sample_windows(rng: np.random.Generator, data: Dataset, length: int, count: int) -> np.ndarray:
    """(count, length) instance-normalized windows at random places.

    Two draws from `rng`: every window's channel, then every window's
    start; callers that share a generator rely on that order.
    """
    series = data.series
    if series.length < length:
        raise ValueError(f"dataset {data.name!r} has no window of length {length}")
    channels = rng.integers(series.num_channels, size=count)
    starts = rng.integers(series.length - length + 1, size=count)
    windows = sliding_window_view(series.values, length, axis=0)  # (starts, C, length)
    return checked_normalize_rows(windows[starts, channels], f"dataset {data.name!r}")[0]


def denormalize(x_norm, stats: NormStats) -> np.ndarray:
    arr = np.asarray(x_norm, dtype=np.float64)
    return stats.std * arr + stats.mean


def init_uniform(shapes: dict, seed: int) -> dict:
    """Uniform [-1/sqrt(fan_in), 1/sqrt(fan_in)] tensors drawn from one
    seeded generator in `shapes` order; fan_in is the last dimension. A
    tensor of more than MAX_SIZE values raises, before any is drawn."""
    for name, shape in shapes.items():
        if math.prod(shape) > MAX_SIZE:
            raise ValueError(f"weight tensor {name!r} of shape {shape} would hold more than {MAX_SIZE} values")
    rng = np.random.default_rng(seed)
    weights = {}
    for name, shape in shapes.items():
        bound = 1.0 / np.sqrt(shape[-1])
        weights[name] = rng.uniform(-bound, bound, size=shape)
    return weights


def canonical_json(payload) -> bytes:
    """Byte-stable JSON: sorted keys, no whitespace, UTF-8; a numpy array
    is written as its nested lists."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=np.ndarray.tolist).encode("utf-8")


# the JSON kinds `check_fields` knows, as its messages name them
JSON_KINDS = {int: "an integer", float: "a finite number", str: "a string", list: "a list", dict: "an object",
              list[int]: "a list of integers", list[str]: "a list of strings", list[dict]: "a list of objects"}

# the largest array size, length or epoch count that a config or argument
# takes, and the most values a weight tensor holds: past it numpy raises
# its own error for an array it cannot address, or a run would not end
MAX_SIZE = 2**20


@dataclass(frozen=True)
class Range:
    """A JSON kind whose values (a nonempty list's items) lie in [low, high], or in (low, high) if `open`."""

    kind: object
    low: float
    high: float = math.inf
    open: bool = False

    def broken_bound(self, value) -> str | None:
        """The bound that `value` breaks, as in ">= 1", or None."""
        if self.open and not self.low < value < self.high:
            return f"> {self.low}" if self.high == math.inf else f"in ({self.low}, {self.high})"
        if not self.open and not self.low <= value <= self.high:
            return f">= {self.low}" if value < self.low else f"at most {self.high}"
        return None


SIZE = Range(int, 1, MAX_SIZE)  # an array size, length or epoch count
COUNT = Range(int, 1)
SEED = Range(int, 0)
POSITIVE = Range(float, 0, open=True)


def _has_kind(value, kind) -> bool:
    if isinstance(kind, types.GenericAlias):  # list[int], list[str] or list[dict]
        return isinstance(value, (list, tuple)) and all(_has_kind(item, kind.__args__[0]) for item in value)
    if kind is float:  # an int or a float that a finite float64 holds; NaN fails the comparison
        return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


def check_fields(record: dict, fields: dict, where: str) -> None:
    """Raise a ValueError "{where} 'name' must be ..., got value" for the
    first field of `fields` that `record` lacks or holds with another kind
    or out of range. A kind is one of JSON_KINDS or a `Range` of one, which
    bounds a list's items and takes no empty list. A bool is not an integer
    or a number, a float kind takes a finite int or float, and a list kind
    also takes a tuple."""
    for name, kind in fields.items():
        if name not in record:
            raise ValueError(f"{where} {name!r} is missing")
        value, json_kind = record[name], kind.kind if isinstance(kind, Range) else kind
        if not _has_kind(value, json_kind):
            raise ValueError(f"{where} {name!r} must be {JSON_KINDS[json_kind]}, got {reprlib.repr(value)}")
        if isinstance(kind, Range):
            items = value if isinstance(json_kind, types.GenericAlias) else (value,)
            if not items:
                raise ValueError(f"{where} {name!r} must be nonempty")
            for item in items:
                bound = kind.broken_bound(item)
                if bound:
                    raise ValueError(f"{where} {name!r} must be {bound}, got {reprlib.repr(item)}")


def check_unique(names, what: str) -> None:
    """Raise a ValueError "duplicate {what} 'x'" for the first name that
    `names` repeats."""
    seen = set()
    for name in names:
        if name in seen:
            raise ValueError(f"duplicate {what} {name!r}")
        seen.add(name)


# the deepest nesting of arrays and objects that `read_artifact` decodes;
# artifacts nest at most 4 deep, and orjson has no limit of its own: an
# object nested 100,000 deep overflows its stack and kills the process
MAX_NESTING = 64
# an opening bracket becomes 1 and a closing one -1 (as int8), a quote stays; every other byte is deleted
_MARKS = bytes.maketrans(b"[{]}", b"\x01\x01\xff\xff")
_NOT_MARKS = bytes(byte for byte in range(256) if byte not in b'[{]}"')
# `_nesting` translates a blob in pieces of this many bytes: one temporary
# as large as a 195 KB extractor file raised the peak RSS of perfbench's
# forecast-wide run by 1.6 MB in 12 of 13 runs (glibc malloc), 64 KB
# pieces in 1 of 17
_PIECE = 1 << 16


def _nesting(blob: bytes) -> int:
    """The deepest nesting of brackets in `blob` outside its strings. Once
    the escaped backslashes and quotes are gone, every other quote opens
    a string, so the even pieces between quotes lie outside them; any
    prefix that a JSON parser accepts nests exactly this deep."""
    if b"\\" in blob:
        blob = blob.replace(b"\\\\", b"").replace(b'\\"', b"")
    marks = b"".join(blob[start:start + _PIECE].translate(_MARKS, _NOT_MARKS) for start in range(0, len(blob), _PIECE))
    steps = np.frombuffer(b"".join(marks.split(b'"')[::2]), dtype=np.int8)
    return int(steps.cumsum(dtype=np.int64).max(initial=0))


def read_artifact(blob: bytes, kind: str, version: int | None, fields: dict) -> dict:
    """The JSON object held in `blob`, a `kind` file: its `format_version`
    must be `version` (unless that is None) and its `fields` pass
    `check_fields`. A ValueError names `kind` otherwise.

    The JSON must be strict: UTF-8 with no byte order mark, no lone
    surrogate, no NaN or Infinity literal, no number beyond float64's
    range, and no nesting deeper than MAX_NESTING. An integer beyond the
    64-bit range decodes as a float."""
    if _nesting(blob) > MAX_NESTING:
        raise ValueError(f"malformed {kind} file: nested deeper than {MAX_NESTING}")
    try:
        payload = orjson.loads(blob)
    except orjson.JSONDecodeError as exc:  # also for bytes that are not UTF-8
        raise ValueError(f"malformed {kind} file: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"malformed {kind} file: holds a {type(payload).__name__}, not an object")
    found = payload.get("format_version")
    if version is not None and not (type(found) is int and found == version):
        raise ValueError(f"unsupported {kind} format_version {found!r}")
    check_fields(payload, fields, f"{kind} file field")
    return payload


def as_float_array(raw, what: str) -> np.ndarray:
    try:
        return np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{what} is not numeric: {exc}") from None


def checked_tensors(raw, shapes: dict, kind: str) -> dict:
    """float64 arrays for `raw`, which must hold exactly the tensors named
    in `shapes`, each of its shape and finite."""
    if not isinstance(raw, dict):
        raise ValueError(f"{kind} tensors {type(raw).__name__} do not match {sorted(shapes)}")
    missing, extra = sorted(set(shapes) - set(raw)), sorted(set(raw) - set(shapes))
    if missing or extra:
        raise ValueError(f"{kind} tensors do not match {sorted(shapes)}: missing {missing}, unexpected {extra}")
    tensors = {}
    for name, shape in shapes.items():
        arr = as_float_array(raw[name], f"{kind} tensor {name}")
        if arr.shape != shape:
            raise ValueError(f"{kind} tensor {name} has shape {arr.shape}, expected {shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"{kind} tensor {name} contains non-finite values")
        tensors[name] = arr
    return tensors


def _as_window_pair(truth, pred) -> tuple[np.ndarray, np.ndarray]:
    """(H, C) or (W, H, C) float64 arrays of truth and pred; an (H,) window
    is one channel."""
    t = truth.values if isinstance(truth, MultivariateSeries) else np.asarray(truth, dtype=np.float64)
    p = pred.values if isinstance(pred, MultivariateSeries) else np.asarray(pred, dtype=np.float64)
    if t.ndim == 1:
        t = t[:, None]
    if p.ndim == 1:
        p = p[:, None]
    if t.shape != p.shape:
        raise ValueError(f"shape mismatch: truth {t.shape} vs pred {p.shape}")
    return t, p


def _per_window(value):
    """A metric's value: a float for one (H,) or (H, C) window, the (W,)
    array for a (W, H, C) stack. Metrics reduce over the last two axes
    only, so each stacked value equals its window's own call bit for bit."""
    return float(value) if np.ndim(value) == 0 else value


def mse(truth, pred):
    """Mean squared error over all H*C entries of a window.

    A window's squares are summed in memory order, the sum np.mean takes,
    also when the window is a transposed (F-ordered) view.
    """
    t, p = _as_window_pair(truth, pred)
    d = t - p
    return _per_window((d * d).sum(axis=(-2, -1)) / (d.shape[-2] * d.shape[-1]))


def smape(truth, pred):
    """(200/H) * sum |Y - Yhat| / (|Y| + |Yhat|), averaged over channels.

    Terms with a near-zero denominator contribute 0.
    """
    t, p = _as_window_pair(truth, pred)
    denom = np.abs(t) + np.abs(p)
    terms = np.where(denom < ZERO_STD_THRESHOLD, 0.0, np.abs(t - p) / np.where(denom < ZERO_STD_THRESHOLD, 1.0, denom))
    return _per_window(np.mean(np.sum(terms, axis=-2), axis=-1) * 200.0 / t.shape[-2])


def mape(truth, pred):
    """(100/H) * sum |Y - Yhat| / |Y| averaged over channels.

    Entries with |Y| below 1e-8 are skipped, and so is a channel left with
    none; a window whose truth is all zero is undefined.
    """
    t, p = _as_window_pair(truth, pred)
    keep = np.abs(t) >= ZERO_STD_THRESHOLD
    if not keep.any(axis=(-2, -1)).all():
        raise ValueError("undefined MAPE: all truth entries are zero")
    ratio = np.where(keep, np.abs(t - p) / np.where(keep, np.abs(t), 1.0), 0.0)
    count = keep.sum(axis=-2)
    per_channel = 100.0 * ratio.sum(axis=-2) / np.maximum(count, 1)
    return _per_window(per_channel.sum(axis=-1) / (count > 0).sum(axis=-1))


def read_text(path) -> str:
    """The UTF-8 text of a file; text that is not UTF-8 raises a ValueError
    naming the file and the line."""
    p = Path(path)
    blob = p.read_bytes()
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = blob.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{p.name}: line {line}: not UTF-8 text (byte 0x{blob[exc.start]:02x})") from None


def write_file(path, blob: bytes) -> None:
    """Make `blob` the whole content of the file at `path`, as
    `Path.write_bytes` does, but without emptying an existing regular file
    first: it is overwritten from offset 0 and then cut at the length
    written, so a failed write leaves a prefix of `blob`, never old bytes
    after new ones. The file keeps its inode, mode and hard links, and a
    symlink is written through. A missing file is created as
    `open(path, "wb")` creates it; a device or a FIFO is written as it is,
    and a directory raises IsADirectoryError."""
    try:
        fd = os.open(path, os.O_WRONLY)  # neither O_CREAT nor O_TRUNC
        cut = stat.S_ISREG(os.fstat(fd).st_mode)
    except FileNotFoundError:
        fd, cut = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666), False
    try:
        rest = memoryview(blob)
        try:
            while rest:
                rest = rest[os.write(fd, rest):]
        finally:
            if cut:
                os.ftruncate(fd, len(blob) - len(rest))
    finally:
        os.close(fd)


def write_csv(path, header: list, rows) -> None:
    """Write a UTF-8 CSV with one `write_file`: the header, then each row,
    each line ended by CRLF. Every float cell is written as
    `repr(float(v))`, the shortest text that `load_csv` parses back to the
    same float."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)
    write_file(path, text.getvalue().encode("utf-8"))


def load_csv(path) -> Dataset:
    """Load a benchmark-style CSV: a header row, then rows whose first
    column is an index and the rest numeric.

    Errors start with the file name and name the 1-based row (and column
    where known); text that is not UTF-8, or that the csv reader refuses
    (a cell over `csv.field_size_limit()`), is named by its line.
    """
    p = Path(path)
    reader = csv.reader(io.StringIO(read_text(p), newline=""))
    try:
        rows = list(reader)
    except csv.Error as exc:  # not a ValueError
        raise ValueError(f"{p.name}: line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError(f"{p.name}: empty file")
    width = len(rows[0])
    if width < 2:
        raise ValueError(f"{p.name}: row 1: need at least 2 columns, got {width}")
    data_rows = rows[1:]
    if not data_rows:
        raise ValueError(f"{p.name}: no data rows")
    out = np.empty((len(data_rows), width - 1), dtype=np.float64)
    for i, row in enumerate(data_rows):
        rownum = i + 2
        if len(row) != width:
            raise ValueError(f"{p.name}: row {rownum}: expected {width} columns, got {len(row)}")
        for j, cell in enumerate(row[1:], start=2):
            try:
                v = float(cell)
            except ValueError:
                raise ValueError(f"{p.name}: row {rownum}, column {j}: non-numeric cell {cell!r}") from None
            if not math.isfinite(v):
                raise ValueError(f"{p.name}: row {rownum}, column {j}: non-finite cell {cell!r}")
            out[i, j - 2] = v
    names = tuple(h.strip() for h in rows[0][1:])
    return Dataset(series=MultivariateSeries(out, channel_names=names), name=p.stem)
