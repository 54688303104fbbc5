"""Series containers, instance normalization, window sampling, trimming,
metrics, CSV ingestion, and the weight initializer, JSON writer and
checked JSON reader that every artifact shares.

Everything here is a pure function over numpy arrays. A univariate series
is a 1-D float64 array; a multivariate series is a (T, C) float64 array
wrapped in MultivariateSeries together with optional channel names.
"""

from __future__ import annotations

import csv
import io
import json
import math
import reprlib
import sys
import types
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

ZERO_STD_THRESHOLD = 1e-8


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


def as_series(x) -> np.ndarray:
    """Validate a univariate series: 1-D, nonempty, finite float64."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"expected 1-D series, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError("empty series")
    if not np.isfinite(arr).all():
        raise ValueError("non-finite input")
    return arr


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
    """Instance-normalize one series; see `normalize_rows`. Values whose
    mean or std overflow float64 raise a ValueError."""
    norm, mu, sigma = normalize_rows(as_series(x))
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
    seeded generator in `shapes` order; fan_in is the last dimension."""
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


def _has_kind(value, kind) -> bool:
    if isinstance(kind, types.GenericAlias):  # list[int], list[str] or list[dict]
        return isinstance(value, (list, tuple)) and all(_has_kind(item, kind.__args__[0]) for item in value)
    if kind is float:  # an int or a float that a finite float64 holds; NaN fails the comparison
        return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
    return isinstance(value, kind) and not (kind is int and isinstance(value, bool))


def check_fields(record: dict, fields: dict, where: str) -> None:
    """Raise a ValueError "{where} 'name' ..." for the first field of
    `fields` ({name: kind in JSON_KINDS}) that `record` lacks or holds with
    another kind. A bool is not an integer or a number, a float kind takes
    a finite int or float, and a list kind also takes a tuple."""
    for name, kind in fields.items():
        if name not in record:
            raise ValueError(f"{where} {name!r} is missing")
        if not _has_kind(record[name], kind):
            raise ValueError(f"{where} {name!r} must be {JSON_KINDS[kind]}, got {reprlib.repr(record[name])}")


# the largest array size, length, count or epoch count that a config or
# argument takes; a larger one is an error naming it, where numpy would
# raise an error of its own for an array it cannot address, or a run
# would not end
MAX_SIZE = 2**20


def check_sizes(record: dict, names, where: str) -> None:
    """Raise a ValueError "{where} 'name' must be at most MAX_SIZE" for the
    first of `names` whose integer in `record` is larger."""
    for name in names:
        if record[name] > MAX_SIZE:
            raise ValueError(f"{where} {name!r} must be at most {MAX_SIZE}, got {record[name]}")


def check_unique(names, what: str) -> None:
    """Raise a ValueError "duplicate {what} 'x'" for the first name that
    `names` repeats."""
    seen = set()
    for name in names:
        if name in seen:
            raise ValueError(f"duplicate {what} {name!r}")
        seen.add(name)


def read_artifact(blob: bytes, kind: str, version: int | None, fields: dict) -> dict:
    """The JSON object held in `blob`, a `kind` file: its `format_version`
    must be `version` (unless that is None) and its `fields` pass
    `check_fields`. A ValueError names `kind` otherwise."""
    try:
        payload = json.loads(blob)
    except (ValueError, RecursionError) as exc:  # incl. JSONDecodeError, UnicodeDecodeError
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


def trim_to_last(x, n: int) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.shape[0] < n:
        raise ValueError(f"insufficient history: have {arr.shape[0]}, need {n}")
    return arr[arr.shape[0] - n:]


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


def write_csv(path, header: list, rows) -> None:
    """Write a UTF-8 CSV: the header, then each row. Every float cell is
    written as `repr(float(v))`, the shortest text that `load_csv` parses
    back to the same float."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)


def load_csv(path) -> Dataset:
    """Load a benchmark-style CSV: a header row, then rows whose first
    column is an index and the rest numeric.

    Errors start with the file name and name the 1-based row (and column
    where known); text that is not UTF-8 is named by its line.
    """
    p = Path(path)
    rows = list(csv.reader(io.StringIO(read_text(p), newline="")))
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
