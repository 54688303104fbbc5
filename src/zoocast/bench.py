"""Synthetic data families and the zero-shot evaluation harness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import forecasters, fusion
from .core import Dataset, MultivariateSeries, canonical_json, check_fields, checked_normalize_rows, mape, mse, smape

SYNTH_KINDS = ("sine", "sawtooth", "trend_sine", "random_walk", "ar1")

METRIC_FNS = {"mse": mse, "smape": smape, "mape": mape}

# the JSON kind of each BenchConfig field, in the order its faults are named
BENCH_CONFIG_KINDS = {"horizons": list[int], "metrics": list[str], "look_back": int, "top_k": int, "season_period": int}


@dataclass(frozen=True)
class SyntheticFamilySpec:
    kind: str
    period: int = 12
    amplitude: float = 1.0
    noise_std: float = 0.0
    length: int = 600
    channels: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in SYNTH_KINDS:
            raise ValueError(f"unknown synthetic kind {self.kind!r}")
        check_fields(vars(self), dict.fromkeys(("period", "length", "channels", "seed"), int), "field")
        check_fields(vars(self), dict.fromkeys(("amplitude", "noise_std"), float), "field")
        if self.length < 1 or self.channels < 1 or self.period < 1:
            raise ValueError("length, channels and period must be >= 1")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")


def score(metric: str, truth, pred):
    """`METRIC_FNS[metric]` of truth and pred; a ValueError names the metric
    when any step overflows float64, even one that leaves a finite result."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return METRIC_FNS[metric](truth, pred)
    except FloatingPointError:
        raise ValueError(f"metric {metric!r} overflows float64 on these values") from None


def check_metrics(names) -> None:
    """Raise a ValueError naming every name not in METRIC_FNS, or a repeated one."""
    unknown = set(names) - set(METRIC_FNS)
    if unknown:
        raise ValueError(f"unknown metrics {sorted(unknown, key=str)}; known metrics: {sorted(METRIC_FNS)}")
    if len(set(names)) < len(names):  # a report row keeps one mean and one window list per name
        raise ValueError(f"metrics name {max(names, key=names.count)!r} more than once")


@dataclass(frozen=True)
class BenchConfig:
    look_back: int = 36
    horizons: tuple = (6, 8, 14, 18, 24, 36, 48)
    metrics: tuple = ("mse",)
    top_k: int = 1
    season_period: int = 7

    def __post_init__(self):
        check_fields(vars(self), BENCH_CONFIG_KINDS, "field")
        if self.look_back < 1:
            raise ValueError(f"look_back must be >= 1, got {self.look_back}")
        if not self.horizons:
            raise ValueError("horizons must be nonempty")
        if min(self.horizons) < 1:
            raise ValueError(f"horizons must be >= 1, got {list(self.horizons)}")
        check_metrics(self.metrics)


def generate_synthetic(spec: SyntheticFamilySpec) -> Dataset:
    rng = np.random.default_rng(spec.seed)
    t = np.arange(spec.length)
    cols = []
    for _ in range(spec.channels):
        noise = rng.normal(0.0, spec.noise_std, size=spec.length) if spec.noise_std > 0 else np.zeros(spec.length)
        if spec.kind == "sine":
            phase = rng.uniform(0, 2 * np.pi)
            x = spec.amplitude * np.sin(2 * np.pi * t / spec.period + phase) + noise
        elif spec.kind == "sawtooth":
            x = spec.amplitude * ((t % spec.period) / spec.period) + noise
        elif spec.kind == "trend_sine":
            phase = rng.uniform(0, 2 * np.pi)
            x = spec.amplitude * np.sin(2 * np.pi * t / spec.period + phase) + 0.01 * t + noise
        elif spec.kind == "random_walk":
            x = np.cumsum(rng.normal(0.0, spec.noise_std if spec.noise_std > 0 else 1.0, size=spec.length))
        else:  # ar1: x_t = 0.9 x_{t-1} + eps
            eps = rng.normal(0.0, spec.noise_std if spec.noise_std > 0 else 1.0, size=spec.length)
            x = np.empty(spec.length)
            x[0] = eps[0]
            for i in range(1, spec.length):
                x[i] = 0.9 * x[i - 1] + eps[i]
        cols.append(x)
    values = np.stack(cols, axis=1)
    name = f"{spec.kind}-p{spec.period}-s{spec.seed}"
    return Dataset(series=MultivariateSeries(values), name=name)


def default_family_suite(seed: int = 0, noise_std: float = 0.05, length: int = 600) -> list:
    """Five families with distinct dynamics.

    Families are chosen so a single look-back window identifies its family:
    two sines at well-separated periods, a sawtooth, a drifting sine, and
    one stochastic family. A random-walk/AR(0.9) pair is deliberately
    avoided; their windows are nearly indistinguishable at this length.
    """
    return [
        generate_synthetic(SyntheticFamilySpec(kind="sine", period=12, noise_std=noise_std, length=length, seed=seed)),
        generate_synthetic(SyntheticFamilySpec(kind="sawtooth", period=9, noise_std=noise_std, length=length, seed=seed + 1)),
        generate_synthetic(SyntheticFamilySpec(kind="trend_sine", period=18, noise_std=noise_std, length=length, seed=seed + 2)),
        generate_synthetic(SyntheticFamilySpec(kind="sine", period=5, noise_std=noise_std, length=length, seed=seed + 3)),
        generate_synthetic(SyntheticFamilySpec(kind="random_walk", noise_std=max(noise_std, 0.05), length=length, seed=seed + 4)),
    ]


def evaluation_windows(data: Dataset, look_back: int, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """(W, T, C) windows and their (W, H, C) truths: non-overlapping views
    tiled over the tail of the series, stride T + H."""
    values = data.series.values
    total = look_back + horizon
    if values.shape[0] < total:
        return np.empty((0, look_back, values.shape[1])), np.empty((0, horizon, values.shape[1]))
    tiles = sliding_window_view(values, total, axis=0)[values.shape[0] % total :: total].transpose(0, 2, 1)
    return tiles[:, :look_back], tiles[:, look_back:]


def _row_labels(names: list, horizon: int, bounds: np.ndarray, channels: list):
    """Label of row r of a horizon's stack, whose dataset i holds rows
    bounds[i]:bounds[i + 1], window-major over channels[i] channels."""

    def where(r: int) -> str:
        i = int(np.searchsorted(bounds, r, side="right")) - 1
        window, channel = divmod(r - int(bounds[i]), channels[i])
        return f"dataset {names[i]!r}, horizon {horizon}, window {window}, channel {channel}"

    return where


def _as_windows(rows: np.ndarray, shape: tuple) -> np.ndarray:
    """(W*C, H) forecast rows, window-major, as (W, H, C) windows."""
    w, horizon, c = shape
    return rows.reshape(w, c, horizon).transpose(0, 2, 1)


def run_benchmark(cfg: BenchConfig, zoo, datasets: list) -> dict:
    """Evaluate the zoo pipeline and the naive baselines on every dataset
    and horizon; metrics computed on the raw (de-normalized) scale.

    Returns a `format_version` 2 report: per-(dataset, method, horizon)
    rows holding each metric's mean and, under `windows`, its per-window
    scores in window order; the horizon-averaged summary; and the per-zoo-
    model MSE distribution per dataset, each in dataset-major order.

    The work runs horizon-major. For each horizon, every dataset's windows
    are stacked as (W*C, T) channel rows, window-major, datasets in suite
    order; the zoo method forecasts the whole stack in one matched
    `fusion.forecast_rows` pass, each baseline in one `forecast_batch`,
    and each dataset's slice is scored right away into that dataset's own
    lists. Then each zoo model forecasts the first horizon's stack in one
    recursion, and the lists are joined in suite order. Rows are forecast
    independently, so every window gets the bits a request of its own would.

    Faults raise in that order: by horizon, then the forecasts of the rows
    across datasets (named `dataset 'd', horizon h, window w, channel c`),
    then each dataset's scores, then the zoo distribution, model by model,
    naming the first dataset in suite order whose forecast diverged.
    """
    names = [data.name for data in datasets]
    # each dataset's own lists, appended to as its slices are scored and joined in suite order at the end
    rows, zoo_distribution, warnings = ([[] for _ in datasets] for _ in range(3))
    first = None  # the first horizon with its (dataset indices, truths, channel rows, bounds), for the zoo distribution
    for position, horizon in enumerate(cfg.horizons):
        tiles = [evaluation_windows(data, cfg.look_back, horizon) for data in datasets]
        kept = [i for i, (x, _) in enumerate(tiles) if len(x)]
        for i in sorted(set(range(len(datasets))) - set(kept)):
            warnings[i].append(f"{names[i]}: horizon {horizon} skipped (series too short)")
        if not kept:
            continue
        truths = [tiles[i][1] for i in kept]
        parts = [tiles[i][0].transpose(0, 2, 1).reshape(-1, cfg.look_back) for i in kept]
        stack = np.concatenate(parts)
        bounds = np.cumsum([0] + [len(part) for part in parts])
        where = _row_labels([names[i] for i in kept], horizon, bounds, [truth.shape[2] for truth in truths])
        preds = {"zoocast": fusion.forecast_rows(zoo, stack, fusion.FusionConfig(horizon, cfg.top_k), where)[0]}
        for method in forecasters.BASELINES:
            model = forecasters.make_baseline(method, cfg.look_back, horizon, cfg.season_period)
            preds[method] = forecasters.forecast_batch(model, stack)
        for i, truth, lo, hi in zip(kept, truths, bounds, bounds[1:]):
            for method, pred in preds.items():
                scores = {m: score(m, truth, _as_windows(pred[lo:hi], truth.shape)) for m in cfg.metrics}
                means = {m: float(np.mean(scores[m])) for m in cfg.metrics}
                windows = {m: scores[m].tolist() for m in cfg.metrics}
                rows[i].append({"dataset": names[i], "method": method, "horizon": horizon, **means, "windows": windows})
        if position == 0:
            first = horizon, kept, truths, stack, bounds

    # per-model MSE distribution at the first horizon (violin-plot data):
    # each model alone on the first horizon's channel rows, one normalization, one recursion per model
    if first:
        horizon, kept, truths, stack, bounds = first
        owner = np.repeat(kept, np.diff(bounds))  # dataset index of each stacked row
        norm, mu, sigma = checked_normalize_rows(stack, lambda r: f"dataset {names[owner[r]]!r}")
        for entry in zoo.entries:
            with np.errstate(over="ignore", invalid="ignore"):  # a diverged forecast is checked below
                pred = fusion.sequential_forecast([zoo.forecaster(entry.model_id)], norm, horizon)
                pred = pred * sigma[:, None] + mu[:, None]
            diverged = ~np.isfinite(pred).all(axis=1)
            if diverged.any():  # the first diverged row lies in the first such dataset in suite order
                i = owner[np.argmax(diverged)]
                raise ValueError(f"dataset {names[i]!r}, horizon {horizon}: model {entry.model_id!r} forecast diverged")
            for i, truth, lo, hi in zip(kept, truths, bounds, bounds[1:]):
                value = float(np.mean(score("mse", truth, _as_windows(pred[lo:hi], truth.shape))))
                zoo_distribution[i].append({"dataset": names[i], "model_id": entry.model_id, "mse": value})

    rows, zoo_distribution, warnings = ([item for part in lists for item in part] for lists in (rows, zoo_distribution, warnings))
    summary = {}  # (dataset, method) -> its rows, in report order
    for row in rows:
        summary.setdefault((row["dataset"], row["method"]), []).append(row)
    return {
        "format_version": 2,
        "config": {
            "look_back": cfg.look_back,
            "horizons": list(cfg.horizons),
            "metrics": list(cfg.metrics),
            "top_k": cfg.top_k,
        },
        "rows": rows,
        "summary": [
            {"dataset": dataset, "method": method, **{m: float(np.mean([row[m] for row in group])) for m in cfg.metrics}}
            for (dataset, method), group in sorted(summary.items())
        ],
        "zoo_distribution": zoo_distribution,
        "warnings": warnings,
    }


def report_to_bytes(report: dict) -> bytes:
    return canonical_json(report)
