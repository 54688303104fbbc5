"""Synthetic data families and the zero-shot evaluation harness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import forecasters, fusion
from .core import Dataset, MultivariateSeries, canonical_json, check_fields, checked_normalize_rows, mape, mse, smape

SYNTH_KINDS = ("sine", "sawtooth", "trend_sine", "random_walk", "ar1")

METRIC_FNS = {"mse": mse, "smape": smape, "mape": mape}


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
    """Raise a ValueError naming every name not in METRIC_FNS."""
    unknown = set(names) - set(METRIC_FNS)
    if unknown:
        raise ValueError(f"unknown metrics {sorted(unknown, key=str)}; known metrics: {sorted(METRIC_FNS)}")


@dataclass(frozen=True)
class BenchConfig:
    look_back: int = 36
    horizons: tuple = (6, 8, 14, 18, 24, 36, 48)
    metrics: tuple = ("mse",)
    top_k: int = 1
    season_period: int = 7

    def __post_init__(self):
        check_fields(vars(self), {"look_back": int, "horizons": list[int], "top_k": int, "season_period": int}, "field")
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

    Returns a report dict with per-(dataset, method, horizon) rows, a
    per-window record list, the horizon-averaged summary, and the per-zoo-
    model MSE distribution per dataset, each in dataset-major order.

    The work runs horizon-major. For each horizon, every dataset's windows
    are stacked as (W*C, T) channel rows, window-major, datasets in suite
    order; the zoo method forecasts the whole stack in one matched
    `fusion.forecast_rows` pass, each baseline in one `forecast_batch`,
    and each dataset's slice is scored right away (only the scores are
    kept). Then each zoo model forecasts every dataset's first-horizon rows
    in one stacked recursion. Rows are forecast independently, so every
    window gets the bits a request of its own would.

    Faults raise in that order: by horizon, then the forecasts of the rows
    across datasets (named `dataset 'd', horizon h, window w, channel c`),
    then each dataset's scores, then the zoo distribution, model by model,
    naming the first dataset in suite order whose forecast diverged.
    """
    names = [data.name for data in datasets]
    scored = {}  # (dataset index, horizon position) -> {method: {metric: (W,) scores}}
    first = {}  # dataset index -> its first horizon's (channel rows, truths), for the zoo distribution
    for position, horizon in enumerate(cfg.horizons):
        tiles = {i: evaluation_windows(data, cfg.look_back, horizon) for i, data in enumerate(datasets)}
        tiles = {i: (x.transpose(0, 2, 1).reshape(-1, cfg.look_back), truth) for i, (x, truth) in tiles.items() if len(x)}
        if not tiles:
            continue
        stack = np.concatenate([rows for rows, _ in tiles.values()])
        bounds = np.cumsum([0] + [len(rows) for rows, _ in tiles.values()])
        where = _row_labels([names[i] for i in tiles], horizon, bounds, [truth.shape[2] for _, truth in tiles.values()])
        preds = {"zoocast": fusion.forecast_rows(zoo, stack, fusion.FusionConfig(horizon, cfg.top_k), where)[0]}
        for method in forecasters.BASELINES:
            model = forecasters.make_baseline(method, cfg.look_back, horizon, cfg.season_period)
            preds[method] = forecasters.forecast_batch(model, stack)
        for (i, (_, truth)), lo, hi in zip(tiles.items(), bounds, bounds[1:]):
            windows = {method: _as_windows(pred[lo:hi], truth.shape) for method, pred in preds.items()}
            scored[i, position] = {method: {m: score(m, truth, w) for m in cfg.metrics} for method, w in windows.items()}
        if position == 0:
            first = tiles

    # per-model MSE distribution at the first horizon (violin-plot data):
    # each model alone on every dataset's channel rows, one normalization, one recursion per model
    distribution = {}  # (dataset index, entry index) -> mean MSE
    if first:
        horizon = cfg.horizons[0]
        bounds = np.cumsum([0] + [len(rows) for rows, _ in first.values()])
        owner = np.repeat(list(first), np.diff(bounds))  # dataset index of each stacked row
        stack, mu, sigma = checked_normalize_rows(
            np.concatenate([rows for rows, _ in first.values()]), lambda r: f"dataset {names[owner[r]]!r}"
        )
        for j, entry in enumerate(zoo.entries):
            with np.errstate(over="ignore", invalid="ignore"):  # a diverged forecast is checked below
                pred = fusion.sequential_forecast([zoo.forecaster(entry.model_id)], stack, horizon)
                pred = pred * sigma[:, None] + mu[:, None]
            diverged = ~np.isfinite(pred).all(axis=1)
            if diverged.any():  # the first diverged row lies in the first such dataset in suite order
                i = owner[np.argmax(diverged)]
                raise ValueError(f"dataset {names[i]!r}, horizon {horizon}: model {entry.model_id!r} forecast diverged")
            for (i, (_, truth)), lo, hi in zip(first.items(), bounds, bounds[1:]):
                distribution[i, j] = float(np.mean(score("mse", truth, _as_windows(pred[lo:hi], truth.shape))))

    rows = []
    per_window = []
    zoo_distribution = []
    warnings = []
    for i, name in enumerate(names):
        for position, horizon in enumerate(cfg.horizons):
            if (i, position) not in scored:
                warnings.append(f"{name}: horizon {horizon} skipped (series too short)")
                continue
            for method, scores in scored[i, position].items():
                per_window += [
                    {"dataset": name, "method": method, "horizon": horizon, "window": wi, "metric": metric, "value": value}
                    for wi, window_values in enumerate(zip(*[scores[m].tolist() for m in cfg.metrics]))
                    for metric, value in zip(cfg.metrics, window_values)
                ]
                means = {m: float(np.mean(scores[m])) for m in cfg.metrics}
                rows.append({"dataset": name, "method": method, "horizon": horizon, **means})
        if i in first:
            zoo_distribution += [
                {"dataset": name, "model_id": entry.model_id, "mse": distribution[i, j]}
                for j, entry in enumerate(zoo.entries)
            ]

    summary = {}
    for row in rows:
        key = (row["dataset"], row["method"])
        summary.setdefault(key, {m: [] for m in cfg.metrics})
        for m in cfg.metrics:
            summary[key][m].append(row[m])
    summary_rows = [
        {"dataset": dataset, "method": method, **{m: float(np.mean(vals[m])) for m in cfg.metrics}}
        for (dataset, method), vals in sorted(summary.items())
    ]
    return {
        "config": {
            "look_back": cfg.look_back,
            "horizons": list(cfg.horizons),
            "metrics": list(cfg.metrics),
            "top_k": cfg.top_k,
        },
        "rows": rows,
        "per_window": per_window,
        "summary": summary_rows,
        "zoo_distribution": zoo_distribution,
        "warnings": warnings,
    }


def report_to_bytes(report: dict) -> bytes:
    return canonical_json(report)
