"""Synthetic data families and the zero-shot evaluation harness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import forecasters, fusion
from .core import Dataset, MultivariateSeries, canonical_json, checked_normalize_rows, mape, mse, smape

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


def _stacked_forecast(zoo, x: np.ndarray, cfg: fusion.FusionConfig) -> np.ndarray:
    """(W, H, C) forecasts of (W, T, C) windows from one request of W*C
    channels, window-major. Channels are forecast independently, so each
    window gets the bits a request of its own would."""
    w, t, c = x.shape
    try:
        pred, _, _ = fusion.forecast_multivariate(zoo, MultivariateSeries(x.transpose(1, 0, 2).reshape(t, w * c)), cfg)
    except ValueError as exc:  # stacked channel k is channel k % c of window k // c; zoo faults pass as they are
        if not str(exc).startswith(("channel ", "forecast diverged: channel ")):
            raise
        raise ValueError(f"{w} windows of {c} channels, stacked window-major: {exc}") from None
    return pred.values.reshape(cfg.horizon, w, c).transpose(1, 0, 2)


def run_benchmark(cfg: BenchConfig, zoo, datasets: list) -> dict:
    """Evaluate the zoo pipeline and the naive baselines on every dataset
    and horizon; metrics computed on the raw (de-normalized) scale.

    Returns a report dict with per-(dataset, method, horizon) rows, a
    per-window record list, the horizon-averaged summary, and the per-zoo-
    model MSE distribution per dataset. All windows of a (dataset, horizon)
    go out as one request per method, and each zoo model forecasts the first
    horizon's windows in one stacked recursion; every window gets its own
    metric values.
    """
    rows = []
    per_window = []
    zoo_distribution = []
    warnings = []
    for data in datasets:
        first = None  # the first horizon's (channel rows, truths), for the per-model distribution
        for horizon in cfg.horizons:
            x, truth = evaluation_windows(data, cfg.look_back, horizon)
            if not len(x):
                warnings.append(f"{data.name}: horizon {horizon} skipped (series too short)")
                continue
            w, _, c = x.shape
            preds = {"zoocast": _stacked_forecast(zoo, x, fusion.FusionConfig(horizon=horizon, top_k=cfg.top_k))}
            channel_rows = x.transpose(0, 2, 1).reshape(w * c, cfg.look_back)
            for method in forecasters.BASELINES:
                model = forecasters.make_baseline(method, cfg.look_back, horizon, cfg.season_period)
                preds[method] = forecasters.forecast_batch(model, channel_rows).reshape(w, c, -1).transpose(0, 2, 1)
            if horizon == cfg.horizons[0]:
                first = channel_rows, truth
            for method, pred in preds.items():
                key = {"dataset": data.name, "method": method, "horizon": horizon}
                scores = {m: score(m, truth, pred).tolist() for m in cfg.metrics}
                for wi in range(w):
                    for metric in cfg.metrics:
                        per_window.append({**key, "window": wi, "metric": metric, "value": scores[metric][wi]})
                rows.append({**key, **{m: float(np.mean(scores[m])) for m in cfg.metrics}})
        # per-model MSE distribution at the first horizon (violin-plot data)
        if first is None:
            continue
        channel_rows, truth = first
        horizon, (w, _, c) = cfg.horizons[0], truth.shape
        # each model alone on every channel: one normalization of the (W*C, T) stack, one recursion per model
        stack, mu, sigma = checked_normalize_rows(channel_rows, f"dataset {data.name!r}")
        for entry in zoo.entries:
            with np.errstate(over="ignore", invalid="ignore"):  # a diverged forecast is checked below
                pred = fusion.sequential_forecast([zoo.forecaster(entry.model_id)], stack, horizon).T * sigma + mu
            if not np.isfinite(pred).all():
                raise ValueError(f"dataset {data.name!r}, horizon {horizon}: model {entry.model_id!r} forecast diverged")
            values = score("mse", truth, pred.reshape(horizon, w, c).transpose(1, 0, 2))
            zoo_distribution.append({"dataset": data.name, "model_id": entry.model_id, "mse": float(np.mean(values))})

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
