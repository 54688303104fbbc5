"""Synthetic data families and the zero-shot evaluation harness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import forecasters, fusion
from .core import Dataset, MultivariateSeries, canonical_json, mape, mse, smape

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


@dataclass(frozen=True)
class BenchConfig:
    look_back: int = 36
    horizons: tuple = (6, 8, 14, 18, 24, 36, 48)
    metrics: tuple = ("mse",)
    top_k: int = 1
    season_period: int = 7

    def __post_init__(self):
        if not self.horizons:
            raise ValueError("horizons must be nonempty")
        unknown = set(self.metrics) - set(METRIC_FNS)
        if unknown:
            raise ValueError(f"unknown metrics {sorted(unknown)}")


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
    return Dataset(series=MultivariateSeries(values), name=name, granularity="synthetic")


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


def evaluation_windows(data: Dataset, look_back: int, horizon: int):
    """Non-overlapping (window, truth) pairs tiled over the series tail,
    stride = look_back + horizon."""
    out = []
    series = data.series
    total = look_back + horizon
    start = series.length - (series.length // total) * total
    for s in range(start, series.length - total + 1, total):
        window = MultivariateSeries(series.values[s : s + look_back], series.channel_names)
        truth = MultivariateSeries(series.values[s + look_back : s + total], series.channel_names)
        out.append((window, truth))
    return out


def _baseline_forecast(architecture: str, window: MultivariateSeries, horizon: int, season_period: int):
    model = forecasters.make_baseline(architecture, window.length, horizon, season_period)
    return MultivariateSeries(forecasters.forecast_batch(model, window.values.T).T, window.channel_names)


def run_benchmark(cfg: BenchConfig, zoo, datasets: list) -> dict:
    """Evaluate the zoo pipeline and the naive baselines on every dataset
    and horizon; metrics computed on the raw (de-normalized) scale.

    Returns a report dict with per-(dataset, method, horizon) rows, a
    per-window record list, the horizon-averaged summary, and the per-zoo-
    model MSE distribution per dataset.
    """
    methods = ["zoocast", "last", "mean", "seasonal_naive"]
    rows = []
    per_window = []
    zoo_distribution = []
    warnings = []
    for data in datasets:
        for horizon in cfg.horizons:
            windows = evaluation_windows(data, cfg.look_back, horizon)
            if not windows:
                warnings.append(f"{data.name}: horizon {horizon} skipped (series too short)")
                continue
            fusion_cfg = fusion.FusionConfig(horizon=horizon, top_k=cfg.top_k)
            for method in methods:
                scores = {m: [] for m in cfg.metrics}
                for wi, (window, truth) in enumerate(windows):
                    if method == "zoocast":
                        pred, _, _ = fusion.forecast_multivariate(zoo, window, fusion_cfg)
                    else:
                        pred = _baseline_forecast(method, window, horizon, cfg.season_period)
                    for metric in cfg.metrics:
                        value = METRIC_FNS[metric](truth, pred)
                        scores[metric].append(value)
                        per_window.append(
                            {
                                "dataset": data.name,
                                "method": method,
                                "horizon": horizon,
                                "window": wi,
                                "metric": metric,
                                "value": value,
                            }
                        )
                rows.append(
                    {
                        "dataset": data.name,
                        "method": method,
                        "horizon": horizon,
                        **{m: float(np.mean(scores[m])) for m in cfg.metrics},
                    }
                )
        # per-model MSE distribution at the first horizon (violin-plot data)
        horizon = cfg.horizons[0]
        windows = evaluation_windows(data, cfg.look_back, horizon)
        for entry in zoo.entries:
            model = zoo.forecaster(entry.model_id)
            values = []
            for window, truth in windows:
                forced = fusion.FusionConfig(
                    horizon=horizon, top_k=1, forced_model_ids=(entry.model_id,) * window.num_channels
                )
                pred, _, _ = fusion.forecast_multivariate(zoo, window, forced)
                values.append(mse(truth, pred))
            if values:
                zoo_distribution.append(
                    {"dataset": data.name, "model_id": entry.model_id, "mse": float(np.mean(values))}
                )

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
