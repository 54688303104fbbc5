"""Synthetic data families and the zero-shot evaluation harness."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import forecasters, fusion
from .core import COUNT, LOOK_BACK, MAX_SIZE, SEED, SIZE, Dataset, MultivariateSeries, Range, check_fields, check_unique
from .core import mape, mse, normalize_rows, smape

SYNTH_KINDS = ("sine", "sawtooth", "trend_sine", "random_walk", "ar1")
SUITE_NOISE = 0.05  # the default family suite's noise std, and the least its random walk takes

METRIC_FNS = {"mse": mse, "smape": smape, "mape": mape}

# the kind and range of each SyntheticFamilySpec and BenchConfig field (each horizon's), in the order its faults are named
SYNTH_SPEC_KINDS = {"period": SIZE, "length": SIZE, "channels": SIZE, "seed": SEED, "amplitude": float, "noise_std": Range(float, 0)}
BENCH_CONFIG_KINDS = {"horizons": Range(list[int], 1, MAX_SIZE), "metrics": list[str],
                      "look_back": SIZE, "top_k": COUNT, "season_period": SIZE}


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
        check_fields(vars(self), SYNTH_SPEC_KINDS, "field")
        if self.length * self.channels > MAX_SIZE:  # the series' values, drawn at once
            raise ValueError(f"length {self.length} and channels {self.channels} would hold more than {MAX_SIZE} values")


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
    look_back: int = LOOK_BACK
    horizons: tuple = (6, 8, 14, 18, 24, 36, 48)
    metrics: tuple = ("mse",)
    top_k: int = fusion.FusionConfig.top_k
    season_period: int = forecasters.ForecasterSpec.season_period

    def __post_init__(self):
        check_fields(vars(self), BENCH_CONFIG_KINDS, "field")
        check_metrics(self.metrics)


@np.errstate(over="ignore", invalid="ignore")  # an overflowing series is checked below
def generate_synthetic(spec: SyntheticFamilySpec) -> Dataset:
    """A series of `spec`'s family; amplitudes or noise so large that the
    series overflows float64 raise a ValueError naming both fields."""
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
    if not np.isfinite(values).all():
        fields = f"amplitude {spec.amplitude!r} and noise_std {spec.noise_std!r}"
        raise ValueError(f"{fields} overflow float64 in a series of kind {spec.kind!r}")
    name = f"{spec.kind}-p{spec.period}-s{spec.seed}"
    return Dataset(series=MultivariateSeries(values), name=name)


def default_family_suite(seed: int = 0, noise_std: float = SUITE_NOISE, length: int = SyntheticFamilySpec.length) -> list:
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
        generate_synthetic(SyntheticFamilySpec(kind="random_walk", noise_std=max(noise_std, SUITE_NOISE), length=length, seed=seed + 4)),
    ]


def evaluation_windows(data: Dataset, look_back: int, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """(W, T, C) windows and their (W, H, C) truths: non-overlapping views
    tiled over the tail of the series, stride T + H. The tail of the
    C-contiguous (N, C) values reshapes to (W, T + H, C) without a copy."""
    values = data.series.values
    total = look_back + horizon
    if values.shape[0] < total:
        return np.empty((0, look_back, values.shape[1])), np.empty((0, horizon, values.shape[1]))
    tiles = values[values.shape[0] % total :].reshape(-1, total, values.shape[1])
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


def _runs(kept: list, truths: list, bounds: np.ndarray) -> list:
    """Each run of consecutive kept datasets with one channel count, as
    (its dataset indices, its (ΣW, H, C) truth stack, the bounds of each
    dataset's windows in that stack, its slice of the stacked rows)."""
    runs = []
    for _, group in itertools.groupby(range(len(kept)), key=lambda j: truths[j].shape[2]):
        positions = list(group)
        a, b = positions[0], positions[-1] + 1
        windows = np.cumsum([0] + [len(truth) for truth in truths[a:b]])
        runs.append((kept[a:b], np.concatenate(truths[a:b]), windows, slice(bounds[a], bounds[b])))
    return runs


def _run_scores(metric: str, run: tuple, pred: np.ndarray) -> list:
    """One `score` of a run's forecast rows against its truth stack, split
    into each dataset's (W,) window scores."""
    _, truth, windows, rows = run
    values = score(metric, truth, _as_windows(pred[rows], truth.shape))
    return [values[lo:hi] for lo, hi in zip(windows, windows[1:])]


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
    `fusion.forecast_rows` pass and each baseline in one `forecast_batch`.
    Each run of consecutive datasets with one channel count is then scored
    once per method and metric over its (ΣW, H, C) truth stack, and the
    window scores are split at dataset bounds into each dataset's own
    rows. In the first horizon's pass each zoo model then forecasts that
    horizon's stack in one recursion, scored once per run. At the end the
    lists are joined in suite order. Rows are forecast independently and
    metrics reduce each window on its own, so every window gets the bits a
    request of its own would.

    Faults raise in that order: a repeated dataset name; then by horizon,
    the forecasts of the rows across datasets (named `dataset 'd', horizon
    h, window w, channel c`), then the scores, run by run, method by
    method; then, in the first horizon only, the zoo distribution, model
    by model, naming the first row whose forecast diverged and the model.
    """
    names = [data.name for data in datasets]
    check_unique(names, "dataset name")  # rows, summary and zoo distribution are keyed by name
    # each dataset's own lists, appended to as its windows are scored and joined in suite order at the end
    rows, zoo_distribution, warnings = ([[] for _ in datasets] for _ in range(3))
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
        runs = _runs(kept, truths, bounds)
        for run in runs:
            for method, pred in preds.items():
                scores = {m: _run_scores(m, run, pred) for m in cfg.metrics}
                for k, i in enumerate(run[0]):
                    means = {m: float(np.mean(scores[m][k])) for m in cfg.metrics}
                    windows = {m: scores[m][k].tolist() for m in cfg.metrics}
                    rows[i].append({"dataset": names[i], "method": method, "horizon": horizon, **means, "windows": windows})
        # per-model MSE distribution at the first horizon (violin-plot data):
        # each model alone on its channel rows, one normalization, one recursion per model;
        # `forecast_rows` has named any row whose values overflow normalization
        if position == 0:
            norm, mu, sigma = normalize_rows(stack)
            for entry in zoo.entries:
                with np.errstate(over="ignore", invalid="ignore"):  # a diverged forecast is checked below
                    pred = fusion.sequential_forecast([zoo.forecaster(entry.model_id)], norm, horizon)
                    pred = pred * sigma[:, None] + mu[:, None]
                fusion.check_forecasts(pred, zoo.horizon, lambda r: f"{where(r)}, model {entry.model_id!r}")
                for run in runs:
                    for i, window_mse in zip(run[0], _run_scores("mse", run, pred)):
                        value = float(np.mean(window_mse))
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
