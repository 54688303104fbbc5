"""Independent numpy reference for zoocast's online half.

Nothing here imports zoocast. The oracle reads a zoo directory's JSON
artifacts (`zoo.json`, the extractor file and the linear model files) and
recomputes, for every channel of a (T, C) window:

1. population-std instance normalization, dividing by 1.0 when the std is
   below 1e-8;
2. the two-layer encoding relu(W1 x + b1) W2^T + b2;
3. cosine ranking against the stored representations (0 when either norm
   is below 1e-12), ties kept in manifest order;
4. recursive linear blocks, each fed the last T values of history, with the
   top-k models averaged inside each block and the result cut to H steps;
5. de-normalization with the window's own mean and std.

It also recomputes the naive baselines and the evaluation-window tiling
that `run_benchmark` summarizes, so a report's summary can be checked.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

STD_FLOOR = 1e-8
NORM_FLOOR = 1e-12
# Relative tolerance for "agrees with the oracle". Summation order differs
# from zoocast's, so agreement is to rounding, not bit-exact.
RTOL = 1e-9


class OracleZoo:
    """The linear zoo in a zoo directory, as plain arrays."""

    def __init__(self, zoo_dir):
        root = Path(zoo_dir)
        manifest = json.loads((root / "zoo.json").read_text(encoding="utf-8"))
        ext = json.loads((root / manifest["extractor"]).read_text(encoding="utf-8"))
        w = {name: np.asarray(v, dtype=np.float64) for name, v in ext["weights"].items()}
        self.enc = (w["W1"], w["b1"], w["W2"], w["b2"])
        self.model_ids = [e["model_id"] for e in manifest["entries"]]
        self.reps = np.array([e["representation"] for e in manifest["entries"]], dtype=np.float64)
        weights, biases = [], []
        for entry in manifest["entries"]:
            model = json.loads((root / entry["file"]).read_text(encoding="utf-8"))
            if model["spec"]["architecture"] != "linear":
                raise ValueError(f"oracle covers linear models only, not {model['spec']['architecture']!r}")
            weights.append(model["weights"]["W"])
            biases.append(model["weights"]["b"])
        self.W = np.asarray(weights, dtype=np.float64)  # (N, h, T)
        self.b = np.asarray(biases, dtype=np.float64)  # (N, h)
        self.block, self.input_len = self.W.shape[1], self.W.shape[2]

    def scores(self, windows: np.ndarray) -> tuple:
        """(C, N) cosine scores for the columns of a (T, C) window, plus
        the per-channel (mean, std) used to normalize them."""
        x = np.asarray(windows, dtype=np.float64)
        mean = x.sum(axis=0) / x.shape[0]
        std = np.sqrt(((x - mean) ** 2).sum(axis=0) / x.shape[0])
        std = np.where(std < STD_FLOOR, 1.0, std)
        z = ((x - mean) / std).T  # (C, T)
        w1, b1, w2, b2 = self.enc
        enc = np.maximum(np.einsum("ht,ct->ch", w1, z) + b1, 0.0)
        enc = np.einsum("dh,ch->cd", w2, enc) + b2  # (C, d)
        enc_norm = np.sqrt((enc**2).sum(axis=1))
        rep_norm = np.sqrt((self.reps**2).sum(axis=1))
        raw = np.einsum("cd,nd->cn", enc, self.reps)
        denom = np.outer(enc_norm, rep_norm)
        ok = (enc_norm[:, None] >= NORM_FLOOR) & (rep_norm[None, :] >= NORM_FLOOR)
        cos = np.where(ok, raw / np.where(ok, denom, 1.0), 0.0)
        return cos, z, mean, std

    def forecast(self, windows: np.ndarray, horizon: int, top_k: int) -> tuple:
        """(H, C) forecast and the chosen model ids per channel."""
        cos, z, mean, std = self.scores(windows)
        channels = cos.shape[0]
        order = np.argsort(-cos, axis=1, kind="stable")[:, :top_k]
        pick = np.zeros_like(cos)
        np.put_along_axis(pick, order, 1.0 / top_k, axis=1)
        history = z
        blocks = []
        for _ in range(-(-horizon // self.block)):
            window = history[:, -self.input_len :]
            per_model = np.einsum("nht,ct->cnh", self.W, window) + self.b[None]
            block = np.einsum("cn,cnh->ch", pick, per_model)
            blocks.append(block)
            history = np.concatenate([history, block], axis=1)
        pred = np.concatenate(blocks, axis=1)[:, :horizon]
        chosen = [tuple(self.model_ids[i] for i in order[c]) for c in range(channels)]
        return (pred * std[:, None] + mean[:, None]).T, chosen


def agrees(actual, expected) -> bool:
    """True when `actual` is finite and matches `expected` to RTOL."""
    a = np.asarray(actual, dtype=np.float64)
    e = np.asarray(expected, dtype=np.float64)
    if a.shape != e.shape or not np.all(np.isfinite(a)):
        return False
    return bool(np.all(np.abs(a - e) <= RTOL * (1.0 + np.abs(e))))


def baseline(method: str, window: np.ndarray, horizon: int, season_period: int) -> np.ndarray:
    """Naive forecasts of a 1-D window: repeat the last value, the mean, or
    the last `season_period` values cyclically."""
    x = np.asarray(window, dtype=np.float64)
    if method == "last":
        return np.repeat(x[-1], horizon)
    if method == "mean":
        return np.repeat(x.sum() / x.size, horizon)
    period = min(season_period, x.size)
    season = x[x.size - period :]
    return np.resize(season, horizon)


def tiled_windows(values: np.ndarray, look_back: int, horizon: int) -> list:
    """Non-overlapping (window, truth) pairs aligned to the series end."""
    total = look_back + horizon
    n = values.shape[0]
    starts = range(n % total, n - total + 1, total)
    return [(values[s : s + look_back], values[s + look_back : s + total]) for s in starts]


def benchmark_summary(oz: OracleZoo, datasets: list, look_back: int, horizons, top_k: int, season_period: int) -> dict:
    """{(dataset name, method): mean MSE over horizons} for the zoo method
    and the three baselines; datasets are (name, (T, C) values) pairs."""
    out = {}
    for name, values in datasets:
        per_method = {m: [] for m in ("zoocast", "last", "mean", "seasonal_naive")}
        for horizon in horizons:
            pairs = tiled_windows(values, look_back, horizon)
            if not pairs:
                continue
            errs = {m: [] for m in per_method}
            for window, truth in pairs:
                pred, _ = oz.forecast(window, horizon, top_k)
                errs["zoocast"].append(np.mean((truth - pred) ** 2))
                for m in ("last", "mean", "seasonal_naive"):
                    cols = [baseline(m, window[:, c], horizon, season_period) for c in range(window.shape[1])]
                    errs[m].append(np.mean((truth - np.stack(cols, axis=1)) ** 2))
            for m in per_method:
                per_method[m].append(np.mean(errs[m]))
        for m, vals in per_method.items():
            out[(name, m)] = float(np.mean(vals))
    return out
