"""One-variate forecasters: trainable linear and patch-MLP models plus
naive baselines, trained from scratch with hand-derived gradients.

Trainable models map a length-T window to a length-h prediction and are
fit with plain SGD on instance-normalized (window, target) pairs.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import Dataset, canonical_json, init_uniform, normalize_rows

TRAINABLE = ("linear", "patch_mlp")
BASELINES = ("last", "mean", "seasonal_naive")

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class ForecasterSpec:
    architecture: str
    input_len: int
    horizon: int
    patch_len: int = 16
    hidden_dim: int = 64
    season_period: int = 7

    def __post_init__(self):
        if self.architecture not in TRAINABLE + BASELINES:
            raise ValueError(f"unknown architecture {self.architecture!r}")
        if self.input_len < 1 or self.horizon < 1:
            raise ValueError("input_len and horizon must be >= 1")
        if self.architecture == "patch_mlp" and (self.patch_len < 1 or self.hidden_dim < 1):
            raise ValueError("patch_len and hidden_dim must be >= 1")
        if self.architecture == "seasonal_naive" and self.season_period < 1:
            raise ValueError("season_period must be >= 1")

    @property
    def num_patches(self) -> int:
        return -(-self.input_len // self.patch_len)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    learning_rate: float = 0.001
    batch_size: int = 1  # plain SGD needs per-sample updates to fit in 10 epochs
    seed: int = 0
    stride: int = 1

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.stride < 1:
            raise ValueError("epochs, batch_size and stride must be >= 1")
        if not (self.learning_rate > 0):
            raise ValueError("learning_rate must be positive")


@dataclass(frozen=True)
class Forecaster:
    spec: ForecasterSpec
    weights: dict = field(default_factory=dict)
    source_dataset: str = ""
    epoch_losses: tuple = ()

    @property
    def input_len(self) -> int:
        return self.spec.input_len

    @property
    def horizon(self) -> int:
        return self.spec.horizon


def _weight_shapes(spec: ForecasterSpec) -> dict:
    if spec.architecture == "linear":
        return {"W": (spec.horizon, spec.input_len), "b": (spec.horizon,)}
    if spec.architecture == "patch_mlp":
        return {
            "P_embed": (spec.hidden_dim, spec.patch_len),
            "p_bias": (spec.hidden_dim,),
            "W_out": (spec.horizon, spec.hidden_dim * spec.num_patches),
            "b_out": (spec.horizon,),
        }
    return {}


def init_weights(spec: ForecasterSpec, seed: int) -> dict:
    """Uniform [-1/sqrt(fan_in), 1/sqrt(fan_in)] init from a seeded PRNG."""
    return init_uniform(_weight_shapes(spec), seed)


def _patchify(x: np.ndarray, spec: ForecasterSpec) -> np.ndarray:
    """(..., T) -> (..., num_patches, patch_len), zero-padding the tail."""
    lead = x.shape[:-1]
    padded = np.zeros(lead + (spec.num_patches * spec.patch_len,))
    padded[..., : spec.input_len] = x
    return padded.reshape(lead + (spec.num_patches, spec.patch_len))


def forecast(model: Forecaster, window) -> np.ndarray:
    """Predict h steps from a length-T window (already normalized by the
    caller for trainable models; baselines are scale-agnostic anyway)."""
    x = np.asarray(window, dtype=np.float64)
    if x.shape != (model.spec.input_len,):
        raise ValueError(f"window length {x.shape[0] if x.ndim == 1 else x.shape} != input_len {model.spec.input_len}")
    return forecast_batch(model, x)


def forecast_batch(model: Forecaster, windows: np.ndarray) -> np.ndarray:
    """(..., T) -> (..., h) for every architecture."""
    spec = model.spec
    w = model.weights
    if spec.architecture == "linear":
        return windows @ w["W"].T + w["b"]
    if spec.architecture == "patch_mlp":
        z = np.maximum(0.0, _patchify(windows, spec) @ w["P_embed"].T + w["p_bias"])
        return z.reshape(z.shape[:-2] + (-1,)) @ w["W_out"].T + w["b_out"]
    if spec.architecture == "last":
        return np.repeat(windows[..., -1:], spec.horizon, axis=-1)
    if spec.architecture == "mean":
        # contiguous rows sum in the same order as a single window
        return np.repeat(np.ascontiguousarray(windows).mean(axis=-1, keepdims=True), spec.horizon, axis=-1)
    # seasonal_naive: y[i] = x[T - period + (i mod period)]
    period = min(spec.season_period, spec.input_len)
    return windows[..., spec.input_len - period + (np.arange(spec.horizon) % period)]


def loss_and_grad(spec: ForecasterSpec, weights: dict, windows: np.ndarray, targets: np.ndarray):
    """Batch-mean MSE and its exact gradient for every weight tensor."""
    b, h = targets.shape
    if spec.architecture == "linear":
        pred = windows @ weights["W"].T + weights["b"]
        resid = pred - targets
        loss = float(np.mean(resid**2))
        dpred = 2.0 * resid / (b * h)
        grads = {"W": dpred.T @ windows, "b": dpred.sum(axis=0)}
        return loss, grads
    if spec.architecture == "patch_mlp":
        patches = _patchify(windows, spec)  # (B, P, p)
        z_pre = patches @ weights["P_embed"].T + weights["p_bias"]  # (B, P, hidden)
        z = np.maximum(0.0, z_pre)
        flat = z.reshape(b, -1)
        pred = flat @ weights["W_out"].T + weights["b_out"]
        resid = pred - targets
        loss = float(np.mean(resid**2))
        dpred = 2.0 * resid / (b * h)
        dflat = dpred @ weights["W_out"]
        dz = dflat.reshape(z.shape) * (z_pre > 0)
        grads = {
            "W_out": dpred.T @ flat,
            "b_out": dpred.sum(axis=0),
            "P_embed": np.einsum("bph,bpl->hl", dz, patches),
            "p_bias": dz.sum(axis=(0, 1)),
        }
        return loss, grads
    raise ValueError(f"{spec.architecture} has no trainable weights")


def extract_windows(data: Dataset, input_len: int, horizon: int, stride: int = 1):
    """All (window, target) pairs from every channel, channel-major, each
    instance-normalized with its window's own stats (applied to both sides)."""
    total = input_len + horizon
    if data.series.length < total:
        raise ValueError(f"no training windows of length {total} in dataset {data.name!r}")
    pairs = sliding_window_view(data.series.values.T, total, axis=-1)[:, ::stride].reshape(-1, total)
    windows, mu, sigma = normalize_rows(pairs[:, :input_len])
    return windows, (pairs[:, input_len:] - mu[:, None]) / sigma[:, None]


def train(spec: ForecasterSpec, data: Dataset, cfg: TrainConfig) -> Forecaster:
    """Mini-batch SGD on MSE; deterministic for a given seed."""
    if spec.architecture not in TRAINABLE:
        raise ValueError(f"architecture {spec.architecture!r} is not trainable")
    windows, targets = extract_windows(data, spec.input_len, spec.horizon, cfg.stride)
    weights = init_weights(spec, cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)
    n = windows.shape[0]
    epoch_losses = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            with np.errstate(over="ignore", invalid="ignore"):
                loss, grads = loss_and_grad(spec, weights, windows[idx], targets[idx])
            if not np.isfinite(loss):
                raise ValueError("training diverged")
            for name, g in grads.items():
                weights[name] = weights[name] - cfg.learning_rate * g
            batch_losses.append(loss)
        epoch_losses.append(float(np.mean(batch_losses)))
    return Forecaster(spec=spec, weights=weights, source_dataset=data.name, epoch_losses=tuple(epoch_losses))


def make_baseline(architecture: str, input_len: int, horizon: int, season_period: int = 7) -> Forecaster:
    spec = ForecasterSpec(architecture=architecture, input_len=input_len, horizon=horizon, season_period=season_period)
    return Forecaster(spec=spec)


def save(model: Forecaster) -> bytes:
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "spec": asdict(model.spec),
        "source_dataset": model.source_dataset,
        "weights": {name: w.tolist() for name, w in sorted(model.weights.items())},
    }
    return canonical_json(payload)


def load(blob: bytes) -> Forecaster:
    try:
        payload = json.loads(blob)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"malformed model file: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format_version {payload.get('format_version') if isinstance(payload, dict) else None!r}")
    try:
        spec = ForecasterSpec(**payload["spec"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"model file field 'spec' is invalid: {exc}") from None
    expected = _weight_shapes(spec)
    raw = payload.get("weights", {})
    if set(raw) != set(expected):
        raise ValueError(f"weight tensors {sorted(raw)} do not match {spec.architecture} ({sorted(expected)})")
    weights = {}
    for name, shape in expected.items():
        arr = np.asarray(raw[name], dtype=np.float64)
        if arr.shape != shape:
            raise ValueError(f"tensor {name} has shape {arr.shape}, expected {shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"tensor {name} contains non-finite values")
        weights[name] = arr
    return Forecaster(spec=spec, weights=weights, source_dataset=payload.get("source_dataset", ""))
