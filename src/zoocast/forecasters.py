"""One-variate forecasters: trainable linear and patch-MLP models plus
naive baselines, trained from scratch with hand-derived gradients.

Trainable models map a length-T window to a length-h prediction and are
fit with plain SGD on instance-normalized (window, target) pairs.

`train_many` is the one SGD loop. It checks every input before training.
Every model starts from the same seeded weights and shuffles with the same
seeded generator, so datasets with the same number of training windows
draw the same batches; they train in lockstep, one stacked `loss_and_grad`
step for all of them. Each stacked slice takes the same arithmetic as a
model trained alone, so the saved bytes and `epoch_losses` equal
per-model training's.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import COUNT, POSITIVE, SEED, SIZE, Dataset, canonical_json, check_fields, checked_normalize_rows, checked_tensors, init_uniform
from .core import read_artifact

TRAINABLE = ("linear", "patch_mlp")
BASELINES = ("last", "mean", "seasonal_naive")

MODEL_FORMAT_VERSION = 1
MODEL_FIELDS = {"spec": dict, "source_dataset": str, "weights": dict}
SPEC_SIZES = dict.fromkeys(("input_len", "horizon", "patch_len", "hidden_dim", "season_period"), SIZE)
TRAIN_CONFIG_KINDS = {"epochs": SIZE, "learning_rate": POSITIVE, "batch_size": COUNT, "seed": SEED, "stride": COUNT}


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
        check_fields(vars(self), SPEC_SIZES, "field")

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
        check_fields(vars(self), TRAIN_CONFIG_KINDS, "field")


@dataclass(frozen=True)
class Forecaster:
    spec: ForecasterSpec
    weights: dict = field(default_factory=dict)
    source_dataset: str = ""
    epoch_losses: tuple = ()


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
    """Predict h steps from a length-T window, or (..., h) from (..., T)
    windows (already normalized by the caller for trainable models;
    baselines are scale-agnostic anyway).

    Every window of a stack gets the bits it would get alone: each goes
    through its own (1, T) product, the row-times-matrix product a 1-D
    window takes, where one (G, T) @ (T, h) product would round differently.
    """
    x = np.asarray(window, dtype=np.float64)
    if x.shape == (model.spec.input_len,):
        return forecast_batch(model, x)
    if x.ndim < 2 or x.shape[-1] != model.spec.input_len:
        raise ValueError(f"window length {x.shape[0] if x.ndim == 1 else x.shape} != input_len {model.spec.input_len}")
    return forecast_batch(model, x[..., None, :])[..., 0, :]


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
    """Batch-mean MSE and its exact gradient for every weight tensor.

    windows are (..., B, T), targets (..., B, h), and every weight tensor
    has the same leading axes: a stack of models, one batch each. The loss
    is a float for one model, an array of the leading shape for a stack.
    """
    b, h = targets.shape[-2:]
    if spec.architecture == "linear":
        resid = windows @ weights["W"].swapaxes(-1, -2) + weights["b"][..., None, :] - targets
        dpred = 2.0 * resid / (b * h)
        grads = {"W": dpred.swapaxes(-1, -2) @ windows, "b": dpred.sum(axis=-2)}
    elif spec.architecture == "patch_mlp":
        patches = _patchify(windows, spec)  # (..., B, P, p)
        embed = weights["P_embed"][..., None, :, :].swapaxes(-1, -2)
        z_pre = patches @ embed + weights["p_bias"][..., None, None, :]  # (..., B, P, hidden)
        z = np.maximum(0.0, z_pre)
        flat = z.reshape(z.shape[:-2] + (-1,))
        resid = flat @ weights["W_out"].swapaxes(-1, -2) + weights["b_out"][..., None, :] - targets
        dpred = 2.0 * resid / (b * h)
        dflat = dpred @ weights["W_out"]
        dz = dflat.reshape(z.shape) * (z_pre > 0)
        grads = {
            "W_out": dpred.swapaxes(-1, -2) @ flat,
            "b_out": dpred.sum(axis=-2),
            "P_embed": np.einsum("...bph,...bpl->...hl", dz, patches),
            "p_bias": dz.sum(axis=(-3, -2)),
        }
    else:
        raise ValueError(f"{spec.architecture} has no trainable weights")
    loss = (resid * resid).sum(axis=(-2, -1)) / (b * h)  # the sum np.mean takes
    return (float(loss) if loss.ndim == 0 else loss), grads


def extract_windows(data: Dataset, input_len: int, horizon: int, stride: int = 1):
    """All (window, target) pairs from every channel, channel-major, each
    instance-normalized with its window's own stats (applied to both sides)."""
    total = input_len + horizon
    if data.series.length < total:
        raise ValueError(f"no training windows of length {total} in dataset {data.name!r}")
    pairs = sliding_window_view(data.series.values.T, total, axis=-1)[:, ::stride].reshape(-1, total)
    windows, mu, sigma = checked_normalize_rows(pairs[:, :input_len], f"dataset {data.name!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        targets = (pairs[:, input_len:] - mu[:, None]) / sigma[:, None]
    if not np.isfinite(targets).all():  # a target far outside its window's scale
        raise ValueError(f"dataset {data.name!r}: values overflow instance normalization")
    return windows, targets


def _lockstep_sgd(spec: ForecasterSpec, windows: np.ndarray, targets: np.ndarray, cfg: TrainConfig) -> tuple:
    """SGD for M models at once on (M, n, T) windows and (M, n, h) targets,
    every model from the seed's weights and shuffles. Returns the stacked
    weights, the (epochs, M) mean step losses and each model's diverged
    epoch (0 if none): the first whose mean is not finite, as a non-finite
    step makes it. A diverged model trains on with the rest; the run stops
    after the epoch in which the last model diverges."""
    m, n = windows.shape[:2]
    weights = {name: np.repeat(w[None], m, axis=0) for name, w in init_weights(spec, cfg.seed).items()}
    rng = np.random.default_rng(cfg.seed + 1)
    step_losses = np.empty((m, -(-n // cfg.batch_size)))
    epoch_losses = np.empty((cfg.epochs, m))
    diverged = np.zeros(m, dtype=int)
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = rng.permutation(n)
            for step, start in enumerate(range(0, n, cfg.batch_size)):
                batch = order[start : start + cfg.batch_size]  # take() keeps each slice C-ordered
                step_losses[:, step], grads = loss_and_grad(spec, weights, windows.take(batch, axis=1), targets.take(batch, axis=1))
                for name, g in grads.items():
                    weights[name] -= cfg.learning_rate * g
            epoch_losses[epoch] = step_losses.mean(axis=1)  # each contiguous row sums as np.mean sums a list
            diverged[(diverged == 0) & ~np.isfinite(epoch_losses[epoch])] = epoch + 1
            if diverged.all():
                break
    return weights, epoch_losses, diverged


def train_many(spec: ForecasterSpec, datasets: list, cfg: TrainConfig) -> list:
    """One model per dataset by mini-batch SGD on MSE, in dataset order;
    deterministic for a given seed.

    The architecture and then every dataset's windows are checked before
    any training. Datasets with the same number of training windows train
    in lockstep: one stacked step per batch for all of them. Every byte of
    each model, `epoch_losses` included, equals training it alone. A model
    diverges in the first epoch whose mean step loss is not finite. Once
    all have run, the first diverged dataset in list order raises
    "training failed on dataset 'X': training diverged in epoch N".
    """
    if spec.architecture not in TRAINABLE:
        raise ValueError(f"architecture {spec.architecture!r} is not trainable")
    # extract_windows' pair count, known before cutting: each dataset is cut
    # straight into its group's stack, so no dataset's windows are held twice
    span = spec.input_len + spec.horizon
    counts = [data.series.num_channels * len(range(0, data.series.length - span + 1, cfg.stride)) for data in datasets]
    groups = {}
    for i, n in enumerate(counts):
        groups.setdefault(n, []).append(i)
    stacks = {
        n: (np.empty((len(members), n, spec.input_len)), np.empty((len(members), n, spec.horizon)))
        for n, members in groups.items()
    }
    for i, data in enumerate(datasets):  # in list order, so the first dataset that cannot be cut raises
        windows, targets = stacks[counts[i]]
        k = groups[counts[i]].index(i)
        windows[k], targets[k] = extract_windows(data, spec.input_len, spec.horizon, cfg.stride)
    models, diverged = [None] * len(datasets), [0] * len(datasets)
    for n, members in groups.items():
        weights, epoch_losses, epochs = _lockstep_sgd(spec, *stacks.pop(n), cfg)
        for k, i in enumerate(members):
            diverged[i] = epochs[k]
            if not diverged[i]:
                models[i] = Forecaster(spec, {name: w[k] for name, w in weights.items()}, datasets[i].name, tuple(epoch_losses[:, k].tolist()))
    for data, epoch in zip(datasets, diverged):
        if epoch:
            raise ValueError(f"training failed on dataset {data.name!r}: training diverged in epoch {epoch}")
    return models


def train(spec: ForecasterSpec, data: Dataset, cfg: TrainConfig) -> Forecaster:
    """One model by mini-batch SGD on MSE; see `train_many`."""
    return train_many(spec, [data], cfg)[0]


def make_baseline(architecture: str, input_len: int, horizon: int, season_period: int = ForecasterSpec.season_period) -> Forecaster:
    spec = ForecasterSpec(architecture=architecture, input_len=input_len, horizon=horizon, season_period=season_period)
    return Forecaster(spec=spec)


def save(model: Forecaster) -> bytes:
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "spec": asdict(model.spec),
        "source_dataset": model.source_dataset,
        "weights": model.weights,
    }
    return canonical_json(payload)


def load(blob: bytes) -> Forecaster:
    payload = read_artifact(blob, "model", MODEL_FORMAT_VERSION, MODEL_FIELDS)
    try:
        spec = ForecasterSpec(**payload["spec"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"model file field 'spec' is invalid: {exc}") from None
    weights = checked_tensors(payload["weights"], _weight_shapes(spec), f"model file ({spec.architecture})")
    return Forecaster(spec=spec, weights=weights, source_dataset=payload["source_dataset"])
