"""Zero-shot inference: per-variate model matching by embedding cosine,
sequential block forecasting, and optional top-k averaged predictions.

The pipeline per channel: instance-normalize the look-back window, rank
zoo models against the window's encoding, run ceil(H/h) forecasting
blocks (feeding each block's output back as history), average the top-k
models inside each block, then de-normalize with the window's stats.

`forecast_multivariate` runs that pipeline one channel at a time; it
keeps that loop while the benchmark's tracer tests pin its per-channel
call counts (ROADMAP item 1). `forecast_rows` runs the matched pipeline
on a stack of channel rows in one batched pass, with the same bits per
row; the evaluation harness sends it every dataset's windows of one
horizon as one stack, and passes a row label that names each row's
dataset, horizon, window and channel in its faults.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import extractor as extractor_mod
from . import forecasters
from .core import MultivariateSeries, check_fields, checked_normalize_rows, denormalize, normalize


@dataclass(frozen=True)
class FusionConfig:
    horizon: int
    top_k: int = 1

    def __post_init__(self):
        check_fields(vars(self), {"horizon": int, "top_k": int}, "field")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")


@dataclass(frozen=True)
class SelectionResult:
    ranking: tuple  # (model_id, cosine score), descending, manifest order on ties
    top_k: int

    @property
    def chosen(self) -> tuple:
        return tuple(model_id for model_id, _ in self.ranking[: self.top_k])


def _check_request(zoo, rows: int, length: int, cfg: FusionConfig) -> None:
    if length != zoo.input_len:
        raise ValueError(f"history length {length} != zoo input_len {zoo.input_len}")
    if cfg.top_k > len(zoo.entries):
        raise ValueError(f"top_k {cfg.top_k} exceeds zoo size {len(zoo.entries)}")
    # past sys.maxsize bytes numpy cannot even try to allocate the forecasts or a recursion's history
    if max(rows, 1) * (length + cfg.horizon + zoo.horizon) > sys.maxsize // 8:
        raise ValueError(f"horizon {cfg.horizon} is too large: numpy cannot address its forecasts")


def _channel(r: int) -> str:
    return f"channel {r}"


def _check_forecasts(pred: np.ndarray, h: int, where=_channel) -> None:
    """Name the first row of an (R, H) forecast that turns non-finite, by
    `where(row)`, with its step and its block."""
    bad = ~np.isfinite(pred)
    if bad.any():
        row = int(np.argmax(bad.any(axis=1)))
        step = int(np.argmax(bad[row]))
        raise ValueError(f"forecast diverged: {where(row)} turns non-finite at step {step} (block {step // h})")


def match(zoo, variate_window, top_k: int = 1) -> SelectionResult:
    """Rank every zoo model by cosine between its stored representation
    and the encoding of the (internally normalized) window."""
    window = np.asarray(variate_window, dtype=np.float64)
    norm_win, _ = normalize(window)
    mu = extractor_mod.encode(zoo.extractor_params, norm_win)
    # with an overflowing squared norm every model would score 0.0 and rank in manifest order
    with np.errstate(over="ignore", invalid="ignore"):
        if not math.isfinite(mu.dot(mu)):
            raise ValueError("encoding overflows float64")
    scored = [
        (entry.model_id, extractor_mod.cosine(entry.representation, mu)) for entry in zoo.entries
    ]
    # stable sort keeps manifest order among equal scores
    ranking = tuple(sorted(scored, key=lambda pair: -pair[1]))
    return SelectionResult(ranking=ranking, top_k=top_k)


def sequential_forecast(models: list, window, horizon: int) -> np.ndarray:
    """Cover `horizon` steps with ceil(H/h) recursive blocks: a length-T
    window gives H values, (..., T) windows give (..., H).

    Each block's input is the last T values of history ++ prior outputs;
    the block prediction is the mean over the supplied models. The window
    is assumed already normalized by the caller. A stacked window's
    forecast equals its forecast alone, bit for bit (see `forecasters.forecast`).
    """
    if not models:
        raise ValueError("need at least one model")
    input_len = models[0].spec.input_len
    h = models[0].spec.horizon
    for m in models[1:]:
        if m.spec.horizon != h:
            raise ValueError(f"incompatible horizons: {h} vs {m.spec.horizon}")
        if m.spec.input_len != input_len:
            raise ValueError(f"incompatible input lengths: {input_len} vs {m.spec.input_len}")
    x = np.asarray(window, dtype=np.float64)
    if x.shape[-1:] != (input_len,):
        raise ValueError(f"window length {x.shape} != input_len {input_len}")

    num_blocks = -(-horizon // h)
    # the window, then each block's output: block b reads the T values before it
    history = np.empty(x.shape[:-1] + (input_len + num_blocks * h,))
    history[..., :input_len] = x
    for start in range(0, num_blocks * h, h):
        block_input = history[..., start : start + input_len]
        # from 0.0, model by model, then / k: np.mean(..., axis=0)'s order
        # (except for h == 1 with k >= 8, where numpy sums the k values pairwise)
        block = sum(forecasters.forecast(m, block_input) for m in models) / len(models)
        history[..., input_len + start : input_len + start + h] = block
    return history[..., input_len : input_len + horizon]


def forecast_multivariate(zoo, series: MultivariateSeries, cfg: FusionConfig):
    """Full pipeline over all channels, one channel at a time, so the first
    channel at fault raises; returns (predictions, selections, per-channel
    NormStats)."""
    _check_request(zoo, series.num_channels, series.length, cfg)
    predictions = np.empty((cfg.horizon, series.num_channels))
    selections = []
    stats_list = []
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked, not warned about
        for c in range(series.num_channels):
            window = series.channel(c)
            try:  # the window passed its series' checks, so only an overflow raises here
                norm_win, stats = normalize(window)
                selection = match(zoo, window, cfg.top_k)
            except ValueError as exc:
                raise ValueError(f"channel {c}: {exc}") from None
            models = [zoo.forecaster(model_id) for model_id in selection.chosen]
            norm_pred = sequential_forecast(models, norm_win, cfg.horizon)
            predictions[:, c] = denormalize(norm_pred, stats)
            selections.append(selection)
            stats_list.append(stats)
    _check_forecasts(predictions.T, zoo.horizon)
    return MultivariateSeries(predictions, series.channel_names), selections, stats_list


def encode_rows(zoo, rows, where=_channel) -> tuple:
    """Instance-normalize an (R, L) stack of rows and encode each with the
    zoo's extractor; returns (normalized rows, means, stds, (R, repr_dim)
    encodings). A ValueError names `where(r)` for the first row whose
    values overflow normalization, or else whose encoding's squared norm
    overflows float64 (every cosine against it would read 0.0)."""
    norm, mu, sigma = checked_normalize_rows(rows, where)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing encoding is checked, not warned about
        # (R, 1, L): one vector-matrix product per row, the bits of the 1-D `encode`
        encodings = extractor_mod.encode_batch(zoo.extractor_params, norm[:, None, :])[:, 0]
        # each row's squared norm as `cosine_matrix` sums it, checked as `match` checks it
        overflowed = ~np.isfinite((encodings[:, None, :] @ encodings[:, :, None])[:, 0, 0])
    if overflowed.any():
        raise ValueError(f"{where(int(np.argmax(overflowed)))}: encoding overflows float64")
    return norm, mu, sigma, encodings


def forecast_rows(zoo, rows, cfg: FusionConfig, where=_channel) -> tuple[np.ndarray, np.ndarray]:
    """Matched forecasts of an (R, T) stack of channel rows in one batched
    pass; returns the (R, H) predictions and the (R, k) indices into
    `zoo.entries` that each row chose, best first.

    One normalization and encode (`encode_rows`) and one (R, N) cosine
    matrix serve every row, and the rows that chose the same models in the
    same order share one `sequential_forecast`. Row r gets the bits and the choice that
    `forecast_multivariate` gives channel r, and its faults raise that
    function's messages with `where(r)` (default `channel r`) naming the
    row; a row whose values or encoding overflow raises before any model
    is loaded. Zoo faults keep their own messages.
    """
    x = np.asarray(rows, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected (R, T) rows, got shape {x.shape}")
    _check_request(zoo, len(x), x.shape[1], cfg)
    norm, mu, sigma, encodings = encode_rows(zoo, x, where)
    with np.errstate(over="ignore", invalid="ignore"):
        scores = extractor_mod.cosine_matrix(encodings, np.stack([e.representation for e in zoo.entries]))
    # a stable sort keeps manifest order among equal scores, as `match` does
    choice = np.argsort(-scores, axis=1, kind="stable")[:, : cfg.top_k]
    groups = {}  # each choice to its rows, in order of first use: models load as the per-channel loop loads them
    for r, chosen in enumerate(choice.tolist()):
        groups.setdefault(tuple(chosen), []).append(r)
    norm_pred = np.empty((len(x), cfg.horizon))
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged forecast is checked below
        for chosen, members in groups.items():
            models = [zoo.forecaster(zoo.entries[i].model_id) for i in chosen]
            norm_pred[members] = sequential_forecast(models, norm[members], cfg.horizon)
        pred = sigma[:, None] * norm_pred + mu[:, None]
    _check_forecasts(pred, zoo.horizon, where)
    return pred, choice
