"""Zero-shot inference: per-variate model matching by embedding cosine,
sequential block forecasting, and optional top-k averaged predictions.

The pipeline per channel: instance-normalize the look-back window, rank
zoo models against the window's encoding, run ceil(H/h) forecasting
blocks (feeding each block's output back as history), average the top-k
models inside each block, then de-normalize with the window's stats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import extractor as extractor_mod
from . import forecasters
from .core import MultivariateSeries, NormStats, denormalize, normalize, trim_to_first, trim_to_last


@dataclass(frozen=True)
class FusionConfig:
    horizon: int
    top_k: int = 1
    forced_model_ids: tuple = ()  # per-variate override; empty = use matching

    def __post_init__(self):
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


def match(zoo, variate_window, top_k: int = 1) -> SelectionResult:
    """Rank every zoo model by cosine between its stored representation
    and the encoding of the (internally normalized) window."""
    window = np.asarray(variate_window, dtype=np.float64)
    norm_win, _ = normalize(window)
    mu = extractor_mod.encode(zoo.extractor_params, norm_win)
    scored = [
        (entry.model_id, extractor_mod.cosine(entry.representation, mu)) for entry in zoo.entries
    ]
    # stable sort keeps manifest order among equal scores
    ranking = tuple(sorted(scored, key=lambda pair: -pair[1]))
    return SelectionResult(ranking=ranking, top_k=top_k)


def sequential_forecast(models: list, window, horizon: int) -> np.ndarray:
    """Cover `horizon` steps with ceil(H/h) recursive blocks.

    Each block's input is the last T values of history ++ prior outputs;
    the block prediction is the mean over the supplied models. The window
    is assumed already normalized by the caller.
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
    if x.shape != (input_len,):
        raise ValueError(f"window length {x.shape} != input_len {input_len}")

    num_blocks = -(-horizon // h)
    history = x
    outputs = []
    for _ in range(num_blocks):
        block_input = trim_to_last(history, input_len)
        # from 0.0, model by model, then / k: np.mean(..., axis=0)'s order
        # (except for h == 1 with k >= 8, where numpy sums the k values pairwise)
        block = sum(forecasters.forecast(m, block_input) for m in models) / len(models)
        outputs.append(block)
        history = np.concatenate([history, block])
    return trim_to_first(np.concatenate(outputs), horizon)


def forecast_multivariate(zoo, series: MultivariateSeries, cfg: FusionConfig):
    """Full pipeline over all channels; returns (predictions, selections,
    per-channel NormStats)."""
    input_len = zoo.input_len
    if series.length != input_len:
        raise ValueError(f"history length {series.length} != zoo input_len {input_len}")
    if cfg.top_k > len(zoo.entries):
        raise ValueError(f"top_k {cfg.top_k} exceeds zoo size {len(zoo.entries)}")
    if cfg.forced_model_ids and len(cfg.forced_model_ids) != series.num_channels:
        raise ValueError("forced_model_ids must name one model per channel")

    predictions = np.empty((cfg.horizon, series.num_channels))
    selections = []
    stats_list = []
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked, not warned about
        for c in range(series.num_channels):
            window = series.channel(c)
            try:  # the window passed its series' checks, so only an overflow raises here
                norm_win, stats = normalize(window)
            except ValueError as exc:
                raise ValueError(f"channel {c}: {exc}") from None
            if cfg.forced_model_ids:
                forced = cfg.forced_model_ids[c]
                selection = SelectionResult(ranking=((forced, 1.0),), top_k=1)
            else:
                selection = match(zoo, window, cfg.top_k)
            models = [zoo.forecaster(model_id) for model_id in selection.chosen]
            norm_pred = sequential_forecast(models, norm_win, cfg.horizon)
            predictions[:, c] = denormalize(norm_pred, stats)
            selections.append(selection)
            stats_list.append(stats)
    try:
        result = MultivariateSeries(predictions, series.channel_names)
    except ValueError:
        bad = ~np.isfinite(predictions)
        if not bad.any():
            raise
        channel = int(np.argmax(bad.any(axis=0)))
        row = int(np.argmax(bad[:, channel]))
        raise ValueError(
            f"forecast diverged: channel {channel} turns non-finite at step {row} (block {row // zoo.horizon})"
        ) from None
    return result, selections, stats_list
