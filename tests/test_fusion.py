import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zoocast import extractor as extractor_mod
from zoocast.core import MultivariateSeries, denormalize, normalize
from zoocast.extractor import ExtractorParams, cosine, cosine_matrix, encode, init_params
from zoocast.forecasters import Forecaster, ForecasterSpec, forecast, init_weights, make_baseline
from zoocast.fusion import (
    FusionConfig,
    forecast_multivariate,
    forecast_rows,
    match,
    sequential_forecast,
)
from zoocast.zoo import zoo_from_models


def _zero_model(input_len, horizon):
    spec = ForecasterSpec("linear", input_len=input_len, horizon=horizon)
    return Forecaster(spec=spec, weights={"W": np.zeros((horizon, input_len)), "b": np.zeros(horizon)})


def _const_model(input_len, horizon, value):
    spec = ForecasterSpec("linear", input_len=input_len, horizon=horizon)
    return Forecaster(
        spec=spec, weights={"W": np.zeros((horizon, input_len)), "b": np.full(horizon, float(value))}
    )


def _make_zoo(models: dict, repr_map: dict, input_len=None):
    any_model = next(iter(models.values()))
    length = input_len or any_model.spec.input_len
    params = init_params(length, 4, len(next(iter(repr_map.values()))), seed=0)
    return zoo_from_models(models, params, repr_map)


# -- sequential forecast -----------------------------------------------------


def test_sequential_zero_model():
    model = _zero_model(3, 2)
    np.testing.assert_array_equal(sequential_forecast([model], [1.0, 2.0, 3.0], 4), np.zeros(4))


def test_sequential_last_golden_trace():
    model = make_baseline("last", 3, 2)
    out = sequential_forecast([model], [1.0, 2.0, 3.0], 5)
    np.testing.assert_array_equal(out, [3.0, 3.0, 3.0, 3.0, 3.0])


def test_sequential_block_feedback():
    # mean model: each block's output is the running mean, fed back as history
    model = make_baseline("mean", 2, 1)
    out = sequential_forecast([model], [0.0, 4.0], 3)
    # block 1: mean(0,4)=2; block 2: mean(4,2)=3; block 3: mean(2,3)=2.5
    np.testing.assert_allclose(out, [2.0, 3.0, 2.5])


def test_sequential_mixed_horizons_error():
    a = make_baseline("last", 3, 2)
    b = make_baseline("last", 3, 3)
    with pytest.raises(ValueError, match="incompatible horizons"):
        sequential_forecast([a, b], [1.0, 2.0, 3.0], 4)


def test_sequential_two_model_average():
    ones = _const_model(3, 2, 1.0)
    threes = _const_model(3, 2, 3.0)
    out = sequential_forecast([ones, threes], [0.0, 0.0, 0.0], 4)
    np.testing.assert_array_equal(out, [2.0, 2.0, 2.0, 2.0])


def _reference_sequential_forecast(models, window, horizon):
    """Recursive blocks whose top-k mean is np.mean over a list of forecasts."""
    input_len, h = models[0].spec.input_len, models[0].spec.horizon
    history, outputs = np.asarray(window, dtype=np.float64), []
    for _ in range(-(-horizon // h)):
        block = np.mean([forecast(m, history[-input_len:]) for m in models], axis=0)
        outputs.append(block)
        history = np.concatenate([history, block])
    return np.concatenate(outputs)[:horizon]


@given(st.sampled_from([1, 2, 3, 5]), st.integers(1, 13), st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_block_mean_matches_np_mean_bit_for_bit(k, h, horizon, seed):
    rng = np.random.default_rng(seed)
    models = []
    for i in range(k):
        arch = ("linear", "last", "mean", "seasonal_naive")[int(rng.integers(4))]
        spec = ForecasterSpec(arch, 8, h, season_period=3)
        weights = {name: w * 10.0 ** rng.uniform(-3, 1) for name, w in init_weights(spec, seed + i).items()}
        models.append(Forecaster(spec=spec, weights=weights))
    window = rng.normal(size=8) * 10.0 ** rng.uniform(-3, 3)
    window[rng.random(8) < 0.25] = -0.0  # signed zeros must keep their sign too
    got = sequential_forecast(models, window, horizon)
    assert got.tobytes() == _reference_sequential_forecast(models, window, horizon).tobytes()


@pytest.mark.parametrize("horizon", [6, 8, 14, 18, 24, 36, 48])
def test_block_count_is_ceil_h_over_h(horizon, monkeypatch):
    h = 12
    model = make_baseline("last", 36, h)
    calls = {"n": 0}
    from zoocast import forecasters as fmod
    from zoocast import fusion as fusion_mod

    real = fmod.forecast

    def counting(m, window):
        calls["n"] += 1
        return real(m, window)

    monkeypatch.setattr(fusion_mod.forecasters, "forecast", counting)
    sequential_forecast([model], np.arange(36.0), horizon)
    assert calls["n"] == -(-horizon // h)


# -- matching ----------------------------------------------------------------


def test_match_single_model_zoo():
    model = make_baseline("last", 6, 2)
    zoo = _make_zoo({"only": model}, {"only": np.array([1.0, 0.0])}, input_len=6)
    result = match(zoo, np.arange(6.0))
    assert result.ranking[0][0] == "only"


def test_match_hand_cosine():
    model = make_baseline("last", 6, 2)
    zoo = _make_zoo(
        {"m1": model, "m2": model},
        {"m1": np.array([1.0, 0.0]), "m2": np.array([0.0, 1.0])},
        input_len=6,
    )
    mu = np.array([0.9, 0.1])
    # bypass the extractor: rank directly against a fixed encoding
    from zoocast.extractor import cosine

    scores = {e.model_id: cosine(e.representation, mu) for e in zoo.entries}
    assert scores["m1"] == pytest.approx(0.9 / np.hypot(0.9, 0.1))
    assert scores["m1"] > scores["m2"]
    assert scores["m2"] == pytest.approx(0.1 / np.hypot(0.9, 0.1))


def test_match_exact_representation_ranks_first():
    model = make_baseline("last", 6, 2)
    zoo = _make_zoo(
        {"m1": model, "m2": model},
        {"m1": np.array([1.0, 0.0, 0.0]), "m2": np.zeros(3)},
        input_len=6,
    )
    window = np.arange(6.0)
    norm_win, _ = normalize(window)
    from zoocast.extractor import encode

    mu = encode(zoo.extractor_params, norm_win)
    zoo.entries[1].representation[:] = mu  # make m2 the exact match
    result = match(zoo, window)
    assert result.ranking[0][0] == "m2"
    assert result.ranking[0][1] == pytest.approx(1.0)


def test_match_tie_broken_by_manifest_order():
    model = make_baseline("last", 6, 2)
    same = np.array([1.0, 1.0])
    zoo = _make_zoo({"first": model, "second": model}, {"first": same, "second": same.copy()}, input_len=6)
    result = match(zoo, np.arange(6.0))
    assert result.ranking[0][0] == "first"


# -- multivariate pipeline ---------------------------------------------------


def _last_zoo(input_len=6, horizon=2, n=1):
    models = {f"m{i}": make_baseline("last", input_len, horizon) for i in range(n)}
    reprs = {f"m{i}": np.eye(3)[i % 3] + 0.01 * i for i in range(n)}
    return _make_zoo(models, reprs, input_len=input_len)


def test_single_channel_reduces_to_sequential(monkeypatch):
    zoo = _last_zoo()
    values = np.array([2.0, 4.0, 6.0, 8.0, 10.0, 12.0])[:, None]
    series = MultivariateSeries(values)
    pred, selections, stats = forecast_multivariate(zoo, series, FusionConfig(horizon=5, top_k=1))
    norm_win, st = normalize(values[:, 0])
    expected = st.std * sequential_forecast([zoo.forecaster("m0")], norm_win, 5) + st.mean
    np.testing.assert_allclose(pred.values[:, 0], expected, atol=1e-12)


def test_last_model_zoo_reproduces_naive_last():
    zoo = _last_zoo(input_len=8, horizon=3)
    rng = np.random.default_rng(0)
    values = rng.uniform(-5, 5, size=(8, 2))
    for horizon in (1, 3, 7, 10):
        pred, _, _ = forecast_multivariate(zoo, MultivariateSeries(values), FusionConfig(horizon=horizon))
        for c in range(2):
            np.testing.assert_allclose(pred.values[:, c], np.full(horizon, values[-1, c]), atol=1e-9)


def test_top_k_mean_of_constant_models():
    ones = _const_model(4, 2, 1.0)
    threes = _const_model(4, 2, 3.0)
    zoo = _make_zoo(
        {"a": ones, "b": threes},
        {"a": np.array([1.0, 0.0]), "b": np.array([0.8, 0.2])},
        input_len=4,
    )
    values = np.array([1.0, 2.0, 3.0, 4.0])[:, None]
    pred, _, _ = forecast_multivariate(zoo, MultivariateSeries(values), FusionConfig(horizon=2, top_k=2))
    _, st = normalize(values[:, 0])
    np.testing.assert_allclose(pred.values[:, 0], st.std * 2.0 + st.mean, atol=1e-12)


def test_pipeline_affine_equivariance():
    zoo = _last_zoo(input_len=6, horizon=2, n=3)
    rng = np.random.default_rng(1)
    base = rng.uniform(-1, 1, size=(6, 2))
    cfg = FusionConfig(horizon=5, top_k=2)
    pred_base, sel_base, _ = forecast_multivariate(zoo, MultivariateSeries(base), cfg)
    for _ in range(20):
        a = float(rng.uniform(0.1, 10.0))
        b = float(rng.uniform(-100.0, 100.0))
        pred, sel, _ = forecast_multivariate(zoo, MultivariateSeries(a * base + b), cfg)
        np.testing.assert_allclose(pred.values, a * pred_base.values + b, rtol=1e-6, atol=1e-9)
        for c in range(2):
            assert [m for m, _ in sel[c].ranking] == [m for m, _ in sel_base[c].ranking]


def test_channel_permutation_equivariance():
    zoo = _last_zoo(input_len=6, horizon=2, n=2)
    rng = np.random.default_rng(2)
    values = rng.uniform(-3, 3, size=(6, 3))
    cfg = FusionConfig(horizon=4)
    pred, _, _ = forecast_multivariate(zoo, MultivariateSeries(values), cfg)
    perm = [2, 0, 1]
    pred_perm, _, _ = forecast_multivariate(zoo, MultivariateSeries(values[:, perm]), cfg)
    np.testing.assert_array_equal(pred_perm.values, pred.values[:, perm])


def test_top1_identical_to_best_model_alone():
    zoo = _last_zoo(input_len=6, horizon=2, n=3)
    rng = np.random.default_rng(3)
    values = rng.uniform(0, 1, size=(6, 1))
    series = MultivariateSeries(values)
    pred, sel, _ = forecast_multivariate(zoo, series, FusionConfig(horizon=5, top_k=1))
    norm_win, stats = normalize(values[:, 0])
    alone = denormalize(sequential_forecast([zoo.forecaster(sel[0].chosen[0])], norm_win, 5), stats)
    np.testing.assert_array_equal(pred.values[:, 0], alone)


def test_pipeline_length_mismatch():
    zoo = _last_zoo(input_len=6, horizon=2)
    with pytest.raises(ValueError, match="6"):
        forecast_multivariate(zoo, MultivariateSeries(np.ones((5, 1))), FusionConfig(horizon=2))


def test_top_k_exceeding_zoo_size():
    zoo = _last_zoo()
    with pytest.raises(ValueError, match="top_k"):
        forecast_multivariate(zoo, MultivariateSeries(np.ones((6, 1)) * np.arange(6)[:, None]), FusionConfig(horizon=2, top_k=5))


def test_diverging_recursion_names_the_channel_and_block():
    spec = ForecasterSpec("linear", input_len=4, horizon=2)
    w = np.zeros((2, 4))
    w[:, -1] = 1e200  # block 0 stays finite, block 1 overflows
    models = {"ok": _zero_model(4, 2), "boom": Forecaster(spec=spec, weights={"W": w, "b": np.zeros(2)})}
    series = MultivariateSeries(np.array([[1.0, 4.0], [2.0, 1.0], [3.0, 3.0], [4.0, 2.0]]))
    # each model's representation is one channel's encoding, so matching picks "ok", then "boom"
    params = init_params(4, 4, 3, seed=0)
    encodings = [encode(params, normalize(series.channel(c))[0]) for c in range(2)]
    zoo = zoo_from_models(models, params, dict(zip(models, encodings)))
    assert [match(zoo, series.channel(c)).chosen for c in range(2)] == [("ok",), ("boom",)]
    cfg = FusionConfig(horizon=6)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"channel 1 .*step 2 \(block 1\)"):
            forecast_multivariate(zoo, series, cfg)


OVERFLOWING_CHANNELS = {
    "all-huge": np.full(6, 1e308),
    "huge-then-minus-huge": np.repeat([1e308, -1e308], 3),  # sum is inf - inf = nan
}


@pytest.mark.parametrize("channel", OVERFLOWING_CHANNELS.values(), ids=OVERFLOWING_CHANNELS.keys())
def test_overflowing_channel_is_named_without_a_warning(channel):
    series = MultivariateSeries(np.stack([np.arange(6.0), channel], axis=1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^channel 1: values overflow instance normalization$"):
            forecast_multivariate(_last_zoo(), series, FusionConfig(horizon=2))


# -- matched requests, channel by channel ------------------------------------

ARCHITECTURES = ("linear", "patch_mlp", "last", "mean", "seasonal_naive")


def _every_architecture_zoo(h, seed, input_len=8):
    """One model per architecture, random weights at random scales."""
    rng = np.random.default_rng(seed)
    models = {}
    for i, arch in enumerate(ARCHITECTURES):
        spec = ForecasterSpec(arch, input_len, h, patch_len=3, hidden_dim=4, season_period=3)
        weights = {name: w * 10.0 ** rng.uniform(-2, 0) for name, w in init_weights(spec, seed + i).items()}
        models[arch] = Forecaster(spec=spec, weights=weights)
    return _make_zoo(models, {arch: rng.normal(size=3) for arch in ARCHITECTURES})


def _per_channel_form(zoo, values, chosen, horizon):
    """The channel-by-channel form: 1-D normalize, sequential_forecast over
    the channel's chosen models and denormalize for each channel."""
    columns, stats = [], []
    for c, model_ids in enumerate(chosen):
        norm_win, st_c = normalize(values[:, c])
        models = [zoo.forecaster(model_id) for model_id in model_ids]
        columns.append(denormalize(sequential_forecast(models, norm_win, horizon), st_c))
        stats.append(st_c)
    return np.stack(columns, axis=1), stats


@given(
    seed=st.integers(0, 2**32 - 1),
    h=st.integers(1, 7),
    horizon=st.integers(1, 30),
    top_k=st.integers(1, 3),
    channels=st.integers(1, 9),
)
@settings(max_examples=60, deadline=None)
def test_matched_request_equals_the_per_channel_form_bit_for_bit(seed, h, horizon, top_k, channels):
    zoo = _every_architecture_zoo(h, seed % 1000)
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(8, channels)) * 10.0 ** rng.uniform(-3, 3) + rng.uniform(-50, 50)
    values[:, rng.random(channels) < 0.2] = 4.0  # constant channels take the std fallback
    pred, selections, stats = forecast_multivariate(
        zoo, MultivariateSeries(values), FusionConfig(horizon=horizon, top_k=top_k)
    )
    expected, expected_stats = _per_channel_form(zoo, values, [s.chosen for s in selections], horizon)
    assert pred.values.tobytes() == expected.tobytes()
    assert pred.values.flags.c_contiguous
    assert stats == expected_stats
    assert [len(s.chosen) for s in selections] == [top_k] * channels


# -- the batched matched path ------------------------------------------------


def _tied_zoo(h, seed, input_len=8):
    """`_every_architecture_zoo` where "mean" shares "linear"'s representation
    (a tie in every row's ranking) and "last" has a zero representation."""
    zoo = _every_architecture_zoo(h, seed, input_len)
    reprs = {e.model_id: e.representation for e in zoo.entries}
    reprs["mean"], reprs["last"] = reprs["linear"].copy(), np.zeros(3)
    return _make_zoo({e.model_id: zoo.forecaster(e.model_id) for e in zoo.entries}, reprs)


def _first_uses(zoo, call):
    """(call's result, the model ids in the order `zoo.forecaster` first sees them)."""
    seen, real = [], zoo.forecaster
    zoo.forecaster = lambda model_id: seen.append(model_id) or real(model_id)
    try:
        return call(), list(dict.fromkeys(seen))
    finally:
        del zoo.forecaster


@given(
    seed=st.integers(0, 2**32 - 1),
    h=st.integers(1, 7),
    horizon=st.integers(1, 30),
    top_k=st.integers(1, 3),
    rows=st.integers(1, 12),
)
@settings(max_examples=60, deadline=None)
def test_batched_path_equals_the_per_channel_form_bit_for_bit(seed, h, horizon, top_k, rows):
    zoo = _tied_zoo(h, seed % 1000)
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(rows, 8)) * 10.0 ** rng.uniform(-3, 3) + rng.uniform(-50, 50)
    values[rng.random(rows) < 0.2] = 4.0  # constant rows take the std fallback
    cfg = FusionConfig(horizon=horizon, top_k=top_k)
    (pred, choice), batched_loads = _first_uses(zoo, lambda: forecast_rows(zoo, values, cfg))
    (expected, selections, _), loop_loads = _first_uses(
        zoo, lambda: forecast_multivariate(zoo, MultivariateSeries(values.T), cfg)
    )
    assert pred.tobytes() == expected.values.T.tobytes()
    assert [tuple(zoo.entries[i].model_id for i in row) for row in choice] == [s.chosen for s in selections]
    assert batched_loads == loop_loads  # a zoo fault names the model the loop would load first


@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 32),
    shape=st.tuples(st.integers(1, 9), st.integers(1, 9)),
    repeats=st.lists(st.tuples(st.booleans(), st.integers(0, 8), st.integers(0, 8)), max_size=3),
)
@settings(max_examples=150, deadline=None)
def test_cosine_matrix_equals_cosine_bit_for_bit(seed, d, shape, repeats):
    rng = np.random.default_rng(seed)
    a, b = (rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-4, 4) for n in shape)
    for in_b, i, j in repeats:  # duplicated rows (ties) and zero rows
        m = b if in_b else a
        m[i % len(m)] = m[j % len(m)] if i != j else 0.0
    expected = np.array([[cosine(u, v) for v in b] for u in a])
    assert cosine_matrix(a, b).tobytes() == expected.tobytes()


def test_batched_scores_are_the_cosines_of_each_rows_encoding(monkeypatch):
    zoo = _tied_zoo(3, 5)
    values = np.random.default_rng(5).normal(size=(6, 8))
    values[2] = 1.5
    scored, real = [], extractor_mod.cosine_matrix
    monkeypatch.setattr(extractor_mod, "cosine_matrix", lambda a, b: scored.append(real(a, b)) or scored[-1])
    forecast_rows(zoo, values, FusionConfig(horizon=3, top_k=2))
    encodings = [encode(zoo.extractor_params, normalize(row)[0]) for row in values]
    expected = np.array([[cosine(entry.representation, e) for entry in zoo.entries] for e in encodings])
    assert len(scored) == 1 and scored[0].tobytes() == expected.tobytes()
    assert (expected[:, 0] == expected[:, 3]).all() and (expected[:, 2] == 0.0).all()  # the tie and the zero


def _fault(call) -> str:
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            call()
    return str(info.value)


@pytest.mark.parametrize("overflowing", [[1], [2, 4], [0, 3]], ids=str)
def test_batched_path_names_the_first_overflowing_row(overflowing):
    values = np.tile(np.arange(6.0), (5, 1))
    values[overflowing] = np.repeat([1e308, -1e308], 3)
    cfg = FusionConfig(horizon=2)
    message = _fault(lambda: forecast_rows(_last_zoo(), values, cfg))
    assert message == f"channel {overflowing[0]}: values overflow instance normalization"
    assert message == _fault(lambda: forecast_multivariate(_last_zoo(), MultivariateSeries(values.T), cfg))


@pytest.mark.parametrize("flat", [[0, 1], [1, 3], [0, 2, 3]], ids=str)
def test_batched_path_names_the_first_diverging_row(flat):
    spec = ForecasterSpec("linear", input_len=4, horizon=2)
    w = np.zeros((2, 4))
    w[:, -1] = 1e200  # a flat row forecasts zeros; any other stays finite for one block, then overflows
    zoo = _make_zoo({"boom": Forecaster(spec=spec, weights={"W": w, "b": np.zeros(2)})}, {"boom": np.ones(3)})
    values = np.tile(np.arange(4.0), (4, 1))
    values[flat] = 2.0
    cfg = FusionConfig(horizon=6)
    first = min(set(range(4)) - set(flat))
    message = _fault(lambda: forecast_rows(zoo, values, cfg))
    assert message == f"forecast diverged: channel {first} turns non-finite at step 2 (block 1)"
    assert message == _fault(lambda: forecast_multivariate(zoo, MultivariateSeries(values.T), cfg))


@pytest.mark.parametrize("scale", [1e307, 1e160], ids=str)
def test_overflowing_encoding_is_named_before_any_model_loads(scale):
    # every model used to score 0.0 on such an encoding, and matching took manifest order
    base = _last_zoo(n=3)
    params = init_params(6, 4, 3, seed=0)
    weights = dict(params.weights, W2=params.weights["W2"] * scale, b1=np.zeros(4))  # a flat row encodes as b2
    zoo = zoo_from_models(
        {e.model_id: base.forecaster(e.model_id) for e in base.entries},
        ExtractorParams(weights, 6, 4, 3),
        {e.model_id: e.representation for e in base.entries},
    )
    values = np.random.default_rng(0).normal(size=(4, 6))
    values[0] = 2.0
    loads, real = [], zoo.forecaster
    zoo.forecaster = lambda model_id: loads.append(model_id) or real(model_id)
    cfg = FusionConfig(horizon=2, top_k=2)
    assert _fault(lambda: forecast_rows(zoo, values, cfg)) == "channel 1: encoding overflows float64"
    assert loads == []
    assert _fault(lambda: forecast_multivariate(zoo, MultivariateSeries(values.T), cfg)) == (
        "channel 1: encoding overflows float64"
    )
    assert _fault(lambda: match(zoo, values[1])) == "encoding overflows float64"


def _loud_encoder_zoo():
    """`_last_zoo` with its extractor's W1 and W2 scaled by 1e200, so `encode` overflows."""
    zoo = _last_zoo()
    weights = {name: w * 1e200 if name in ("W1", "W2") else w for name, w in zoo.extractor_params.weights.items()}
    return zoo_from_models({"m0": zoo.forecaster("m0")}, ExtractorParams(weights, 6, 4, 3), {"m0": zoo.entries[0].representation})


@pytest.mark.parametrize(
    "zoo, window, message",
    [
        (_last_zoo, np.full(6, 1e308), "values overflow instance normalization"),
        (_loud_encoder_zoo, np.arange(6.0), "encoding overflows float64"),
    ],
    ids=["values", "encoding"],
)
def test_a_standalone_match_names_an_overflow_without_a_warning(zoo, window, message):
    # each used to warn first: "overflow encountered in reduce", "in matmul"
    assert _fault(lambda: match(zoo(), window)) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: sequential_forecast([], np.zeros(4), 2), "need at least one model"),
        (lambda: sequential_forecast([_zero_model(4, 2), _zero_model(5, 2)], np.zeros(4), 2), "incompatible input lengths: 4 vs 5"),
        (lambda: sequential_forecast([_zero_model(4, 2)], np.zeros(5), 2), "window length (5,) != input_len 4"),
        (lambda: forecast_rows(_last_zoo(), np.zeros(6), FusionConfig(horizon=2)), "expected (R, T) rows, got shape (6,)"),
    ],
    ids=["no-models", "mixed-input-lengths", "wrong-window-length", "rows-not-2d"],
)
def test_entry_points_name_a_malformed_call(call, message):
    assert _fault(call) == message


# -- config checks -----------------------------------------------------------


def test_fusion_config_rejects_a_float_horizon():
    # forecast_multivariate once ended in a TypeError from np.empty
    with pytest.raises(ValueError, match=r"^field 'horizon' must be an integer, got 12\.0$"):
        FusionConfig(horizon=12.0)


@pytest.mark.parametrize("horizon", [2**20 + 1, 2**62, 10**30])
def test_fusion_config_rejects_a_horizon_over_max_size(horizon):
    # 2**62 and 10**30 were once numpy's own "array is too big" or "Maximum allowed dimension exceeded"
    with pytest.raises(ValueError, match=rf"^field 'horizon' must be at most {2**20}, got {horizon}$"):
        FusionConfig(horizon=horizon)


def test_fusion_config_takes_a_horizon_of_max_size():
    assert FusionConfig(horizon=2**20).horizon == 2**20


@pytest.mark.parametrize("top_k", [2.0, True], ids=["float", "bool"])
def test_fusion_config_rejects_a_non_integer_top_k(top_k):
    # matching once ended in "slice indices must be integers"
    with pytest.raises(ValueError, match=rf"^field 'top_k' must be an integer, got {top_k}$"):
        FusionConfig(horizon=12, top_k=top_k)
