import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zoocast.bench import SyntheticFamilySpec, generate_synthetic
from zoocast.core import Dataset, MultivariateSeries, normalize
from zoocast.forecasters import (
    Forecaster,
    ForecasterSpec,
    TrainConfig,
    extract_windows,
    forecast,
    forecast_batch,
    init_weights,
    load,
    loss_and_grad,
    make_baseline,
    save,
    train,
    train_many,
)


def _linear_spec(t=4, h=2):
    return ForecasterSpec(architecture="linear", input_len=t, horizon=h)


def _patch_spec(t=10, h=3, patch=4, hidden=5):
    return ForecasterSpec(architecture="patch_mlp", input_len=t, horizon=h, patch_len=patch, hidden_dim=hidden)


# -- forecast ----------------------------------------------------------------


def test_last_baseline():
    model = make_baseline("last", 3, 2)
    np.testing.assert_array_equal(forecast(model, [1.0, 2.0, 3.0]), [3.0, 3.0])


def test_linear_zero_weights():
    spec = _linear_spec(3, 4)
    model = Forecaster(spec=spec, weights={"W": np.zeros((4, 3)), "b": np.zeros(4)})
    np.testing.assert_array_equal(forecast(model, [1.0, 2.0, 3.0]), np.zeros(4))


def test_seasonal_naive_hand_trace():
    model = make_baseline("seasonal_naive", 4, 3, season_period=2)
    np.testing.assert_array_equal(forecast(model, [1.0, 2.0, 3.0, 4.0]), [3.0, 4.0, 3.0])


def test_forecast_length_mismatch():
    with pytest.raises(ValueError, match="input_len"):
        forecast(make_baseline("last", 3, 2), [1.0, 2.0])
    with pytest.raises(ValueError, match=r"window length \(2, 4\) != input_len 3"):
        forecast(make_baseline("last", 3, 2), np.ones((2, 4)))
    with pytest.raises(ValueError, match="input_len"):
        forecast(make_baseline("last", 3, 2), 1.0)


@given(
    st.lists(st.floats(-100, 100, allow_nan=False), min_size=4, max_size=20),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=4),
)
def test_baselines_match_closed_forms(values, horizon, period):
    x = np.array(values)
    t = len(x)
    period = min(period, t)
    last = forecast(make_baseline("last", t, horizon), x)
    np.testing.assert_array_equal(last, np.full(horizon, x[-1]))
    mean = forecast(make_baseline("mean", t, horizon), x)
    np.testing.assert_allclose(mean, np.full(horizon, x.mean()))
    seasonal = forecast(make_baseline("seasonal_naive", t, horizon, season_period=period), x)
    expected = np.array([x[t - period + (i % period)] for i in range(horizon)])
    np.testing.assert_array_equal(seasonal, expected)


ALL_SPECS = [
    _linear_spec(20, 3),
    _patch_spec(t=20, h=3, patch=6, hidden=4),
    ForecasterSpec("last", 20, 3),
    ForecasterSpec("mean", 20, 3),
    ForecasterSpec("seasonal_naive", 20, 3, season_period=7),
]


def _reference_forecast(model, x):
    """The per-window forms each architecture's batch kernel replaced."""
    spec, w = model.spec, model.weights
    if spec.architecture == "linear":
        return w["W"] @ x + w["b"]
    if spec.architecture == "patch_mlp":
        return forecast_batch(model, x[None, :])[0]
    if spec.architecture == "last":
        return np.full(spec.horizon, x[-1])
    if spec.architecture == "mean":
        return np.full(spec.horizon, x.mean())
    period = min(spec.season_period, spec.input_len)
    return x[spec.input_len - period + (np.arange(spec.horizon) % period)]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.architecture)
@given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 9))
@settings(max_examples=30, deadline=None)
def test_forecast_is_a_row_of_forecast_batch(spec, seed, batch):
    rng = np.random.default_rng(seed)
    model = Forecaster(spec=spec, weights=init_weights(spec, seed))
    windows = rng.normal(size=(batch, spec.input_len)) * 10.0 ** rng.uniform(-3, 3)
    for view in (windows, np.asfortranarray(windows)):
        rows = forecast_batch(model, view)
        assert rows.shape == (batch, spec.horizon)
        # a stack of windows, of any rank, gets each window's own bits
        stacked = forecast(model, view)
        assert stacked.tobytes() == np.stack([forecast(model, x) for x in view]).tobytes()
        assert forecast(model, view.reshape(1, batch, -1)).tobytes() == stacked.tobytes()
        for i, x in enumerate(view):
            single = forecast(model, x)
            assert np.array_equal(single, _reference_forecast(model, x))
            if spec.architecture in ("linear", "patch_mlp"):
                # BLAS sums a matrix product in another order than a
                # matrix-vector product, so batched rows may differ in the last bit
                np.testing.assert_allclose(rows[i], single, rtol=1e-12, atol=1e-12)
            else:
                assert np.array_equal(rows[i], single)


@given(
    seed=st.integers(0, 2**32 - 1),
    channels=st.integers(1, 3),
    length=st.integers(1, 40),
    input_len=st.integers(1, 8),
    horizon=st.integers(1, 5),
    stride=st.integers(1, 6),
)
@settings(max_examples=50, deadline=None)
def test_extract_windows_matches_per_window_loop(seed, channels, length, input_len, horizon, stride):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(length, channels)) * 10.0 ** rng.uniform(-3, 3, size=channels)
    values[:, 0] = values[0, 0]  # one flat channel exercises the std fallback
    data = Dataset(series=MultivariateSeries(values), name="d")
    xs, ys = [], []
    total = input_len + horizon
    for c in range(channels):
        chan = values[:, c]
        for start in range(0, length - total + 1, stride):
            norm_win, stats = normalize(chan[start : start + input_len])
            xs.append(norm_win)
            ys.append((chan[start + input_len : start + total] - stats.mean) / stats.std)
    if not xs:
        with pytest.raises(ValueError, match="no training windows"):
            extract_windows(data, input_len, horizon, stride)
        return
    windows, targets = extract_windows(data, input_len, horizon, stride)
    assert np.array_equal(windows, np.stack(xs))
    assert np.array_equal(targets, np.stack(ys))


# -- gradients ---------------------------------------------------------------


def _finite_difference(spec, weights, windows, targets, eps=1e-5):
    fd = {}
    for name, w in weights.items():
        g = np.zeros_like(w)
        for i in range(w.size):
            wp = {k: v.copy() for k, v in weights.items()}
            wp[name].flat[i] += eps
            lp, _ = loss_and_grad(spec, wp, windows, targets)
            wm = {k: v.copy() for k, v in weights.items()}
            wm[name].flat[i] -= eps
            lm, _ = loss_and_grad(spec, wm, windows, targets)
            g.flat[i] = (lp - lm) / (2 * eps)
        fd[name] = g
    return fd


def _assert_grads_close(analytic, numeric, rel=1e-4):
    for name in analytic:
        a, f = analytic[name], numeric[name]
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(f)))
        assert np.max(np.abs(a - f) / denom) < rel, name


def test_zero_instance_gives_zero_loss_and_grads():
    spec = _linear_spec()
    weights = {"W": np.zeros((2, 4)), "b": np.zeros(2)}
    loss, grads = loss_and_grad(spec, weights, np.zeros((3, 4)), np.zeros((3, 2)))
    assert loss == 0.0
    assert all(np.all(g == 0) for g in grads.values())


@pytest.mark.parametrize("architecture", ["last", "mean", "seasonal_naive"])
def test_loss_and_grad_refuses_a_baseline(architecture):
    spec = make_baseline(architecture, 4, 2).spec
    with pytest.raises(ValueError) as info:
        loss_and_grad(spec, {}, np.zeros((3, 4)), np.zeros((3, 2)))
    assert str(info.value) == f"{architecture} has no trainable weights"


@pytest.mark.parametrize("spec", [_linear_spec(), _patch_spec()], ids=["linear", "patch_mlp"])
def test_gradients_match_finite_differences(spec):
    rng = np.random.default_rng(0)
    for trial in range(50):
        weights = init_weights(spec, seed=trial)
        windows = rng.standard_normal((4, spec.input_len))
        targets = rng.standard_normal((4, spec.horizon))
        loss, grads = loss_and_grad(spec, weights, windows, targets)
        _assert_grads_close(grads, _finite_difference(spec, weights, windows, targets))


def test_batch_duplication_invariance():
    spec = _patch_spec()
    rng = np.random.default_rng(5)
    weights = init_weights(spec, seed=5)
    windows = rng.standard_normal((3, spec.input_len))
    targets = rng.standard_normal((3, spec.horizon))
    loss1, grads1 = loss_and_grad(spec, weights, windows, targets)
    loss2, grads2 = loss_and_grad(spec, weights, np.tile(windows, (2, 1)), np.tile(targets, (2, 1)))
    assert loss1 == pytest.approx(loss2)
    for name in grads1:
        np.testing.assert_allclose(grads1[name], grads2[name], atol=1e-12)


# -- training ----------------------------------------------------------------


def _sine_dataset(length=200, period=12, seed=0, name="sine"):
    t = np.arange(length)
    x = np.sin(2 * np.pi * t / period)
    return Dataset(series=MultivariateSeries(x[:, None]), name=name)


def test_train_constant_series():
    values = np.full((80, 1), 7.0)
    data = Dataset(series=MultivariateSeries(values), name="const")
    spec = _linear_spec(t=8, h=4)
    model = train(spec, data, TrainConfig(epochs=10, learning_rate=0.1, seed=1))
    pred = forecast(model, np.zeros(8))  # normalized constant window is all zeros
    np.testing.assert_allclose(pred, np.zeros(4), atol=1e-3)


def test_train_sine_reaches_low_loss():
    data = _sine_dataset(length=400)
    spec = ForecasterSpec(architecture="linear", input_len=36, horizon=12)
    model = train(spec, data, TrainConfig(epochs=10, learning_rate=0.001, seed=0))
    assert model.epoch_losses[-1] < 0.05


def test_train_monotone_smoothed():
    data = _sine_dataset(length=300, seed=2)
    for arch_spec in (ForecasterSpec("linear", 36, 12), ForecasterSpec("patch_mlp", 36, 12)):
        model = train(arch_spec, data, TrainConfig(epochs=10, learning_rate=0.001, seed=3))
        assert model.epoch_losses[-1] <= model.epoch_losses[0]


def test_train_determinism():
    data = _sine_dataset()
    spec = _patch_spec(t=16, h=4)
    cfg = TrainConfig(epochs=3, learning_rate=0.01, seed=42)
    m1 = train(spec, data, cfg)
    m2 = train(spec, data, cfg)
    assert save(m1) == save(m2)
    for name in m1.weights:
        assert np.array_equal(m1.weights[name], m2.weights[name])


def test_train_insufficient_data():
    data = Dataset(series=MultivariateSeries(np.ones((5, 1))), name="short")
    with pytest.raises(ValueError, match="no training windows"):
        train(_linear_spec(t=8, h=4), data, TrainConfig())


def test_train_config_rejects_a_float_epoch_count():
    # train once ended in a TypeError from the SGD loop
    with pytest.raises(ValueError, match=r"^field 'epochs' must be an integer, got 2\.0$"):
        TrainConfig(epochs=2.0)


def test_train_config_rejects_a_bool_learning_rate():
    # was accepted: `True > 0`
    with pytest.raises(ValueError, match=r"^field 'learning_rate' must be a finite number, got True$"):
        TrainConfig(learning_rate=True)


def test_train_config_rejects_an_infinite_learning_rate():
    # was accepted, and train_many then diverged in epoch 1
    with pytest.raises(ValueError, match=r"^field 'learning_rate' must be a finite number, got inf$"):
        TrainConfig(learning_rate=float("inf"))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: TrainConfig(seed=-1), "^field 'seed' must be >= 0, got -1$"),
        (lambda: TrainConfig(epochs=2**62), rf"^field 'epochs' must be at most {2**20}, got {2**62}$"),
        (lambda: _patch_spec(hidden=10**30), rf"^field 'hidden_dim' must be at most {2**20}, got {10**30}$"),
        (lambda: _linear_spec(h=2**62), rf"^field 'horizon' must be at most {2**20}, got {2**62}$"),
    ],
    ids=["negative-seed", "huge-epochs", "huge-hidden-dim", "huge-horizon"],
)
def test_configs_name_a_seed_below_zero_or_a_size_numpy_cannot_take(make, message):
    # each once raised numpy's own text, such as "expected non-negative integer" or "array is too big"
    with pytest.raises(ValueError, match=message):
        make()


def test_a_linear_spec_rejects_a_patch_len_below_one():
    # was accepted: only patch_mlp specs checked patch_len and hidden_dim
    with pytest.raises(ValueError, match="^field 'patch_len' must be >= 1, got 0$"):
        ForecasterSpec("linear", 36, 12, patch_len=0)


def test_train_many_names_a_weight_tensor_too_large_before_drawing_it():
    # every size fits MAX_SIZE, but W_out is horizon x hidden_dim * num_patches = 2**60 values:
    # was numpy's "array is too big; ..." from init_weights
    spec = ForecasterSpec("patch_mlp", input_len=2**20, horizon=2**20, patch_len=1, hidden_dim=2**20)
    data = Dataset(MultivariateSeries(np.sin(np.arange(2**21) / 7.0)), "long")
    with pytest.raises(ValueError, match=rf"^weight tensor 'W_out' of shape \({2**20}, {2**40}\) would hold more than {2**20} values$"):
        train_many(spec, [data], TrainConfig(epochs=1))


def test_train_config_takes_an_integer_learning_rate():
    assert TrainConfig(learning_rate=1).learning_rate == 1


def test_train_divergence_detected():
    data = _sine_dataset(length=100)
    with pytest.raises(ValueError, match="diverged"):
        train(ForecasterSpec("linear", 36, 12), data, TrainConfig(epochs=50, learning_rate=1e4, seed=0))


def test_train_divergence_names_the_epoch(monkeypatch):
    import zoocast.forecasters as forecasters_mod

    calls = []

    def counted(*args):
        calls.append(None)
        return loss_and_grad(*args)

    monkeypatch.setattr(forecasters_mod, "loss_and_grad", counted)
    data = _sine_dataset(length=100)
    with pytest.raises(ValueError, match=r"diverged in epoch 1$"):
        train(ForecasterSpec("linear", 36, 12), data, TrainConfig(epochs=50, learning_rate=1e4, seed=0))
    assert 0 < len(calls) <= 53  # a diverged run stops after its epoch of 53 steps


def _per_model_train(spec, data, cfg):
    """The per-model SGD loop that lockstep training replaced."""
    windows, targets = extract_windows(data, spec.input_len, spec.horizon, cfg.stride)
    weights = init_weights(spec, cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)
    n = windows.shape[0]
    epoch_losses = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_windows, epoch_targets = windows[order], targets[order]
        batch_losses = []
        for start in range(0, n, cfg.batch_size):
            stop = start + cfg.batch_size
            loss, grads = loss_and_grad(spec, weights, epoch_windows[start:stop], epoch_targets[start:stop])
            if not np.isfinite(loss):
                raise ValueError(f"training diverged in epoch {epoch + 1}")
            for name, g in grads.items():
                weights[name] -= cfg.learning_rate * g
            batch_losses.append(loss)
        epoch_losses.append(float(np.mean(batch_losses)))
    return Forecaster(spec=spec, weights=weights, source_dataset=data.name, epoch_losses=tuple(epoch_losses))


def _ragged_suite():
    """Five series in three window-count groups, two of them shared; one
    series has two channels."""
    kinds = (("sine", 12, 160), ("sawtooth", 9, 120), ("random_walk", 12, 160), ("trend_sine", 18, 97), ("sine", 5, 120))
    return [
        generate_synthetic(SyntheticFamilySpec(kind=kind, period=period, length=length, seed=seed, channels=1 + (seed == 3)))
        for seed, (kind, period, length) in enumerate(kinds)
    ]


@pytest.mark.parametrize("batch_size", [1, 3])
@pytest.mark.parametrize("spec", [_linear_spec(12, 4), _patch_spec(t=12, h=4, patch=5, hidden=6)], ids=["linear", "patch_mlp"])
def test_train_many_is_bit_identical_to_per_model_training(spec, batch_size):
    suite = _ragged_suite()
    assert len({extract_windows(d, spec.input_len, spec.horizon)[0].shape[0] for d in suite}) == 3
    for seed, stride in ((0, 1), (1, 3)):
        cfg = TrainConfig(epochs=3, learning_rate=0.01, batch_size=batch_size, seed=seed, stride=stride)
        models = train_many(spec, suite, cfg)
        assert [m.source_dataset for m in models] == [d.name for d in suite]
        for data, model in zip(suite, models):
            reference = _per_model_train(spec, data, cfg)
            assert save(model) == save(reference)
            assert model.epoch_losses == reference.epoch_losses
            assert save(train(spec, data, cfg)) == save(reference)


def test_train_many_names_the_first_dataset_that_cannot_be_cut():
    suite = _ragged_suite()
    short1, short2 = (Dataset(series=MultivariateSeries(np.ones((10, 1))), name=f"short{i}") for i in (1, 2))
    with pytest.raises(ValueError, match="^no training windows of length 16 in dataset 'short1'$"):
        train_many(_linear_spec(12, 4), [suite[0], short1, suite[1], short2], TrainConfig(epochs=1))
    with pytest.raises(ValueError, match="not trainable"):
        train_many(ForecasterSpec("last", 12, 4), suite, TrainConfig(epochs=1))
    assert train_many(_linear_spec(12, 4), [], TrainConfig()) == []


def test_train_many_names_a_later_uncuttable_dataset_before_an_earlier_divergence():
    diverging = _sine_dataset(length=100)
    short = Dataset(series=MultivariateSeries(np.ones((10, 1))), name="short")
    spec, cfg = ForecasterSpec("linear", 36, 12), TrainConfig(epochs=50, learning_rate=1e4, seed=0)
    with pytest.raises(ValueError, match=r"^training failed on dataset 'sine': training diverged in epoch 1$"):
        train_many(spec, [diverging], cfg)
    with pytest.raises(ValueError, match="^no training windows of length 48 in dataset 'short'$"):
        train_many(spec, [diverging, short], cfg)


def test_linear_close_to_least_squares():
    # trained linear loss within 10% of the exact normal-equations optimum
    data = _sine_dataset(length=240, period=8)
    spec = ForecasterSpec("linear", input_len=16, horizon=4)
    windows, targets = extract_windows(data, 16, 4)
    x_aug = np.hstack([windows, np.ones((windows.shape[0], 1))])
    coef, *_ = np.linalg.lstsq(x_aug, targets, rcond=None)
    optimal = float(np.mean((x_aug @ coef - targets) ** 2))
    model = train(spec, data, TrainConfig(epochs=50, learning_rate=0.01, seed=0))
    trained = float(np.mean((forecast_batch(model, windows) - targets) ** 2))
    assert trained <= optimal * 1.10 + 1e-12


# -- persistence -------------------------------------------------------------


def test_save_load_round_trip():
    data = _sine_dataset(length=120)
    model = train(_patch_spec(t=12, h=3), data, TrainConfig(epochs=2, seed=9))
    restored = load(save(model))
    for name in model.weights:
        assert np.array_equal(model.weights[name], restored.weights[name])
    rng = np.random.default_rng(1)
    for _ in range(10):
        window = rng.standard_normal(12)
        np.testing.assert_array_equal(forecast(model, window), forecast(restored, window))
    assert restored.source_dataset == "sine"


def test_load_rejects_truncated_file():
    blob = save(train(_linear_spec(), _sine_dataset(length=60), TrainConfig(epochs=1)))
    with pytest.raises(ValueError, match="malformed"):
        load(blob[: len(blob) // 2])


def test_load_rejects_wrong_tensors():
    model = train(_patch_spec(t=12, h=3), _sine_dataset(length=60), TrainConfig(epochs=1))
    blob = save(model)
    import json

    payload = json.loads(blob)
    payload["spec"]["architecture"] = "linear"
    with pytest.raises(ValueError, match="do not match"):
        load(json.dumps(payload).encode())


def test_load_rejects_bad_version_and_shape():
    import json

    model = train(_linear_spec(), _sine_dataset(length=60), TrainConfig(epochs=1))
    payload = json.loads(save(model))
    payload["format_version"] = 99
    with pytest.raises(ValueError, match="format_version"):
        load(json.dumps(payload).encode())
    payload["format_version"] = 1
    payload["weights"]["b"] = [0.0]  # wrong length
    with pytest.raises(ValueError, match="shape"):
        load(json.dumps(payload).encode())


@pytest.mark.parametrize(
    "spec", [None, {"architecture": "linear", "input_len": 4, "horizon": 2, "bogus": 1}], ids=["null", "unknown-key"]
)
def test_load_rejects_malformed_spec(spec):
    import json

    payload = json.loads(save(train(_linear_spec(), _sine_dataset(length=60), TrainConfig(epochs=1))))
    payload["spec"] = spec
    with pytest.raises(ValueError, match="'spec'"):
        load(json.dumps(payload).encode())


def test_extract_windows_normalizes_with_window_stats():
    values = np.arange(20.0)[:, None]
    data = Dataset(series=MultivariateSeries(values), name="ramp")
    windows, targets = extract_windows(data, input_len=4, horizon=2, stride=3)
    # each window is normalized to mean 0; target shares the window's stats
    assert np.allclose(windows.mean(axis=1), 0.0, atol=1e-12)
    from zoocast.core import normalize

    w0 = np.arange(4.0)
    norm, stats = normalize(w0)
    np.testing.assert_allclose(windows[0], norm)
    np.testing.assert_allclose(targets[0], (np.array([4.0, 5.0]) - stats.mean) / stats.std)


def test_extract_windows_names_a_target_far_outside_its_window_scale(recwarn):
    # the window's std is 1e-7, so the target 1e308 normalizes past float64
    values = np.array([0.0, 2e-7, 0.0, 2e-7, 1e308])[:, None]
    with pytest.raises(ValueError, match="^dataset 'far': values overflow instance normalization$"):
        extract_windows(Dataset(MultivariateSeries(values), "far"), input_len=4, horizon=1)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def _spike(length, spikes):
    values = np.zeros((length, 3))
    values[len(values) - len(spikes):] = np.asarray(spikes)[:, None]
    return Dataset(MultivariateSeries(values), "spike")


@pytest.mark.parametrize(
    "data, spec, cfg",
    [
        # flat windows before a 1.3e154 spike: each of the three channels' windows
        # has a finite loss near 8.4e307, and their epoch mean overflows
        (_spike(6, [1.3e154]), _linear_spec(), TrainConfig(epochs=1, learning_rate=1e-300)),
        # epoch 1's 12 step losses are all finite (the largest 1.1025e308) but
        # overflow their mean; epoch 2's second step is inf
        (_spike(8, [5.25e153, 1.05e154]), ForecasterSpec("linear", 4, 1), TrainConfig(epochs=4, learning_rate=1.0)),
    ],
    ids=["one-epoch", "steps-finite-until-epoch-2"],
)
def test_train_many_names_an_epoch_whose_mean_loss_overflows(recwarn, data, spec, cfg):
    with pytest.raises(ValueError, match="^training failed on dataset 'spike': training diverged in epoch 1$"):
        train_many(spec, [data], cfg)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
