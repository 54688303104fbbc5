import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from zoocast import bench, forecasters, fusion
from zoocast.bench import (
    METRIC_FNS,
    BenchConfig,
    SyntheticFamilySpec,
    default_family_suite,
    evaluation_windows,
    generate_synthetic,
    run_benchmark,
)
from zoocast.core import Dataset, MultivariateSeries, canonical_json, denormalize, mse, normalize, normalize_rows
from zoocast.extractor import init_params
from zoocast.extractor import save as save_extractor
from zoocast.forecasters import Forecaster, ForecasterSpec, init_weights, make_baseline
from zoocast.forecasters import save as save_model
from zoocast.zoo import build_zoo, load_zoo, zoo_from_models


def test_sine_periodicity():
    data = generate_synthetic(SyntheticFamilySpec(kind="sine", period=12, noise_std=0.0, length=100, seed=0))
    x = data.series.channel(0)
    np.testing.assert_allclose(x[12:], x[:-12], atol=1e-12)


def test_sawtooth_shape():
    data = generate_synthetic(SyntheticFamilySpec(kind="sawtooth", period=4, noise_std=0.0, length=12, seed=0))
    x = data.series.channel(0)
    np.testing.assert_allclose(x[:4], [0.0, 0.25, 0.5, 0.75])


def test_trend_sine_has_drift():
    spec = SyntheticFamilySpec(kind="trend_sine", period=10, noise_std=0.0, length=400, seed=0)
    x = generate_synthetic(spec).series.channel(0)
    # linear drift of 0.01 per step dominates over a full period
    assert x[300:].mean() - x[:100].mean() == pytest.approx(0.01 * 300, abs=0.5)


def test_synthetic_determinism():
    spec = SyntheticFamilySpec(kind="ar1", noise_std=0.3, length=200, seed=9, channels=2)
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    np.testing.assert_array_equal(a.series.values, b.series.values)
    assert a.name == b.name


def test_random_walk_variance_matches_closed_form():
    sigma = 0.5
    t = 50
    finals = []
    for seed in range(1000):
        spec = SyntheticFamilySpec(kind="random_walk", noise_std=sigma, length=t, seed=seed)
        finals.append(generate_synthetic(spec).series.channel(0)[-1])
    assert np.var(finals) == pytest.approx(t * sigma**2, rel=0.10)


def test_invalid_specs():
    with pytest.raises(ValueError, match="kind"):
        SyntheticFamilySpec(kind="square")
    with pytest.raises(ValueError, match="noise_std"):
        SyntheticFamilySpec(kind="sine", noise_std=-1.0)
    with pytest.raises(ValueError, match="horizons"):
        BenchConfig(horizons=())
    with pytest.raises(ValueError, match="metrics"):
        BenchConfig(metrics=("rmse",))


@pytest.mark.parametrize("metric", sorted(METRIC_FNS))
def test_score_names_the_metric_that_overflows(metric, recwarn):
    truth, pred = np.array([[1e308], [-1e308]]), np.array([[-1e308], [1e308]])
    with pytest.raises(ValueError, match=rf"^metric '{metric}' overflows float64"):
        bench.score(metric, truth, pred)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert bench.score(metric, truth * 1e-300, pred * 1e-300) == METRIC_FNS[metric](truth * 1e-300, pred * 1e-300)


def test_score_rejects_an_smape_term_whose_denominator_overflows():
    # |Y| + |Yhat| = inf would turn the term 0.1 / 1.9 into a silent 0
    with pytest.raises(ValueError, match=r"^metric 'smape' overflows float64"):
        bench.score("smape", np.array([[1e308]]), np.array([[0.9e308]]))


@pytest.mark.parametrize("metrics, repeated", [(("mse", "mse"), "mse"), (("smape", "mse", "mape", "mse"), "mse")])
def test_bench_config_rejects_a_repeated_metric(metrics, repeated):
    # each of its per-window records was once written twice
    with pytest.raises(ValueError, match=rf"^metrics name '{repeated}' more than once$"):
        BenchConfig(metrics=metrics)


def test_synthetic_spec_names_a_string_amplitude():
    # was accepted, and generate_synthetic then failed inside numpy
    with pytest.raises(ValueError, match=r"^field 'amplitude' must be a finite number, got 'x'$"):
        SyntheticFamilySpec(kind="sine", amplitude="x")


def test_synthetic_spec_names_a_string_noise_std():
    # was a TypeError from the range check
    with pytest.raises(ValueError, match=r"^field 'noise_std' must be a finite number, got '0\.1'$"):
        SyntheticFamilySpec(kind="sine", noise_std="0.1")


def test_synthetic_spec_rejects_an_int_beyond_float64():
    with pytest.raises(ValueError, match=r"^field 'amplitude' must be a finite number, got 1000"):
        SyntheticFamilySpec(kind="sine", amplitude=10**400)


@pytest.mark.parametrize("kind", bench.SYNTH_KINDS)
@pytest.mark.parametrize("amplitude", [1.0, 1e308])
def test_generate_synthetic_names_the_fields_of_a_series_that_overflows(kind, amplitude):
    # was "non-finite input" from MultivariateSeries, after a numpy RuntimeWarning for some kinds
    spec = SyntheticFamilySpec(kind=kind, amplitude=amplitude, noise_std=1e308, length=50)
    expected = f"amplitude {amplitude!r} and noise_std 1e+308 overflow float64 in a series of kind '{kind}'"
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        generate_synthetic(spec)


def test_generate_synthetic_keeps_a_huge_amplitude_that_fits():
    values = generate_synthetic(SyntheticFamilySpec(kind="sawtooth", period=4, amplitude=1e308, length=8)).series.values
    assert np.array_equal(values[:, 0], 1e308 * (np.arange(8) % 4 / 4))


def test_bench_config_names_a_metric_that_is_not_a_string():
    with pytest.raises(ValueError, match=r"^field 'metrics' must be a list of strings, got \(5,\)$"):
        BenchConfig(metrics=(5,))


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"seed": -1}, "^field 'seed' must be >= 0, got -1$"),  # was numpy's "expected non-negative integer"
        ({"length": 2**62}, rf"^field 'length' must be at most {2**20}, got {2**62}$"),  # was accepted
        ({"period": 0}, "^field 'period' must be >= 1, got 0$"),
        ({"noise_std": -0.1}, r"^field 'noise_std' must be >= 0, got -0\.1$"),
        # was accepted, and generate_synthetic would then build 2**40 values
        ({"length": 2**20, "channels": 2**20}, f"^length {2**20} and channels {2**20} would hold more than {2**20} values$"),
        ({"length": 2**19, "channels": 3}, f"^length {2**19} and channels 3 would hold more than {2**20} values$"),
    ],
)
def test_synthetic_family_spec_names_a_field_out_of_range(fields, message):
    with pytest.raises(ValueError, match=message):
        SyntheticFamilySpec(kind="sine", **fields)


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"top_k": 0}, "^field 'top_k' must be >= 1, got 0$"),  # was accepted
        ({"season_period": 0}, "^field 'season_period' must be >= 1, got 0$"),  # raised after the zoo forecast
        # both ended in numpy's "array is too big; ..." from evaluation_windows
        ({"look_back": 2**62}, rf"^field 'look_back' must be at most {2**20}, got {2**62}$"),
        ({"horizons": (6, 2**62)}, rf"^field 'horizons' must be at most {2**20}, got {2**62}$"),
        ({"horizons": ()}, "^field 'horizons' must be nonempty$"),  # was "horizons must be nonempty", naming no field
    ],
)
def test_bench_config_names_a_field_out_of_range(fields, message):
    with pytest.raises(ValueError, match=message):
        BenchConfig(**fields)


@pytest.mark.parametrize("look_back", [0, -5])
def test_bench_config_rejects_a_look_back_below_one(look_back):
    with pytest.raises(ValueError, match=rf"^field 'look_back' must be >= 1, got {look_back}$"):
        BenchConfig(look_back=look_back)


@pytest.mark.parametrize("horizons, bad", [((0,), 0), ((6, -8), -8), ((-36,), -36)])
def test_bench_config_rejects_a_horizon_below_one(horizons, bad):
    # (-36,) with the default look_back 36 once tiled with stride 0: ZeroDivisionError
    with pytest.raises(ValueError, match=rf"^field 'horizons' must be >= 1, got {bad}$"):
        BenchConfig(horizons=horizons)


def test_bench_config_rejects_a_float_horizon():
    # run_benchmark once ended in a TypeError from the window tiler
    with pytest.raises(ValueError, match=r"^field 'horizons' must be a list of integers, got \(12\.0,\)$"):
        BenchConfig(horizons=(12.0,))


@pytest.mark.parametrize("length, channels", [(2**20, 1), (2**19, 2), (1, 2**20)])
def test_synthetic_family_spec_takes_values_up_to_max_size(length, channels):
    SyntheticFamilySpec(kind="sine", length=length, channels=channels)


def test_synthetic_family_spec_rejects_a_float_length():
    with pytest.raises(ValueError, match=r"^field 'length' must be an integer, got 100\.0$"):
        SyntheticFamilySpec(kind="sine", length=100.0)


def test_evaluation_windows_tile_the_tail():
    data = generate_synthetic(SyntheticFamilySpec(kind="sine", length=100, seed=0))
    x, truth = evaluation_windows(data, look_back=10, horizon=5)
    assert x.shape == (100 // 15, 10, 1)
    assert truth.shape == (100 // 15, 5, 1)
    # windows are non-overlapping and contiguous
    full = np.concatenate([np.concatenate([w, t]) for w, t in zip(x, truth)])
    np.testing.assert_array_equal(full[:, 0], data.series.channel(0)[100 - len(full) :])


def _reference_windows(data, look_back, horizon):
    """The tiling loop the harness used before it stacked windows."""
    out = []
    series = data.series
    total = look_back + horizon
    start = series.length - (series.length // total) * total
    for s in range(start, series.length - total + 1, total):
        window = MultivariateSeries(series.values[s : s + look_back], series.channel_names)
        truth = MultivariateSeries(series.values[s + look_back : s + total], series.channel_names)
        out.append((window, truth))
    return out


@given(st.integers(1, 80), st.integers(1, 3), st.integers(1, 12), st.integers(1, 12), st.sampled_from("CF"))
def test_evaluation_windows_equal_the_loop(length, channels, look_back, horizon, order):
    # the windows are views of the series, also of one given Fortran-ordered
    values = np.asarray(np.arange(length * channels, dtype=np.float64).reshape(length, channels), order=order)
    data = Dataset(MultivariateSeries(values, tuple("abc"[:channels])), "d")
    x, truth = evaluation_windows(data, look_back, horizon)
    expected = _reference_windows(data, look_back, horizon)
    assert len(x) == len(truth) == len(expected)
    assert not len(x) or np.shares_memory(x, data.series.values) and np.shares_memory(truth, data.series.values)
    assert x.shape[1:] == (look_back, channels) and truth.shape[1:] == (horizon, channels)
    for x_w, truth_w, (ref_window, ref_future) in zip(x, truth, expected):
        assert np.array_equal(x_w, ref_window.values)
        assert np.array_equal(truth_w, ref_future.values)


def _reference_run_benchmark(cfg, zoo, datasets):
    """run_benchmark as the per-window loop it was before windows were
    stacked: one forecast per window, method and zoo model."""
    methods = ["zoocast", "last", "mean", "seasonal_naive"]
    rows = []
    zoo_distribution = []
    warnings = []
    for data in datasets:
        for horizon in cfg.horizons:
            windows = _reference_windows(data, cfg.look_back, horizon)
            if not windows:
                warnings.append(f"{data.name}: horizon {horizon} skipped (series too short)")
                continue
            fusion_cfg = fusion.FusionConfig(horizon=horizon, top_k=cfg.top_k)
            for method in methods:
                scores = {m: [] for m in cfg.metrics}
                for window, truth in windows:
                    if method == "zoocast":
                        pred, _, _ = fusion.forecast_multivariate(zoo, window, fusion_cfg)
                    else:
                        model = make_baseline(method, window.length, horizon, cfg.season_period)
                        pred = MultivariateSeries(
                            forecasters.forecast_batch(model, window.values.T).T, window.channel_names
                        )
                    for metric in cfg.metrics:
                        scores[metric].append(METRIC_FNS[metric](truth, pred))
                rows.append(
                    {
                        "dataset": data.name,
                        "method": method,
                        "horizon": horizon,
                        **{m: float(np.mean(scores[m])) for m in cfg.metrics},
                        "windows": scores,
                    }
                )
        horizon = cfg.horizons[0]
        windows = _reference_windows(data, cfg.look_back, horizon)
        for entry in zoo.entries:
            values = []
            model = zoo.forecaster(entry.model_id)
            for window, truth in windows:
                columns = []
                for c in range(window.num_channels):
                    norm_win, stats = normalize(window.channel(c))
                    columns.append(denormalize(fusion.sequential_forecast([model], norm_win, horizon), stats))
                values.append(mse(truth, np.stack(columns, axis=1)))
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
        "format_version": 2,
        "config": {
            "look_back": cfg.look_back,
            "horizons": list(cfg.horizons),
            "metrics": list(cfg.metrics),
            "top_k": cfg.top_k,
        },
        "rows": rows,
        "summary": summary_rows,
        "zoo_distribution": zoo_distribution,
        "warnings": warnings,
    }


def _mixed_zoo(input_len=12, horizon=4):
    """The three baselines and a random linear model, at random places."""
    models = {name: make_baseline(name, input_len, horizon, season_period=5) for name in forecasters.BASELINES}
    spec = ForecasterSpec("linear", input_len, horizon)
    models["linear"] = Forecaster(spec=spec, weights=init_weights(spec, seed=3))
    rng = np.random.default_rng(11)
    params = init_params(input_len, 8, 4, seed=0)
    return zoo_from_models(models, params, {name: rng.normal(size=4) for name in models})


def _named_dataset(length, name="named", channels=3):
    rng = np.random.default_rng(length)
    values = 5.0 + np.cumsum(rng.normal(size=(length, channels)), axis=0)
    return Dataset(MultivariateSeries(values, tuple(f"ch{c}" for c in range(channels))), name)


def _assert_reports_identical(cfg, zoo, datasets):
    report = run_benchmark(cfg, zoo, datasets)
    got = canonical_json(report)
    assert got == canonical_json(_reference_run_benchmark(cfg, zoo, datasets))
    assert json.loads(got) == report
    return got


def test_run_benchmark_rejects_a_repeated_dataset_name_before_any_forecast(monkeypatch):
    # two datasets named 'x' once gave 4 summary rows instead of 8, each averaging both
    def no_forecast(*args):
        raise AssertionError("forecast before the names were checked")

    monkeypatch.setattr(fusion, "forecast_rows", no_forecast)
    suite = [_named_dataset(120, "x"), _named_dataset(150, "y"), _named_dataset(130, "x", channels=1)]
    with pytest.raises(ValueError, match="^duplicate dataset name 'x'$"):
        run_benchmark(BenchConfig(look_back=12, horizons=(4,)), _mixed_zoo(), suite)


def test_stacked_harness_matches_reference_on_named_channels():
    cfg = BenchConfig(look_back=12, horizons=(4, 9))
    _assert_reports_identical(cfg, _mixed_zoo(), [_named_dataset(200)])


def test_stacked_harness_matches_reference_with_three_metrics_and_top2():
    cfg = BenchConfig(look_back=12, horizons=(4, 6, 17), metrics=("mse", "smape", "mape"), top_k=2, season_period=3)
    datasets = [_named_dataset(150), _named_dataset(90, "one-channel", channels=1)]
    _assert_reports_identical(cfg, _mixed_zoo(), datasets)


def test_stacked_harness_matches_reference_when_one_horizon_is_too_long():
    cfg = BenchConfig(look_back=12, horizons=(4, 30))
    report = _assert_reports_identical(cfg, _mixed_zoo(), [_named_dataset(30)])
    assert b"horizon 30 skipped" in report


def test_stacked_harness_matches_reference_when_every_horizon_is_too_long():
    cfg = BenchConfig(look_back=12, horizons=(4, 8), metrics=("mse", "smape"))
    datasets = [_named_dataset(15, "tiny"), _named_dataset(60)]
    report = run_benchmark(cfg, _mixed_zoo(), datasets)
    assert {d["dataset"] for d in report["zoo_distribution"]} == {"named"}
    assert len(report["warnings"]) == 2
    _assert_reports_identical(cfg, _mixed_zoo(), datasets)


@pytest.mark.parametrize("short_first", [True, False])
def test_stacked_harness_matches_reference_when_a_dataset_is_skipped_only_at_the_first_horizon(short_first):
    # the 30-point dataset has no window at horizon 30 and one at horizon 4: it has rows but no zoo distribution
    cfg = BenchConfig(look_back=12, horizons=(30, 4))
    datasets = [_named_dataset(30, "short"), _named_dataset(200)]
    datasets = datasets if short_first else datasets[::-1]
    report = run_benchmark(cfg, _mixed_zoo(), datasets)
    assert report["warnings"] == ["short: horizon 30 skipped (series too short)"]
    assert [(r["dataset"], r["horizon"]) for r in report["rows"] if r["method"] == "zoocast"] == [
        (data.name, horizon) for data in datasets for horizon in cfg.horizons if (data.name, horizon) != ("short", 30)
    ]
    assert {d["dataset"] for d in report["zoo_distribution"]} == {"named"}
    _assert_reports_identical(cfg, _mixed_zoo(), datasets)


def test_stacked_harness_matches_reference_on_the_default_config():
    # the default BenchConfig's traffic: five one-channel families of 1200 points, a 36 -> 12 zoo
    report = _assert_reports_identical(BenchConfig(), _mixed_zoo(36, 12), default_family_suite(seed=7, length=1200))
    assert b'"warnings":[]' in report


def test_stacked_harness_matches_reference_on_mixed_channels_and_a_repeated_horizon():
    # "short" has one window at horizon 4 and none at horizon 9
    cfg = BenchConfig(look_back=12, horizons=(4, 9, 4), metrics=("mse", "smape", "mape"), top_k=2, season_period=3)
    datasets = [_named_dataset(150), _named_dataset(20, "short", channels=1), _named_dataset(90, "one-channel", channels=1)]
    report = run_benchmark(cfg, _mixed_zoo(), datasets)
    assert report["warnings"] == ["short: horizon 9 skipped (series too short)"]
    assert [(d["dataset"], d["model_id"]) for d in report["zoo_distribution"]] == [
        (data.name, entry.model_id) for data in datasets for entry in _mixed_zoo().entries
    ]
    _assert_reports_identical(cfg, _mixed_zoo(), datasets)


def test_stacked_harness_matches_reference_on_a_fortran_ordered_and_a_column_strided_dataset():
    # a Fortran-ordered series once kept its layout: four zoocast rows and one zoo_distribution
    # entry differed from the per-window loop in the last bit
    values = _named_dataset(200).series.values
    strided = np.empty((len(values), 6))
    strided[:, ::2] = values
    datasets = [
        Dataset(MultivariateSeries(np.asfortranarray(values)), "fortran"),
        Dataset(MultivariateSeries(strided[:, ::2]), "strided"),
    ]
    cfg = BenchConfig(look_back=12, horizons=(4, 9), metrics=("mse", "smape", "mape"), top_k=2)
    _assert_reports_identical(cfg, _mixed_zoo(), datasets)


def test_stacked_harness_matches_reference_on_interleaved_channel_counts():
    # no two adjacent datasets share a channel count, so each is scored as a run of its own
    cfg = BenchConfig(look_back=12, horizons=(4, 9), metrics=("mse", "smape", "mape"), top_k=2, season_period=3)
    datasets = [_named_dataset(150), _named_dataset(90, "one-channel", channels=1), _named_dataset(120, "again")]
    _assert_reports_identical(cfg, _mixed_zoo(), datasets)


def _five_model_zoo(input_len=36, horizon=12):
    """`_mixed_zoo` with a second random linear model."""
    zoo = _mixed_zoo(input_len, horizon)
    models = {e.model_id: zoo.forecaster(e.model_id) for e in zoo.entries}
    spec = ForecasterSpec("linear", input_len, horizon)
    models["linear2"] = Forecaster(spec=spec, weights=init_weights(spec, seed=4))
    reprs = {e.model_id: e.representation for e in zoo.entries}
    reprs["linear2"] = np.random.default_rng(12).normal(size=4)
    return zoo_from_models(models, zoo.extractor_params, reprs)


def _count_metric_calls(monkeypatch) -> list:
    calls = []
    for name, fn in METRIC_FNS.items():
        monkeypatch.setitem(METRIC_FNS, name, lambda truth, pred, name=name, fn=fn: calls.append(name) or fn(truth, pred))
    return calls


def test_harness_scores_each_horizon_once_per_method_and_metric(monkeypatch):
    # the default suite is one run of one-channel datasets: 7 horizons x 4 methods + 5 zoo models
    # (a call per dataset, 7 x 4 x 5 + 5 x 5 = 165, before runs were scored as one stack)
    calls = _count_metric_calls(monkeypatch)
    run_benchmark(BenchConfig(), _five_model_zoo(), default_family_suite(seed=7, length=1200))
    assert len(calls) == 33


def test_harness_scores_interleaved_channel_counts_once_per_run(monkeypatch):
    # three runs at each horizon: at horizon 4 "short" and "one-channel" make one, and at horizon 9
    # "short" has no window
    cfg = BenchConfig(look_back=12, horizons=(4, 9), metrics=("mse", "smape", "mape"), top_k=2, season_period=3)
    datasets = [
        _named_dataset(150),
        _named_dataset(20, "short", channels=1),
        _named_dataset(90, "one-channel", channels=1),
        _named_dataset(120, "again"),
    ]
    calls = _count_metric_calls(monkeypatch)
    run_benchmark(cfg, _mixed_zoo(), datasets)
    runs = {4: 3, 9: 3}
    assert len(calls) == sum(runs.values()) * 4 * 3 + runs[4] * len(_mixed_zoo().entries)
    assert calls[: 3 * 4] == list(cfg.metrics) * 4  # method-major over the first run


def test_a_later_datasets_row_fault_wins_over_an_earlier_datasets_score_fault():
    # "scores" forecasts finitely but its squared errors overflow; "rows" overflows normalization.
    # Rows of every dataset are forecast before any dataset is scored, so "rows" names the fault.
    values = np.concatenate([np.full(12, 2.0**660), np.full(4, -(2.0**660))])[:, None]  # a constant look-back
    scores = Dataset(MultivariateSeries(values), "scores")
    rows = Dataset(MultivariateSeries(np.resize([1e300, -1e300], (16, 1))), "rows")
    cfg = BenchConfig(look_back=12, horizons=(4,))
    with pytest.raises(ValueError, match=r"^metric 'mse' overflows float64 on these values$"):
        run_benchmark(cfg, _mixed_zoo(), [scores])
    expected = r"^dataset 'rows', horizon 4, window 0, channel 0: values overflow instance normalization$"
    with pytest.raises(ValueError, match=expected):
        run_benchmark(cfg, _mixed_zoo(), [scores, rows])


def test_a_runs_first_metric_fault_wins_over_an_earlier_datasets_later_metric():
    # one run of two one-channel datasets is scored metric by metric over both:
    # "b"'s mse fault comes before "a"'s smape fault, which a dataset-by-dataset pass met first
    zoo = zoo_from_models({"m0": make_baseline("last", 1, 1)}, init_params(1, 4, 3, seed=0), {"m0": np.ones(3)})
    a = Dataset(MultivariateSeries(np.full((4, 1), 0.95e308)), "a")  # exact forecasts, but |Y| + |Yhat| overflows
    b = Dataset(MultivariateSeries(np.resize([1.0, 1e200], (4, 1))), "b")  # the squared error overflows
    cfg = BenchConfig(look_back=1, horizons=(1,), metrics=("mse", "smape"))
    with pytest.raises(ValueError, match=r"^metric 'smape' overflows float64 on these values$"):
        run_benchmark(cfg, zoo, [a])
    with pytest.raises(ValueError, match=r"^metric 'mse' overflows float64 on these values$"):
        run_benchmark(cfg, zoo, [a, b])


def test_an_earlier_horizons_fault_wins_over_an_earlier_datasets_later_horizon():
    # "long"'s huge first value is in its horizon-5 window only; "late" overflows at horizon 4
    long = Dataset(MultivariateSeries(np.concatenate([[1e300], np.ones(16)])[:, None]), "long")
    late = Dataset(MultivariateSeries(np.resize([1e300, -1e300], (16, 1))), "late")
    expected = r"^dataset 'late', horizon 4, window 0, channel 0: values overflow instance normalization$"
    with pytest.raises(ValueError, match=expected):
        run_benchmark(BenchConfig(look_back=12, horizons=(4, 5)), _mixed_zoo(), [long, late])
    expected = r"^dataset 'long', horizon 5, window 0, channel 0: values overflow instance normalization$"
    with pytest.raises(ValueError, match=expected):
        run_benchmark(BenchConfig(look_back=12, horizons=(4, 5)), _mixed_zoo(), [long])


def test_stacked_harness_error_says_how_windows_were_stacked():
    spec = ForecasterSpec("linear", 12, 4)
    weights = {"W": np.zeros((4, 12)), "b": np.zeros(4)}
    weights["W"][:, -1] = 1e200  # finite for a flat window, overflows on any other
    zoo = zoo_from_models({"boom": Forecaster(spec, weights)}, init_params(12, 4, 3, seed=0), {"boom": np.ones(3)})
    values = np.random.default_rng(0).normal(size=(100, 2))
    values[:60] = 1.0  # the first three windows are flat
    # window 3, channel 0 is stacked row 3 * 2 + 0; the label names it as the harness stacked it
    expected = r"^forecast diverged: dataset 'd', horizon 8, window 3, channel 0 turns non-finite at step 4 \(block 1\)$"
    with pytest.raises(ValueError, match=expected), np.errstate(over="ignore", invalid="ignore"):
        run_benchmark(BenchConfig(look_back=12, horizons=(8,)), zoo, [Dataset(MultivariateSeries(values), "d")])


@pytest.mark.parametrize("fault", ["digest", "parse"])
def test_harness_passes_zoo_faults_on_in_their_own_words(tmp_path, fault):
    spec = ForecasterSpec("linear", 12, 4)
    (tmp_path / "only.json").write_bytes(save_model(Forecaster(spec, init_weights(spec, seed=0))))
    (tmp_path / "extractor.json").write_bytes(save_extractor(init_params(12, 4, 3, seed=0)))
    source = _named_dataset(60, "source", channels=1)
    out = build_zoo([tmp_path / "only.json"], [source], tmp_path / "extractor.json", tmp_path / "zoo", 4)
    victim = out / "only.model.json"
    if fault == "digest":
        victim.write_bytes(victim.read_bytes() + b" ")
    else:  # a model file that does not parse, under a manifest digest that matches it
        victim.write_bytes(b"{")
        manifest = json.loads((out / "zoo.json").read_bytes())
        manifest["entries"][0]["digest"] = hashlib.sha256(b"{").hexdigest()
        (out / "zoo.json").write_bytes(json.dumps(manifest).encode())
    with pytest.raises(ValueError) as direct:
        load_zoo(out).forecaster("only")
    with pytest.raises(ValueError) as harness:
        run_benchmark(BenchConfig(look_back=12, horizons=(4,)), load_zoo(out), [_named_dataset(100)])
    assert str(harness.value) == str(direct.value)


def _tiny_last_zoo(input_len=12, horizon=4):
    models = {"m0": make_baseline("last", input_len, horizon)}
    params = init_params(input_len, 4, 3, seed=0)
    return zoo_from_models(models, params, {"m0": np.ones(3)})


def test_benchmark_last_zoo_equals_last_baseline():
    zoo = _tiny_last_zoo()
    data = generate_synthetic(SyntheticFamilySpec(kind="sine", period=6, length=120, seed=1))
    cfg = BenchConfig(look_back=12, horizons=(4, 6), metrics=("mse",))
    report = run_benchmark(cfg, zoo, [data])
    by_key = {(r["method"], r["horizon"]): r["mse"] for r in report["rows"]}
    for horizon in (4, 6):
        assert by_key[("zoocast", horizon)] == pytest.approx(by_key[("last", horizon)], abs=1e-9)


def test_benchmark_seasonal_naive_exact_on_noiseless_periodic():
    zoo = _tiny_last_zoo(input_len=14, horizon=7)
    data = generate_synthetic(SyntheticFamilySpec(kind="sine", period=7, noise_std=0.0, length=210, seed=2))
    cfg = BenchConfig(look_back=14, horizons=(7,), season_period=7)
    report = run_benchmark(cfg, zoo, [data])
    seasonal = [r for r in report["rows"] if r["method"] == "seasonal_naive"]
    assert seasonal[0]["mse"] == pytest.approx(0.0, abs=1e-18)


def test_benchmark_determinism():
    zoo = _tiny_last_zoo()
    data = generate_synthetic(SyntheticFamilySpec(kind="ar1", noise_std=0.2, length=150, seed=3))
    cfg = BenchConfig(look_back=12, horizons=(4,))
    r1 = canonical_json(run_benchmark(cfg, zoo, [data]))
    r2 = canonical_json(run_benchmark(cfg, zoo, [data]))
    assert r1 == r2


def test_benchmark_skips_short_horizons_with_warning():
    zoo = _tiny_last_zoo()
    data = generate_synthetic(SyntheticFamilySpec(kind="sine", length=20, seed=4))
    cfg = BenchConfig(look_back=12, horizons=(4, 500))
    report = run_benchmark(cfg, zoo, [data])
    assert any("500" in w for w in report["warnings"])
    assert all(r["horizon"] != 500 for r in report["rows"])


def test_report_totals_match_per_window_recomputation():
    zoo = _tiny_last_zoo()
    data = generate_synthetic(SyntheticFamilySpec(kind="sawtooth", period=5, noise_std=0.1, length=160, seed=5))
    cfg = BenchConfig(look_back=12, horizons=(4, 8), metrics=("mse", "smape"))
    report = run_benchmark(cfg, zoo, [data])
    for row in report["rows"]:
        for metric in cfg.metrics:
            assert row[metric] == pytest.approx(np.mean(row["windows"][metric]), abs=1e-12)


def test_zoo_distribution_present():
    zoo = _tiny_last_zoo()
    data = generate_synthetic(SyntheticFamilySpec(kind="sine", length=120, seed=6))
    report = run_benchmark(BenchConfig(look_back=12, horizons=(4,)), zoo, [data])
    assert report["zoo_distribution"]
    assert {d["model_id"] for d in report["zoo_distribution"]} == {"m0"}


def test_zoo_distribution_names_an_mse_that_overflows():
    # matching picks "small"; forcing "huge" forecasts ~1e200, whose squared error overflows
    spec = ForecasterSpec("linear", 8, 4)
    rng = np.random.default_rng(0)
    huge = Forecaster(spec=spec, weights={"W": rng.uniform(-3.5e199, 3.5e199, size=(4, 8)), "b": np.zeros(4)})
    small = Forecaster(spec=spec, weights={"W": rng.uniform(-0.3, 0.3, size=(4, 8)), "b": np.zeros(4)})
    reprs = {"huge": np.array([1.0, 0.0, 0.0]), "small": np.array([0.0, 1.0, 0.0])}
    zoo = zoo_from_models({"huge": huge, "small": small}, init_params(8, 4, 3, seed=0), reprs)
    data = generate_synthetic(SyntheticFamilySpec(kind="sine", period=5, length=60))
    first_window = MultivariateSeries(data.series.values[:8])
    assert fusion.forecast_multivariate(zoo, first_window, fusion.FusionConfig(4))[1][0].chosen == ("small",)
    with pytest.raises(ValueError, match="^metric 'mse' overflows float64 on these values$"):
        run_benchmark(BenchConfig(look_back=8, horizons=(4,)), zoo, [data])


def test_zoo_distribution_runs_one_stacked_recursion_per_model(monkeypatch):
    zoo = _mixed_zoo()
    datasets = [_named_dataset(200), _named_dataset(90, "one-channel", channels=1)]
    cfg = BenchConfig(look_back=12, horizons=(4, 9), top_k=2)
    model_ids = {id(zoo.forecaster(entry.model_id)): entry.model_id for entry in zoo.entries}
    requests, batched, recursions, inside, events = [], [], [], [], []
    real_forecast, real_rows, real_sequential = fusion.forecast_multivariate, fusion.forecast_rows, fusion.sequential_forecast

    def forecast_spy(zoo, series, fusion_cfg):
        requests.append(fusion_cfg)
        return real_forecast(zoo, series, fusion_cfg)

    def rows_spy(zoo, rows, fusion_cfg, where):
        events.append(("forecast_rows", fusion_cfg.horizon))
        inside.append([])
        try:
            pred, choice = real_rows(zoo, rows, fusion_cfg, where)
        finally:
            groups = inside.pop()
        batched.append((np.asarray(rows), fusion_cfg.horizon, fusion_cfg.top_k))
        norm = normalize_rows(rows)[0]
        chosen = [tuple(zoo.entries[i].model_id for i in row) for row in choice]
        # one recursion per distinct choice tuple, over exactly the rows that chose it, in row order
        assert sorted(ids for ids, _ in groups) == sorted(set(chosen))
        for ids, window in groups:
            assert np.array_equal(window, norm[[c == ids for c in chosen]])
        return pred, choice

    def sequential_spy(models, window, horizon):
        ids = tuple(model_ids[id(m)] for m in models)
        if inside:
            inside[-1].append((ids, np.asarray(window)))
        else:
            events.append(("zoo model", ids))
            recursions.append((list(ids), np.asarray(window), horizon))
        return real_sequential(models, window, horizon)

    monkeypatch.setattr(fusion, "forecast_multivariate", forecast_spy)
    monkeypatch.setattr(fusion, "forecast_rows", rows_spy)
    monkeypatch.setattr(fusion, "sequential_forecast", sequential_spy)
    run_benchmark(cfg, zoo, datasets)

    def stacked_rows(horizon):  # every dataset's (W*C, T) window-major channel rows, in suite order
        tiles = [evaluation_windows(data, cfg.look_back, horizon)[0] for data in datasets]
        return np.concatenate([x.transpose(0, 2, 1).reshape(-1, cfg.look_back) for x in tiles])

    assert requests == []  # the harness sends no per-channel request
    # one batched pass per horizon, in horizon order, over every dataset's windows
    def total_rows(horizon):  # the sum of W * C over datasets
        return sum(np.prod(evaluation_windows(data, cfg.look_back, horizon)[0].shape[::2]) for data in datasets)

    assert [(rows.shape, horizon, top_k) for rows, horizon, top_k in batched] == [
        ((total_rows(h), cfg.look_back), h, 2) for h in cfg.horizons
    ]
    for (rows, _, _), horizon in zip(batched, cfg.horizons):
        assert np.array_equal(rows, stacked_rows(horizon))
    # one recursion per zoo model over all datasets' first-horizon rows
    first = normalize_rows(stacked_rows(4))[0]
    assert [(ids, window.shape, horizon) for ids, window, horizon in recursions] == [
        ([entry.model_id], first.shape, 4) for entry in zoo.entries
    ]
    assert all(np.array_equal(window, first) for _, window, _ in recursions)
    # each zoo model runs in the first horizon's pass: after its matched forecast, before the second horizon's
    assert events == [("forecast_rows", 4), *(("zoo model", (entry.model_id,)) for entry in zoo.entries), ("forecast_rows", 9)]


def test_zoo_distribution_names_the_model_whose_forecast_diverges():
    spec = ForecasterSpec("linear", 8, 4)
    weights = {"W": np.zeros((4, 8)), "b": np.zeros(4)}
    weights["W"][:, -1] = 1e200  # finite after one block, overflows in the next
    models = {"boom": Forecaster(spec, weights), "up": make_baseline("last", 8, 4), "down": make_baseline("mean", 8, 4)}
    e = np.array([1.0, 0.0, 0.0])
    zoo = zoo_from_models(models, init_params(8, 4, 3, seed=0), {"boom": np.zeros(3), "up": e, "down": -e})
    suite = [generate_synthetic(SyntheticFamilySpec(kind="sine", period=5, length=60, seed=s)) for s in (0, 1)]
    for data in suite:
        for window in evaluation_windows(data, 8, 8)[0]:
            selection = fusion.forecast_multivariate(zoo, MultivariateSeries(window), fusion.FusionConfig(8))[1][0]
            assert selection.chosen != ("boom",)
    # both datasets diverge; the first row in suite order is named
    for datasets in (suite, suite[::-1]):
        expected = (
            rf"^forecast diverged: dataset '{datasets[0].name}', horizon 8, window 0, channel 0, model 'boom' "
            r"turns non-finite at step 4 \(block 1\)$"
        )
        with pytest.raises(ValueError, match=expected):
            run_benchmark(BenchConfig(look_back=8, horizons=(8,)), zoo, datasets)


def test_default_family_suite_has_five_distinct_families():
    suite = default_family_suite(seed=0)
    assert len(suite) == 5
    assert len({d.name for d in suite}) == 5
