import numpy as np
import pytest

from zoocast.bench import (
    BenchConfig,
    SyntheticFamilySpec,
    default_family_suite,
    evaluation_windows,
    generate_synthetic,
    report_to_bytes,
    run_benchmark,
)
from zoocast.core import mse
from zoocast.extractor import init_params
from zoocast.forecasters import make_baseline
from zoocast.zoo import zoo_from_models


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


def test_evaluation_windows_tile_the_tail():
    data = generate_synthetic(SyntheticFamilySpec(kind="sine", length=100, seed=0))
    windows = evaluation_windows(data, look_back=10, horizon=5)
    assert len(windows) == 100 // 15
    for window, truth in windows:
        assert window.length == 10
        assert truth.length == 5
    # windows are non-overlapping and contiguous
    full = np.concatenate([np.concatenate([w.values, t.values]) for w, t in windows])
    np.testing.assert_array_equal(full[:, 0], data.series.channel(0)[100 - len(full) :])


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
    r1 = report_to_bytes(run_benchmark(cfg, zoo, [data]))
    r2 = report_to_bytes(run_benchmark(cfg, zoo, [data]))
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
            values = [
                w["value"]
                for w in report["per_window"]
                if w["dataset"] == row["dataset"]
                and w["method"] == row["method"]
                and w["horizon"] == row["horizon"]
                and w["metric"] == metric
            ]
            assert row[metric] == pytest.approx(np.mean(values), abs=1e-12)


def test_zoo_distribution_present():
    zoo = _tiny_last_zoo()
    data = generate_synthetic(SyntheticFamilySpec(kind="sine", length=120, seed=6))
    report = run_benchmark(BenchConfig(look_back=12, horizons=(4,)), zoo, [data])
    assert report["zoo_distribution"]
    assert {d["model_id"] for d in report["zoo_distribution"]} == {"m0"}


def test_default_family_suite_has_five_distinct_families():
    suite = default_family_suite(seed=0)
    assert len(suite) == 5
    assert len({d.name for d in suite}) == 5
