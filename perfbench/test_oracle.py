"""The oracle agrees with zoocast, and the benchmark's checks catch a
perturbed forecast.

    python3 -m pytest perfbench
"""

import json
import shutil

import numpy as np
import pytest

import oracle
import run
import workloads
from zoocast import bench, extractor, forecasters, fusion, zoo
from zoocast.core import MultivariateSeries

QUICK_TRAIN = forecasters.TrainConfig(epochs=1)
QUICK_EXTRACTOR = extractor.ExtractorTrainConfig(epochs=3)


def quick_build(suite, out_dir, *_, build=workloads.build_zoo_dir):
    return build(suite, out_dir, QUICK_TRAIN, QUICK_EXTRACTOR)


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    suite = bench.default_family_suite(seed=0, length=300)
    zoo_dir, _, _ = quick_build(suite, tmp_path_factory.mktemp("zoo"))
    return zoo_dir


def held_out(channels, seed=7, length=84, families=slice(None)):
    rng = np.random.default_rng(seed)
    suite = workloads.held_out_suite(seed, 400)[families]
    windows, _ = workloads.draw_windows(rng, suite, channels, length)
    return windows.T  # (length, channels)


@pytest.mark.parametrize("horizon,top_k", [(12, 1), (48, 3), (5, 2), (30, 5)])
def test_oracle_agrees_with_zoocast(built, horizon, top_k):
    x = held_out(8)[:36]
    x[:, 0] = 3.0  # constant channel: the std fallback
    pred, selections, _ = fusion.forecast_multivariate(
        zoo.load_zoo(built), MultivariateSeries(x), fusion.FusionConfig(horizon=horizon, top_k=top_k)
    )
    expected, chosen = oracle.OracleZoo(built).forecast(x, horizon, top_k)
    assert oracle.agrees(pred.values, expected)
    assert [s.chosen for s in selections] == chosen


def test_ties_keep_manifest_order(built, tmp_path):
    tied = tmp_path / "zoo"
    shutil.copytree(built, tied)
    manifest = json.loads((tied / "zoo.json").read_text())
    twin = dict(manifest["entries"][0], model_id="twin")
    manifest["entries"].insert(0, twin)
    (tied / "zoo.json").write_text(json.dumps(manifest))
    x = held_out(16, families=slice(0, 1))[:36]  # windows of the twinned model's family
    _, selections, _ = fusion.forecast_multivariate(
        zoo.load_zoo(tied), MultivariateSeries(x), fusion.FusionConfig(horizon=12, top_k=5)
    )
    _, chosen = oracle.OracleZoo(tied).forecast(x, 12, 5)
    assert [s.chosen for s in selections] == chosen
    first = manifest["entries"][1]["model_id"]
    assert all(c.index("twin") + 1 == c.index(first) for c in chosen if "twin" in c and first in c)
    assert any("twin" in c and first in c for c in chosen)


def test_oracle_flags_perturbed_weight(built):
    x = held_out(4)[:36]
    loaded = zoo.load_zoo(built)
    cfg = fusion.FusionConfig(horizon=24, top_k=1)
    _, selections, _ = fusion.forecast_multivariate(loaded, MultivariateSeries(x), cfg)
    loaded.forecaster(selections[0].chosen[0]).weights["W"][0, -1] += 1e-6
    pred, _, _ = fusion.forecast_multivariate(loaded, MultivariateSeries(x), cfg)
    expected, _ = oracle.OracleZoo(built).forecast(x, 24, 1)
    assert not oracle.agrees(pred.values, expected)


def test_benchmark_summary_matches_run_benchmark(built):
    suite = workloads.held_out_suite(3, 300)
    cfg = bench.BenchConfig()
    summary = bench.run_benchmark(cfg, zoo.load_zoo(built), suite)["summary"]
    expected = oracle.benchmark_summary(
        oracle.OracleZoo(built), [(d.name, d.series.values) for d in suite],
        cfg.look_back, cfg.horizons, cfg.top_k, cfg.season_period,
    )  # fmt: skip
    assert {(r["dataset"], r["method"]) for r in summary} == set(expected)
    for row in summary:
        assert oracle.agrees(row["mse"], expected[(row["dataset"], row["method"])])


def test_perturbed_forecast_counts_as_failed_op(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "build_zoo_dir", quick_build)
    monkeypatch.setattr(workloads.ForecastWide, "warmup_ops", 1)
    wide = workloads.ForecastWide(seed=1, workdir=tmp_path)
    wide.setup()
    runner = run.Runner(wide)
    runner.run(0)
    assert (runner.attempted, runner.failed) == (1, 0)
    for model_id in wide.oracle.model_ids:
        wide.zoo.forecaster(model_id).weights["b"][0] += 1e-6
    runner.run(1)
    assert (runner.attempted, runner.failed) == (2, 1)


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in spec["per_layer"])
