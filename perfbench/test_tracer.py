"""The tracer restores every original object and its span arithmetic holds.

    python3 -m pytest perfbench
"""

import importlib

import numpy as np
import pytest

import tracer
from zoocast import bench, core, fusion, zoo
from zoocast.core import MultivariateSeries
from zoocast.extractor import init_params
from zoocast.forecasters import make_baseline


def snapshot() -> dict:
    """Every module attribute, class member and module-level dict item of
    zoocast, by identity."""
    out = {}
    for name in tracer.MODULES:
        module = importlib.import_module(f"zoocast.{name}")
        for key, value in vars(module).items():
            out[(name, key)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = member
            elif isinstance(value, dict):
                for item_key, item in value.items():
                    out[(name, key, "item", item_key)] = item
    return out


def baseline_zoo() -> zoo.Zoo:
    """An in-memory zoo of baseline forecasters; no training needed."""
    models = {arch: make_baseline(arch, 36, 12) for arch in ("last", "mean", "seasonal_naive")}
    params = init_params(36, 16, 8, seed=0)
    rng = np.random.default_rng(0)
    return zoo.zoo_from_models(models, params, {m: rng.normal(size=8) for m in models})


def test_remove_restores_every_original_object():
    before = snapshot()
    t = tracer.Tracer().install()
    try:
        assert core.normalize is not before[("core", "normalize")]
        assert fusion.normalize is core.normalize  # the re-binding is wrapped too
        assert bench.METRIC_FNS["mse"] is core.mse
        assert zoo.Zoo.__dict__["forecaster"] is not before[("zoo", "Zoo", "forecaster")]
    finally:
        t.remove()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_self_times_are_nonnegative_and_sum_to_the_root():
    rng = np.random.default_rng(1)
    series = MultivariateSeries(rng.normal(size=(36, 4)))
    t = tracer.Tracer()
    with t, t.request():
        fusion.forecast_multivariate(baseline_zoo(), series, fusion.FusionConfig(horizon=48, top_k=3))
    spans = t.last_spans
    ids = {span[0] for span in spans}
    roots = [span for span in spans if span[1] is None]
    assert [r[2] for r in roots] == ["fusion.forecast_multivariate"]
    assert all(span[1] in ids for span in spans if span[1] is not None)
    assert {span[5] for span in spans} == {0}
    self_ns = tracer.self_times(spans)
    assert all(v >= 0 for v in self_ns.values())
    assert sum(self_ns.values()) == sum(r[4] - r[3] for r in roots)
    m = t.metrics()
    assert m["core.normalize.calls"] == 8 and m["extractor.cosine.calls"] == 12
    assert m["fusion.blocks"] == m["forecasters.forecast.calls"] == 4 * 4 * 3


def test_errors_count_each_exception_once_per_module():
    t = tracer.Tracer()
    bad = MultivariateSeries(np.zeros((10, 1)))  # shorter than the zoo's input_len
    with t, t.request(), pytest.raises(ValueError):
        fusion.forecast_multivariate(baseline_zoo(), bad, fusion.FusionConfig(horizon=12))
    assert t.metrics()["fusion.errors"] == 1
    assert t.metrics()["core.errors"] == 0
