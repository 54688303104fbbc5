"""`run_benchmark` on tiny mutated suites returns the report of the
per-window reference loop, byte for byte, or raises a ValueError where
that loop fails.

Suites mix channel counts and lengths, constant channels and huge values;
configs repeat horizons and name ones too long for some or all series.
The reference loop has no overflow checks of its own, so it fails either
with a ValueError or with the numpy `RuntimeWarning` that the suite's
warning filter turns into an error. `run_benchmark` may raise nothing but
a ValueError, and emits no `RuntimeWarning`.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_bench import _mixed_zoo, _reference_run_benchmark

from zoocast.bench import METRIC_FNS, BenchConfig, report_to_bytes, run_benchmark
from zoocast.core import Dataset, MultivariateSeries
from zoocast.forecasters import Forecaster
from zoocast.zoo import zoo_from_models

LOOK_BACK, HORIZON = 8, 4


def _growing_zoo():
    """`_mixed_zoo` with its linear model scaled so that a recursion of
    three or more blocks overflows float64."""
    zoo = _mixed_zoo(LOOK_BACK, HORIZON)
    models = {e.model_id: zoo.forecaster(e.model_id) for e in zoo.entries}
    grow = models["linear"]
    weights = {"W": np.zeros_like(grow.weights["W"]), "b": grow.weights["b"]}
    weights["W"][:, -1] = 1e100
    models["linear"] = Forecaster(grow.spec, weights)
    return zoo_from_models(models, zoo.extractor_params, {e.model_id: e.representation for e in zoo.entries})


ZOOS = (_mixed_zoo(LOOK_BACK, HORIZON), _growing_zoo())
HUGE = st.floats(1e150, 1.7976931348623157e308) | st.floats(-1.7976931348623157e308, -1e150)


@st.composite
def datasets(draw, name: str) -> Dataset:
    """A random walk of 1-40 steps and 1-3 channels; a channel may be
    constant (zero included), scaled to huge or tiny values, or hold one
    huge value."""
    length, channels = draw(st.integers(1, 40)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    values = 3.0 + np.cumsum(rng.normal(size=(length, channels)), axis=0)
    for c in range(channels):
        mutation = draw(st.sampled_from(["none", "none", "constant", "scaled", "spike"]))
        if mutation == "constant":
            values[:, c] = draw(st.sampled_from([0.0, -2.5]) | HUGE)
        elif mutation == "scaled":
            values[:, c] *= draw(st.floats(1e100, 1e300) | st.floats(1e-320, 1e-200))
        elif mutation == "spike":
            values[draw(st.integers(0, length - 1)), c] = draw(HUGE)
    return Dataset(MultivariateSeries(values), name)


@st.composite
def suites(draw) -> list:
    return [draw(datasets(f"d{i}")) for i in range(draw(st.integers(1, 3)))]


CONFIGS = st.builds(
    BenchConfig,
    look_back=st.just(LOOK_BACK),
    horizons=st.lists(st.sampled_from([1, 3, 4, 9, 20, 33]), min_size=1, max_size=3).map(tuple),
    metrics=st.lists(st.sampled_from(sorted(METRIC_FNS)), min_size=1, max_size=3, unique=True).map(tuple),
    top_k=st.integers(1, 4),
    season_period=st.integers(1, 10),
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(ZOOS), suites(), CONFIGS)
def test_run_benchmark_equals_the_reference_or_raises_a_value_error(zoo, suite, cfg):
    try:
        expected = report_to_bytes(_reference_run_benchmark(cfg, zoo, suite))
    except (ValueError, RuntimeWarning):
        with pytest.raises(ValueError):
            run_benchmark(cfg, zoo, suite)
    else:
        assert report_to_bytes(run_benchmark(cfg, zoo, suite)) == expected
