"""`run_benchmark` on tiny mutated suites returns the report of the
per-window reference loop, byte for byte, or raises a ValueError where
that loop fails; `forecast_rows` on mutated row stacks and configs
returns, row by row, what `forecast_multivariate` gives that row alone,
or raises a ValueError naming the field or the row at fault.

Suites mix channel counts and lengths, constant channels and huge values;
configs repeat horizons and name ones too long for some or all series.
The reference loop has no overflow checks of its own, so it fails either
with a ValueError or with the numpy `RuntimeWarning` that the suite's
warning filter turns into an error. `run_benchmark` and `forecast_rows`
may raise nothing but a ValueError, and emit no `RuntimeWarning`.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_bench import _mixed_zoo, _reference_run_benchmark

from zoocast import fusion
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


def _mutate(draw, walk: np.ndarray) -> None:
    """Leave a 1-D view of a random walk as it is, or make it constant
    (zero included), scale it to huge or tiny values, or give it one huge
    value."""
    mutation = draw(st.sampled_from(["none", "none", "constant", "scaled", "spike"]))
    if mutation == "constant":
        walk[:] = draw(st.sampled_from([0.0, -2.5]) | HUGE)
    elif mutation == "scaled":
        walk *= draw(st.floats(1e100, 1e300) | st.floats(1e-320, 1e-200))
    elif mutation == "spike":
        walk[draw(st.integers(0, len(walk) - 1))] = draw(HUGE)


@st.composite
def datasets(draw, name: str) -> Dataset:
    """A random walk of 1-40 steps and 1-3 channels, each channel passed
    through `_mutate`."""
    length, channels = draw(st.integers(1, 40)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    values = 3.0 + np.cumsum(rng.normal(size=(length, channels)), axis=0)
    for c in range(channels):
        _mutate(draw, values[:, c])
    return Dataset(MultivariateSeries(values), name)


@st.composite
def suites(draw) -> list:
    # names may repeat: the summary merges datasets that share a name, the rest of the report keeps them apart
    return [draw(datasets(draw(st.sampled_from("ab")))) for _ in range(draw(st.integers(1, 3)))]


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


@st.composite
def row_stacks(draw) -> np.ndarray:
    """An (R, T) stack of 1-6 random-walk rows, some of them mutated; the
    stack is C-ordered, Fortran-ordered or a strided view."""
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    x = 3.0 + np.cumsum(rng.normal(size=(draw(st.integers(1, 6)), LOOK_BACK)), axis=1)
    for row in x:
        if draw(st.booleans()):
            _mutate(draw, row)
    layout = draw(st.sampled_from(["c", "fortran", "strided"]))
    if layout == "fortran":
        return np.asfortranarray(x)
    if layout == "strided":
        wide = np.zeros((2 * len(x), 2 * LOOK_BACK))
        wide[::2, ::2] = x
        return wide[::2, ::2]
    return x


# per FusionConfig field: a float, a bool, a string, zero, negative, huge, NaN and inf
BAD_FIELDS = {
    "horizon": [2.0, True, "4", 0, -3, 1001, float("nan"), float("inf")],
    "top_k": [1.5, False, "1", 0, -1, 2**63, float("nan"), float("-inf")],
}


@st.composite
def fusion_fields(draw) -> tuple:
    """FusionConfig fields, with at most one field mutated, and its name."""
    fields = {"horizon": draw(st.integers(1, 16)), "top_k": draw(st.integers(1, 4))}
    mutated = draw(st.sampled_from([None, None, None, "horizon", "top_k"]))
    if mutated:
        fields[mutated] = draw(st.sampled_from(BAD_FIELDS[mutated]))
    return fields, mutated


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(ZOOS), row_stacks(), fusion_fields())
def test_forecast_rows_equals_each_row_alone_or_names_the_field_or_row(zoo, rows, fields):
    fields, mutated = fields
    try:
        pred, choice = fusion.forecast_rows(zoo, rows, fusion.FusionConfig(**fields))
    except ValueError as exc:
        message = str(exc)
        named = re.search(r"\bchannel (\d+)\b", message)
        if named is None:  # a config fault names the mutated field
            assert mutated is not None and re.match(rf"(field )?'?{mutated}'? ", message), message
            return
        r = int(named[1])  # the row alone raises the same fault, as channel 0
        with pytest.raises(ValueError) as alone:
            fusion.forecast_multivariate(zoo, MultivariateSeries(rows[r]), fusion.FusionConfig(**fields))
        assert str(alone.value) == message.replace(f"channel {r}", "channel 0", 1)
        return
    assert pred.shape == (len(rows), fields["horizon"]) and choice.shape == (len(rows), fields["top_k"])
    for r, row in enumerate(rows):
        single, selections, _ = fusion.forecast_multivariate(zoo, MultivariateSeries(row), fusion.FusionConfig(**fields))
        assert pred[r].tobytes() == single.values[:, 0].tobytes()
        assert [zoo.entries[i].model_id for i in choice[r]] == list(selections[0].chosen)
