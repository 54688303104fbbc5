"""`run_benchmark` on tiny mutated suites returns the report of the
per-window reference loop, byte for byte, or raises a ValueError where
that loop fails or a dataset name repeats; `forecast_rows` on mutated row
stacks and configs returns, row by row, what `forecast_multivariate`
gives that row alone, or raises a ValueError naming the field or the row
at fault. `forecast_multivariate`, `train_many`, `train_extractor` and
`build_zoo`, with one config value turned into a float for an int, a
bool, a string, zero, a negative, a huge value, NaN or inf, succeed or
raise a ValueError naming that field, or else a fault of the data (a
channel or a dataset) or a training run that diverged.

Suites mix channel counts and lengths, constant channels and huge values;
configs repeat horizons and name ones too long for some or all series.
The reference loop has no overflow checks of its own, so it fails either
with a ValueError or with the numpy `RuntimeWarning` that the suite's
warning filter turns into an error. The entry points may raise nothing
but a ValueError, and emit no `RuntimeWarning`.
"""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_bench import _mixed_zoo, _reference_run_benchmark

from zoocast import fusion
from zoocast.bench import METRIC_FNS, BenchConfig, report_to_bytes, run_benchmark
from zoocast.core import Dataset, MultivariateSeries
from zoocast.extractor import ExtractorTrainConfig, MaskSpec, train_extractor
from zoocast.extractor import save as save_extractor
from zoocast.forecasters import Forecaster, ForecasterSpec, TrainConfig, train_many
from zoocast.forecasters import save as save_model
from zoocast.zoo import TransferMatrix, build_zoo, load_zoo, zoo_from_models

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
    """1-3 datasets, most often named once each; in two of five draws of
    several datasets, 'a' names two of them."""
    names = draw(st.sampled_from(["abc", "abc", "abc", "aab", "aba"]))[: draw(st.integers(1, 3))]
    return [draw(datasets(name)) for name in names]


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
    names = [data.name for data in suite]
    if len(set(names)) < len(names):  # the report's rows are keyed by dataset name
        with pytest.raises(ValueError, match="^duplicate dataset name 'a'$"):
            run_benchmark(cfg, zoo, suite)
        return
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


# an int field's faults: a float, a bool, a string, zero, negative, huge, NaN and inf
INT_FAULTS = [2.0, True, "4", 0, -3, 2**62, 10**30, float("nan"), float("inf")]
# a float field's faults: a bool, a string, zero, negative, huge, NaN and inf
FLOAT_FAULTS = [True, "0.1", 0.0, -0.5, 1e308, float("nan"), float("-inf")]


@st.composite
def mutated(draw, fields: dict, faults: dict) -> tuple:
    """`fields` with at most one of the entries named in `faults` ({name:
    its fault values}) set to one of its faults, and that entry's name
    (None if none)."""
    name = draw(st.sampled_from([None, None, None, *faults]))
    if name is not None:
        fields = {**fields, name: draw(st.sampled_from(faults[name]))}
    return fields, name


def _assert_names_the_fault(message: str, field, other_faults: str) -> None:
    """A ValueError names the mutated `field`, or else matches the
    `other_faults` pattern: a fault of the data, or one that a valid
    config may meet, such as a diverged training run."""
    if field is not None and re.search(rf"\b{field}\b", message):
        return
    assert re.search(other_faults, message), (field, message)


# per FusionConfig field: a float, a bool, a string, zero, negative, huge, NaN and inf
BAD_FIELDS = {
    "horizon": [2.0, True, "4", 0, -3, 1001, 2**62, 10**30, float("nan"), float("inf")],
    "top_k": [1.5, False, "1", 0, -1, 2**63, float("nan"), float("-inf")],
}


@st.composite
def fusion_fields(draw) -> tuple:
    """FusionConfig fields, with at most one field mutated, and its name."""
    return draw(mutated({"horizon": draw(st.integers(1, 16)), "top_k": draw(st.integers(1, 4))}, BAD_FIELDS))


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(ZOOS), row_stacks(), fusion_fields())
def test_forecast_multivariate_returns_a_forecast_or_names_the_field_or_channel(zoo, rows, fields):
    fields, mutated_field = fields
    try:
        pred, selections, stats = fusion.forecast_multivariate(zoo, MultivariateSeries(rows.T), fusion.FusionConfig(**fields))
    except ValueError as exc:
        _assert_names_the_fault(str(exc), mutated_field, r"\bchannel \d+\b")
        return
    assert pred.values.shape == (fields["horizon"], len(rows)) and len(selections) == len(stats) == len(rows)


SPEC_FAULTS = dict.fromkeys(("input_len", "horizon", "patch_len", "hidden_dim", "season_period"), INT_FAULTS)
TRAIN_FAULTS = {**dict.fromkeys(("epochs", "batch_size", "seed", "stride"), INT_FAULTS), "learning_rate": FLOAT_FAULTS}


@st.composite
def named_suites(draw, min_size: int = 1) -> list:
    """`min_size` to 3 datasets of distinct names."""
    return [draw(datasets(name)) for name in "abc"[: draw(st.integers(min_size, 3))]]


@st.composite
def training_fields(draw) -> tuple:
    """A tiny ForecasterSpec and TrainConfig as one dict of fields, at
    most one of them mutated, and the mutated name."""
    fields = {
        "architecture": draw(st.sampled_from(["linear", "patch_mlp"])),
        "input_len": draw(st.integers(2, 8)),
        "horizon": draw(st.integers(1, 4)),
        "patch_len": draw(st.integers(1, 5)),
        "hidden_dim": draw(st.integers(1, 4)),
        "season_period": 7,
        "epochs": draw(st.integers(1, 2)),
        "learning_rate": draw(st.sampled_from([0.001, 0.05])),
        "batch_size": draw(st.integers(1, 8)),
        "seed": draw(st.integers(0, 5)),
        "stride": draw(st.integers(1, 3)),
    }
    return draw(mutated(fields, {**SPEC_FAULTS, **TRAIN_FAULTS}))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(named_suites(), training_fields())
def test_train_many_trains_or_names_the_field_or_dataset(suite, fields):
    fields, mutated_field = fields
    try:
        spec = ForecasterSpec(fields["architecture"], **{name: fields[name] for name in SPEC_FAULTS})
        models = train_many(spec, suite, TrainConfig(**{name: fields[name] for name in TRAIN_FAULTS}))
    except ValueError as exc:
        _assert_names_the_fault(str(exc), mutated_field, r"\bdataset '")
        return
    assert [model.source_dataset for model in models] == [data.name for data in suite]


EXTRACTOR_FAULTS = {
    **dict.fromkeys(("epochs", "batch_size", "seed", "windows_per_dataset", "hidden_dim", "repr_dim"), INT_FAULTS),
    **dict.fromkeys(("constraint_weight", "learning_rate"), FLOAT_FAULTS),
}
MASK_FAULTS = {"mask_ratio": FLOAT_FAULTS, "num_views": INT_FAULTS}


@st.composite
def extractor_fields(draw) -> tuple:
    """A tiny ExtractorTrainConfig, MaskSpec and input_len as one dict of
    fields, at most one of them mutated, and the mutated name."""
    fields = {
        "constraint_weight": 0.5,
        "epochs": draw(st.integers(1, 2)),
        "learning_rate": 0.02,
        "batch_size": draw(st.sampled_from([None, 2, 3, 5])),
        "seed": draw(st.integers(0, 5)),
        "windows_per_dataset": draw(st.integers(1, 4)),
        "hidden_dim": draw(st.integers(1, 4)),
        "repr_dim": draw(st.integers(1, 3)),
        "mask_ratio": draw(st.sampled_from([0.25, 0.5])),
        "num_views": draw(st.integers(1, 3)),
        "input_len": draw(st.integers(1, 8)),
    }
    return draw(mutated(fields, {**EXTRACTOR_FAULTS, **MASK_FAULTS, "input_len": INT_FAULTS}))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(named_suites(min_size=2), extractor_fields(), st.integers(0, 2**16))
def test_train_extractor_trains_or_names_the_field_or_dataset(suite, fields, seed):
    fields, mutated_field = fields
    g = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(len(suite), len(suite)))
    tm = TransferMatrix(tuple(data.name for data in suite), g)
    try:
        cfg = ExtractorTrainConfig(**{name: fields[name] for name in EXTRACTOR_FAULTS})
        mask_spec = MaskSpec(**{name: fields[name] for name in MASK_FAULTS})
        params, log = train_extractor(suite, tm, cfg, mask_spec, input_len=fields["input_len"])
    except ValueError as exc:
        _assert_names_the_fault(str(exc), mutated_field, r"\bdataset '|^training diverged in epoch \d+$|^extractor tensor \w+ contains non-finite values$")
        return
    assert params.input_len == fields["input_len"] and len(log) == fields["epochs"]


def _zoo_sources(tmp: Path) -> tuple:
    """Two model files and a full extractor file, all of `ZOOS[0]`."""
    zoo = ZOOS[0]
    model_files = []
    for model_id in ("linear", "last"):
        model_files.append(tmp / f"{model_id}.json")
        model_files[-1].write_bytes(save_model(zoo.forecaster(model_id)))
    (tmp / "extractor.json").write_bytes(save_extractor(zoo.extractor_params))
    return model_files, tmp / "extractor.json"


@st.composite
def zoo_fields(draw) -> tuple:
    fields = {"per_model_source_samples": draw(st.integers(1, 8)), "seed": draw(st.integers(0, 5))}
    return draw(mutated(fields, dict.fromkeys(fields, INT_FAULTS)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(named_suites(min_size=2), zoo_fields())
def test_build_zoo_builds_or_names_the_field_or_dataset(suite, fields):
    fields, mutated_field = fields
    with tempfile.TemporaryDirectory() as tmp:
        model_files, extractor_file = _zoo_sources(Path(tmp))
        try:
            out = build_zoo(model_files, suite[:2], extractor_file, Path(tmp) / "zoo", **fields)
        except ValueError as exc:
            # the samples reach `compute_model_representation` as its sample_count
            named = {"per_model_source_samples": "sample_count"}.get(mutated_field, mutated_field)
            _assert_names_the_fault(str(exc), named, r"\bdataset '")
            assert not (Path(tmp) / "zoo").exists()
            return
        assert [e.model_id for e in load_zoo(out).entries] == ["linear", "last"]
