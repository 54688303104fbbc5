import hashlib
import json
import os
import re
import shutil

import numpy as np
import pytest

from zoocast import zoo as zoo_mod
from zoocast.bench import SyntheticFamilySpec, generate_synthetic
from zoocast.core import Dataset, MultivariateSeries, mse, normalize
from zoocast.extractor import DECODER_TENSORS, ENCODER_TENSORS, ExtractorTrainConfig, MaskSpec, encode
from zoocast.extractor import init_params, train_extractor
from zoocast.extractor import load as load_extractor, save as save_extractor
from zoocast.forecasters import ForecasterSpec, TrainConfig, extract_windows, forecast_batch, make_baseline
from zoocast.forecasters import save as save_model, train
from zoocast.fusion import FusionConfig, forecast_multivariate
from zoocast.zoo import (
    ModelEntry,
    TransferMatrix,
    Zoo,
    build_zoo,
    compute_model_representation,
    compute_transfer_matrix,
    load_zoo,
    zoo_from_models,
    zoo_from_suite,
)


@pytest.fixture(scope="module")
def params():
    return init_params(12, 8, 4, seed=0)


def _dataset(kind="sine", seed=0, length=200, period=12):
    return generate_synthetic(SyntheticFamilySpec(kind=kind, period=period, length=length, seed=seed))


# -- model representations ---------------------------------------------------


def test_representation_errors_on_short_dataset(params):
    data = Dataset(series=MultivariateSeries(np.ones((5, 1))), name="short")
    with pytest.raises(ValueError, match="no window"):
        compute_model_representation(params, data, sample_count=4, seed=0)


def test_representation_bounds_the_sampled_values_before_drawing(monkeypatch):
    params = init_params(2, 2, 2, 0)
    data = Dataset(series=MultivariateSeries(np.arange(5.0)), name="short")
    drawn = []

    def sample(rng, data, length, count):
        drawn.append(count)
        raise RuntimeError("sampled")

    monkeypatch.setattr(zoo_mod, "sample_windows", sample)
    with pytest.raises(ValueError, match=r"^sample_count 524289 and input_len 2 would draw more than 1048576 values$"):
        compute_model_representation(params, data, sample_count=2**19 + 1)
    with pytest.raises(RuntimeError, match="sampled"):  # exactly MAX_SIZE values may be drawn
        compute_model_representation(params, data, sample_count=2**19)
    assert drawn == [2**19]


def test_representation_of_identical_windows(params):
    # a periodic ramp makes every length-12 window identical after normalization
    values = np.tile(np.arange(12.0), 10)[:, None]
    data = Dataset(series=MultivariateSeries(values), name="ramp")
    rep = compute_model_representation(params, data, sample_count=8, seed=1)
    window, _ = normalize(np.arange(12.0))
    single = encode(params, window)
    # sampled windows are rotations of the ramp, not all identical; use a
    # truly constant construction instead
    flat = Dataset(series=MultivariateSeries(np.zeros((40, 1))), name="flat")
    rep_flat = compute_model_representation(params, flat, sample_count=8, seed=1)
    np.testing.assert_allclose(rep_flat, encode(params, np.zeros(12)), atol=1e-12)


def test_representation_two_point_mean(params):
    # three channels, so the channel draw takes values from the generator
    data = generate_synthetic(SyntheticFamilySpec(kind="sine", period=12, length=200, channels=3, seed=4))
    rep = compute_model_representation(params, data, sample_count=2, seed=7)
    # replay the sampling to find the two windows, then average by hand:
    # both windows' channels, then both windows' starts
    series = data.series
    rng2 = np.random.default_rng(7)
    channels = rng2.integers(series.num_channels, size=2)
    starts = rng2.integers(series.length - 12 + 1, size=2)
    encodings = []
    for c, start in zip(channels, starts):
        norm, _ = normalize(series.channel(c)[start : start + 12])
        encodings.append(encode(params, norm))
    np.testing.assert_allclose(rep, np.mean(encodings, axis=0), atol=1e-12)


def test_representation_determinism(params):
    data = _dataset(seed=2)
    r1 = compute_model_representation(params, data, sample_count=16, seed=3)
    r2 = compute_model_representation(params, data, sample_count=16, seed=3)
    np.testing.assert_array_equal(r1, r2)


# -- transfer matrix ---------------------------------------------------------


def test_transfer_matrix_identical_datasets():
    spec = ForecasterSpec("linear", input_len=12, horizon=4)
    cfg = TrainConfig(epochs=10, learning_rate=0.001, seed=0)
    base = _dataset(seed=5, length=300)
    twin = Dataset(series=base.series, name="twin")
    tm, _ = compute_transfer_matrix([base, twin], spec, cfg)
    g = tm.submatrix([base.name, twin.name])
    assert abs(g[0, 1] - g[0, 0]) < 0.05
    assert abs(g[1, 0] - g[1, 1]) < 0.05


def test_transfer_matrix_noise_target_scores_lower():
    spec = ForecasterSpec("linear", input_len=12, horizon=4)
    cfg = TrainConfig(epochs=10, seed=0)
    clean = _dataset(kind="sine", seed=6, length=300)
    rng = np.random.default_rng(0)
    noise = Dataset(series=MultivariateSeries(rng.standard_normal((300, 1))), name="noise")
    tm, _ = compute_transfer_matrix([clean, noise], spec, cfg)
    g = tm.submatrix([clean.name, noise.name])
    assert g[0, 1] <= g[0, 0]


def test_transfer_matrix_constant_series_near_one():
    spec = ForecasterSpec("linear", input_len=8, horizon=2)
    cfg = TrainConfig(epochs=10, learning_rate=0.05, seed=0)
    const = Dataset(series=MultivariateSeries(np.full((200, 1), 3.0)), name="const")
    other = Dataset(series=MultivariateSeries(np.full((200, 1), 9.0)), name="const2")
    tm, _ = compute_transfer_matrix([const, other], spec, cfg)
    assert tm.submatrix(["const"])[0, 0] == pytest.approx(1.0, abs=0.05)


def test_transfer_matrix_copies_within_band():
    spec = ForecasterSpec("linear", input_len=12, horizon=4)
    cfg = TrainConfig(epochs=5, seed=0)
    base = _dataset(seed=8, length=260)
    copies = [Dataset(series=base.series, name=f"copy{i}") for i in range(3)]
    tm, _ = compute_transfer_matrix(copies, spec, cfg)
    assert tm.g.max() - tm.g.min() < 0.05


def test_zoo_from_suite_is_the_seeded_default_chain():
    suite = [_dataset(seed=1, length=200), _dataset(kind="sawtooth", seed=2, length=200, period=7)]
    spec = ForecasterSpec("linear", input_len=12, horizon=4)
    zoo, log = zoo_from_suite(suite, spec, seed=3)
    tm, models = compute_transfer_matrix(suite, spec, TrainConfig(seed=3))
    params, expected_log = train_extractor(suite, tm, ExtractorTrainConfig(seed=3), MaskSpec(), input_len=12)
    assert log == expected_log
    assert save_extractor(zoo.extractor_params) == save_extractor(params)
    assert [e.model_id for e in zoo.entries] == [d.name for d in suite]
    for entry, data in zip(zoo.entries, suite):
        assert save_model(zoo.forecaster(entry.model_id)) == save_model(models[data.name])
        assert np.array_equal(entry.representation, compute_model_representation(params, data, seed=3))


def test_transfer_matrix_round_trip_and_missing_pair():
    tm = TransferMatrix(dataset_names=("a", "b"), g=np.array([[0.9, 0.2], [0.1, 0.8]]))
    restored = TransferMatrix.from_bytes(tm.to_bytes())
    np.testing.assert_array_equal(restored.g, tm.g)
    assert restored.dataset_names == ("a", "b")
    with pytest.raises(ValueError, match="'c'"):
        tm.submatrix(["a", "c"])


def test_transfer_matrix_equals_one_forecast_and_score_per_pair():
    # unequal lengths, so the datasets train in separate lockstep groups
    suite = [_dataset(seed=1, length=200), _dataset(kind="sawtooth", seed=2, length=230, period=9),
             _dataset(kind="trend_sine", seed=3, length=260, period=18), _dataset(seed=4, length=200, period=5)]
    spec = ForecasterSpec("linear", input_len=12, horizon=4)
    cfg = TrainConfig(epochs=2, seed=1)
    tm, models = compute_transfer_matrix(suite, spec, cfg)
    reference, tails = [], []
    for data in suite:
        cut = int(data.series.length * 0.8)
        values = data.series.values
        reference.append(train(spec, Dataset(MultivariateSeries(values[:cut]), data.name), cfg))
        tails.append(extract_windows(Dataset(MultivariateSeries(values[cut:]), data.name), 12, 4))
    g = [[1.0 - mse(targets.T, forecast_batch(model, windows).T) for windows, targets in tails] for model in reference]
    assert tm.to_bytes() == TransferMatrix(tuple(d.name for d in suite), np.array(g)).to_bytes()
    assert [save_model(models[d.name]) for d in suite] == [save_model(model) for model in reference]
    assert np.array_equal(tm.submatrix([suite[2].name, suite[0].name]), np.array(g)[np.ix_([2, 0], [2, 0])])


def test_transfer_matrix_rejects_a_repeated_dataset_name_before_any_work():
    # the second 'x' is too short for its tail windows, but the names are checked first
    spec = ForecasterSpec("linear", input_len=12, horizon=4)
    suite = [Dataset(_dataset(seed=1).series, "x"), Dataset(MultivariateSeries(np.ones((20, 1))), "x")]
    with pytest.raises(ValueError, match="^duplicate dataset name 'x'$"):
        compute_transfer_matrix(suite, spec, TrainConfig(epochs=1))
    with pytest.raises(ValueError, match="^duplicate dataset name 'x'$"):
        TransferMatrix(dataset_names=("x", "y", "x"), g=np.zeros((3, 3)))


TRANSFER_MATRIX_FILE_FAULTS = {
    "g larger than its datasets": (
        b'{"datasets": [], "g": [[1, 2], [3, 4]]}', r"transfer matrix file field 'g': g has shape \(2, 2\), expected \(0, 0\)"
    ),
    # a file cannot hold a non-finite score: the strict JSON reader refuses its literal
    "non-finite g": (
        b'{"datasets": ["a"], "g": [[NaN]]}', r"malformed transfer matrix file: unexpected character: line 1 column 28 \(char 27\)"
    ),
    "infinite g": (
        b'{"datasets": ["a"], "g": [[Infinity]]}', r"malformed transfer matrix file: unexpected character: line 1 column 28 \(char 27\)"
    ),
    "overflowing g": (
        b'{"datasets": ["a"], "g": [[1e400]]}',
        r"malformed transfer matrix file: number is infinity when parsed as double: line 1 column 28 \(char 27\)",
    ),
    "byte order mark": (
        b'\xef\xbb\xbf{"datasets": ["a"], "g": [[1]]}',
        r"malformed transfer matrix file: byte order mark \(BOM\) is not supported: line 1 column 1 \(char 0\)",
    ),
    # checked before g, whose shape is wrong too
    "repeated name": (b'{"datasets": ["x", "x"], "g": [[1, 2]]}', "transfer matrix file field 'datasets': duplicate dataset name 'x'"),
}


@pytest.mark.parametrize("blob, fault", TRANSFER_MATRIX_FILE_FAULTS.values(), ids=TRANSFER_MATRIX_FILE_FAULTS.keys())
def test_transfer_matrix_file_errors_name_the_field(blob, fault):
    with pytest.raises(ValueError, match=f"^{fault}$"):
        TransferMatrix.from_bytes(blob)


def test_transfer_matrix_rejects_non_finite_scores():
    with pytest.raises(ValueError, match="^non-finite transfer scores$"):
        TransferMatrix(("a",), [[np.nan]])


def test_transfer_matrix_propagates_training_error():
    spec = ForecasterSpec("linear", input_len=50, horizon=20)
    tiny = Dataset(series=MultivariateSeries(np.ones((30, 1))), name="tiny")
    other = Dataset(series=MultivariateSeries(np.ones((30, 1))), name="tiny2")
    with pytest.raises(ValueError, match="tiny"):
        compute_transfer_matrix([tiny, other], spec, TrainConfig())


def _divergence_suite(*lengths):
    """noise, sawtooth, sine: at learning rate 0.5 only the sine series
    diverges; at 0.6 the sawtooth one does too, in a later epoch."""
    noise = Dataset(series=MultivariateSeries(np.random.default_rng(0).standard_normal((lengths[0], 1))), name="noise")
    saw = _dataset(kind="sawtooth", seed=1, length=lengths[1], period=9)
    sine = _dataset(kind="sine", seed=0, length=lengths[2])
    return [noise, saw, sine]


@pytest.mark.parametrize(
    "learning_rate, lengths, culprit, epoch",
    [
        (0.5, (200, 200, 200), 2, 6),
        (0.6, (200, 200, 200), 1, 9),
        (0.6, (200, 260, 230), 1, 7),
    ],
    ids=["later-only", "two-lockstep", "two-ragged"],
)
def test_transfer_matrix_names_the_first_dataset_that_diverges(learning_rate, lengths, culprit, epoch):
    # per-model training stops at the first dataset in suite order that
    # diverges, even when a later one diverges in an earlier epoch
    suite = _divergence_suite(*lengths)
    spec = ForecasterSpec("linear", input_len=12, horizon=4)
    cfg = TrainConfig(epochs=10, learning_rate=learning_rate, seed=0)
    name = suite[culprit].name
    expected = f"^training failed on dataset '{name}': training diverged in epoch {epoch}$"
    with pytest.raises(ValueError, match=expected):
        compute_transfer_matrix(suite, spec, cfg)


def test_transfer_matrix_raises_an_earlier_tail_error_before_a_later_divergence():
    suite = _divergence_suite(200, 200, 200)
    spec = ForecasterSpec("linear", input_len=12, horizon=4)
    short_tail = Dataset(series=MultivariateSeries(suite[0].series.values[:70]), name="short_tail")
    with pytest.raises(ValueError, match="^dataset 'short_tail' tail too short"):
        compute_transfer_matrix([short_tail] + suite, spec, TrainConfig(epochs=10, learning_rate=0.6, seed=0))


def test_transfer_matrix_raises_a_later_tail_error_before_an_earlier_divergence():
    # inputs are checked before any training, so the sine series (which
    # diverges at learning rate 0.5) is never trained
    suite = _divergence_suite(200, 200, 200)
    spec = ForecasterSpec("linear", input_len=12, horizon=4)
    short_tail = Dataset(series=MultivariateSeries(suite[0].series.values[:70]), name="short_tail")
    expected = "^dataset 'short_tail' tail too short for evaluation windows of length 16$"
    with pytest.raises(ValueError, match=expected):
        compute_transfer_matrix(suite + [short_tail], spec, TrainConfig(epochs=10, learning_rate=0.5, seed=0))


# -- zoo build / load --------------------------------------------------------


def _build_test_zoo(tmp_path, n_models=3):
    tmp_path.mkdir(parents=True, exist_ok=True)
    params = init_params(12, 8, 4, seed=0)
    extractor_file = tmp_path / "extractor.json"
    extractor_file.write_bytes(save_extractor(params))
    spec = ForecasterSpec("linear", input_len=12, horizon=4)
    model_files, sources = [], []
    for i in range(n_models):
        data = _dataset(seed=10 + i, length=150)
        model = train(spec, data, TrainConfig(epochs=2, seed=i))
        path = tmp_path / f"model{i}.json"
        path.write_bytes(save_model(model))
        model_files.append(path)
        sources.append(data)
    out = build_zoo(model_files, sources, extractor_file, tmp_path / "zoo", per_model_source_samples=8)
    return out


def test_build_and_load_zoo(tmp_path):
    out = _build_test_zoo(tmp_path)
    zoo = load_zoo(out)
    assert len(zoo.entries) == 3
    assert zoo.repr_dim == 4
    model = zoo.forecaster("model0")
    assert model.spec.input_len == 12
    # lazy cache returns the same object
    assert zoo.forecaster("model0") is model


def test_build_zoo_rejects_empty_and_duplicates(tmp_path):
    params = init_params(12, 8, 4, seed=0)
    extractor_file = tmp_path / "extractor.json"
    extractor_file.write_bytes(save_extractor(params))
    with pytest.raises(ValueError, match="at least one"):
        build_zoo([], [], extractor_file, tmp_path / "zoo")
    data = _dataset(seed=1, length=100)
    model = train(ForecasterSpec("linear", 12, 4), data, TrainConfig(epochs=1))
    path = tmp_path / "dup.json"
    path.write_bytes(save_model(model))
    with pytest.raises(ValueError, match="duplicate"):
        build_zoo([path, path], [data, data], extractor_file, tmp_path / "zoo")
    assert not (tmp_path / "zoo").exists()


def test_build_zoo_refuses_a_repeated_stem_before_any_work(tmp_path, monkeypatch):
    extractor_file = tmp_path / "extractor.json"
    extractor_file.write_bytes(save_extractor(init_params(12, 8, 4, seed=0)))
    (tmp_path / "sub").mkdir()
    paths = [tmp_path / "a.json", tmp_path / "sub" / "a.json", tmp_path / "bad.json"]
    for path, blob in zip(paths, [save_model(make_baseline("last", 12, 4))] * 2 + [b"{"]):
        path.write_bytes(blob)
    sampled = []
    real = zoo_mod.compute_model_representation
    monkeypatch.setattr(zoo_mod, "compute_model_representation", lambda *a, **k: sampled.append(1) or real(*a, **k))
    data = _dataset(seed=1, length=100)
    with pytest.raises(ValueError) as info:
        build_zoo(paths, [data] * 3, extractor_file, tmp_path / "zoo", per_model_source_samples=8)
    assert str(info.value) == "duplicate model_id 'a'"
    assert sampled == []
    assert not (tmp_path / "zoo").exists()


def test_manifest_source_dataset_is_the_models_own_or_else_its_build_dataset(tmp_path):
    extractor_file = tmp_path / "extractor.json"
    extractor_file.write_bytes(save_extractor(init_params(12, 8, 4, seed=0)))
    data = _dataset(seed=1, length=100)
    trained = train(ForecasterSpec("linear", 12, 4), data, TrainConfig(epochs=1))
    models = {"base": make_baseline("last", 12, 4), "trained": trained}
    assert models["base"].source_dataset == "" and data.name not in ("", "x")
    paths = [tmp_path / f"{name}.json" for name in models]
    for path, model in zip(paths, models.values()):
        path.write_bytes(save_model(model))
    x = Dataset(series=data.series, name="x")
    out = build_zoo(paths, [x, x], extractor_file, tmp_path / "zoo", per_model_source_samples=8)
    manifest = json.loads((out / "zoo.json").read_bytes())
    assert [e["source_dataset"] for e in manifest["entries"]] == ["x", data.name]
    assert (out / "base.model.json").read_bytes() == paths[0].read_bytes()  # the file keeps its own empty name
    in_memory = zoo_from_models(models, init_params(12, 8, 4, seed=0), {name: np.ones(4) for name in models})
    assert [e.source_dataset for e in in_memory.entries] == ["", data.name]

def test_build_zoo_is_deterministic(tmp_path):
    out1 = _build_test_zoo(tmp_path / "a")
    out2 = _build_test_zoo(tmp_path / "b")
    assert (out1 / "zoo.json").read_bytes() == (out2 / "zoo.json").read_bytes()
    # rebuilding in place is idempotent
    before = (out1 / "zoo.json").read_bytes()
    _build_test_zoo(tmp_path / "a")
    assert (out1 / "zoo.json").read_bytes() == before


def test_zoo_round_trip_representations(tmp_path):
    out = _build_test_zoo(tmp_path)
    manifest = json.loads((out / "zoo.json").read_bytes())
    zoo = load_zoo(out)
    for raw, entry in zip(manifest["entries"], zoo.entries):
        np.testing.assert_array_equal(np.asarray(raw["representation"]), entry.representation)


def test_load_zoo_detects_missing_file_and_corruption(tmp_path):
    out = _build_test_zoo(tmp_path)
    victim = out / "model1.model.json"
    original = victim.read_bytes()
    victim.unlink()
    with pytest.raises(ValueError, match="model1"):
        load_zoo(out)
    victim.write_bytes(original.replace(b"linear", b"linear "))
    # checked at load, though parsing is lazy: a model that is never picked is named too
    with pytest.raises(ValueError, match=r"^digest mismatch for entry 'model1' \(model1\.model\.json\)$"):
        load_zoo(out)
    victim.write_bytes(original)
    zoo = load_zoo(out)
    victim.write_bytes(original.replace(b"linear", b"linear "))
    # and again on first use, so a file changed after load is named too
    with pytest.raises(ValueError, match="digest mismatch"):
        zoo.forecaster("model1")
    # as is one gone after load, or replaced by a directory (was FileNotFoundError, IsADirectoryError)
    gone = r"^entry 'model1': no file 'model1\.model\.json' in the zoo directory$"
    victim.write_bytes(original)
    zoo = load_zoo(out)
    victim.unlink()
    with pytest.raises(ValueError, match=gone):
        zoo.forecaster("model1")
    victim.mkdir()
    with pytest.raises(ValueError, match=gone):
        zoo.forecaster("model1")


def _swap_for_a_fifo(path):
    path.unlink()
    os.mkfifo(path)


@pytest.mark.parametrize(
    "name, message",
    [
        ("zoo.json", "no zoo.json in {out}"),
        ("extractor.json", "extractor: no file 'extractor.json' in the zoo directory"),
        ("model1.model.json", "entry 'model1': no file 'model1.model.json' in the zoo directory"),
    ],
)
def test_load_zoo_refuses_a_fifo_without_blocking(tmp_path, no_hang, name, message):
    out = _build_test_zoo(tmp_path)
    _swap_for_a_fifo(out / name)
    with pytest.raises(ValueError) as info:
        load_zoo(out)
    assert str(info.value) == message.format(out=out)


def test_forecaster_refuses_a_model_file_swapped_for_a_fifo_after_load(tmp_path, no_hang):
    out = _build_test_zoo(tmp_path)
    zoo = load_zoo(out)
    _swap_for_a_fifo(out / "model1.model.json")
    with pytest.raises(ValueError, match=r"^entry 'model1': no file 'model1\.model\.json' in the zoo directory$"):
        zoo.forecaster("model1")


def test_load_zoo_names_a_path_holding_a_nul(tmp_path):
    # a JSON string may hold \u0000, which no file name holds: it is named as a missing file, not by the open's error
    out = _build_test_zoo(tmp_path)
    manifest = json.loads((out / "zoo.json").read_bytes())
    manifest["entries"][1]["file"] = "model1\x00.model.json"
    (out / "zoo.json").write_bytes(json.dumps(manifest).encode())
    with pytest.raises(ValueError) as info:
        load_zoo(out)
    assert str(info.value) == "entry 'model1': no file 'model1\\x00.model.json' in the zoo directory"
    with pytest.raises(ValueError) as info:
        load_zoo(f"{out}\x00")
    assert str(info.value) == f"no zoo.json in {out}\x00"


def _one_model_zoo():
    return zoo_from_models({"m": make_baseline("last", 12, 4)}, init_params(12, 8, 4, seed=0), {"m": np.ones(4)})


def _manifest_directory(tmp_path):
    (tmp_path / "zoo.json").mkdir()  # was IsADirectoryError
    return load_zoo(tmp_path)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda tmp_path: _one_model_zoo().forecaster("nope"), "no model 'nope' in zoo"),
        (
            lambda tmp_path: compute_transfer_matrix([_dataset()], ForecasterSpec("linear", 12, 4), TrainConfig()),
            "need at least 2 datasets",
        ),
        (
            lambda tmp_path: build_zoo([tmp_path / "m.json"], [], tmp_path / "extractor.json", tmp_path / "zoo"),
            "one source dataset required per model file",
        ),
        (load_zoo, "no zoo.json in {tmp_path}"),
        (_manifest_directory, "no zoo.json in {tmp_path}"),
    ],
    ids=["unknown-model", "one-dataset", "more-models-than-sources", "no-manifest", "manifest-is-a-directory"],
)
def test_entry_points_name_a_malformed_call(tmp_path, call, message):
    with pytest.raises(ValueError) as info:
        call(tmp_path)
    assert str(info.value) == message.format(tmp_path=tmp_path)


@pytest.mark.parametrize(
    "entry, where",
    [(1, "absolute"), (1, "parent"), (1, "subdirectory"), (None, "absolute")],
    ids=["entry-absolute", "entry-parent", "entry-subdirectory", "extractor-absolute"],
)
def test_load_zoo_refuses_a_file_outside_the_zoo_directory(tmp_path, entry, where):
    # each names a byte-identical copy, so its digest holds (was loaded from there)
    out = _build_test_zoo(tmp_path)
    manifest = json.loads((out / "zoo.json").read_bytes())
    record, key = (manifest, "extractor") if entry is None else (manifest["entries"][entry], "file")
    source = out / record[key]
    copy = (out / "sub" if where == "subdirectory" else tmp_path / "outside") / source.name  # out is tmp_path / "zoo"
    copy.parent.mkdir()
    shutil.copyfile(source, copy)
    name = {"absolute": str(copy), "parent": f"../outside/{source.name}", "subdirectory": f"sub/{source.name}"}[where]
    record[key] = name
    (out / "zoo.json").write_bytes(json.dumps(manifest).encode())
    what = "extractor" if entry is None else f"entry 'model{entry}'"
    with pytest.raises(ValueError, match=rf"^{what}: no file '{re.escape(name)}' in the zoo directory$"):
        load_zoo(out)


def test_load_zoo_rejects_mixed_dims(tmp_path):
    out = _build_test_zoo(tmp_path)
    manifest = json.loads((out / "zoo.json").read_bytes())
    manifest["entries"][0]["representation"] = [0.0, 1.0]  # wrong d
    (out / "zoo.json").write_bytes(json.dumps(manifest).encode())
    with pytest.raises(ValueError, match="dim"):
        load_zoo(out)


@pytest.mark.parametrize(
    "field, value, message",
    [("horizon", 5, "horizon 5 != horizon 4"), ("input_len", 10, "input_len 10 != extractor input_len 12")],
)
def test_load_zoo_rejects_mismatched_entry_shapes(tmp_path, field, value, message):
    out = _build_test_zoo(tmp_path)
    manifest = json.loads((out / "zoo.json").read_bytes())
    manifest["entries"][2][field] = value
    (out / "zoo.json").write_bytes(json.dumps(manifest).encode())
    with pytest.raises(ValueError, match=f"entry 'model2': {message}"):
        load_zoo(out)


def test_load_zoo_rejects_duplicate_model_ids(tmp_path):
    out = _build_test_zoo(tmp_path)
    manifest = json.loads((out / "zoo.json").read_bytes())
    manifest["entries"][1]["model_id"] = manifest["entries"][0]["model_id"]
    (out / "zoo.json").write_bytes(json.dumps(manifest).encode())
    with pytest.raises(ValueError, match="duplicate model_id 'model0'"):
        load_zoo(out)


@pytest.mark.parametrize(
    "entries, message",
    [
        ([("a", 36, 12, [1.0, 1.0, 1.0])], r"entry 'a': representation shape \(3,\) != extractor dim \(4,\)"),
        ([("a", 36, 12, [1.0] * 4), ("b", 36, 12, [1.0, np.nan, 0.0, 0.0])], "entry 'b': non-finite representation"),
        ([("a", 36, 12, [1.0] * 4), ("b", 36, 12, [1e160, 0.0, 0.0, 0.0])], "entry 'b': representation norm overflows"),
        ([("a", 36, 12, [1.0] * 4), ("b", 12, 12, [1.0] * 4)], "entry 'b': input_len 12 != extractor input_len 36"),
        ([("a", 36, 12, [1.0] * 4), ("b", 36, 6, [1.0] * 4)], "entry 'b': horizon 6 != horizon 12 of entry 'a'"),
        ([], "need at least one model"),
        ([("a", 36, 12, [1.0] * 4), ("a", 36, 12, [0.0] * 4)], "duplicate model_id 'a'"),
    ],
    ids=["dim", "nan", "norm-overflow", "input_len", "horizon", "empty", "duplicate"],
)
def test_in_memory_zoo_is_checked_at_construction(entries, message):
    params = init_params(36, 8, 4, seed=0)
    with pytest.raises(ValueError, match=message):
        Zoo([ModelEntry(m, "", "", "d", n, h, np.asarray(rep)) for m, n, h, rep in entries], params)
    if len({m for m, *_ in entries}) == len(entries):  # zoo_from_models takes ids as dict keys
        models = {m: make_baseline("last", n, h) for m, n, h, _ in entries}
        with pytest.raises(ValueError, match=message):
            zoo_from_models(models, params, {m: rep for m, _, _, rep in entries})


@pytest.mark.parametrize(
    "spec", [ForecasterSpec("linear", 12, 6), ForecasterSpec("linear", 10, 4)], ids=["horizon", "input_len"]
)
def test_build_zoo_rejects_mismatched_entry_shapes(tmp_path, spec):
    extractor_file = tmp_path / "extractor.json"
    extractor_file.write_bytes(save_extractor(init_params(12, 8, 4, seed=0)))
    data = _dataset(seed=1, length=100)
    paths = []
    for name, model_spec in (("good", ForecasterSpec("linear", 12, 4)), ("odd", spec)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_bytes(save_model(train(model_spec, data, TrainConfig(epochs=1))))
    with pytest.raises(ValueError, match="entry 'odd'"):
        build_zoo(paths, [data, data], extractor_file, tmp_path / "zoo")
    assert not (tmp_path / "zoo").exists()


def test_forecaster_rejects_a_manifest_horizon_its_model_does_not_have(tmp_path):
    out = _build_test_zoo(tmp_path)
    manifest = json.loads((out / "zoo.json").read_bytes())
    for entry in manifest["entries"]:
        entry["horizon"] = 5
    (out / "zoo.json").write_bytes(json.dumps(manifest).encode())
    zoo = load_zoo(out)  # consistent on its own: every entry says 5
    assert zoo.horizon == 5
    with pytest.raises(ValueError, match=r"^entry 'model1': horizon 5 != horizon 4 of its model file model1\.model\.json$"):
        zoo.forecaster("model1")
    assert "model1" not in zoo._cache


def test_forecaster_rejects_a_model_file_of_another_input_len(tmp_path):
    out = _build_test_zoo(tmp_path)
    blob = save_model(train(ForecasterSpec("linear", 10, 4), _dataset(seed=1, length=100), TrainConfig(epochs=1)))
    (out / "model0.model.json").write_bytes(blob)
    manifest = json.loads((out / "zoo.json").read_bytes())
    manifest["entries"][0]["digest"] = hashlib.sha256(blob).hexdigest()
    (out / "zoo.json").write_bytes(json.dumps(manifest).encode())
    zoo = load_zoo(out)
    with pytest.raises(ValueError, match=r"^entry 'model0': input_len 12 != input_len 10 of its model file"):
        zoo.forecaster("model0")
    zoo.forecaster("model1")


def test_zoo_loading_never_mutates_files(tmp_path):
    out = _build_test_zoo(tmp_path)
    digests_before = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    zoo = load_zoo(out)
    for entry in zoo.entries:
        zoo.forecaster(entry.model_id)
    digests_after = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests_before == digests_after


def test_representation_exhaustive_mean_on_tiny_dataset(params):
    # sample_count large relative to the few distinct windows: mean over
    # draws converges to the mean over the uniform distribution; with one
    # possible window it is exactly the single encoding
    values = np.linspace(0.0, 1.0, 12)[:, None]
    data = Dataset(series=MultivariateSeries(values), name="single")
    rep = compute_model_representation(params, data, sample_count=5, seed=0)
    window, _ = normalize(values[:, 0])
    np.testing.assert_allclose(rep, encode(params, window), atol=1e-12)


def test_zoo_keeps_an_encoder_only_extractor(tmp_path):
    out = _build_test_zoo(tmp_path)
    blob = (out / "extractor.json").read_bytes()
    payload = json.loads(blob)
    assert sorted(payload["weights"]) == sorted(ENCODER_TENSORS)
    assert payload["training_log"] == []
    assert json.loads((out / "zoo.json").read_bytes())["extractor_digest"] == hashlib.sha256(blob).hexdigest()
    trained = load_extractor((tmp_path / "extractor.json").read_bytes())[0]
    assert sorted(trained.weights) == sorted(ENCODER_TENSORS + DECODER_TENSORS)
    for name in ENCODER_TENSORS:
        assert load_zoo(out).extractor_params.weights[name].tobytes() == trained.weights[name].tobytes()


def test_zoo_with_a_full_extractor_forecasts_like_the_encoder_only_one(tmp_path):
    """A zoo built before the zoo kept only the encoder holds all eight
    tensors in its extractor.json; it loads and forecasts the same bytes."""
    out = _build_test_zoo(tmp_path)
    full = tmp_path / "full"
    shutil.copytree(out, full)
    blob = (tmp_path / "extractor.json").read_bytes()
    (full / "extractor.json").write_bytes(blob)
    manifest = json.loads((full / "zoo.json").read_bytes())
    manifest["extractor_digest"] = hashlib.sha256(blob).hexdigest()
    (full / "zoo.json").write_bytes(json.dumps(manifest).encode())

    values = np.stack([_dataset(seed=s, length=40).series.values[:, 0] for s in (20, 21, 22)], axis=1)
    cfg = FusionConfig(horizon=9, top_k=2)
    results = [forecast_multivariate(load_zoo(d), MultivariateSeries(values[-12:]), cfg) for d in (out, full)]
    (pred_a, sel_a, _), (pred_b, sel_b, _) = results
    assert len(load_zoo(full).extractor_params.weights) == 8
    assert pred_a.values.tobytes() == pred_b.values.tobytes()
    assert [s.ranking for s in sel_a] == [s.ranking for s in sel_b]
