import hashlib
import json

import numpy as np
import pytest

from zoocast.bench import SyntheticFamilySpec, generate_synthetic
from zoocast.core import Dataset, MultivariateSeries, normalize
from zoocast.extractor import encode, encode_batch, init_params, save as save_extractor
from zoocast.forecasters import Forecaster, ForecasterSpec, TrainConfig, save as save_model, train
from zoocast.zoo import (
    TransferMatrix,
    build_zoo,
    compute_model_representation,
    compute_transfer_matrix,
    load_zoo,
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
    rng = np.random.default_rng(4)
    data = _dataset(seed=4)
    rep = compute_model_representation(params, data, sample_count=2, seed=7)
    # replay the sampling to find the two windows, then average by hand
    series = data.series
    rng2 = np.random.default_rng(7)
    encodings = []
    for _ in range(2):
        c = int(rng2.integers(series.num_channels))
        start = int(rng2.integers(series.length - 12 + 1))
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
    assert abs(tm.score(base.name, twin.name) - tm.score(base.name, base.name)) < 0.05
    assert abs(tm.score(twin.name, base.name) - tm.score(twin.name, twin.name)) < 0.05


def test_transfer_matrix_noise_target_scores_lower():
    spec = ForecasterSpec("linear", input_len=12, horizon=4)
    cfg = TrainConfig(epochs=10, seed=0)
    clean = _dataset(kind="sine", seed=6, length=300)
    rng = np.random.default_rng(0)
    noise = Dataset(series=MultivariateSeries(rng.standard_normal((300, 1))), name="noise")
    tm, _ = compute_transfer_matrix([clean, noise], spec, cfg)
    assert tm.score(clean.name, noise.name) <= tm.score(clean.name, clean.name)


def test_transfer_matrix_constant_series_near_one():
    spec = ForecasterSpec("linear", input_len=8, horizon=2)
    cfg = TrainConfig(epochs=10, learning_rate=0.05, seed=0)
    const = Dataset(series=MultivariateSeries(np.full((200, 1), 3.0)), name="const")
    other = Dataset(series=MultivariateSeries(np.full((200, 1), 9.0)), name="const2")
    tm, _ = compute_transfer_matrix([const, other], spec, cfg)
    assert tm.score("const", "const") == pytest.approx(1.0, abs=0.05)


def test_transfer_matrix_copies_within_band():
    spec = ForecasterSpec("linear", input_len=12, horizon=4)
    cfg = TrainConfig(epochs=5, seed=0)
    base = _dataset(seed=8, length=260)
    copies = [Dataset(series=base.series, name=f"copy{i}") for i in range(3)]
    tm, _ = compute_transfer_matrix(copies, spec, cfg)
    assert tm.g.max() - tm.g.min() < 0.05


def test_transfer_matrix_round_trip_and_missing_pair():
    tm = TransferMatrix(dataset_names=("a", "b"), g=np.array([[0.9, 0.2], [0.1, 0.8]]))
    restored = TransferMatrix.from_bytes(tm.to_bytes())
    np.testing.assert_array_equal(restored.g, tm.g)
    assert restored.dataset_names == ("a", "b")
    with pytest.raises(KeyError, match="'c'"):
        tm.score("a", "c")


def test_transfer_matrix_propagates_training_error():
    spec = ForecasterSpec("linear", input_len=50, horizon=20)
    tiny = Dataset(series=MultivariateSeries(np.ones((30, 1))), name="tiny")
    other = Dataset(series=MultivariateSeries(np.ones((30, 1))), name="tiny2")
    with pytest.raises(ValueError, match="tiny"):
        compute_transfer_matrix([tiny, other], spec, TrainConfig())


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
    zoo = load_zoo(out)
    with pytest.raises(ValueError, match="digest mismatch"):
        zoo.forecaster("model1")


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
