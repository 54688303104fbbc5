import csv
import dataclasses
import errno
import json
import math
import os
import stat
import struct
import sys
import threading
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zoocast import bench, extractor, forecasters, fusion
from zoocast.core import (
    MAX_NESTING,
    MAX_SIZE,
    Dataset,
    MultivariateSeries,
    NormStats,
    Range,
    _nesting,
    canonical_json,
    check_fields,
    denormalize,
    init_uniform,
    load_csv,
    mape,
    mse,
    normalize,
    normalize_rows,
    read_artifact,
    sample_windows,
    smape,
    trim_to_last,
    write_csv,
    write_file,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
series_strategy = st.lists(finite_floats, min_size=1, max_size=50).map(np.array)


def test_normalize_constant_series_uses_fallback():
    norm, stats = normalize([5.0, 5.0, 5.0])
    np.testing.assert_array_equal(norm, [0.0, 0.0, 0.0])
    assert stats.mean == 5.0
    assert stats.std == 1.0


def test_normalize_reference_values():
    norm, stats = normalize([1.0, 2.0, 3.0])
    # population std of [1,2,3] is sqrt(2/3)
    expected_std = np.sqrt(2.0 / 3.0)
    assert stats.mean == pytest.approx(2.0)
    assert stats.std == pytest.approx(expected_std)
    np.testing.assert_allclose(norm, [-1.0 / expected_std, 0.0, 1.0 / expected_std], atol=1e-12)


def test_normalize_long_zero_series():
    norm, stats = normalize(np.zeros(36))
    assert np.all(norm == 0.0)
    assert stats.std == 1.0


@pytest.mark.parametrize("x", [np.full(16, 1e308), np.tile([1.7e308, -1.7e308], 8)], ids=["inf-std", "nan-std"])
def test_normalize_and_sample_windows_name_values_that_overflow(x):
    # the nan-std case once failed inside NormStats: "std must be positive"
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="^values overflow instance normalization$"):
            normalize(x)
    data = Dataset(MultivariateSeries(x), "huge")
    with pytest.raises(ValueError, match="^dataset 'huge': values overflow instance normalization$"):
        sample_windows(np.random.default_rng(0), data, 16, 4)


def test_normalize_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError, match="empty series"):
        normalize([])
    with pytest.raises(ValueError, match="non-finite"):
        normalize([1.0, np.nan])
    with pytest.raises(ValueError, match="non-finite"):
        normalize([1.0, np.inf])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: MultivariateSeries(np.zeros((3, 2)), channel_names=("a",)), "channel_names length does not match channel count"),
        (lambda: normalize(np.zeros((2, 3))), "expected 1-D series, got shape (2, 3)"),
        (
            lambda: extractor.ExtractorParams([1.0], 4, 3, 2),
            "extractor tensors list do not match ['V1', 'V2', 'W1', 'W2', 'b1', 'b2', 'c1', 'c2']",
        ),
    ],
    ids=["channel-names-length", "normalize-2d", "tensors-not-an-object"],
)
def test_entry_points_name_a_malformed_call(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_denormalize_examples():
    np.testing.assert_array_equal(denormalize([0.0, 0.0, 0.0], NormStats(5.0, 1.0)), [5.0, 5.0, 5.0])
    np.testing.assert_array_equal(denormalize([1.0], NormStats(0.0, 2.0)), [2.0])
    norm, stats = normalize([1.0, 2.0, 3.0])
    np.testing.assert_allclose(denormalize(norm, stats), [1.0, 2.0, 3.0], atol=1e-9)


def test_normstats_requires_positive_std():
    with pytest.raises(ValueError):
        NormStats(mean=0.0, std=0.0)


@given(series_strategy)
def test_normalize_round_trip(x):
    norm, stats = normalize(x)
    np.testing.assert_allclose(denormalize(norm, stats), x, atol=1e-9)


@given(series_strategy)
def test_normalize_output_statistics(x):
    norm, stats = normalize(x)
    assert abs(norm.mean()) < 1e-9
    if np.asarray(x).std() >= 1e-8:
        assert abs(norm.std() - 1.0) < 1e-9


row_matrix_strategy = st.tuples(st.integers(1, 12), st.integers(1, 40), st.integers(0, 2**32 - 1))


def _random_rows(shape_and_seed):
    """Random rows at mixed scales, a third of them flat."""
    rows, length, seed = shape_and_seed
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, length)) * 10.0 ** rng.uniform(-3, 3, size=(rows, 1))
    flat = rng.random(rows) < 1 / 3
    x[flat] = rng.normal(size=(int(flat.sum()), 1))
    return x


@given(row_matrix_strategy)
def test_normalize_rows_matches_normalize_bit_for_bit(shape_and_seed):
    x = _random_rows(shape_and_seed)
    # a transposed view must give the same bits as its contiguous rows
    for rows in (x, np.asfortranarray(x)):
        norm, mu, sigma = normalize_rows(rows)
        for i, row in enumerate(x):
            expected, stats = normalize(row)
            assert np.array_equal(norm[i], expected)
            assert (mu[i], sigma[i]) == (stats.mean, stats.std)


@given(row_matrix_strategy, st.integers(1, 12), st.integers(0, 20))
def test_sample_windows_matches_per_window_loop(shape_and_seed, length, count):
    values = _random_rows(shape_and_seed).T  # (T, C)
    data = Dataset(series=MultivariateSeries(values), name="d")
    if values.shape[0] < length:
        with pytest.raises(ValueError, match="no window"):
            sample_windows(np.random.default_rng(0), data, length, count)
        return
    rng, ref_rng = np.random.default_rng(1), np.random.default_rng(1)
    got = sample_windows(rng, data, length, count)
    assert got.shape == (count, length)
    # every window's channel, then every window's start
    channels = ref_rng.integers(values.shape[1], size=count)
    starts = ref_rng.integers(values.shape[0] - length + 1, size=count)
    for row, c, start in zip(got, channels, starts):
        assert np.array_equal(row, normalize(values[start : start + length, c])[0])
    assert rng.random() == ref_rng.random()  # same number of draws


def test_trim_to_last():
    np.testing.assert_array_equal(trim_to_last([1, 2, 3, 4, 5], 3), [3, 4, 5])
    np.testing.assert_array_equal(trim_to_last([1, 2], 2), [1, 2])
    with pytest.raises(ValueError, match="insufficient history"):
        trim_to_last([1, 2, 3], 4)


@given(series_strategy, st.integers(min_value=0, max_value=50))
def test_trim_suffix_reconstruction(x, n):
    n = min(n, len(x))
    if n == 0:
        return
    rebuilt = np.concatenate([x[: len(x) - n], trim_to_last(x, n)])
    np.testing.assert_array_equal(rebuilt, x)


# -- metric oracles ----------------------------------------------------------


def _mse_loop(t, p):
    total = 0.0
    for i in range(t.shape[0]):
        for j in range(t.shape[1]):
            total += (t[i, j] - p[i, j]) ** 2
    return total / (t.shape[0] * t.shape[1])


def _smape_loop(t, p):
    per_channel = []
    for j in range(t.shape[1]):
        acc = 0.0
        for i in range(t.shape[0]):
            denom = abs(t[i, j]) + abs(p[i, j])
            if denom >= 1e-8:
                acc += abs(t[i, j] - p[i, j]) / denom
        per_channel.append(200.0 * acc / t.shape[0])
    return sum(per_channel) / len(per_channel)


def _mape_loop(t, p):
    per_channel = []
    for j in range(t.shape[1]):
        acc, count = 0.0, 0
        for i in range(t.shape[0]):
            if abs(t[i, j]) >= 1e-8:
                acc += abs(t[i, j] - p[i, j]) / abs(t[i, j])
                count += 1
        if count:
            per_channel.append(100.0 * acc / count)
    return sum(per_channel) / len(per_channel)


def test_metric_hand_values():
    assert mse(np.array([[1.0], [2.0]]), np.array([[2.0], [4.0]])) == pytest.approx(2.5)
    assert smape(np.array([[1.0]]), np.array([[3.0]])) == pytest.approx(100.0)
    assert mape(np.array([[2.0]]), np.array([[1.0]])) == pytest.approx(50.0)
    same = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert mse(same, same) == 0.0
    assert smape(same, same) == 0.0
    assert mape(same, same) == 0.0


def test_metrics_match_double_loop_oracle():
    rng = np.random.default_rng(7)
    for _ in range(100):
        h = int(rng.integers(1, 11))
        c = int(rng.integers(1, 11))
        t = rng.uniform(-10, 10, size=(h, c))
        p = rng.uniform(-10, 10, size=(h, c))
        assert mse(t, p) == pytest.approx(_mse_loop(t, p), abs=1e-9)
        assert smape(t, p) == pytest.approx(_smape_loop(t, p), abs=1e-9)
        assert mape(t, p) == pytest.approx(_mape_loop(t, p), abs=1e-9)


def test_metric_scale_behavior():
    rng = np.random.default_rng(11)
    t = rng.uniform(0.5, 5.0, size=(8, 3))
    p = rng.uniform(0.5, 5.0, size=(8, 3))
    for c in (0.1, 2.0, 17.5):
        assert smape(c * t, c * p) == pytest.approx(smape(t, p), abs=1e-9)
        assert mape(c * t, c * p) == pytest.approx(mape(t, p), abs=1e-9)
        assert mse(c * t, c * p) == pytest.approx(c**2 * mse(t, p), rel=1e-9)


def test_metric_shape_mismatch_and_zero_truth():
    with pytest.raises(ValueError, match="shape mismatch"):
        mse(np.zeros((2, 1)), np.zeros((3, 1)))
    with pytest.raises(ValueError, match="undefined MAPE"):
        mape(np.zeros((2, 1)), np.ones((2, 1)))


def test_mse_random8x3_equals_oracle():
    rng = np.random.default_rng(3)
    t, p = rng.normal(size=(8, 3)), rng.normal(size=(8, 3))
    assert mse(t, p) == pytest.approx(_mse_loop(t, p), abs=1e-12)


@given(row_matrix_strategy, st.sampled_from(["vector", "matrix", "transposed", "mixed"]))
def test_mse_matches_np_mean_form_bit_for_bit(shape_and_seed, layout):
    t = _random_rows(shape_and_seed)
    p = t + np.random.default_rng(shape_and_seed[2]).normal(size=t.shape)
    if layout == "vector":
        t, p = t[0], p[0]
    elif layout == "transposed":  # (H, C) views whose H axis is strided
        t, p = t.T, p.T
    elif layout == "mixed":  # a C-ordered truth against a transposed forecast
        t, p = np.ascontiguousarray(t.T), p.T
    assert mse(t, p) == float(np.mean((t - p) ** 2))


@given(
    st.sampled_from([mse, smape, mape]),
    st.integers(1, 5),
    st.integers(1, 48) | st.just(3000),
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["window-major", "channel-rows", "contiguous"]),
    st.booleans(),
    st.sampled_from([0.0, 0.3, 0.9]),
)
def test_stacked_metrics_equal_each_windows_call_bit_for_bit(
    metric, windows, horizon, channels, seed, layout, f_ordered_truth, zero_share
):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3)
    if f_ordered_truth:  # (H, C) windows whose H axis is contiguous
        truth = rng.normal(size=(windows, channels, horizon)).transpose(0, 2, 1) * scale
    else:  # truths tiled out of one (length, C) series, as the harness does
        series = rng.normal(size=(windows * (horizon + 3), channels)) * scale
        truth = series.reshape(windows, horizon + 3, channels)[:, 3:]
    truth[rng.random(truth.shape) < zero_share] = 0.0  # in place, so the truth keeps its layout
    noise = rng.normal(size=windows * horizon * channels) * scale
    if layout == "window-major":  # a stacked (H, W*C) forecast, unstacked
        pred = noise.reshape(horizon, windows, channels).transpose(1, 0, 2)
    elif layout == "channel-rows":  # a (W*C, H) batch of per-channel rows
        pred = noise.reshape(windows, channels, horizon).transpose(0, 2, 1)
    else:
        pred = noise.reshape(windows, horizon, channels)
    pred += truth  # in place, so the forecast keeps its layout
    if metric is mape and not (np.abs(truth) >= 1e-8).any(axis=(1, 2)).all():
        with pytest.raises(ValueError, match="^undefined MAPE: all truth entries are zero$"):
            metric(truth, pred)
        return
    stacked = metric(truth, pred)
    assert stacked.shape == (windows,)
    for i in range(windows):
        assert stacked[i] == metric(truth[i], pred[i])
        if metric is mse:
            assert stacked[i] == float(np.mean((truth[i] - pred[i]) ** 2))


# -- containers and CSV ------------------------------------------------------


def test_multivariate_series_invariants():
    with pytest.raises(ValueError):
        MultivariateSeries(np.empty((0, 2)))
    with pytest.raises(ValueError):
        MultivariateSeries(np.array([[1.0, np.nan]]))
    s = MultivariateSeries(np.ones((4, 2)), channel_names=("a", "b"))
    assert s.length == 4 and s.num_channels == 2


@pytest.mark.parametrize(
    "values",
    [np.asfortranarray(np.arange(12.0).reshape(4, 3)), np.arange(24.0).reshape(4, 6)[:, ::2], np.arange(4.0)[::-1]],
    ids=["fortran", "column-strided", "reversed"],
)
def test_multivariate_series_stores_c_contiguous_values(values):
    # a Fortran-ordered series once kept its layout, and its windows were summed in another order
    s = MultivariateSeries(values)
    assert s.values.flags.c_contiguous
    assert np.array_equal(s.values, values.reshape(len(values), -1))


@pytest.mark.parametrize("values", [5.0, np.ones((2, 2, 2))])
def test_multivariate_series_names_a_shape_that_is_not_t_by_c(values):
    with pytest.raises(ValueError, match=r"^expected \(T, C\) with T, C >= 1, got shape \("):
        MultivariateSeries(values)


def test_load_csv_basic(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("date,a,b\n2020-01-01,1.0,4\n2020-01-02,2.5,5\n2020-01-03,3e0,6\n")
    data = load_csv(path)
    assert data.name == "tiny"
    assert data.series.num_channels == 2
    assert data.series.length == 3
    np.testing.assert_array_equal(data.series.channel(0), [1.0, 2.5, 3.0])
    assert data.series.channel_names == ("a", "b")


def test_load_csv_errors(tmp_path):
    nan_file = tmp_path / "bad.csv"
    nan_file.write_text("date,a\n1,1.0\n2,NaN\n")
    with pytest.raises(ValueError, match="row 3"):
        load_csv(nan_file)

    ragged = tmp_path / "ragged.csv"
    ragged.write_text("date,a,b\n1,1.0,2.0\n2,1.0\n")
    with pytest.raises(ValueError, match="row 3"):
        load_csv(ragged)

    narrow = tmp_path / "narrow.csv"
    narrow.write_text("date\n1\n")
    with pytest.raises(ValueError, match="2 columns"):
        load_csv(narrow)

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty file"):
        load_csv(empty)

    text = tmp_path / "text.csv"
    text.write_text("date,a\n1,hello\n")
    with pytest.raises(ValueError, match="non-numeric"):
        load_csv(text)

    # csv.Error is no ValueError: every command that reads a CSV once printed its traceback
    long = tmp_path / "long.csv"
    limit = csv.field_size_limit()
    long.write_text(f"date,a\n1,1.0\n2,{'1' * (limit + 1)}\n")
    with pytest.raises(ValueError, match=rf"^long\.csv: line 3: field larger than field limit \({limit}\)$"):
        load_csv(long)


@pytest.mark.parametrize("text", ["date,a\n1,1.0,2.0\n2,1.0,2.0\n", "date,a,b\n1,1.0\n2,1.0\n"])
def test_load_csv_names_the_first_row_whose_width_differs_from_the_header(tmp_path, text):
    # rows that agree with each other but not with the header once failed unnamed
    path = tmp_path / "wide.csv"
    path.write_text(text)
    width, got = len(text.split("\n")[0].split(",")), len(text.split("\n")[1].split(","))
    with pytest.raises(ValueError, match=rf"^wide\.csv: row 2: expected {width} columns, got {got}$"):
        load_csv(path)


def test_load_csv_names_the_file_and_line_of_non_utf8_text(tmp_path):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"date,a\n1,1.0\n2,caf\xe9\n")
    with pytest.raises(ValueError, match=r"^latin\.csv: line 3: not UTF-8 text \(byte 0xe9\)$"):
        load_csv(path)
    path.write_bytes(b"\xffdate,a\n1,1.0\n")
    with pytest.raises(ValueError, match=r"^latin\.csv: line 1: not UTF-8 text \(byte 0xff\)$"):
        load_csv(path)


def test_load_csv_etth_format(tmp_path):
    # benchmark layout: date column plus 7 numeric channels
    path = tmp_path / "etth_like.csv"
    header = "date," + ",".join(f"f{i}" for i in range(7))
    rows = [f"2016-07-0{r + 1}," + ",".join(str(r + i * 0.1) for i in range(7)) for r in range(5)]
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    data = load_csv(path)
    assert data.series.num_channels == 7


@settings(max_examples=50)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12), st.integers(1, 3))
def test_write_csv_round_trips_every_float_through_load_csv(tmp_path_factory, values, channels):
    rows = np.resize(np.array(values), (len(values), channels))
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    write_csv(path, ["t"] + [f"c{c}" for c in range(channels)], ([t, *row] for t, row in enumerate(rows)))
    assert np.array_equal(load_csv(path).series.values, rows)
    lines = path.read_bytes().split(b"\r\n")
    assert lines[0] == b"t," + b",".join(f"c{c}".encode() for c in range(channels))
    assert lines[1] == ("0," + ",".join(repr(float(v)) for v in rows[0])).encode()


def test_load_csv_reads_a_fifo_fed_by_a_writer(tmp_path, no_hang):
    # only zoo files must be regular files: a query or a config may come through a pipe
    path = tmp_path / "q.csv"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_text, args=("t,a\n0,1.5\n1,2.5\n",), daemon=True)
    writer.start()
    data = load_csv(path)
    writer.join(10)
    assert data.name == "q" and data.series.values.tolist() == [[1.5], [2.5]]


def test_write_file_over_a_longer_file_leaves_exactly_the_new_bytes(tmp_path):
    path, link = tmp_path / "a.json", tmp_path / "b.json"
    path.write_bytes(canonical_json({"a": list(range(100)), "b": "x" * 50}))
    path.chmod(0o640)
    os.link(path, link)
    inode = path.stat().st_ino
    new = canonical_json({"a": [1]})
    write_file(path, new)
    assert path.read_bytes() == new == link.read_bytes()  # the hard link sees the same file
    assert path.stat().st_ino == inode and stat.S_IMODE(path.stat().st_mode) == 0o640
    write_file(path, b"")
    assert path.read_bytes() == b""


def test_write_file_creates_a_file_as_write_bytes_does(tmp_path):
    write_file(tmp_path / "new.json", b"{}")
    (tmp_path / "old.json").write_bytes(b"{}")
    assert (tmp_path / "new.json").read_bytes() == b"{}"
    assert (tmp_path / "new.json").stat().st_mode == (tmp_path / "old.json").stat().st_mode


def test_a_failed_write_leaves_a_prefix_of_the_new_bytes(tmp_path, monkeypatch):
    path = tmp_path / "a.json"
    path.write_bytes(b"o" * 100)
    real_write, calls = os.write, []

    def three_bytes_then_a_full_disk(fd, data):
        calls.append(len(data))
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real_write(fd, data[:3])

    with monkeypatch.context() as m:
        m.setattr(os, "write", three_bytes_then_a_full_disk)
        with pytest.raises(OSError, match="No space left on device"):
            write_file(path, b"new bytes")
    assert calls == [9, 6]
    assert path.read_bytes() == b"new"


def test_write_file_writes_a_fifo_as_it_is(tmp_path, no_hang):
    # a FIFO cannot be cut: writing one must not call ftruncate
    path = tmp_path / "pipe"
    os.mkfifo(path)
    read = []
    reader = threading.Thread(target=lambda: read.append(path.read_bytes()), daemon=True)
    reader.start()
    write_file(path, b"through the pipe")
    reader.join(10)
    assert read == [b"through the pipe"]


def test_write_csv_overwrites_a_longer_csv(tmp_path):
    path = tmp_path / "d.csv"
    write_csv(path, ["t", "a"], ([t, float(t)] for t in range(50)))
    write_csv(path, ["t", "a"], [[0, 0.5]])
    assert path.read_bytes() == b"t,a\r\n0,0.5\r\n"


# -- field kinds and ranges ----------------------------------------------------


@pytest.mark.parametrize(
    "kind, value, message",
    [
        (Range(int, 1, MAX_SIZE), 2.0, "field 'x' must be an integer, got 2.0"),
        (Range(int, 1, MAX_SIZE), 0, "field 'x' must be >= 1, got 0"),
        (Range(int, 1, MAX_SIZE), 2**62, f"field 'x' must be at most 1048576, got {2**62}"),
        (Range(float, 0, open=True), 0.0, "field 'x' must be > 0, got 0.0"),
        (Range(float, 0, 1, open=True), 1.0, "field 'x' must be in (0, 1), got 1.0"),
        (Range(float, 0), -0.5, "field 'x' must be >= 0, got -0.5"),
        (Range(list[int], 1, MAX_SIZE), (6, -8), "field 'x' must be >= 1, got -8"),
        (Range(list[int], 1, MAX_SIZE), (6, 8.0), "field 'x' must be a list of integers, got (6, 8.0)"),
        (Range(list[int], 1, MAX_SIZE), (), "field 'x' must be nonempty"),
    ],
)
def test_check_fields_names_the_field_and_the_value_out_of_kind_or_range(kind, value, message):
    with pytest.raises(ValueError) as fault:
        check_fields({"x": value}, {"x": kind}, "field")
    assert str(fault.value) == message


@pytest.mark.parametrize("kind, value", [(Range(int, 1, MAX_SIZE), MAX_SIZE), (Range(float, 0, 1, open=True), 0.5), (Range(int, 0), 0)])
def test_check_fields_takes_a_value_on_or_inside_its_bounds(kind, value):
    check_fields({"x": value}, {"x": kind}, "field")


# every config class, the kinds it declares for its fields, and fields that build it
CONFIGS = [
    (fusion.FusionConfig, fusion.FUSION_CONFIG_KINDS, {"horizon": 12}),
    (forecasters.ForecasterSpec, forecasters.SPEC_SIZES, {"architecture": "patch_mlp", "input_len": 36, "horizon": 12}),
    (forecasters.TrainConfig, forecasters.TRAIN_CONFIG_KINDS, {}),
    (extractor.ExtractorTrainConfig, extractor.EXTRACTOR_CONFIG_KINDS, {}),
    (extractor.MaskSpec, extractor.MASK_SPEC_KINDS, {}),
    (extractor.ExtractorParams, extractor.PARAMS_KINDS,
     {"weights": extractor.init_params(6, 4, 2, 0).weights, "input_len": 6, "hidden_dim": 4, "repr_dim": 2}),
    (bench.SyntheticFamilySpec, bench.SYNTH_SPEC_KINDS, {"kind": "sine"}),
    (bench.BenchConfig, bench.BENCH_CONFIG_KINDS, {}),
]


def _just_outside(kind) -> list:
    """Values just outside a declared kind: a non-finite number for a plain
    float, the nearest values past each finite bound of a range (for a
    list kind, as a one-item list), and none for a kind of no number."""
    if kind is float:
        return [math.inf]
    if not isinstance(kind, Range):
        return []
    item = kind.kind.__args__[0] if isinstance(kind.kind, types.GenericAlias) else kind.kind
    past = (lambda bound, way: bound + way) if item is int else (lambda bound, way: math.nextafter(bound, way * math.inf))
    values = [kind.low if kind.open else past(kind.low, -1)]
    if kind.high != math.inf:
        values.append(kind.high if kind.open else past(kind.high, 1))
    return [[v] for v in values] if item is not kind.kind else values


@pytest.mark.parametrize("cls, kinds, fields", CONFIGS, ids=[cls.__name__ for cls, _, _ in CONFIGS])
def test_every_config_number_field_declares_a_range_and_rejects_a_value_just_outside_it(cls, kinds, fields):
    numbers = [f.name for f in dataclasses.fields(cls) if "int" in f.type or "float" in f.type]
    assert numbers and all(isinstance(kinds.get(name), Range) or kinds.get(name) is float for name in numbers), kinds
    cls(**fields)
    for name, kind in kinds.items():
        for value in _just_outside(kind):
            with pytest.raises(ValueError, match=rf"^field '{name}' must be "):
                cls(**{**fields, name: value})


def test_init_uniform_names_a_tensor_of_more_than_max_size_values_before_drawing():
    # the first tensor fits, so a drawing initializer would allocate it before the second failed
    with pytest.raises(ValueError, match=rf"^weight tensor 'big' of shape \(1024, 1025\) would hold more than {MAX_SIZE} values$"):
        init_uniform({"small": (1024, 1024), "big": (1024, 1025)}, 0)


# -- artifact JSON -------------------------------------------------------------

# any finite float64: hypothesis's own draws (subnormals included) and raw bit patterns
float64_bits = st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
any_finite_float = st.floats(allow_nan=False, allow_infinity=False) | float64_bits.filter(math.isfinite)


@settings(max_examples=300)
@given(st.lists(any_finite_float | st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, sys.float_info.max]), max_size=64))
def test_read_artifact_returns_every_float_that_canonical_json_wrote_with_its_bits(values):
    bits = np.array(values, dtype=np.float64).view(np.uint64)
    payload = read_artifact(canonical_json({"list": values, "array": np.array(values)}), "model", None, {})
    for decoded in (payload["list"], payload["array"]):
        assert all(type(value) is float for value in decoded)
        assert np.array_equal(np.array(decoded, dtype=np.float64).view(np.uint64), bits)


STRICT_JSON_FAULTS = {
    "NaN": (b'{"x": NaN}', "unexpected character: line 1 column 7 (char 6)"),
    "Infinity": (b'{"x": Infinity}', "unexpected character: line 1 column 7 (char 6)"),
    "-Infinity": (b'{"x": -Infinity}', "no digit after minus sign: line 1 column 7 (char 6)"),
    "overflow": (b'{"x": 1e400}', "number is infinity when parsed as double: line 1 column 7 (char 6)"),
    "utf-8 bom": (b'\xef\xbb\xbf{"x": 1}', "byte order mark (BOM) is not supported: line 1 column 1 (char 0)"),
    "utf-16": ('{"x": 1}'.encode("utf-16"), "str is not valid UTF-8: surrogates not allowed: line 1 column 1 (char 0)"),
    "utf-32": ('{"x": 1}'.encode("utf-32"), "str is not valid UTF-8: surrogates not allowed: line 1 column 1 (char 0)"),
    "escaped lone surrogate": (b'{"x": "\\ud800"}', "no matched low surrogate in string: line 1 column 14 (char 13)"),
}


@pytest.mark.parametrize("blob, fault", STRICT_JSON_FAULTS.values(), ids=STRICT_JSON_FAULTS.keys())
def test_read_artifact_refuses_json_that_the_stdlib_reader_takes(blob, fault):
    json.loads(blob)  # the stdlib reader this one replaced took every one of these
    with pytest.raises(ValueError) as refused:
        read_artifact(blob, "model", None, {})
    assert str(refused.value) == f"malformed model file: {fault}"


def test_read_artifact_refuses_a_utf8_encoded_lone_surrogate():
    with pytest.raises(ValueError) as refused:
        read_artifact(b'{"x": "\xed\xa0\x80"}', "model", None, {})
    assert str(refused.value) == "malformed model file: str is not valid UTF-8: surrogates not allowed: line 1 column 1 (char 0)"


def test_read_artifact_decodes_an_integer_beyond_64_bits_as_a_float():
    assert read_artifact(b'{"x": 18446744073709551615, "y": 18446744073709551616}', "model", None, {}) == {
        "x": 2**64 - 1, "y": float(2**64)
    }


def _nested(depth, ahead=b""):
    """An object whose field "x" nests `depth` deep in all, after `ahead`."""
    return b'{"s": "' + ahead + b'", "x": ' + b"[" * (depth - 1) + b"0" + b"]" * (depth - 1) + b"}"


@pytest.mark.parametrize("ahead", [b"", b"]" * 100_000, b'\\"]}]}', b"\\\\", b'\\\\\\"]]'], ids=["bare", "brackets", "escaped quote", "escaped backslash", "both"])
def test_read_artifact_refuses_nesting_deeper_than_max_nesting_whatever_a_string_ahead_holds(ahead):
    assert read_artifact(_nested(MAX_NESTING, ahead), "model", None, {})["s"] == json.loads(_nested(1, ahead))["s"]
    with pytest.raises(ValueError, match=rf"^malformed model file: nested deeper than {MAX_NESTING}$"):
        read_artifact(_nested(MAX_NESTING + 1, ahead), "model", None, {})


def _depth(value) -> int:
    if isinstance(value, (list, dict)):
        return 1 + max(map(_depth, value.values() if isinstance(value, dict) else value), default=0)
    return 0


TRICKY_TEXT = st.text(alphabet='[]{}"\\\n\u00e9\U0001f600 ab', max_size=6)
NESTED_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | TRICKY_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TRICKY_TEXT, inner, max_size=3),
    max_leaves=20,
)


@settings(max_examples=300)
@given(NESTED_JSON, st.booleans())
def test_nesting_counts_brackets_outside_strings_only(value, ascii_only):
    assert _nesting(json.dumps(value, ensure_ascii=ascii_only).encode()) == _depth(value)
